#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <paper-tumbling|skewed-churn|tenants-bursty>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--in-flight <n>] [--cache-capacity <n>]

Run it from the repository root. The benchmark is a cargo package of its
own (perfbench/Cargo.toml) that builds the program's crates by path; the
build goes to $CARGO_TARGET_DIR when set, else perfbench/target. All
arguments are passed to the benchmark binary, whose last line of stdout is
the result object. Exits non-zero, printing no result, when the build or the
run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

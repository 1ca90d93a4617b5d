#!/usr/bin/env python3
"""Runs workloads several times and reports how steady each end-to-end metric is.

    python3 perfbench/steady.py [--workload NAME ...] [--runs N] [--seed-base S]
                                [--seconds T]

Run it from the repository root. Each run is one call of perfbench/run.py
with --trace 0 and its own seed (seed-base, seed-base + 1, ...). For every
workload and end-to-end metric it prints the median, the first and third
quartiles (Python's statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and that spread as a fraction of the metric's bound in
BENCHMARK.json ("-" for a figure printed but not bounded there). It also prints each workload's share of failed windows.
Defaults: every workload in BENCHMARK.json, 10 runs, seed-base 1, the
benchmark's run_seconds. Exits non-zero when a run fails or is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    result = json.loads(lines[-1])
    # Every end-to-end figure, bounded or not, is on the "figures:" line.
    for line in lines:
        if line.startswith("figures: "):
            result["figures"] = {k: float(v) for k, v in
                                 (f.split("=") for f in line.split()[1:])}
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: result not correct")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(f"{args.runs} runs of {args.seconds} s per workload, seeds "
          f"{args.seed_base}..{args.seed_base + args.runs - 1}")
    for workload in workloads:
        results = []
        for k in range(args.runs):
            seed = args.seed_base + k
            r = run_once(workload, seed, args.seconds)
            results.append(r)
            row = " ".join(f"{n}={v:.6g}" for n, v in r["figures"].items())
            print(f"  {workload} seed {seed}: {row}", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {attempted} windows checked, {failed} failed "
              f"(failed shares per run: {shares})")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'/bound':>7}")
        for name in results[0]["figures"]:
            values = [r["figures"][name] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            of_bound = f"{spread / bound:7.2f}" if bound else "      -"
            print(f"  {name:<16} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {of_bound}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

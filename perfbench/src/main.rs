//! Repository benchmark of the stream reasoner.
//!
//! ```text
//! perfbench --workload <paper-tumbling|skewed-churn|tenants-bursty>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--in-flight <n>] [--cache-capacity <n>]
//! ```
//!
//! Builds the workload's engine from program text (timed, as `setup_s`),
//! warms it up until per-window latency is level, then serves windows in a
//! closed loop for `--seconds` and checks every answer against an
//! independent evaluator. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` serves for half the time and then replays the same windows
//! layer by layer, printing the per-layer metrics. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--in-flight` and `--cache-capacity` override the workload's engine
//! settings, to measure what a knob costs.

mod measure;
mod oracle;
mod selftest;
mod setup;
mod trace;
mod workload;

use measure::{Checker, Generator, Replay};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;
use workload::{Engine, Overrides, Settings, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    overrides: Overrides,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper-tumbling|skewed-churn|tenants-bursty> --seed <n> \
         --seconds <s> --trace <0|1> [--in-flight <n>] [--cache-capacity <n>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied();
    let num = |name: &str| -> Option<u64> {
        get(name).map(|v| v.parse().unwrap_or_else(|_| usage(&format!("{name}: not a number"))))
    };
    let workload = get("--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload =
        Workload::parse(workload).unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    let seconds: f64 = get("--seconds")
        .map(|v| v.parse().unwrap_or_else(|_| usage("--seconds: not a number")))
        .unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    for flag in flags.keys() {
        if !["--workload", "--seed", "--seconds", "--trace", "--in-flight", "--cache-capacity"]
            .contains(flag)
        {
            usage(&format!("unknown flag {flag}"));
        }
    }
    Args {
        workload,
        seed: num("--seed").unwrap_or(1),
        seconds,
        trace: num("--trace").unwrap_or(0) != 0,
        overrides: Overrides {
            in_flight: num("--in-flight").map(|n| n.max(1) as usize),
            cache_capacity: num("--cache-capacity").map(|n| n as usize),
        },
    }
}

/// The end-to-end figures held to a bound in `BENCHMARK.json`, and so the
/// ones in the result object. Throughput and latency are printed on the
/// `figures:` line only: on a host whose hypervisor steals a varying share
/// of CPU time they move by more than any bound between runs.
const BOUNDED: [&str; 3] = ["cpu_us_per_item", "peak_rss_mb", "setup_s"];

/// Warm-up of each workload: at least this many windows, judged level in
/// blocks of this many. The tenants workload warms past its cache's fill.
fn warm_up_plan(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::PaperTumbling => (16, 8),
        Workload::SkewedChurn => (80, 40),
        Workload::TenantsBursty => (160, 40),
    }
}

fn or_exit<T>(result: Result<T, String>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what} failed: {e}");
        std::process::exit(1)
    })
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = parse_args();
    let name = match args.workload {
        Workload::PaperTumbling => "paper-tumbling",
        Workload::SkewedChurn => "skewed-churn",
        Workload::TenantsBursty => "tenants-bursty",
    };
    or_exit(selftest::run(), "self-test");
    println!("self-test: hand-worked answers match; a dropped derived atom fails the window");

    let settings = Settings::of(args.workload, args.overrides);
    println!("workload {name}, seed {}, settings {settings:?}", args.seed);
    let mut setup_times = or_exit(
        setup::time_builds(args.workload, &settings, setup::REPEATS.div_ceil(2)),
        "engine construction",
    );
    let (mut engine, prepared) =
        or_exit(workload::build(args.workload, &settings), "engine construction");

    let serve_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut generator = Generator::spawn(args.workload, args.seed, true);
    let checker =
        Checker::spawn(args.workload, prepared.as_ref().map(|p| p.syms.clone()), args.trace);
    let (min_windows, block) = warm_up_plan(args.workload);
    let cap = Duration::from_secs_f64((args.seconds * 0.4).clamp(1.0, 12.0));
    let mut replay = Replay {
        workload: args.workload,
        engine: &mut engine,
        generator: &generator,
        checker: &checker,
    };
    let warm = replay.warm_up(min_windows, block, cap);
    let phase = replay.timed(serve_s);
    generator.stop();
    let verdicts = checker.finish();
    let (busy_fraction, dedup_ratio, counters) = match engine {
        Engine::Lanes(engine) => {
            let report = engine.finish();
            let busy = report.stats.lanes.iter().map(|l| l.busy_fraction).sum::<f64>();
            (busy, 0.0, report.stats.incremental)
        }
        Engine::Tenants(engine) => {
            (0.0, engine.dedup_snapshot().dedup_ratio, Some(engine.cache().counters().snapshot()))
        }
    };
    if let Some(c) = counters {
        // Whole-run engine counters (warm-up included): how windows were served.
        println!(
            "engine counters: cache hits {} misses {} evictions {}; delta applies {} regrounds {}",
            c.hits, c.misses, c.evictions, c.delta_applies, c.delta_regrounds
        );
    }

    setup_times.extend(or_exit(
        setup::time_builds(args.workload, &settings, setup::REPEATS / 2),
        "engine construction",
    ));
    let setup_s = measure::median(&setup_times);

    let windows = phase.latencies_ms.len();
    let p50 = measure::median(&phase.latencies_ms);
    let tail = measure::tail(&phase.latencies_ms);
    let items_per_s = phase.new_items as f64 / phase.wall_s;
    let cpu_us_per_item = phase.cpu_s * 1e6 / phase.new_items.max(1) as f64;
    println!(
        "warm-up {warm} windows; timed {windows} windows ({} .. {}), {} new items in {:.3} s; \
         host CPU stolen meanwhile: {:.1}%",
        phase.first_window,
        phase.last_window,
        phase.new_items,
        phase.wall_s,
        phase.steal * 100.0
    );
    let quarters: Vec<String> = phase
        .latencies_ms
        .chunks(windows.div_ceil(4).max(1))
        .map(|q| format!("{:.2}", measure::median(q)))
        .collect();
    println!("window_p50_ms {p50:.4} over {windows} samples; by quarter {}", quarters.join(" "));
    match tail {
        Some((p, v)) => println!("window_tail_ms {v:.4} = p{p:.2} of {windows} samples"),
        None => println!("window_tail_ms: 10 samples or fewer, reported as the median"),
    }
    println!(
        "checked {} windows: {} failed; fewest rule-derived atoms in a window: {}",
        verdicts.attempted, verdicts.failed, verdicts.min_rule_derived
    );
    for f in &verdicts.first_failures {
        eprintln!("failed {f}");
    }
    let floor_ok = verdicts.min_rule_derived > 0;
    if !floor_ok {
        eprintln!("derived-atom floor not met: a window derived no atoms");
    }

    let figures = [
        ("items_per_s", items_per_s, "items/s"),
        ("window_p50_ms", p50, "ms"),
        ("window_tail_ms", tail.map_or(p50, |t| t.1), "ms"),
        ("cpu_us_per_item", cpu_us_per_item, "us/item"),
        ("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
        ("setup_s", setup_s, "s"),
    ];
    let all: Vec<String> = figures.iter().map(|(n, v, _)| format!("{n}={v}")).collect();
    println!("figures: {}", all.join(" "));

    let (correct, metrics): (bool, Vec<(&str, f64, &str)>) = if !args.trace {
        (floor_ok, figures.into_iter().filter(|f| BOUNDED.contains(&f.0)).collect())
    } else {
        let digests: HashMap<u64, Vec<u64>> = verdicts.digests.iter().cloned().collect();
        let side = trace::EngineSide {
            p50_ms: p50,
            busy_fraction,
            dedup_ratio,
            first_window: phase.first_window,
            last_window: phase.last_window,
            digests: &digests,
        };
        let budget = Duration::from_secs_f64(serve_s.max(1.0));
        let traced = or_exit(
            trace::replay(args.workload, args.seed, &settings, &side, budget),
            "traced replay",
        );
        let mut values: BTreeMap<&str, f64> = traced.metrics;
        values.extend(or_exit(setup::split(args.workload, &settings), "set-up split"));
        println!(
            "traced replay: {} windows of the timed stretch; {} answers compared with the engine's, {} differ",
            traced.replayed_windows,
            traced.compared,
            traced.mismatched.len()
        );
        for m in traced.mismatched.iter().take(5) {
            eprintln!("{m}");
        }
        for &(metric, unit, _) in trace::PER_LAYER {
            println!("{metric} {:.6} {unit}", values[metric]);
        }
        let ok = floor_ok && traced.mismatched.is_empty() && traced.compared > 0;
        (ok, trace::PER_LAYER.iter().map(|&(n, u, _)| (n, values[n], u)).collect())
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        verdicts.attempted,
        verdicts.failed,
        json_metrics(&metrics)
    );
}

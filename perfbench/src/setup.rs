//! Set-up time: from program text to an engine ready for its first window.

use crate::measure::median;
use crate::workload::{self, Settings, Workload};
use asp_core::Symbols;
use asp_grounder::Grounder;
use asp_solver::SolverConfig;
use sr_core::{
    reasoner_pool, AdmissionPolicy, AnalysisConfig, DependencyAnalysis, ParallelMode, ProgramBounds,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Constructions timed per run, half before the timed replay and half
/// after it, so that one stretch of host noise does not set the figure;
/// `setup_s` is their median.
pub const REPEATS: usize = 101;

/// Times `n` constructions of the workload's engine, each dropped untimed.
pub fn time_builds(workload: Workload, settings: &Settings, n: usize) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let built = workload::build(workload, settings)?;
        times.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    Ok(times)
}

/// The per-step split of set-up (medians over `REPEATS`, in ms), each step
/// called directly: `parse_program`, `DependencyAnalysis::analyze`,
/// `ProgramBounds::analyze` (admission, tenants only), `Grounder::new` and
/// `reasoner_pool` (the worker pool of a threaded engine, which compiles a
/// grounder per worker and spawns its threads). Summed over the workload's
/// distinct programs.
pub fn split(
    workload: Workload,
    settings: &Settings,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let err = |e: asp_core::AspError| e.to_string();
    let sources: Vec<String> = match workload {
        Workload::TenantsBursty => {
            let mut s: Vec<String> = Vec::new();
            for t in workload::tenants() {
                if !s.contains(&t.source) {
                    s.push(t.source);
                }
            }
            s
        }
        w => vec![workload::single_program(w).0],
    };
    let names = [
        "setup.parse_ms",
        "setup.analyze_ms",
        "setup.bounds_ms",
        "setup.compile_ms",
        "setup.spawn_ms",
    ];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let solver =
        SolverConfig { max_models: settings.reasoner.max_models, ..SolverConfig::default() };
    for _ in 0..REPEATS {
        let mut sums = [0.0f64; 5];
        for source in &sources {
            let syms = Symbols::new();
            let t = Instant::now();
            let program = asp_parser::parse_program(&syms, source).map_err(err)?;
            sums[0] += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let analysis =
                DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())
                    .map_err(err)?;
            sums[1] += t.elapsed().as_secs_f64() * 1e3;
            if workload == Workload::TenantsBursty {
                let t = Instant::now();
                let bounds = ProgramBounds::analyze(
                    &syms,
                    &program,
                    &analysis,
                    &AdmissionPolicy::default().window,
                );
                sums[2] += t.elapsed().as_secs_f64() * 1e3;
                drop(bounds);
            }
            let t = Instant::now();
            let grounder = Grounder::new(&syms, &program).map_err(err)?;
            sums[3] += t.elapsed().as_secs_f64() * 1e3;
            drop(grounder);
            if settings.reasoner.mode == ParallelMode::Sequential {
                continue; // no worker pool: partitions run on the calling thread
            }
            let workers = analysis.plan.communities.max(1) * settings.engine.in_flight.max(1);
            let t = Instant::now();
            let pool = reasoner_pool(
                &syms,
                &program,
                Some(&analysis.inpre),
                &solver,
                workers,
                settings.reasoner.cost_planning,
            )
            .map_err(err)?;
            sums[4] += t.elapsed().as_secs_f64() * 1e3;
            drop(pool);
        }
        for (k, v) in sums.into_iter().enumerate() {
            samples[k].push(v);
        }
    }
    Ok(names.into_iter().zip(samples.iter().map(|s| median(s))).collect())
}

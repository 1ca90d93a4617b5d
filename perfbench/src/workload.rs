//! The three workloads: their inputs (generated from the seed), the engine
//! settings each one uses, and the engine construction that `setup_s` times.
//!
//! Engine settings are kept apart from inputs in [`Settings`], so a change
//! that removes a knob edits only [`Settings::of`].

use crate::oracle::{Rules, Spec};
use asp_core::{Program, Symbols};
use sr_bench::programs::LARGE_TRAFFIC;
use sr_bench::{program_p_prime, SkewedJoinGenerator, JOIN_HEAVY, PROGRAM_P};
use sr_core::{
    AnalysisConfig, DependencyAnalysis, EngineConfig, MultiTenantEngine, ParallelMode,
    PlanPartitioner, ReasonerConfig, StreamEngine, TenantPartitioner, UnknownPredicate,
};
use sr_stream::{
    BurstyGenerator, ChurnStream, CorrelatedGenerator, SlidingWindower, Window, WorkloadGenerator,
};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperTumbling,
    SkewedChurn,
    TenantsBursty,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-tumbling" => Some(Workload::PaperTumbling),
            "skewed-churn" => Some(Workload::SkewedChurn),
            "tenants-bursty" => Some(Workload::TenantsBursty),
            _ => None,
        }
    }
}

/// Items per window and per slide (a tumbling window slides by its size).
pub const PAPER_WINDOW: usize = 20_000;
pub const CHURN_WINDOW: usize = 4_000;
pub const CHURN_SLIDE: usize = CHURN_WINDOW / 8;
/// Share of each churn slide's retractions drawn from the window interior.
pub const CHURN_INTERIOR_RETRACT: f64 = 0.5;
pub const TENANT_WINDOW: usize = 2_000;
pub const TENANT_SLIDE: usize = TENANT_WINDOW / 4;
/// Subjects and objects of the bursty stream are integers below this.
pub const TENANT_VALUE_BOUND: i64 = 100;

/// LARGE_TRAFFIC's four input-dependency communities: the bursty stream
/// cycles through them, one slide-long burst each.
pub const LARGE_TRAFFIC_GROUPS: [&[&str]; 4] = [
    &["average_speed", "car_number", "traffic_light"],
    &["car_in_smoke", "car_speed", "car_location", "hazard_lights", "temperature", "precipitation"],
    &["fog_level"],
    &["bus_schedule", "bus_position", "bus_line"],
];

const JOIN_HEAVY_INPUTS: [&str; 7] =
    ["traffic", "hub", "relay", "blacklist", "ticket", "oncall", "critical"];

/// Engine settings of one workload.
#[derive(Clone, Debug)]
pub struct Settings {
    pub reasoner: ReasonerConfig,
    /// Lanes and queue of a [`StreamEngine`] (unused by the tenants workload).
    pub engine: EngineConfig,
}

/// Settings a command line may override, to measure a knob's cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Overrides {
    pub in_flight: Option<usize>,
    pub cache_capacity: Option<usize>,
}

impl Settings {
    pub fn of(workload: Workload, overrides: Overrides) -> Self {
        // One window in flight: the closed loop hands over the next window
        // only when the previous answer is back.
        let engine = EngineConfig { in_flight: 1, queue_depth: 1, window_deadline_ms: None };
        let reasoner = match workload {
            Workload::PaperTumbling => ReasonerConfig::default(),
            Workload::SkewedChurn => ReasonerConfig {
                incremental: true,
                delta_ground: true,
                cost_planning: true,
                ..ReasonerConfig::default()
            },
            Workload::TenantsBursty => ReasonerConfig {
                mode: ParallelMode::Sequential,
                incremental: true,
                ..ReasonerConfig::default()
            },
        };
        let mut s = Settings { reasoner, engine };
        if let Some(n) = overrides.in_flight {
            s.engine.in_flight = n;
        }
        if let Some(c) = overrides.cache_capacity {
            s.reasoner.cache_capacity = c;
        }
        s
    }
}

/// One tenant of the tenants workload.
pub struct Tenant {
    pub id: String,
    pub source: String,
    pub spec: Spec,
}

/// Six tenants, four serving entries: three share P verbatim, the others
/// run P, P' and LARGE_TRAFFIC each made distinct by a `tenant_tag(i).`.
pub fn tenants() -> Vec<Tenant> {
    let mut out = Vec::new();
    for i in 0..3 {
        out.push(Tenant {
            id: format!("t{i}"),
            source: PROGRAM_P.to_string(),
            spec: Spec { rules: Rules::P, tag: None },
        });
    }
    for (i, rules, base) in [
        (3, Rules::P, PROGRAM_P.to_string()),
        (4, Rules::PPrime, program_p_prime()),
        (5, Rules::LargeTraffic, LARGE_TRAFFIC.to_string()),
    ] {
        out.push(Tenant {
            id: format!("t{i}"),
            source: format!("{base}\ntenant_tag({i}).\n"),
            spec: Spec { rules, tag: Some(i) },
        });
    }
    out
}

/// The program a single-program workload runs.
pub fn single_program(workload: Workload) -> (String, Spec) {
    match workload {
        Workload::PaperTumbling => (program_p_prime(), Spec { rules: Rules::PPrime, tag: None }),
        Workload::SkewedChurn => {
            (JOIN_HEAVY.to_string(), Spec { rules: Rules::JoinHeavy, tag: None })
        }
        Workload::TenantsBursty => unreachable!("the tenants workload runs six programs"),
    }
}

/// The programs whose answers a window is checked against: one per
/// distinct spec, in serving order.
pub fn specs(workload: Workload) -> Vec<Spec> {
    match workload {
        Workload::TenantsBursty => {
            let mut specs: Vec<Spec> = Vec::new();
            for t in tenants() {
                if !specs.contains(&t.spec) {
                    specs.push(t.spec);
                }
            }
            specs
        }
        w => vec![single_program(w).1],
    }
}

/// Names of the stream's predicates: every other atom of an answer is
/// derived.
pub fn input_names(workload: Workload) -> Vec<&'static str> {
    match workload {
        Workload::PaperTumbling => sr_stream::PAPER_PREDICATES.to_vec(),
        Workload::SkewedChurn => JOIN_HEAVY_INPUTS.to_vec(),
        Workload::TenantsBursty => LARGE_TRAFFIC_GROUPS.concat(),
    }
}

/// The seeded window stream of a workload, produced one window at a time.
pub enum Source {
    Tumbling { generator: CorrelatedGenerator, next_id: u64 },
    Churn(ChurnStream),
    Sliding { generator: BurstyGenerator, windower: SlidingWindower },
}

impl Source {
    pub fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::PaperTumbling => {
                Source::Tumbling { generator: CorrelatedGenerator::new(seed), next_id: 0 }
            }
            Workload::SkewedChurn => Source::Churn(ChurnStream::new(
                Box::new(SkewedJoinGenerator::new(seed)),
                CHURN_WINDOW,
                CHURN_SLIDE,
                CHURN_INTERIOR_RETRACT,
                seed,
            )),
            Workload::TenantsBursty => {
                let groups = LARGE_TRAFFIC_GROUPS
                    .iter()
                    .map(|g| g.iter().map(|p| p.to_string()).collect())
                    .collect();
                Source::Sliding {
                    generator: BurstyGenerator::new(groups, TENANT_SLIDE, TENANT_VALUE_BOUND, seed),
                    windower: SlidingWindower::new(TENANT_WINDOW, TENANT_SLIDE),
                }
            }
        }
    }

    pub fn next_window(&mut self) -> Window {
        match self {
            Source::Tumbling { generator, next_id } => {
                let w = Window::new(*next_id, generator.window(PAPER_WINDOW));
                *next_id += 1;
                w
            }
            Source::Churn(stream) => stream.next_window(),
            Source::Sliding { generator, windower } => loop {
                for item in generator.window(1) {
                    if let Some(w) = windower.push(item) {
                        return w;
                    }
                }
            },
        }
    }
}

/// New stream items a window brings: the slide, not the whole content.
pub fn new_items(workload: Workload, window: &Window) -> usize {
    match workload {
        Workload::PaperTumbling => window.len(),
        Workload::SkewedChurn | Workload::TenantsBursty => {
            window.delta.as_ref().map_or(window.len(), |d| d.added.len())
        }
    }
}

/// An engine ready for its first window.
pub enum Engine {
    Lanes(StreamEngine),
    Tenants(MultiTenantEngine),
}

/// A parsed and analysed single program with its engine-facing pieces.
pub struct Prepared {
    pub syms: Symbols,
    pub program: Program,
    pub analysis: DependencyAnalysis,
}

pub fn prepare(source: &str) -> Result<Prepared, String> {
    let syms = Symbols::new();
    let program = asp_parser::parse_program(&syms, source).map_err(|e| e.to_string())?;
    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())
        .map_err(|e| e.to_string())?;
    Ok(Prepared { syms, program, analysis })
}

pub fn partitioner(p: &Prepared) -> Arc<PlanPartitioner> {
    Arc::new(PlanPartitioner::new(p.analysis.plan.clone(), UnknownPredicate::Partition0))
}

/// Builds the workload's engine from program text: parse, dependency
/// analysis and plan, then the engine itself (grounder compile, pool and
/// lane spawn; static bounds and admission for each tenant).
pub fn build(
    workload: Workload,
    settings: &Settings,
) -> Result<(Engine, Option<Prepared>), String> {
    match workload {
        Workload::TenantsBursty => {
            let mut engine = MultiTenantEngine::new(settings.reasoner.clone());
            for t in tenants() {
                engine
                    .admit(&t.id, &t.source, TenantPartitioner::Dependency)
                    .map_err(|e| format!("admitting {}: {e}", t.id))?;
            }
            Ok((Engine::Tenants(engine), None))
        }
        w => {
            let (source, _) = single_program(w);
            let p = prepare(&source)?;
            let engine = StreamEngine::with_partitioned_lanes(
                &p.syms,
                &p.program,
                Some(&p.analysis.inpre),
                partitioner(&p),
                settings.reasoner.clone(),
                settings.engine,
            )
            .map_err(|e| e.to_string())?;
            Ok((Engine::Lanes(engine), Some(p)))
        }
    }
}

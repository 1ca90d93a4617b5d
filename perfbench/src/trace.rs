//! The traced replay behind the per-layer figures.
//!
//! The windows the engine served are generated again from the seed and fed
//! through each layer's public functions, called directly from here in the
//! order the engine calls them, with every call timed: `Partitioner::
//! partition`, `fingerprint_items`, `PartitionCache::get`/`insert`,
//! `WindowDelta::project`, `FormatProcessor::window_to_facts`,
//! `DeltaGrounder::apply`/`answer`, `Grounder::ground`, `solve_ground` and
//! `combine`. Nothing is traced inside the program. Each replayed answer is
//! compared with the engine's answer to the same window, so the split
//! describes the work the engine did.
//!
//! Per-window figures are medians over the windows of the engine's timed
//! stretch. A window's critical path is what one window in flight waits
//! for: the serial steps, plus the dirty partitions' chains (transform,
//! ground, solve) list-scheduled over the pool's workers.

use crate::measure::{digest, median};
use crate::workload::{self, Prepared, Settings, Workload};
use asp_core::{AnswerSet, Symbols};
use asp_grounder::{DeltaGrounder, Grounder};
use asp_solver::{solve_ground, SolverConfig};
use sr_core::{
    combine, fingerprint_items, program_fingerprint, PartitionCache, Partitioner, PlanPartitioner,
    ReasonerConfig, SingleReasoner,
};
use sr_rdf::{FormatConfig, FormatProcessor};
use sr_stream::Window;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-layer metrics: name, unit, better direction. Every workload
/// prints every one of them; a layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("partition.ms", "ms", "lower"),
    ("partition.dup_items", "count", "lower"),
    ("partition.max_share", "fraction", "lower"),
    ("transform.ms", "ms", "lower"),
    ("ground.ms", "ms", "lower"),
    ("ground.critical_ms", "ms", "lower"),
    ("ground.rules", "count", "lower"),
    ("ground.calls", "count", "lower"),
    ("delta.apply_ms", "ms", "lower"),
    ("delta.answer_ms", "ms", "lower"),
    ("delta.applies", "count", "higher"),
    ("delta.regrounds", "count", "lower"),
    ("delta.state_cells", "count", "lower"),
    ("planner.replans", "count", "lower"),
    ("solve.ms", "ms", "lower"),
    ("solve.critical_ms", "ms", "lower"),
    ("solve.clauses", "count", "lower"),
    ("solve.conflicts", "count", "lower"),
    ("solve.decisions", "count", "lower"),
    ("solve.propagations", "count", "lower"),
    ("combine.ms", "ms", "lower"),
    ("combine.answer_atoms", "count", "lower"),
    ("cache.fingerprint_ms", "ms", "lower"),
    ("cache.lookup_us", "us", "lower"),
    ("cache.hit_ratio", "fraction", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.entries", "count", "lower"),
    ("stream.project_ms", "ms", "lower"),
    ("stream.delta_items", "count", "lower"),
    ("tenants.entry_runs", "count", "lower"),
    ("tenants.entry_ms", "ms", "lower"),
    ("tenants.dedup_ratio", "fraction", "higher"),
    ("engine.unattributed_ms", "ms", "lower"),
    ("engine.busy_fraction", "fraction", "higher"),
    ("setup.parse_ms", "ms", "lower"),
    ("setup.analyze_ms", "ms", "lower"),
    ("setup.bounds_ms", "ms", "lower"),
    ("setup.compile_ms", "ms", "lower"),
    ("setup.spawn_ms", "ms", "lower"),
    ("r.window_ms", "ms", "lower"),
];

type Rec = BTreeMap<&'static str, f64>;

fn add(rec: &mut Rec, name: &'static str, v: f64) {
    *rec.entry(name).or_insert(0.0) += v;
}

fn max_into(rec: &mut Rec, name: &'static str, v: f64) {
    let e = rec.entry(name).or_insert(0.0);
    *e = e.max(v);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Makespan of `jobs` list-scheduled in order over `workers` workers.
fn makespan(jobs: &[f64], workers: usize) -> f64 {
    let mut load = vec![0.0f64; workers.max(1)];
    for &j in jobs {
        let w = (0..load.len()).min_by(|&a, &b| load[a].total_cmp(&load[b])).expect("a worker");
        load[w] += j;
    }
    load.into_iter().fold(0.0, f64::max)
}

struct DeltaPart {
    grounder: DeltaGrounder,
    window_id: u64,
    content_fp: u128,
    valid: bool,
    replans_seen: u64,
}

/// One program's replay: the steps its reasoner takes for a window.
struct ProgramReplay {
    syms: Symbols,
    partitioner: Arc<PlanPartitioner>,
    config: ReasonerConfig,
    workers: usize,
    format: FormatProcessor,
    grounders: Vec<Grounder>,
    solver: SolverConfig,
    program_id: u64,
    cache: Option<Arc<PartitionCache>>,
    delta: Option<(FormatProcessor, Vec<DeltaPart>)>,
}

impl ProgramReplay {
    fn new(
        p: &Prepared,
        config: ReasonerConfig,
        workers: usize,
        cache: Option<Arc<PartitionCache>>,
    ) -> Result<Self, String> {
        let err = |e: asp_core::AspError| e.to_string();
        let partitioner = workload::partitioner(p);
        let n = partitioner.partitions().max(1);
        let format_cfg = FormatConfig::from_input_signature(&p.syms, &p.analysis.inpre);
        let mut grounders = Vec::with_capacity(n);
        for _ in 0..n {
            let mut g = Grounder::new(&p.syms, &p.program).map_err(err)?;
            g.set_cost_planning(config.cost_planning);
            grounders.push(g);
        }
        let delta = if config.incremental && config.delta_ground {
            let mut shared = Grounder::new(&p.syms, &p.program).map_err(err)?;
            shared.set_cost_planning(config.cost_planning);
            let shared = Arc::new(shared);
            if !DeltaGrounder::supports(&shared) {
                return Err("program outside the delta-grounding fragment".into());
            }
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(DeltaPart {
                    grounder: DeltaGrounder::with_cost_planning(
                        Arc::clone(&shared),
                        config.cost_planning,
                    )
                    .map_err(err)?,
                    window_id: 0,
                    content_fp: 0,
                    valid: false,
                    replans_seen: 0,
                });
            }
            Some((FormatProcessor::new(&p.syms, &format_cfg), parts))
        } else {
            None
        };
        Ok(ProgramReplay {
            syms: p.syms.clone(),
            solver: SolverConfig { max_models: config.max_models, ..SolverConfig::default() },
            program_id: program_fingerprint(&p.syms, &p.program),
            partitioner,
            workers,
            format: FormatProcessor::new(&p.syms, &format_cfg),
            grounders,
            cache: if config.incremental { cache } else { None },
            delta,
            config,
        })
    }

    /// Replays one window; returns its answers and its critical path (ms).
    fn process(&mut self, window: &Window, rec: &mut Rec) -> Result<(Vec<AnswerSet>, f64), String> {
        let err = |e: asp_core::AspError| e.to_string();
        let t = Instant::now();
        let mut parts = self.partitioner.partition(window);
        let d = ms(t.elapsed());
        let mut critical = d;
        add(rec, "partition.ms", d);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        let total: usize = sizes.iter().sum();
        add(rec, "partition.dup_items", total.saturating_sub(window.len()) as f64);
        let largest = sizes.iter().copied().max().unwrap_or(0);
        max_into(rec, "partition.max_share", largest as f64 / window.len().max(1) as f64);

        let n = parts.len();
        let mut per_partition: Vec<Option<Arc<Vec<AnswerSet>>>> = vec![None; n];
        let mut fps: Vec<u128> = Vec::new();
        if let Some(cache) = &self.cache {
            let t = Instant::now();
            fps = parts.iter().map(|p| fingerprint_items(p)).collect();
            let d = ms(t.elapsed());
            critical += d;
            add(rec, "cache.fingerprint_ms", d);
            let t = Instant::now();
            for (i, &fp) in fps.iter().enumerate() {
                per_partition[i] = cache.get(self.program_id, fp);
            }
            let d = ms(t.elapsed());
            critical += d;
            add(rec, "cache.lookup_us", d * 1e3);
            add(rec, "cache.lookups", n as f64);
            add(rec, "cache.hits", per_partition.iter().filter(|p| p.is_some()).count() as f64);
        }
        let mut dirty: Vec<usize> = (0..n).filter(|&i| per_partition[i].is_none()).collect();
        let mut fresh: Vec<(usize, Vec<AnswerSet>)> = Vec::new();

        if let Some((format, states)) = &mut self.delta {
            for (i, cached) in per_partition.iter().enumerate() {
                let st = &mut states[i];
                if cached.is_some() && st.valid && st.content_fp == fps[i] {
                    st.window_id = window.id;
                }
            }
            let projected = match (&window.delta, dirty.is_empty()) {
                (Some(delta), false) => {
                    let t = Instant::now();
                    let routes = |item: &sr_rdf::Triple| {
                        self.partitioner.item_routes(item).unwrap_or_default()
                    };
                    let projected = delta.project(n, routes);
                    let d = ms(t.elapsed());
                    critical += d;
                    add(rec, "stream.project_ms", d);
                    add(
                        rec,
                        "stream.delta_items",
                        (delta.added.len() + delta.retracted.len()) as f64,
                    );
                    Some(projected)
                }
                _ => None,
            };
            for &i in &dirty {
                let st = &mut states[i];
                let t_chain = Instant::now();
                let mut applied = false;
                if let (true, Some(projected), Some(delta)) = (st.valid, &projected, &window.delta)
                {
                    let pd = &projected[i];
                    if delta.base_id == st.window_id && pd.base_id == st.window_id {
                        let t = Instant::now();
                        let consistent = pd.consistent_with(&parts[i]);
                        add(rec, "delta.apply_ms", ms(t.elapsed()));
                        if consistent {
                            let t = Instant::now();
                            let added = format.window_to_facts(&pd.added);
                            let retracted = format.window_to_facts(&pd.retracted);
                            add(rec, "transform.ms", ms(t.elapsed()));
                            let t = Instant::now();
                            let ok = st.grounder.apply(&added, &retracted).is_ok();
                            add(rec, "delta.apply_ms", ms(t.elapsed()));
                            if ok {
                                applied = true;
                                add(rec, "delta.applies", 1.0);
                            }
                        }
                    }
                }
                if !applied {
                    let t = Instant::now();
                    st.grounder.reset().map_err(err)?;
                    add(rec, "delta.apply_ms", ms(t.elapsed()));
                    let t = Instant::now();
                    let facts = format.window_to_facts(&parts[i]);
                    add(rec, "transform.ms", ms(t.elapsed()));
                    let t = Instant::now();
                    st.grounder.apply(&facts, &[]).map_err(|e| format!("delta rebuild: {e:?}"))?;
                    add(rec, "delta.apply_ms", ms(t.elapsed()));
                    add(rec, "delta.regrounds", 1.0);
                }
                let t = Instant::now();
                let answers = match st.grounder.answer() {
                    Some(atoms) => vec![AnswerSet::new(atoms, &self.syms)],
                    None => Vec::new(),
                };
                add(rec, "delta.answer_ms", ms(t.elapsed()));
                if let Some((replans, _, _)) = st.grounder.planner_counters() {
                    add(rec, "planner.replans", (replans - st.replans_seen) as f64);
                    st.replans_seen = replans;
                }
                st.window_id = window.id;
                st.content_fp = fps[i];
                st.valid = true;
                critical += ms(t_chain.elapsed());
                fresh.push((i, answers));
            }
            let cells: u128 = states.iter().map(|s| s.grounder.state_size().total_cells()).sum();
            max_into(rec, "delta.state_cells", cells as f64);
            dirty.clear();
        }

        // Scratch path: each dirty partition is transformed, grounded and
        // solved by one pool worker.
        let mut chains = Vec::with_capacity(dirty.len());
        for &i in &dirty {
            let items = std::mem::take(&mut parts[i]);
            let t = Instant::now();
            let facts = self.format.window_to_facts(&items);
            let transform = ms(t.elapsed());
            let t = Instant::now();
            let ground = self.grounders[i].ground(&facts).map_err(err)?;
            let ground_ms = ms(t.elapsed());
            let t = Instant::now();
            let result = solve_ground(&self.syms, &ground, &self.solver).map_err(err)?;
            let solve_ms = ms(t.elapsed());
            add(rec, "transform.ms", transform);
            add(rec, "ground.ms", ground_ms);
            max_into(rec, "ground.critical_ms", ground_ms);
            add(rec, "ground.rules", ground.rules.len() as f64);
            add(rec, "ground.calls", 1.0);
            add(rec, "solve.ms", solve_ms);
            max_into(rec, "solve.critical_ms", solve_ms);
            add(rec, "solve.clauses", result.stats.clauses as f64);
            add(rec, "solve.conflicts", result.stats.conflicts as f64);
            add(rec, "solve.decisions", result.stats.decisions as f64);
            add(rec, "solve.propagations", result.stats.propagations as f64);
            chains.push(transform + ground_ms + solve_ms);
            fresh.push((i, result.answer_sets));
        }
        critical += makespan(&chains, self.workers);

        if let Some(cache) = &self.cache {
            let t = Instant::now();
            for (i, answers) in fresh {
                let answers = Arc::new(answers);
                cache.insert(self.program_id, fps[i], Arc::clone(&answers));
                per_partition[i] = Some(answers);
            }
            let d = ms(t.elapsed());
            critical += d;
            add(rec, "cache.lookup_us", d * 1e3);
        } else {
            for (i, answers) in fresh {
                per_partition[i] = Some(Arc::new(answers));
            }
        }
        let borrowed: Vec<&[AnswerSet]> = per_partition
            .iter()
            .map(|p| p.as_ref().expect("every partition is served").as_slice())
            .collect();
        let t = Instant::now();
        let (answers, _) =
            combine(&self.syms, &borrowed, self.config.combine, self.config.max_combined);
        let d = ms(t.elapsed());
        critical += d;
        add(rec, "combine.ms", d);
        add(rec, "combine.answer_atoms", answers.first().map_or(0, AnswerSet::len) as f64);
        Ok((answers, critical))
    }
}

/// What the untraced run contributes to the per-layer figures.
pub struct EngineSide<'a> {
    pub p50_ms: f64,
    pub busy_fraction: f64,
    pub dedup_ratio: f64,
    pub first_window: u64,
    pub last_window: u64,
    /// Engine answer digests by window id, per distinct program.
    pub digests: &'a HashMap<u64, Vec<u64>>,
}

/// Result of the traced replay.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub compared: u64,
    pub mismatched: Vec<String>,
    pub replayed_windows: usize,
}

/// Replays the workload's windows `first_window - warm ..= last_window`
/// (or until `budget` runs out) and derives the per-layer figures.
pub fn replay(
    workload: Workload,
    seed: u64,
    settings: &Settings,
    engine: &EngineSide<'_>,
    budget: Duration,
) -> Result<Traced, String> {
    let deadline = Instant::now() + budget;
    // Windows replayed before the timed stretch, so that the cache and the
    // maintained groundings are in the state the engine's were in.
    let warm: u64 = match workload {
        Workload::PaperTumbling => 0,
        Workload::SkewedChurn => 8,
        Workload::TenantsBursty => 96,
    };
    let start = engine.first_window.saturating_sub(warm);
    let cache = settings
        .reasoner
        .incremental
        .then(|| Arc::new(PartitionCache::new(settings.reasoner.cache_capacity)));
    let mut programs: Vec<ProgramReplay> = Vec::new();
    let mut baseline: Option<SingleReasoner> = None;
    match workload {
        Workload::TenantsBursty => {
            let mut seen: Vec<String> = Vec::new();
            for t in workload::tenants() {
                if seen.contains(&t.source) {
                    continue;
                }
                seen.push(t.source.clone());
                let p = workload::prepare(&t.source)?;
                programs.push(ProgramReplay::new(
                    &p,
                    settings.reasoner.clone(),
                    1, // Sequential mode: an entry's partitions run one after another
                    cache.clone(),
                )?);
            }
        }
        w => {
            let p = workload::prepare(&workload::single_program(w).0)?;
            let workers = p.analysis.plan.communities.max(1) * settings.engine.in_flight.max(1);
            programs.push(ProgramReplay::new(
                &p,
                settings.reasoner.clone(),
                workers,
                cache.clone(),
            )?);
            if w == Workload::PaperTumbling {
                let solver = SolverConfig {
                    max_models: settings.reasoner.max_models,
                    ..SolverConfig::default()
                };
                baseline = Some(
                    SingleReasoner::new(&p.syms, &p.program, Some(&p.analysis.inpre), solver)
                        .map_err(|e| e.to_string())?,
                );
            }
        }
    }

    let mut source = workload::Source::new(workload, seed);
    let mut recs: Vec<Rec> = Vec::new();
    let mut entry_ms: Vec<f64> = Vec::new();
    let mut compared = 0u64;
    let mut mismatched = Vec::new();
    let mut evictions_seen = 0u64;
    loop {
        let window = source.next_window();
        if window.id > engine.last_window || Instant::now() >= deadline {
            break;
        }
        if window.id < start {
            continue;
        }
        let mut rec = Rec::new();
        let mut critical = 0.0;
        let mut digests = Vec::with_capacity(programs.len());
        for program in &mut programs {
            let (answers, c) = program.process(&window, &mut rec)?;
            critical += c;
            entry_ms.push(c);
            digests.push(digest(&program.syms, &answers));
        }
        if let Some(r) = &mut baseline {
            let t = Instant::now();
            let out = r.process(&window).map_err(|e| e.to_string())?;
            add(&mut rec, "r.window_ms", ms(t.elapsed()));
            if digest(r.symbols(), &out.answers) != digests[0] {
                mismatched.push(format!("window {}: R's answer differs from PR_Dep's", window.id));
            }
        }
        if let Some(want) = engine.digests.get(&window.id) {
            compared += 1;
            if *want != digests {
                mismatched
                    .push(format!("window {}: replay answer differs from the engine's", window.id));
            }
        }
        if let Some(cache) = &cache {
            let lookups = rec.get("cache.lookups").copied().unwrap_or(0.0);
            let hits = rec.get("cache.hits").copied().unwrap_or(0.0);
            rec.insert("cache.hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 });
            let ev = cache.counters().evictions.load(Ordering::Relaxed);
            rec.insert("cache.evictions", (ev - evictions_seen) as f64);
            evictions_seen = ev;
            rec.insert("cache.entries", cache.len() as f64);
        }
        rec.insert("critical_ms", critical);
        if window.id >= engine.first_window {
            recs.push(rec);
        }
    }
    if workload == Workload::TenantsBursty {
        // Entry figures cover the timed stretch only.
        let skip = entry_ms.len().saturating_sub(recs.len() * programs.len());
        entry_ms.drain(..skip);
    }

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, _, _) in PER_LAYER {
        let values: Vec<f64> = recs.iter().map(|r| r.get(name).copied().unwrap_or(0.0)).collect();
        metrics.insert(name, median(&values));
    }
    let critical: Vec<f64> = recs.iter().map(|r| r["critical_ms"]).collect();
    metrics.insert("engine.unattributed_ms", engine.p50_ms - median(&critical));
    metrics.insert("engine.busy_fraction", engine.busy_fraction);
    if workload == Workload::TenantsBursty {
        metrics.insert("tenants.entry_runs", programs.len() as f64);
        metrics.insert("tenants.entry_ms", median(&entry_ms));
        metrics.insert("tenants.dedup_ratio", engine.dedup_ratio);
    }
    Ok(Traced { metrics, compared, mismatched, replayed_windows: recs.len() })
}

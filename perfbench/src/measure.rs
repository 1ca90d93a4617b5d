//! The closed-loop replay that gives the end-to-end figures.
//!
//! A generator thread makes windows and the evaluator's expected answers a
//! few windows ahead; the main thread hands one window at a time to the
//! engine and waits for its answer; a checker thread compares each answer
//! with the evaluator. Both helper threads run at the lowest priority, the
//! time the main thread waits on them is taken out of the wall clock, and
//! their CPU time is taken out of the process's.

use crate::oracle::{self, Expected};
use crate::workload::{self, Engine, Workload};
use asp_core::{AnswerSet, Symbols};
use sr_core::{EngineOutput, TenantOutput};
use sr_stream::Window;
use std::collections::HashSet;
use std::os::unix::thread::JoinHandleExt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: std::os::unix::thread::RawPthread, clock: *mut i32) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    fn gettid() -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const PRIO_PROCESS: i32 = 0;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of the whole process so far.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// The CPU clock of another (still running) thread.
fn thread_clock<T>(handle: &JoinHandle<T>) -> i32 {
    let mut clock = 0;
    // SAFETY: the handle names a live thread; `clock` is writable.
    let rc = unsafe { pthread_getcpuclockid(handle.as_pthread_t(), &mut clock) };
    assert_eq!(rc, 0, "pthread_getcpuclockid failed");
    clock
}

/// Lowers the calling thread to the lowest scheduling priority, so the
/// benchmark's own helpers yield the CPU to the engine's threads.
fn lower_priority() {
    // SAFETY: plain syscalls on the calling thread; a failure only leaves
    // the priority unchanged.
    unsafe {
        let tid = gettid();
        setpriority(PRIO_PROCESS, tid as u32, 19);
    }
}

/// The host's CPU ticks so far, `(all, stolen)`, from `/proc/stat`: on a
/// virtual machine the stolen share is time the hypervisor gave elsewhere.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().take(8).sum(), fields.get(7).copied().unwrap_or(0))
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that leaves at least ten samples beyond it: the
/// eleventh-largest sample. Returns `(percentile, value)`; `None` with ten
/// samples or fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// A window with the evaluator's answer for each of the workload's
/// programs.
pub struct Ticket {
    pub window: Window,
    pub expected: Result<Vec<Expected>, String>,
}

/// The generator thread: the workload's stream, evaluated ahead of use.
pub struct Generator {
    rx: Option<Receiver<Ticket>>,
    handle: Option<JoinHandle<()>>,
    clock: i32,
}

impl Generator {
    pub fn spawn(workload: Workload, seed: u64, evaluate: bool) -> Self {
        let (tx, rx) = sync_channel::<Ticket>(3);
        let specs = workload::specs(workload);
        let handle = std::thread::Builder::new()
            .name("bench-generator".into())
            .spawn(move || {
                lower_priority();
                let mut source = workload::Source::new(workload, seed);
                loop {
                    let window = source.next_window();
                    let expected = if evaluate {
                        specs.iter().map(|&s| oracle::evaluate(s, &window.items)).collect()
                    } else {
                        Ok(Vec::new())
                    };
                    if tx.send(Ticket { window, expected }).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn generator");
        let clock = thread_clock(&handle);
        Generator { rx: Some(rx), handle: Some(handle), clock }
    }

    pub fn next(&self) -> Ticket {
        self.rx.as_ref().expect("generator running").recv().expect("generator thread ended")
    }

    pub fn cpu_s(&self) -> f64 {
        clock_s(self.clock)
    }

    pub fn stop(&mut self) {
        self.rx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Generator {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What the engine answered for one window.
pub enum Answer {
    Lanes(Box<EngineOutput>),
    Tenants(Result<Vec<TenantOutput>, String>),
}

struct CheckJob {
    window_id: u64,
    expected: Result<Vec<Expected>, String>,
    answer: Answer,
}

/// The checker's verdicts.
#[derive(Default)]
pub struct Verdicts {
    pub attempted: u64,
    pub failed: u64,
    /// Fewest rule-derived atoms the evaluator found in one window (summed
    /// over the window's programs): the non-vacuity floor.
    pub min_rule_derived: usize,
    pub first_failures: Vec<String>,
    /// Per window: its id and a digest of each distinct program's answer,
    /// recorded when asked for, to compare with the traced replay.
    pub digests: Vec<(u64, Vec<u64>)>,
}

/// Order-independent digest of answer sets over rendered atoms, so it does
/// not depend on a symbol store's interning order.
pub fn digest(syms: &Symbols, answers: &[AnswerSet]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut acc = answers.len() as u64;
    for a in answers {
        let mut sum = a.len() as u64;
        for atom in a.atoms() {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            oracle::render(syms, atom).hash(&mut h);
            sum = sum.wrapping_add(h.finish());
        }
        acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(sum);
    }
    acc
}

/// Checks one window; returns its rule-derived atom count.
fn check_one(
    workload: Workload,
    lane_syms: Option<&Symbols>,
    inputs: &HashSet<&str>,
    job: &CheckJob,
    mut digests: Option<&mut Vec<u64>>,
) -> Result<usize, String> {
    let expected = job.expected.as_ref().map_err(|e| format!("evaluator: {e}"))?;
    match &job.answer {
        Answer::Lanes(out) => {
            if out.degraded {
                return Err("degraded output".into());
            }
            let result = out.result.as_ref().map_err(|e| format!("engine error: {e}"))?;
            let syms = lane_syms.expect("a lanes engine runs one program");
            oracle::check(syms, &result.answers, inputs, &expected[0])?;
            if let Some(d) = digests.as_deref_mut() {
                d.push(digest(syms, &result.answers));
            }
        }
        Answer::Tenants(outs) => {
            let outs = outs.as_ref().map_err(|e| format!("engine error: {e}"))?;
            let tenants = workload::tenants();
            if outs.len() != tenants.len() {
                return Err(format!("{} tenant outputs, expected {}", outs.len(), tenants.len()));
            }
            let specs = workload::specs(workload);
            let mut served: Vec<u64> = Vec::new();
            for (out, t) in outs.iter().zip(&tenants) {
                if out.tenant != t.id || out.degraded {
                    return Err(format!("tenant {}: missing or degraded output", t.id));
                }
                let k = specs.iter().position(|s| *s == t.spec).expect("every spec is listed");
                oracle::check(&out.syms, &out.output.answers, inputs, &expected[k])
                    .map_err(|e| format!("tenant {}: {e}", t.id))?;
                if !served.contains(&out.program) {
                    served.push(out.program);
                    if let Some(d) = digests.as_deref_mut() {
                        d.push(digest(&out.syms, &out.output.answers));
                    }
                }
            }
        }
    }
    Ok(expected.iter().map(|e| e.rule_derived).sum())
}

/// The checker thread.
pub struct Checker {
    tx: Option<SyncSender<CheckJob>>,
    handle: Option<JoinHandle<Verdicts>>,
    clock: i32,
}

impl Checker {
    pub fn spawn(workload: Workload, lane_syms: Option<Symbols>, keep_digests: bool) -> Self {
        let (tx, rx) = sync_channel::<CheckJob>(8);
        let handle = std::thread::Builder::new()
            .name("bench-checker".into())
            .spawn(move || {
                lower_priority();
                let names = workload::input_names(workload);
                let inputs: HashSet<&str> = names.iter().copied().collect();
                let mut v = Verdicts { min_rule_derived: usize::MAX, ..Verdicts::default() };
                for job in rx {
                    v.attempted += 1;
                    let mut digests = Vec::new();
                    let keep = keep_digests.then_some(&mut digests);
                    match check_one(workload, lane_syms.as_ref(), &inputs, &job, keep) {
                        Ok(n) => v.min_rule_derived = v.min_rule_derived.min(n),
                        Err(e) => {
                            v.failed += 1;
                            if v.first_failures.len() < 5 {
                                v.first_failures.push(format!("window {}: {e}", job.window_id));
                            }
                        }
                    }
                    if keep_digests {
                        v.digests.push((job.window_id, digests));
                    }
                }
                if v.attempted == 0 {
                    v.min_rule_derived = 0;
                }
                v
            })
            .expect("spawn checker");
        let clock = thread_clock(&handle);
        Checker { tx: Some(tx), handle: Some(handle), clock }
    }

    pub fn cpu_s(&self) -> f64 {
        clock_s(self.clock)
    }

    fn send(&self, job: CheckJob) {
        self.tx.as_ref().expect("checker running").send(job).expect("checker thread ended");
    }

    pub fn finish(mut self) -> Verdicts {
        self.tx = None;
        self.handle.take().expect("checker running").join().expect("checker panicked")
    }
}

/// How often the main thread looks for a finished window. It sleeps in
/// between, so waiting costs no CPU.
const POLL: Duration = Duration::from_micros(20);

/// Closed-loop replay state.
pub struct Replay<'a> {
    pub workload: Workload,
    pub engine: &'a mut Engine,
    pub generator: &'a Generator,
    pub checker: &'a Checker,
}

/// One timed stretch of the replay.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub new_items: u64,
    /// Wall time, less the time the main thread waited on its helpers.
    pub wall_s: f64,
    /// Process CPU, less the helper threads' CPU.
    pub cpu_s: f64,
    /// Share of the host's CPU time stolen by the hypervisor meanwhile.
    pub steal: f64,
    pub first_window: u64,
    pub last_window: u64,
}

impl Replay<'_> {
    /// Serves one window; returns its latency, its new items, its id and
    /// how long the main thread waited on its helpers.
    fn step(&mut self) -> (Duration, usize, u64, Duration) {
        let t_gen = Instant::now();
        let Ticket { window, expected } = self.generator.next();
        let mut waited = t_gen.elapsed();
        let items = workload::new_items(self.workload, &window);
        let window_id = window.id;
        let t0 = Instant::now();
        let answer = match self.engine {
            Engine::Lanes(engine) => {
                engine.submit(window).expect("engine accepts the window");
                loop {
                    if let Some(out) = engine.poll_output() {
                        break Answer::Lanes(Box::new(out));
                    }
                    std::thread::sleep(POLL);
                }
            }
            Engine::Tenants(engine) => {
                Answer::Tenants(engine.process(&window).map_err(|e| e.to_string()))
            }
        };
        let latency = t0.elapsed();
        let t_chk = Instant::now();
        self.checker.send(CheckJob { window_id, expected, answer });
        waited += t_chk.elapsed();
        (latency, items, window_id, waited)
    }

    /// Serves windows until per-window latency is level: the medians of the
    /// last two blocks of `block` windows differ by at most 5%, after at
    /// least `min_windows`. Gives up after `cap`. Returns the windows served.
    pub fn warm_up(&mut self, min_windows: usize, block: usize, cap: Duration) -> usize {
        let start = Instant::now();
        let mut lat: Vec<f64> = Vec::new();
        loop {
            lat.push(self.step().0.as_secs_f64() * 1e3);
            let n = lat.len();
            if n >= min_windows && n >= 2 * block && n.is_multiple_of(block) {
                let a = median(&lat[n - 2 * block..n - block]);
                let b = median(&lat[n - block..]);
                if (b - a).abs() <= 0.05 * a {
                    return n;
                }
            }
            if start.elapsed() >= cap {
                return n;
            }
        }
    }

    /// Serves windows for `seconds` of wall time (helper waits excluded).
    pub fn timed(&mut self, seconds: f64) -> Phase {
        let gen0 = self.generator.cpu_s();
        let chk0 = self.checker.cpu_s();
        let cpu0 = process_cpu_s();
        let ticks0 = host_ticks();
        let t0 = Instant::now();
        let mut waited = Duration::ZERO;
        let mut phase = Phase::default();
        while (t0.elapsed() - waited).as_secs_f64() < seconds {
            let (latency, items, id, w) = self.step();
            waited += w;
            if phase.latencies_ms.is_empty() {
                phase.first_window = id;
            }
            phase.last_window = id;
            phase.latencies_ms.push(latency.as_secs_f64() * 1e3);
            phase.new_items += items as u64;
        }
        phase.wall_s = (t0.elapsed() - waited).as_secs_f64();
        let helpers = (self.generator.cpu_s() - gen0) + (self.checker.cpu_s() - chk0);
        phase.cpu_s = process_cpu_s() - cpu0 - helpers;
        let ticks = host_ticks();
        phase.steal = (ticks.1 - ticks0.1) as f64 / (ticks.0 - ticks0.0).max(1) as f64;
        phase
    }
}

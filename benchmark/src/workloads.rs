//! The six workloads: what each runs, how one decision is checked, and the
//! two ways of driving them — an untraced closed loop for the end-to-end
//! numbers and a traced pool pass for the per-layer numbers.
//!
//! One closed-loop client: the next decision starts when the previous one
//! has been checked. The driver is this single thread; every other thread
//! is one the system under test spawns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use convex_agreement::ba::{lba_plus, BaKind};
use convex_agreement::bits::{Int, Nat};
use convex_agreement::core::{check_agreement, check_convex_validity, pi_n, pi_z};
use convex_agreement::engine::loadgen::{derive_seed, plan_of, run_load, session_inputs};
use convex_agreement::engine::{run_engine_party, EngineStats, LoadProfile};
use convex_agreement::net::{max_faults, Comm, Corruption, PartyId, Sim};
use convex_agreement::runtime::{RuntimeStats, TcpCluster};

use crate::clock::process_cpu_ns;
use crate::gen::{int_pool, payload_pool, seed_pool, POOL};
use crate::span::{Breakdown, SpanComm, Trace, Transport};

/// Warm-up decisions per set-up, discarded. One is enough: on every
/// workload the first decision of a process times like the tenth (README,
/// "Known limits"), and each warm-up is paid once per set-up repetition.
const WARMUPS: usize = 1;
/// An untraced run sets up at least this often, and goes on (up to
/// [`MAX_SETUPS`]) while all set-ups together have taken less than
/// [`SETUP_BUDGET_S`]: a cheap set-up is also a noisy one, and repeating
/// it costs little. `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.5;
/// Fewest timed steps of an untraced run, however short `--seconds` is.
const MIN_STEPS: usize = 12;
/// Untraced reference decisions a traced run times before tracing.
const REFERENCE_STEPS: usize = 3;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// One set-up, one warm-up, one pool pass: a quick local check.
    pub smoke: bool,
    /// Zero of every span's clock.
    pub epoch: Instant,
}

/// Raw results of an untraced run.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Seconds each set-up took.
    pub setups_s: Vec<f64>,
    /// Wall milliseconds of each timed step, in order: call to return.
    pub step_ms: Vec<f64>,
    /// From the start of each timed step to the start of the next (the end
    /// of the run for the last): wall milliseconds, and the processor
    /// milliseconds the whole process consumed meanwhile.
    pub period_ms: Vec<f64>,
    pub period_cpu_ms: Vec<f64>,
    /// Decisions a step carries: 1, or the engine's sessions per batch.
    pub decisions_per_step: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wire_bytes_per_decision: f64,
    pub rounds_per_decision: f64,
}

impl Untraced {
    /// Fills the periods from the instant and process processor time at
    /// each timed step's start, plus one entry for the end of the last.
    fn set_periods(&mut self, marks: &[(Instant, u64)]) {
        for pair in marks.windows(2) {
            self.period_ms
                .push((pair[1].0 - pair[0].0).as_secs_f64() * 1e3);
            self.period_cpu_ms
                .push((pair[1].1 - pair[0].1) as f64 / 1e6);
        }
    }
}

/// Raw results of a traced run.
#[derive(Debug, Default)]
pub struct Traced {
    pub layers: Breakdown,
    /// Traced steps and the decisions they carried.
    pub steps: u64,
    pub decisions: u64,
    /// Decisions run in all, untraced ones included, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Wall and processor time of the traced steps, whole process.
    pub wall_ns: u64,
    pub process_cpu_ns: u64,
    /// Wall of the untraced reference steps run just before, and of the
    /// traced steps on the same pool slots: what the tracing costs.
    pub reference_ms: f64,
    pub traced_like_reference_ms: f64,
    /// `ℓn + 256·n²·⌈log₂n⌉²`, the bit bound one decision is held against.
    pub bit_bound: f64,
    pub runtime: Option<RuntimeLayer>,
    pub engine: Option<EngineStats>,
    /// Every thread's spans of the first traced decision, for the trace file.
    pub first_decision: Vec<Trace>,
}

/// What only the TCP runtime can report.
#[derive(Debug, Default)]
pub struct RuntimeLayer {
    pub establish_ms: f64,
    pub frames_per_decision: f64,
    pub frames_shed: u64,
    pub peers_gone: u64,
}

pub const NAMES: [&str; 6] = [
    "sim_small",
    "sim_bulk",
    "lba_bulk",
    "lba_bulk_crash",
    "tcp_small",
    "engine_mux",
];

pub fn run_untraced(workload: &str, cfg: &Config) -> Option<Untraced> {
    Some(match workload {
        "sim_small" => closed_loop(cfg, || PiZ::new(cfg.seed, "sim_small", SMALL_ELL)),
        "sim_bulk" => closed_loop(cfg, || PiZ::new(cfg.seed, "sim_bulk", BULK_ELL)),
        "lba_bulk" => closed_loop(cfg, || Lba::new(cfg.seed, "lba_bulk", 0)),
        "lba_bulk_crash" => closed_loop(cfg, || Lba::new(cfg.seed, "lba_bulk_crash", LBA_T)),
        "tcp_small" => tcp_untraced(cfg),
        "engine_mux" => closed_loop(cfg, || Engine::new(cfg.seed)),
        _ => return None,
    })
}

pub fn run_traced(workload: &str, cfg: &Config) -> Option<Traced> {
    Some(match workload {
        "sim_small" => traced_pass(cfg, &PiZ::new(cfg.seed, "sim_small", SMALL_ELL)),
        "sim_bulk" => traced_pass(cfg, &PiZ::new(cfg.seed, "sim_bulk", BULK_ELL)),
        "lba_bulk" => traced_pass(cfg, &Lba::new(cfg.seed, "lba_bulk", 0)),
        "lba_bulk_crash" => traced_pass(cfg, &Lba::new(cfg.seed, "lba_bulk_crash", LBA_T)),
        "tcp_small" => tcp_traced(cfg),
        "engine_mux" => traced_pass(cfg, &Engine::new(cfg.seed)),
        _ => return None,
    })
}

/// `ℓn + 256·n²·⌈log₂n⌉²`: the paper's bound with κ = 256 and constant 1.
fn bit_bound(ell: usize, n: usize) -> f64 {
    let log = (n as f64).log2().ceil();
    (ell * n) as f64 + 256.0 * (n * n) as f64 * log * log
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Where the threads of a traced decision leave their recordings.
pub struct Tracer {
    epoch: Instant,
    done: Mutex<Vec<Trace>>,
}

impl Tracer {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            done: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> Vec<Trace> {
        std::mem::take(&mut self.done.lock().expect("a traced party panicked"))
    }
}

/// Runs `f` on `ctx` itself when untraced — nothing is interposed — or on
/// a [`SpanComm`] around it when traced.
fn with_comm<R>(
    ctx: &mut dyn Comm,
    tracer: Option<(&Tracer, u32)>,
    track: u32,
    f: impl FnOnce(&mut dyn Comm) -> R,
) -> R {
    let Some((tracer, decision)) = tracer else {
        return f(ctx);
    };
    let mut comm = SpanComm::new(ctx, tracer.epoch, decision, track);
    let out = f(&mut comm);
    let trace = comm.finish();
    tracer
        .done
        .lock()
        .expect("a traced party panicked")
        .push(trace);
    out
}

// ---------------------------------------------------------------------------
// Workloads hosted on `Sim`: one `Sim::run` per step
// ---------------------------------------------------------------------------

/// What one step cost and whether its outputs were right.
struct StepOut {
    failed: u64,
    /// Bytes all honest parties sent during the step.
    wire_bytes: u64,
    /// Rounds each decision of the step lasted.
    rounds: u64,
    engine: Option<EngineStats>,
}

trait Hosted {
    /// Decisions one step carries.
    const DECISIONS: u64 = 1;
    /// Parties, and the input length in bits, for the bit bound.
    fn shape(&self) -> (usize, usize);
    /// Runs and checks the decision(s) of pool slot `slot`.
    fn step(&self, slot: usize, tracer: Option<(&Tracer, u32)>) -> StepOut;
}

const SIM_N: usize = 16;
const SMALL_ELL: usize = 256;
const BULK_ELL: usize = 1 << 21;
/// Low bits the honest inputs disagree on.
const SPREAD_BITS: usize = 64;

/// `Π_ℤ` over `Sim::new(16)` on clustered inputs.
struct PiZ {
    ell: usize,
    pool: Vec<Vec<Int>>,
}

impl PiZ {
    fn new(seed: u64, workload: &str, ell: usize) -> Self {
        Self {
            ell,
            pool: int_pool(seed, workload, SIM_N, ell, SPREAD_BITS),
        }
    }
}

fn decided_in_hull(outputs: &[Int], inputs: &[Int]) -> bool {
    outputs.len() == inputs.len()
        && check_agreement(outputs)
        && check_convex_validity(outputs, inputs)
}

impl Hosted for PiZ {
    fn shape(&self) -> (usize, usize) {
        (SIM_N, self.ell)
    }

    fn step(&self, slot: usize, tracer: Option<(&Tracer, u32)>) -> StepOut {
        let inputs = &self.pool[slot];
        let report = Sim::new(SIM_N).run(|ctx, id| {
            with_comm(ctx, tracer, 0, |c| {
                pi_z(c, &inputs[id.index()], BaKind::default())
            })
        });
        let outputs: Vec<Int> = report.outputs.into_iter().flatten().collect();
        StepOut {
            failed: u64::from(!decided_in_hull(&outputs, inputs)),
            wire_bytes: report.metrics.honest_bits / 8,
            rounds: report.metrics.rounds,
            engine: None,
        }
    }
}

const LBA_N: usize = 31;
const LBA_T: usize = 10;
const LBA_PAYLOAD: usize = 1 << 20;

/// `Π_ℓBA+` over `Sim::new(31)` (k = 21), every honest party holding the
/// same 1 MiB payload; parties `0..crashed` are silent from the start.
struct Lba {
    crashed: usize,
    pool: Vec<Vec<u8>>,
}

impl Lba {
    fn new(seed: u64, workload: &str, crashed: usize) -> Self {
        Self {
            crashed,
            pool: payload_pool(seed, workload, LBA_PAYLOAD),
        }
    }
}

impl Hosted for Lba {
    fn shape(&self) -> (usize, usize) {
        (LBA_N, 8 * LBA_PAYLOAD)
    }

    fn step(&self, slot: usize, tracer: Option<(&Tracer, u32)>) -> StepOut {
        let payload = &self.pool[slot];
        let sim = (0..self.crashed).fold(Sim::new(LBA_N), |sim, p| {
            sim.corrupt(PartyId(p), Corruption::Scripted)
        });
        let report = sim.run(|ctx, _| {
            with_comm(ctx, tracer, 0, |c| {
                lba_plus::<Vec<u8>>(c, payload, BaKind::default())
            })
        });
        let honest = report.honest_outputs();
        let ok = honest.len() == LBA_N - self.crashed
            && honest.iter().all(|out| out.as_ref() == Some(payload));
        StepOut {
            failed: u64::from(!ok),
            wire_bytes: report.metrics.honest_bits / 8,
            rounds: report.metrics.rounds,
            engine: None,
        }
    }
}

const ENGINE_N: usize = 7;
const ENGINE_SESSIONS: usize = 64;

/// One closed-loop engine deployment per step: 64 sessions of `Π_ℕ` on
/// 256-bit inputs, multiplexed over one `Sim::new(7)` transport. The
/// engine's load generator draws the inputs from the slot's seed.
struct Engine {
    seeds: Vec<u64>,
}

impl Engine {
    fn new(seed: u64) -> Self {
        Self {
            seeds: seed_pool(seed, "engine_mux"),
        }
    }

    fn profile(&self, slot: usize) -> LoadProfile {
        let mut profile = LoadProfile::closed(ENGINE_N, ENGINE_SESSIONS, SMALL_ELL);
        profile.config.max_sessions = ENGINE_SESSIONS;
        profile.seed = self.seeds[slot];
        profile
    }
}

impl Hosted for Engine {
    const DECISIONS: u64 = ENGINE_SESSIONS as u64;

    fn shape(&self) -> (usize, usize) {
        (ENGINE_N, SMALL_ELL)
    }

    fn step(&self, slot: usize, tracer: Option<(&Tracer, u32)>) -> StepOut {
        let profile = self.profile(slot);
        let (correct, decided, stats) = match tracer {
            None => {
                let report = run_load(&profile);
                (
                    report.agreement && report.validity,
                    report.sessions_decided,
                    report.stats,
                )
            }
            Some(tracer) => traced_deployment(&profile, tracer),
        };
        StepOut {
            // A wrong batch counts whole; a right one only what it left undecided.
            failed: if correct {
                Self::DECISIONS - decided.min(Self::DECISIONS)
            } else {
                Self::DECISIONS
            },
            wire_bytes: stats.wire_bits / 8,
            rounds: stats.engine_rounds,
            engine: Some(stats),
        }
    }
}

/// `ca_engine::loadgen::run_load`, with a [`SpanComm`] under
/// `run_engine_party` and one on every session's `Comm`. The load
/// generator's own pieces (`plan_of`, `session_inputs`, `derive_seed`) are
/// public; only the `Sim::run` closure is restated here.
fn traced_deployment(profile: &LoadProfile, tracer: (&Tracer, u32)) -> (bool, u64, EngineStats) {
    let n = profile.n;
    let t = max_faults(n);
    let plan = plan_of(profile);
    let inputs: Vec<Vec<Nat>> = (0..profile.sessions as u64)
        .map(|sid| {
            session_inputs(
                derive_seed(profile.seed, sid),
                n,
                t,
                profile.ell,
                profile.spread_bits,
                &profile.attack,
            )
        })
        .collect();
    let report = Sim::new(n).run(|ctx, _| {
        with_comm(ctx, Some(tracer), 0, |c| {
            run_engine_party(c, &plan, &profile.config, |sctx, sid| {
                let input = &inputs[sid.0 as usize][sctx.me().index()];
                with_comm(sctx, Some(tracer), 1 + sid.0 as u32, |sc| {
                    pi_n(sc, input, profile.ba)
                })
            })
        })
    });
    let outputs = report.honest_outputs();
    let mut correct = outputs.len() == n;
    let mut stats = EngineStats::default();
    for out in &outputs {
        stats.absorb(&out.stats);
    }
    stats.engine_rounds /= outputs.len().max(1) as u64;
    let decided = outputs.first().map_or(0, |first| first.decided.len());
    for (sid, session_inputs) in inputs.iter().enumerate() {
        let sid = convex_agreement::engine::SessionId(sid as u64);
        let decisions: Vec<Nat> = outputs
            .iter()
            .filter_map(|out| out.output_of(sid).cloned())
            .collect();
        correct &= decisions.len() == n
            && check_agreement(&decisions)
            && check_convex_validity(&decisions, session_inputs);
    }
    (correct, decided as u64, stats)
}

/// Whether a run that has set up `done` times should set up again.
fn another_setup(cfg: &Config, done: &[f64]) -> bool {
    if cfg.smoke {
        return done.is_empty();
    }
    done.len() < MIN_SETUPS
        || (done.len() < MAX_SETUPS && done.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// The untraced closed loop: set up several times, then run steps
/// for `cfg.seconds` (and at least [`MIN_STEPS`]), cycling the pool.
fn closed_loop<W: Hosted>(cfg: &Config, build: impl Fn() -> W) -> Untraced {
    let mut result = Untraced {
        decisions_per_step: W::DECISIONS,
        ..Untraced::default()
    };
    let mut workload = None;
    while another_setup(cfg, &result.setups_s) {
        let started = Instant::now();
        let w = build();
        for slot in 0..WARMUPS {
            // A failed warm-up is a failed run: count it like a decision.
            let out = w.step(slot % POOL, None);
            result.attempted += W::DECISIONS;
            result.failed += out.failed;
        }
        result.setups_s.push(started.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let workload = workload.expect("at least one set-up");

    let (mut pass_bytes, mut pass_rounds) = (0u64, 0u64);
    let started = Instant::now();
    let mut marks = vec![(started, process_cpu_ns())];
    let mut step = 0usize;
    loop {
        let out = workload.step(step % POOL, None);
        let returned = marks[step].0.elapsed();
        result.step_ms.push(returned.as_secs_f64() * 1e3);
        result.attempted += W::DECISIONS;
        result.failed += out.failed;
        if step < POOL {
            pass_bytes += out.wire_bytes;
            pass_rounds += out.rounds;
        }
        step += 1;
        marks.push((Instant::now(), process_cpu_ns()));
        let enough = if cfg.smoke {
            step >= POOL
        } else {
            step >= MIN_STEPS && started.elapsed().as_secs_f64() >= cfg.seconds
        };
        if enough {
            break;
        }
    }
    result.set_periods(&marks);
    result.wire_bytes_per_decision = pass_bytes as f64 / (POOL as u64 * W::DECISIONS) as f64;
    result.rounds_per_decision = pass_rounds as f64 / POOL as f64;
    result
}

/// The traced run: one warm-up, [`REFERENCE_STEPS`] untraced steps to
/// price the tracing against, then one traced pass over the pool.
fn traced_pass<W: Hosted>(cfg: &Config, workload: &W) -> Traced {
    let (n, ell) = workload.shape();
    let mut result = Traced {
        bit_bound: bit_bound(ell, n),
        attempted: (1 + REFERENCE_STEPS + POOL) as u64 * W::DECISIONS,
        ..Traced::default()
    };
    result.failed += workload.step(POOL - 1, None).failed;
    for slot in 0..REFERENCE_STEPS {
        let started = Instant::now();
        result.failed += workload.step(slot, None).failed;
        result.reference_ms += started.elapsed().as_secs_f64() * 1e3;
    }

    let tracer = Tracer::new(cfg.epoch);
    let mut engine_stats: Option<EngineStats> = None;
    for slot in 0..POOL {
        let cpu_before = process_cpu_ns();
        let started = Instant::now();
        let out = workload.step(slot, Some((&tracer, slot as u32)));
        let wall_ns = started.elapsed().as_nanos() as u64;
        result.wall_ns += wall_ns;
        if slot < REFERENCE_STEPS {
            result.traced_like_reference_ms += wall_ns as f64 / 1e6;
        }
        result.process_cpu_ns += process_cpu_ns() - cpu_before;
        result.failed += out.failed;
        result.steps += 1;
        result.decisions += W::DECISIONS;
        if let Some(stats) = out.engine {
            engine_stats
                .get_or_insert_with(EngineStats::default)
                .absorb(&stats);
        }
        let traces = tracer.take();
        result.layers.absorb_decision(&traces, Transport::Sim);
        if slot == 0 {
            result.first_decision = traces;
        }
    }
    result.engine = engine_stats;
    result
}

// ---------------------------------------------------------------------------
// tcp_small: one cluster, decisions back to back over the same connections
// ---------------------------------------------------------------------------

const TCP_N: usize = 7;
/// Never fires on loopback: a round ends when every peer's marker is in.
const TCP_DELTA: Duration = Duration::from_secs(5);

/// How a cluster's parties decide when to stop.
enum Stop {
    /// After exactly this many decisions.
    Count(u64),
    /// Once party 0 has timed [`MIN_STEPS`] decisions and this many seconds.
    After(f64),
}

/// What one party brings back from a cluster run.
struct PartyRun {
    outputs: Vec<Int>,
    /// Party 0 only: wall of each decision, and the instant and process
    /// processor time at which decision `i` started (one extra entry for
    /// the end of the last).
    step_ms: Vec<f64>,
    marks: Vec<(Instant, u64)>,
    entered: Instant,
}

struct ClusterRun {
    parties: Vec<PartyRun>,
    stats: Vec<RuntimeStats>,
    rounds: u64,
    called: Instant,
}

/// Runs one cluster: every party decides `Π_ℤ` on pool slot `i % POOL` for
/// `i = 0, 1, …` until `stop` says so. With a `tracer`, decisions from the
/// index given beside it run under a [`SpanComm`].
fn tcp_cluster(
    pool: &[Vec<Int>],
    stop: Stop,
    tracer: Option<(&Tracer, u64)>,
) -> Result<ClusterRun, String> {
    // The parties are in lock-step, so none can finish decision i + 1
    // before party 0 has finished decision i and published the limit:
    // every party reads the same limit before starting decision i + 2.
    let limit = AtomicU64::new(match stop {
        Stop::Count(count) => count,
        Stop::After(_) => u64::MAX,
    });
    let called = Instant::now();
    let report = TcpCluster::new(TCP_N)
        .with_delta(TCP_DELTA)
        .run_report(|ctx, id| {
            let me = id.index();
            let mut run = PartyRun {
                outputs: Vec::new(),
                step_ms: Vec::new(),
                marks: Vec::new(),
                entered: Instant::now(),
            };
            let mut i = 0u64;
            while i < limit.load(Ordering::SeqCst) {
                if me == 0 {
                    run.marks.push((Instant::now(), process_cpu_ns()));
                }
                let input = &pool[i as usize % POOL][me];
                let tracing = tracer
                    .filter(|(_, from)| i >= *from)
                    .map(|(t, from)| (t, (i - from) as u32));
                let out = with_comm(ctx, tracing, 0, |c| pi_z(c, input, BaKind::default()));
                run.outputs.push(out);
                i += 1;
                if me == 0 {
                    let (started, _) = run.marks[run.marks.len() - 1];
                    run.step_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    if let Stop::After(seconds) = stop {
                        let timed = i.saturating_sub(WARMUPS as u64);
                        let since = run
                            .marks
                            .get(WARMUPS)
                            .map_or(0.0, |m| m.0.elapsed().as_secs_f64());
                        if limit.load(Ordering::SeqCst) == u64::MAX
                            && timed >= MIN_STEPS as u64
                            && since >= seconds
                        {
                            // One more decision is already under way elsewhere.
                            limit.store(i + 1, Ordering::SeqCst);
                        }
                    }
                }
            }
            if me == 0 {
                run.marks.push((Instant::now(), process_cpu_ns()));
            }
            run
        })
        .map_err(|e| format!("tcp cluster: {e}"))?;
    Ok(ClusterRun {
        parties: report.outputs,
        stats: report.stats,
        rounds: report.rounds.first().copied().unwrap_or(0),
        called,
    })
}

/// Decisions of `run`, from `from` on, whose outputs fail the check.
fn tcp_failures(pool: &[Vec<Int>], run: &ClusterRun, from: usize) -> u64 {
    let decisions = run
        .parties
        .iter()
        .map(|p| p.outputs.len())
        .min()
        .unwrap_or(0);
    (from..decisions)
        .filter(|&i| {
            let outputs: Vec<Int> = run.parties.iter().map(|p| p.outputs[i].clone()).collect();
            !decided_in_hull(&outputs, &pool[i % POOL])
        })
        .count() as u64
}

fn wire_bytes(stats: &[RuntimeStats]) -> u64 {
    stats.iter().map(|s| s.wire_bytes_sent).sum()
}

fn tcp_untraced(cfg: &Config) -> Untraced {
    let mut result = Untraced {
        decisions_per_step: 1,
        ..Untraced::default()
    };
    let pool_started = Instant::now();
    let pool = int_pool(cfg.seed, "tcp_small", TCP_N, SMALL_ELL, SPREAD_BITS);
    let pool_s = pool_started.elapsed().as_secs_f64();
    let warmups = WARMUPS as u64;
    let failed_run = |result: &mut Untraced, planned: u64, why: String| {
        eprintln!("{why}");
        result.attempted += planned;
        result.failed += planned;
    };

    // Set-ups that stop after the warm-ups, then one that goes on for a
    // pool pass. The difference between the last two is what one pool pass
    // puts on the wire: same connections, same warm-ups, and the same round
    // numbers in the frame headers, whose encoding grows with the round.
    let mut clusters: Vec<ClusterRun> = Vec::new();
    let mut attempts = 0;
    loop {
        // The pool-pass cluster comes last and is a set-up like the others.
        let last = attempts >= MAX_SETUPS || !another_setup(cfg, &result.setups_s);
        let decisions = if last { warmups + POOL as u64 } else { warmups };
        attempts += 1;
        match tcp_cluster(&pool, Stop::Count(decisions), None) {
            Ok(run) => {
                let ready = run.parties[0].marks[WARMUPS].0;
                result
                    .setups_s
                    .push(pool_s + (ready - run.called).as_secs_f64());
                result.attempted += decisions;
                result.failed += tcp_failures(&pool, &run, 0);
                clusters.push(run);
            }
            Err(why) => failed_run(&mut result, decisions, why),
        }
        if last {
            break;
        }
    }
    if let [.., base, pass] = &clusters[..] {
        result.wire_bytes_per_decision =
            (wire_bytes(&pass.stats) - wire_bytes(&base.stats)) as f64 / POOL as f64;
        result.rounds_per_decision = (pass.rounds - base.rounds) as f64 / POOL as f64;
    }

    let stop = if cfg.smoke {
        Stop::Count(warmups + POOL as u64)
    } else {
        Stop::After(cfg.seconds)
    };
    let run = match tcp_cluster(&pool, stop, None) {
        Ok(run) => run,
        Err(why) => {
            failed_run(&mut result, MIN_STEPS as u64, why);
            return result;
        }
    };
    let lead = &run.parties[0];
    let first = lead.marks[WARMUPS].0;
    result
        .setups_s
        .push(pool_s + (first - run.called).as_secs_f64());
    result.step_ms = lead.step_ms[WARMUPS..].to_vec();
    result.set_periods(&lead.marks[WARMUPS..]);
    result.attempted += lead.step_ms.len() as u64;
    result.failed += tcp_failures(&pool, &run, 0);
    result
}

fn tcp_traced(cfg: &Config) -> Traced {
    let mut result = Traced {
        bit_bound: bit_bound(SMALL_ELL, TCP_N),
        ..Traced::default()
    };
    let pool = int_pool(cfg.seed, "tcp_small", TCP_N, SMALL_ELL, SPREAD_BITS);
    let untraced = 1 + REFERENCE_STEPS;
    let total = (untraced + POOL) as u64;
    result.attempted = total;
    let tracer = Tracer::new(cfg.epoch);
    let run = match tcp_cluster(&pool, Stop::Count(total), Some((&tracer, untraced as u64))) {
        Ok(run) => run,
        Err(why) => {
            eprintln!("{why}");
            result.failed = total;
            return result;
        }
    };
    let lead = &run.parties[0];
    result.failed = tcp_failures(&pool, &run, 0);
    // Decision i runs slot i % POOL: the untraced decisions 1..=3 meet
    // their slots again as traced decisions POOL + 1..=POOL + 3.
    result.reference_ms = lead.step_ms[1..untraced].iter().sum();
    result.traced_like_reference_ms = lead.step_ms[POOL + 1..POOL + untraced].iter().sum();
    result.steps = POOL as u64;
    result.decisions = POOL as u64;
    let (first, last) = (lead.marks[untraced], lead.marks[lead.marks.len() - 1]);
    result.wall_ns = (last.0 - first.0).as_nanos() as u64;
    result.process_cpu_ns = last.1 - first.1;
    let traces = tracer.take();
    for decision in 0..POOL as u32 {
        let of_decision: Vec<Trace> = traces
            .iter()
            .filter(|t| t.decision == decision)
            .cloned()
            .collect();
        result.layers.absorb_decision(&of_decision, Transport::Tcp);
        if decision == 0 {
            result.first_decision = of_decision;
        }
    }
    result.runtime = Some(RuntimeLayer {
        establish_ms: (lead.entered - run.called).as_secs_f64() * 1e3,
        frames_per_decision: run.stats.iter().map(|s| s.frames_sent).sum::<u64>() as f64
            / total as f64,
        frames_shed: run.stats.iter().map(|s| s.frames_shed).sum(),
        peers_gone: run.stats.iter().map(|s| s.peers_gone).sum(),
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config {
            seed: 1,
            seconds: 0.0,
            smoke: true,
            epoch: Instant::now(),
        }
    }

    #[test]
    fn bit_bound_matches_the_formula() {
        // n = 16: 256·16 + 256·256·4² = 4096 + 1 048 576.
        assert_eq!(bit_bound(256, 16), 4096.0 + 1_048_576.0);
        // n = 7: ⌈log₂7⌉ = 3.
        assert_eq!(bit_bound(256, 7), 1792.0 + 256.0 * 49.0 * 9.0);
    }

    #[test]
    fn every_name_is_a_workload() {
        let cfg = quick();
        assert!(run_untraced("no_such_workload", &cfg).is_none());
        assert!(run_traced("no_such_workload", &cfg).is_none());
    }

    #[test]
    fn small_sim_workload_counts_and_checks() {
        let out = run_untraced("sim_small", &quick()).unwrap();
        assert_eq!(out.step_ms.len(), POOL);
        assert_eq!((out.attempted, out.failed), (1 + POOL as u64, 0));
        assert!(out.wire_bytes_per_decision > 0.0 && out.rounds_per_decision > 100.0);
        // Same seed, same inputs: the exact metrics repeat to the digit.
        let again = run_untraced("sim_small", &quick()).unwrap();
        assert_eq!(out.wire_bytes_per_decision, again.wire_bytes_per_decision);
        assert_eq!(out.rounds_per_decision, again.rounds_per_decision);
    }

    #[test]
    fn a_wrong_output_is_counted_as_failed() {
        let w = PiZ::new(1, "sim_small", SMALL_ELL);
        let inputs = &w.pool[0];
        assert!(decided_in_hull(&vec![inputs[0].clone(); SIM_N], inputs));
        let mut outputs = vec![inputs[0].clone(); SIM_N];
        outputs[3] = inputs[1].clone();
        assert!(!decided_in_hull(&outputs, inputs), "disagreement");
        assert!(
            !decided_in_hull(&outputs[1..], inputs),
            "a party without output"
        );
        let outside = Int::from_i64(0);
        assert!(
            !decided_in_hull(&vec![outside; SIM_N], inputs),
            "outside the hull"
        );
    }

    #[test]
    fn traced_small_sim_pass_accounts_for_its_time() {
        let t = run_traced("sim_small", &quick()).unwrap();
        assert_eq!(
            (t.steps, t.decisions, t.failed),
            (POOL as u64, POOL as u64, 0)
        );
        assert_eq!(t.first_decision.len(), SIM_N);
        assert_eq!(
            t.layers.cpu_ns.values().sum::<u64>(),
            t.layers.threads_cpu_ns
        );
        assert!(t.layers.threads_cpu_ns <= t.process_cpu_ns);
        assert!(t.layers.lead_root_wall_ns <= t.wall_ns);
        assert!(t.layers.lead_next_round_wall_ns < t.layers.lead_root_wall_ns);
        assert!(t.layers.cpu_ns["core.find_prefix.cpu_ms"] > 0);
    }

    #[test]
    fn tcp_pool_passes_make_the_exact_metrics_repeat() {
        let a = run_untraced("tcp_small", &quick()).unwrap();
        let b = run_untraced("tcp_small", &quick()).unwrap();
        assert_eq!((a.failed, b.failed), (0, 0));
        assert_eq!(a.step_ms.len(), POOL);
        assert!(a.wire_bytes_per_decision > 0.0);
        assert_eq!(a.wire_bytes_per_decision, b.wire_bytes_per_decision);
        assert_eq!(a.rounds_per_decision, b.rounds_per_decision);
    }
}

//! The two session hosts are one engine: a plan run through the fiber
//! host (`run_engine_party`, blocking `pi_n`) and through the task host
//! (`run_engine_party_async`, `pi_n_async`) decides the same values with
//! the same `EngineStats` and writes a byte-identical JSONL trace, honest
//! and under attack.

use std::sync::Arc;

use ca_adversary::{Attack, AttackKind};
use ca_ba::BaKind;
use ca_bits::Nat;
use ca_core::{pi_n, pi_n_async};
use ca_engine::loadgen::{derive_seed, session_inputs};
use ca_engine::{
    run_engine_party, run_engine_party_async, EngineConfig, EngineOutput, SessionPlan,
};
use ca_net::{max_faults, Sim};
use ca_trace::{RingBufferSink, TraceSink};

const N: usize = 4;
const K: usize = 5;

/// Every honest party's engine output, and the run's trace as JSONL.
type Run = (Vec<Option<EngineOutput<Nat>>>, String);

fn run(attack: Attack, polled: bool) -> Run {
    let t = max_faults(N);
    let inputs: Vec<Vec<Nat>> = (0..K as u64)
        .map(|sid| session_inputs(derive_seed(7, sid), N, t, 64, 16, &attack))
        .collect();
    let plan = SessionPlan::closed(K);
    // Capacity 3 of 5: two sessions queue and are admitted mid-run.
    let config = EngineConfig { max_sessions: 3 };
    let sink = Arc::new(RingBufferSink::new(4_000_000));
    let sim = attack
        .install(Sim::new(N), N, t)
        .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let report = sim.run(|ctx, _| {
        if polled {
            run_engine_party_async(ctx, &plan, &config, async |sctx, sid| {
                let input = &inputs[sid.0 as usize][sctx.me().index()];
                pi_n_async(sctx, input, BaKind::TurpinCoan).await
            })
        } else {
            run_engine_party(ctx, &plan, &config, |sctx, sid| {
                let input = &inputs[sid.0 as usize][sctx.me().index()];
                pi_n(sctx, input, BaKind::TurpinCoan)
            })
        }
    });
    let records = sink.records();
    assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
    let jsonl = records.iter().map(|r| r.to_jsonl() + "\n").collect();
    (report.outputs, jsonl)
}

fn assert_hosts_agree(attack: Attack) {
    let name = attack.name();
    let (fibers, fiber_trace) = run(attack, false);
    let (tasks, task_trace) = run(attack, true);
    assert_eq!(fibers.len(), tasks.len());
    let mut decided = 0;
    for (party, (f, t)) in fibers.iter().zip(&tasks).enumerate() {
        match (f, t) {
            (Some(f), Some(t)) => {
                assert_eq!(f.decided, t.decided, "{name}: P{party} decisions");
                assert_eq!(f.stats, t.stats, "{name}: P{party} stats");
                assert_eq!(f.decided.len(), K, "{name}: P{party}");
                decided += 1;
            }
            (None, None) => {}
            _ => panic!("{name}: P{party} is honest under one host only"),
        }
    }
    assert!(
        decided >= N - max_faults(N),
        "{name}: {decided} honest parties"
    );
    assert!(
        fiber_trace.lines().count() > 1_000,
        "{name}: trace recorded"
    );
    assert!(fiber_trace == task_trace, "{name}: the JSONL traces differ");
}

#[test]
fn fiber_and_task_hosts_match_honest() {
    assert_hosts_agree(Attack::none());
}

#[test]
fn fiber_and_task_hosts_match_under_equivocation() {
    assert_hosts_agree(Attack::new(AttackKind::Equivocate).with_seed(5));
}

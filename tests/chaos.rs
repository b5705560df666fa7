//! Chaos test: an n = 4 TCP cluster keeps deciding when one party
//! crashes mid-protocol, and the honest parties' traces are
//! byte-deterministic across runs.
//!
//! Determinism needs two ingredients: every party runs on a frozen
//! [`ManualClock`] (so the `Δ`-timeout path is never taken — rounds end
//! only on end-of-round markers and disconnect observations), and the
//! crash is scripted with a [`FaultPlan`] instead of a real kill (so it
//! lands at the same round every run). The only records whose position
//! is inherently racy are `peer_gone` observations — stream EOFs are
//! asynchronous — so the byte comparison strips those lines (their
//! *content* is still asserted separately).

#![expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]

use std::path::Path;
use std::time::Duration;

use convex_agreement::net::{Comm, CommExt, PartyId};
use convex_agreement::runtime::{Clock, FaultPlan, ManualClock, TcpCluster};
use convex_agreement::trace::{check, read_jsonl, Event};

const N: usize = 4;
const CRASH_PARTY: usize = 3;
const CRASH_ROUND: u64 = 3;
const ROUNDS: u64 = 6;
const INPUTS: [u64; N] = [10, 40, 20, 30];

/// Iterated midpoint over `u64`: a convex-agreement stand-in that is
/// deterministic, converges fast, and — crucially for a chaos test —
/// tolerates empty inboxes (a crashed party's transport returns nothing,
/// and the protocol code on top must not panic).
fn iterated_midpoint(ctx: &mut dyn Comm, id: PartyId) -> u64 {
    ctx.scoped("chaos", |ctx| {
        let mut v = INPUTS[id.index()];
        ctx.trace_input(|| v.to_string());
        for _ in 0..ROUNDS {
            let inbox = ctx.exchange(&v);
            let vals: Vec<u64> = inbox
                .decode_each::<u64>()
                .into_iter()
                .map(|(_, x)| x)
                .collect();
            if let (Some(&min), Some(&max)) = (vals.iter().min(), vals.iter().max()) {
                v = min + (max - min) / 2;
            }
        }
        ctx.trace_decide(|| v.to_string());
        v
    })
}

fn run_cluster(trace_dir: &Path) -> convex_agreement::runtime::ClusterReport<u64> {
    TcpCluster::new(N)
        // Δ is huge on purpose: under a frozen clock the timeout path
        // must never fire; rounds end via markers and EOFs alone.
        .with_delta(Duration::from_secs(3600))
        .with_clock_factory(|_| -> Box<dyn Clock> { Box::new(ManualClock::new()) })
        .with_fault_plan(CRASH_PARTY, FaultPlan::new().crash_at(CRASH_ROUND))
        .with_trace_dir(trace_dir)
        .run_report(iterated_midpoint)
        .expect("cluster run")
}

/// Trace bytes with the racy `peer_gone` observation lines removed.
fn stable_lines(path: &Path) -> String {
    std::fs::read_to_string(path)
        .expect("trace file")
        .lines()
        .filter(|line| !line.contains("\"ev\":\"peer_gone\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn cluster_decides_with_one_party_crashed_and_traces_deterministically() {
    let base = std::env::temp_dir().join(format!("ca_chaos_{}", std::process::id()));
    let dir_a = base.join("run_a");
    let dir_b = base.join("run_b");

    let report = run_cluster(&dir_a);

    // Every honest party decided, they agree, and the decision lies in
    // the honest input hull.
    let honest: Vec<u64> = (0..N)
        .filter(|&i| i != CRASH_PARTY)
        .map(|i| report.outputs[i])
        .collect();
    assert!(
        honest.windows(2).all(|w| w[0] == w[1]),
        "honest parties disagree: {honest:?}"
    );
    assert!(
        (10..=40).contains(&honest[0]),
        "decision {} outside input hull",
        honest[0]
    );

    // Every party ran the full schedule of rounds (the crashed party's
    // transport keeps counting calls; it just does nothing).
    assert_eq!(report.rounds, vec![ROUNDS; N]);

    // Each honest party observed exactly the crashed peer as gone; the
    // crashed party stops observing anything.
    for i in 0..N {
        let expected = u64::from(i != CRASH_PARTY);
        assert_eq!(
            report.stats[i].peers_gone, expected,
            "party {i} peers_gone: {:?}",
            report.stats[i]
        );
    }

    // The crashed party's trace records the injected fault; honest
    // traces each record the crashed peer's disappearance exactly once.
    for i in 0..N {
        let records = read_jsonl(&dir_a.join(format!("party_{i}.jsonl"))).expect("trace");
        let faults: Vec<_> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::FaultInjected { strategy } => Some((r.round, strategy.clone())),
                _ => None,
            })
            .collect();
        let gone: Vec<_> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::PeerGone { peer, reason } => Some((*peer, reason.clone())),
                _ => None,
            })
            .collect();
        if i == CRASH_PARTY {
            assert_eq!(faults, vec![(CRASH_ROUND, "crash".to_owned())]);
            assert_eq!(gone, vec![]);
        } else {
            assert_eq!(faults, vec![], "honest party {i} traced a fault");
            assert_eq!(
                gone,
                vec![(CRASH_PARTY as u64, "eof".to_owned())],
                "party {i}"
            );
        }
    }

    // The combined trace passes every invariant: the crashed party is
    // excluded (FaultInjected) and honest decides sit in the honest
    // input hull.
    let mut all = Vec::new();
    for i in 0..N {
        all.extend(read_jsonl(&dir_a.join(format!("party_{i}.jsonl"))).expect("trace"));
    }
    assert_eq!(check(&all), vec![]);

    // A second identical run produces byte-identical honest timelines
    // (modulo the stripped peer_gone observations).
    let report_b = run_cluster(&dir_b);
    assert_eq!(report.outputs, report_b.outputs);
    for i in 0..N {
        let a = stable_lines(&dir_a.join(format!("party_{i}.jsonl")));
        let b = stable_lines(&dir_b.join(format!("party_{i}.jsonl")));
        assert_eq!(a, b, "party {i} trace differs between identical runs");
    }

    std::fs::remove_dir_all(&base).ok();
}

/// Adversarial conformance of the fault-adaptive `Π_ℕ`: the
/// [`Attack::conformance_suite`] schedules are aimed squarely at an
/// optimistic fast path — misbehave exactly at the budget (`f = t` from
/// round 0), look clean then crash, or start faulting late — and under
/// every one of them the adaptive protocol must decide exactly what the
/// worst-case-only protocol decides, with traces that pass `ca-trace
/// check` and are byte-deterministic across reruns.
mod fast_path_conformance {
    use std::sync::Arc;

    use convex_agreement::adversary::Attack;
    use convex_agreement::ba::BaKind;
    use convex_agreement::bits::Nat;
    use convex_agreement::core::{pi_n, pi_n_adaptive};
    use convex_agreement::net::{max_faults, Comm, Sim};
    use convex_agreement::trace::{
        check, first_divergence, Event, Record, RingBufferSink, TraceSink,
    };

    const CN: usize = 7;
    const UNANIMOUS: u64 = 4242;

    /// Runs `proto` (`pi_n_adaptive`, or `pi_n` as the reference) at
    /// `n = 7`, `f = t` with unanimous honest inputs under `attack`;
    /// returns honest outputs plus the full trace.
    fn traced(
        attack: Attack,
        proto: fn(&mut dyn Comm, &Nat, BaKind) -> Nat,
    ) -> (Vec<Nat>, Vec<Record>) {
        let t = max_faults(CN);
        let sink = Arc::new(RingBufferSink::new(8_000_000));
        let report = attack
            .install(Sim::new(CN), CN, t)
            .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>)
            .run(move |ctx, _| proto(ctx, &Nat::from_u64(UNANIMOUS), BaKind::TurpinCoan));
        let outs = report.honest_outputs().into_iter().cloned().collect();
        let records = sink.records();
        assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
        (outs, records)
    }

    fn took_fast_path(records: &[Record]) -> bool {
        records
            .iter()
            .any(|r| matches!(r.event, Event::FastPathTaken { .. }))
    }

    #[test]
    fn conformance_suite_agrees_across_paths_with_clean_deterministic_traces() {
        let t = max_faults(CN);
        let mut fallback_runs = 0usize;
        for attack in Attack::conformance_suite(17) {
            // Honest parties are unanimous, so the honest hull is a single
            // point: whichever path each run takes, the only correct
            // decision is the unanimous input.
            let (outs, records) = traced(attack, pi_n_adaptive);
            assert_eq!(
                outs,
                vec![Nat::from_u64(UNANIMOUS); CN - t],
                "wrong decisions [{}]",
                attack.name()
            );

            // Cross-path agreement: the pure worst-case protocol decides
            // the identical value.
            let (slow_outs, _) = traced(attack, pi_n);
            assert_eq!(
                outs,
                slow_outs,
                "cross-path disagreement [{}]",
                attack.name()
            );

            // Every trace invariant holds under attack — including the
            // fast-path hull and cross-path agreement rules.
            let violations = check(&records);
            assert!(violations.is_empty(), "[{}] {violations:?}", attack.name());

            // Byte-determinism: an identical rerun reproduces the trace
            // down to the JSONL byte.
            let (outs_b, records_b) = traced(attack, pi_n_adaptive);
            assert_eq!(outs, outs_b, "[{}]", attack.name());
            assert!(
                first_divergence(&records, &records_b).is_none(),
                "nondeterministic trace [{}]",
                attack.name()
            );
            let jsonl = |rs: &[Record]| {
                rs.iter()
                    .map(Record::to_jsonl)
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(jsonl(&records), jsonl(&records_b), "[{}]", attack.name());

            if !took_fast_path(&records) {
                fallback_runs += 1;
            }
        }
        // The matrix must exercise the certified fallback: a crash from
        // round 0 leaves every offer round incomplete.
        assert!(
            fallback_runs > 0,
            "no conformance attack forced the fallback"
        );
    }
}

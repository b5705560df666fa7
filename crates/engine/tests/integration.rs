//! Engine integration: the same multiplexed deployment must work over
//! both transports, and its traces must be deterministic, well-scoped,
//! and clean under `ca-trace check`.

use std::sync::Arc;
use std::time::Duration;

use ca_adversary::{Attack, AttackKind};
use ca_async::{run_on_comm, AsyncApprox};
use ca_ba::BaKind;
use ca_bits::Nat;
use ca_core::{check_agreement, pi_n};
use ca_engine::{run_engine_party, EngineConfig, SessionId, SessionPlan};
use ca_net::{Comm, Sim};
use ca_runtime::TcpCluster;
use ca_trace::{check, first_divergence, Record, RingBufferSink, TraceSink};

/// The session input for party `me` of session `sid`: clustered values
/// whose hull is `[base, base + n)`.
fn input_for(sid: SessionId, me: usize) -> Nat {
    Nat::from_u64(1000 + 17 * sid.0 + me as u64)
}

fn engine_party(ctx: &mut dyn Comm, plan: &SessionPlan, config: &EngineConfig) -> Vec<(u64, Nat)> {
    let out = run_engine_party(ctx, plan, config, |sctx, sid| {
        let input = input_for(sid, sctx.me().index());
        pi_n(sctx, &input, BaKind::TurpinCoan)
    });
    out.decided.into_iter().map(|(s, v)| (s.0, v)).collect()
}

/// One multiplexed deployment decides identically over the simulator and
/// over real TCP connections.
#[test]
fn multiplexed_sessions_agree_across_transports() {
    let n = 3;
    let k = 3;

    let sim_out: Vec<Vec<(u64, Nat)>> = {
        let plan = SessionPlan::closed(k);
        let config = EngineConfig::default();
        Sim::new(n)
            .run(move |ctx, _id| engine_party(ctx, &plan, &config))
            .honest_outputs()
            .into_iter()
            .cloned()
            .collect()
    };

    let tcp_out: Vec<Vec<(u64, Nat)>> = {
        let plan = SessionPlan::closed(k);
        let config = EngineConfig::default();
        TcpCluster::new(n)
            .with_delta(Duration::from_secs(5))
            .run(move |ctx, _id| engine_party(ctx, &plan, &config))
            .expect("tcp cluster")
    };

    assert_eq!(sim_out[0].len(), k);
    for sid in 0..k {
        let decisions: Vec<Nat> = sim_out.iter().map(|d| d[sid].1.clone()).collect();
        assert!(
            check_agreement(&decisions),
            "sim parties disagree on s{sid}"
        );
    }
    for party in 0..n {
        assert_eq!(
            sim_out[party], tcp_out[party],
            "transports disagree at party {party}"
        );
    }
}

fn traced_engine_run(n: usize, k: usize, attack: Attack) -> Vec<Record> {
    let t = ca_net::max_faults(n);
    let sink = Arc::new(RingBufferSink::new(8_000_000));
    let sim = attack
        .install(Sim::new(n), n, t)
        .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let plan = SessionPlan::closed(k);
    let config = EngineConfig::default();
    sim.run(move |ctx, _id| engine_party(ctx, &plan, &config));
    let records = sink.records();
    assert_eq!(
        sink.total_seen() as usize,
        records.len(),
        "ring wrapped; grow the capacity"
    );
    records
}

/// A fault-free multiplexed trace satisfies every `ca-trace check`
/// invariant, and session activity is recoverable by scope prefix.
#[test]
fn multiplexed_trace_checks_clean_and_scopes_nest() {
    let records = traced_engine_run(4, 8, Attack::none());
    assert!(!records.is_empty());
    let violations = check(&records);
    assert!(violations.is_empty(), "violations: {violations:?}");

    // Every session's protocol activity nests under engine/s<id>/…
    for sid in 0..8u64 {
        let prefix = format!("engine/s{sid}/pi_n");
        assert!(
            records.iter().any(|r| r.scope.starts_with(&prefix)),
            "no records under {prefix}"
        );
    }
    // Engine lifecycle notes live directly in the engine scope.
    assert!(records.iter().any(|r| r.scope == "engine"
        && matches!(&r.event, ca_trace::Event::Note { label, .. } if label == "engine_admit")));
}

/// One engine plan hosting synchronous and asynchronous sessions side by
/// side: even session ids run the exact protocol `pi_n`, odd ids run the
/// asynchronous approximate-agreement state machine through
/// [`run_on_comm`]. Sync sessions must agree exactly; async ones
/// must be ε-close (ε = 1) inside their input hull — on every party.
#[test]
fn engine_hosts_async_sessions_beside_sync_ones() {
    let n = 4;
    let k = 6;
    let plan = SessionPlan::closed(k);
    let config = EngineConfig::default();
    let out: Vec<Vec<(u64, Nat)>> = Sim::new(n)
        .run(move |ctx, _id| {
            let decided = run_engine_party(ctx, &plan, &config, |sctx, sid| {
                let input = input_for(sid, sctx.me().index());
                if sid.0 % 2 == 0 {
                    pi_n(sctx, &input, BaKind::TurpinCoan)
                } else {
                    let (sn, st, sme) = (sctx.n(), sctx.t(), sctx.me());
                    // Session inputs span a hull of width n, so 4 async
                    // rounds more than halve the spread to ≤ 1; 64
                    // barriers is a generous budget for 4 RBC+witness
                    // exchanges.
                    run_on_comm(sctx, AsyncApprox::new(sn, st, sme, input, 4), 64)
                        .expect("async session decides within the round budget")
                }
            });
            decided.decided.into_iter().map(|(s, v)| (s.0, v)).collect()
        })
        .honest_outputs()
        .into_iter()
        .cloned()
        .collect();

    for party_out in &out {
        assert_eq!(party_out.len(), k, "every session decides on every party");
    }
    for sid in 0..k as u64 {
        let decisions: Vec<Nat> = out.iter().map(|d| d[sid as usize].1.clone()).collect();
        if sid % 2 == 0 {
            assert!(check_agreement(&decisions), "sync session s{sid} disagrees");
        } else {
            let lo = decisions.iter().min().unwrap();
            let hi = decisions.iter().max().unwrap();
            assert!(
                hi.checked_sub(lo).unwrap() <= Nat::one(),
                "async session s{sid} not ε-close: {decisions:?}"
            );
            // Convexity: inside the session's input hull.
            let hull_lo = input_for(SessionId(sid), 0);
            let hull_hi = input_for(SessionId(sid), n - 1);
            assert!(
                *lo >= hull_lo && *hi <= hull_hi,
                "async session s{sid} escapes its hull: {decisions:?}"
            );
        }
    }
}

/// A 16-session deployment under an injected message-level fault traces
/// byte-identically across repeated runs — the property `ca-trace diff`
/// needs to localize real regressions.
#[test]
fn faulted_multiplexed_trace_is_deterministic() {
    let attack = Attack::new(AttackKind::Garbage).with_seed(23);
    let a = traced_engine_run(4, 16, attack);
    let b = traced_engine_run(4, 16, attack);
    assert!(
        first_divergence(&a, &b).is_none(),
        "nondeterministic multiplexed trace"
    );
}

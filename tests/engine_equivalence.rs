//! Multiplexing transparency: K sessions running inside one `ca-engine`
//! deployment must be indistinguishable — decisions and per-session
//! traces — from K isolated `pi_n` runs, under every adversary plan in
//! the standard suite. Message-level strategies attack the multiplexed
//! run through [`EnvelopeAdversary`], which presents each session with
//! exactly its isolated rushing view.
//!
//! The same holds when the session table is smaller than the plan and
//! sessions queue for a slot: each session's trace then equals its
//! isolated one shifted by the round it was admitted in.
//!
//! Also covers the service-layer failure modes that have no isolated
//! counterpart: a flooding adversary exercising the per-sender inbox cap,
//! stray-session routing, and malformed-envelope handling.

use std::sync::Arc;

use bytes::Bytes;
use convex_agreement::adversary::Attack;
use convex_agreement::ba::BaKind;
use convex_agreement::bits::Nat;
use convex_agreement::codec::Encode as _;
use convex_agreement::core::pi_n;
use convex_agreement::engine::loadgen::{derive_seed, session_inputs};
use convex_agreement::engine::{
    run_engine_party, EngineConfig, EngineOutput, Envelope, EnvelopeAdversary, SessionFrame,
    SessionId, SessionPlan,
};
use convex_agreement::net::{
    max_faults, Adversary, Corruption, PartyId, RoundActions, RoundView, SendSpec, Sim,
};
use convex_agreement::trace::{Event, RingBufferSink, TraceSink, ROOT_SCOPE};
use proptest::prelude::*;

/// The per-party trace signature we compare: `(round, scope, event)` for
/// the protocol-meaningful events. Scopes are relative to the session
/// root, so isolated and multiplexed runs are directly comparable.
type Sig = (u64, String, Event);

fn keep(event: &Event) -> bool {
    matches!(
        event,
        Event::Input { .. } | Event::Decide { .. } | Event::Note { .. }
    )
}

/// Rebases a multiplexed scope onto session `sid`'s root: `engine/s3` →
/// `_root`, `engine/s3/pi_n/…` → `pi_n/…`, anything else → `None`.
fn rebase(scope: &str, sid: u64) -> Option<String> {
    let rest = scope.strip_prefix(&format!("engine/s{sid}"))?;
    if rest.is_empty() {
        Some(ROOT_SCOPE.to_string())
    } else {
        rest.strip_prefix('/').map(str::to_string)
    }
}

struct IsolatedRun {
    outputs: Vec<Option<Nat>>,
    corrupted: Vec<PartyId>,
    sigs: Vec<Vec<Sig>>,
}

fn isolated_run(n: usize, t: usize, attack: Attack, inputs: Vec<Nat>) -> IsolatedRun {
    let sink = Arc::new(RingBufferSink::new(4_000_000));
    let report = attack
        .install(Sim::new(n), n, t)
        .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .run(move |ctx, id| pi_n(ctx, &inputs[id.index()], BaKind::TurpinCoan));
    let records = sink.records();
    assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
    let sigs = (0..n)
        .map(|p| {
            records
                .iter()
                .filter(|r| r.party == Some(p as u64) && keep(&r.event))
                .map(|r| (r.round, r.scope.clone(), r.event.clone()))
                .collect()
        })
        .collect();
    IsolatedRun {
        outputs: report.outputs,
        corrupted: report.corrupted,
        sigs,
    }
}

struct MultiplexedRun {
    outputs: Vec<Option<EngineOutput<Nat>>>,
    corrupted: Vec<PartyId>,
    /// `admitted[party][sid]`: the engine round of the session's
    /// `engine_admit` note.
    admitted: Vec<Vec<u64>>,
    /// `sigs[party][sid]`, scopes rebased to the session root and rounds
    /// to its admission round.
    sigs: Vec<Vec<Vec<Sig>>>,
}

fn multiplexed_run(
    n: usize,
    t: usize,
    k: usize,
    config: EngineConfig,
    attack: Attack,
    seed: u64,
    all_inputs: Vec<Vec<Nat>>,
) -> MultiplexedRun {
    let mode = if attack.is_lying() {
        Corruption::LyingHonest
    } else {
        Corruption::Scripted
    };
    let mut sim = attack
        .corrupted_parties(n, t)
        .into_iter()
        .fold(Sim::new(n), |s, p| s.corrupt(p, mode));
    if attack.strategy().is_some() {
        sim = sim.with_adversary(EnvelopeAdversary::new((0..k as u64).map(|sid| {
            let adv = attack
                .with_seed(derive_seed(seed, sid))
                .strategy()
                .expect("strategy kind is seed-independent");
            (SessionId(sid), adv)
        })));
    }
    let sink = Arc::new(RingBufferSink::new(16_000_000));
    let sim = sim.with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);

    let plan = SessionPlan::closed(k);
    let report = sim.run(move |ctx, _id| {
        run_engine_party(ctx, &plan, &config, |sctx, sid| {
            let input = all_inputs[sid.0 as usize][sctx.me().index()].clone();
            pi_n(sctx, &input, BaKind::TurpinCoan)
        })
    });
    let records = sink.records();
    assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
    let admit_round = |p: usize, sid: u64| {
        let note = Event::Note {
            label: "engine_admit".to_owned(),
            value: SessionId(sid).to_string(),
        };
        records
            .iter()
            .find(|r| r.party == Some(p as u64) && r.event == note)
            .map_or(0, |r| r.round)
    };
    let admitted: Vec<Vec<u64>> = (0..n)
        .map(|p| (0..k as u64).map(|sid| admit_round(p, sid)).collect())
        .collect();
    let sigs = (0..n)
        .map(|p| {
            (0..k as u64)
                .map(|sid| {
                    let start = admitted[p][sid as usize];
                    records
                        .iter()
                        .filter(|r| r.party == Some(p as u64) && keep(&r.event))
                        .filter_map(|r| {
                            let scope = rebase(&r.scope, sid)?;
                            Some((r.round - start, scope, r.event.clone()))
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    MultiplexedRun {
        outputs: report.outputs,
        corrupted: report.corrupted,
        admitted,
        sigs,
    }
}

/// The core property: session-by-session, the multiplexed deployment and
/// the isolated runs decide the same values, corrupt the same parties,
/// and emit the same protocol trace (counted from the session's
/// admission, which every party makes in the same engine round).
fn assert_equivalent(
    n: usize,
    k: usize,
    config: EngineConfig,
    (ell, spread): (usize, usize),
    attack: Attack,
    seed: u64,
) {
    let t = max_faults(n);
    let all_inputs: Vec<Vec<Nat>> = (0..k as u64)
        .map(|sid| {
            let a = attack.with_seed(derive_seed(seed, sid));
            session_inputs(derive_seed(seed, sid), n, t, ell, spread, &a)
        })
        .collect();

    let queued = k > config.max_sessions;
    let multi = multiplexed_run(n, t, k, config, attack, seed, all_inputs.clone());
    let honest: Vec<usize> = (0..n)
        .filter(|p| !multi.corrupted.contains(&PartyId(*p)))
        .collect();
    for p in &honest {
        assert_eq!(
            multi.admitted[*p],
            multi.admitted[honest[0]],
            "[{}] party {p} admits in other rounds",
            attack.name()
        );
        assert_eq!(multi.admitted[*p][k - 1] > 0, queued, "capacity binds");
    }
    for (sid, inputs) in all_inputs.iter().enumerate() {
        let iso = isolated_run(
            n,
            t,
            attack.with_seed(derive_seed(seed, sid as u64)),
            inputs.clone(),
        );
        assert_eq!(
            iso.corrupted,
            multi.corrupted,
            "[{}] s{sid}: corrupted sets differ",
            attack.name()
        );
        for p in 0..n {
            if iso.corrupted.contains(&PartyId(p)) {
                continue;
            }
            let iso_out = iso.outputs[p]
                .as_ref()
                .expect("honest isolated party decided");
            let engine_out = multi.outputs[p]
                .as_ref()
                .expect("honest multiplexed party finished");
            let multi_out = engine_out
                .output_of(SessionId(sid as u64))
                .expect("honest multiplexed party decided the session");
            assert_eq!(
                iso_out,
                multi_out,
                "[{}] s{sid}: party {p} decision differs",
                attack.name()
            );
            assert_eq!(
                iso.sigs[p],
                multi.sigs[p][sid],
                "[{}] s{sid}: party {p} trace differs",
                attack.name()
            );
        }
    }
}

/// Deterministic sweep: every plan in the standard suite.
#[test]
fn multiplexed_equals_isolated_under_every_attack() {
    for attack in Attack::standard_suite(0xE9) {
        assert_equivalent(4, 3, EngineConfig::default(), (40, 6), attack, 0xC0FF_EE11);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Randomized sweep over session counts, input widths, and seeds.
    #[test]
    fn multiplexed_equals_isolated_randomized(
        seed in any::<u64>(),
        k in 2usize..5,
        ell in 8usize..48,
        attack_idx in 0usize..11,
    ) {
        let attack = Attack::standard_suite(seed)[attack_idx];
        assert_equivalent(4, k, EngineConfig::default(), (ell, 4), attack, seed);
    }
}

/// Capacity binds: five sessions through a table of two queue for slots,
/// and each still equals its isolated run, shifted by its admission
/// round. Only the plans without a message-level strategy qualify (no
/// attack, a crash from the start, input lies): a strategy is indexed by
/// round, so a queued session would meet it shifted.
#[test]
fn queued_sessions_equal_isolated_ones() {
    let config = EngineConfig { max_sessions: 2 };
    let plans = Attack::standard_suite(0xE9)
        .into_iter()
        .filter(|a| a.strategy().is_none());
    for attack in plans {
        assert_equivalent(4, 5, config.clone(), (40, 6), attack, 0x0B5E_55ED);
    }
}

/// A service-layer flooder: per round it overfills one sender's inbox
/// quota for a live session, sprays frames for a session nobody runs,
/// and sends undecodable bytes. The engine must shed/count all of it and
/// the live sessions must still decide correctly.
#[derive(Debug)]
struct Flood {
    live: SessionId,
}

impl Adversary for Flood {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        let mut actions = RoundActions::default();
        let Some(&from) = view.corrupted.first() else {
            return actions;
        };
        for to in (0..view.n).map(PartyId) {
            if view.corrupted.contains(&to) {
                continue;
            }
            // Overfill the per-(session, sender) inbox cap for the live
            // session (the cap is 8; one envelope of 12 frames).
            let flood = Envelope {
                frames: (0..12)
                    .map(|i| SessionFrame {
                        session: self.live,
                        payload: Bytes::from(vec![0xAB, i]),
                    })
                    .collect(),
            };
            actions.sends.push(SendSpec {
                from,
                to,
                payload: Bytes::from(flood.encode_to_vec()),
            });
            // A frame for a session this deployment never admitted.
            let stray = Envelope {
                frames: vec![SessionFrame {
                    session: SessionId(999),
                    payload: Bytes::from(vec![0xCD]),
                }],
            };
            actions.sends.push(SendSpec {
                from,
                to,
                payload: Bytes::from(stray.encode_to_vec()),
            });
            // Bytes that don't decode as an envelope at all.
            actions.sends.push(SendSpec {
                from,
                to,
                payload: Bytes::from_static(&[0xFF; 3]),
            });
        }
        actions
    }
}

#[test]
fn flooding_adversary_is_shed_without_corrupting_sessions() {
    let n = 4;
    let t = max_faults(n);
    let plan = SessionPlan::closed(2);
    let config = EngineConfig::default();
    let report = Sim::new(n)
        .corrupt(PartyId(n - 1), Corruption::Scripted)
        .with_adversary(Flood { live: SessionId(0) })
        .run(move |ctx, _id| {
            run_engine_party(ctx, &plan, &config, |sctx, sid| {
                let input = Nat::from_u64(300 + 7 * sid.0 + sctx.me().index() as u64);
                pi_n(sctx, &input, BaKind::TurpinCoan)
            })
        });
    assert_eq!(t, 1);
    let outs = report.honest_outputs();
    for out in &outs {
        assert_eq!(out.decided.len(), 2, "both sessions must decide");
        assert!(out.stats.shed_frames > 0, "inbox cap must shed the flood");
        assert!(
            out.stats.stray_frames > 0,
            "unknown session must be counted"
        );
        assert!(
            out.stats.malformed_envelopes > 0,
            "undecodable bytes must be counted"
        );
    }
    for sid in 0..2u64 {
        let first = outs[0].output_of(SessionId(sid)).unwrap();
        assert!(
            outs.iter()
                .all(|o| o.output_of(SessionId(sid)) == Some(first)),
            "parties disagree on s{sid}"
        );
    }
}

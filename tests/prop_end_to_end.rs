//! Property-based end-to-end tests: random sizes, inputs, and adversaries
//! through the full `Π_ℤ` stack — Definition 1 must hold for every sample —
//! and through the fault-adaptive `Π_ℕ`, whose guarantees must not depend
//! on which path (fast or fallback) a run happens to take.

use std::sync::Arc;

use convex_agreement::adversary::{Attack, LieKind};
use convex_agreement::ba::BaKind;
use convex_agreement::bits::{Int, Nat};
use convex_agreement::core::{check_agreement, check_convex_validity, pi_n_adaptive, pi_z};
use convex_agreement::net::{Corruption, PartyId, Sim};
use convex_agreement::trace::{check, Event, RingBufferSink, TraceSink};
use proptest::prelude::*;

fn run_case(n: usize, mut inputs: Vec<Int>, attack: Attack) {
    let t = convex_agreement::net::max_faults(n);
    if attack.is_lying() {
        for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
            inputs[p.index()] = match attack.lie_for(idx).unwrap() {
                LieKind::ExtremeHigh => Int::from_i64(i64::MAX),
                LieKind::ExtremeLow => Int::from_i64(i64::MIN),
                LieKind::Split => unreachable!(),
            };
        }
    }
    let sim = attack.install(Sim::new(n), n, t);
    let inputs_run = inputs.clone();
    let report = sim.run(move |ctx, id| pi_z(ctx, &inputs_run[id.index()], BaKind::TurpinCoan));
    let honest_inputs: Vec<Int> = report
        .honest_parties()
        .iter()
        .map(|p| inputs[p.index()].clone())
        .collect();
    let outputs: Vec<Int> = report.honest_outputs().into_iter().cloned().collect();
    assert!(check_agreement(&outputs), "agreement [{}]", attack.name());
    assert!(
        check_convex_validity(&outputs, &honest_inputs),
        "validity [{}]: {:?} ∉ hull of {:?}",
        attack.name(),
        outputs.first(),
        honest_inputs
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_pi_z_definition1(
        n in 4usize..8,
        raw in proptest::collection::vec(any::<i64>(), 8),
        attack_idx in 0usize..11,
        seed in any::<u64>(),
    ) {
        let inputs: Vec<Int> = raw[..n].iter().map(|&v| Int::from_i64(v)).collect();
        let attack = Attack::standard_suite(seed)[attack_idx];
        run_case(n, inputs, attack);
    }

    /// Random inputs and a random fault count `f ≤ t` of silent parties
    /// through `pi_n_adaptive`: agreement, convex validity, and every
    /// trace invariant hold regardless of path. The path itself is fully
    /// determined by the actual faults under the strict budget (0):
    /// `f = 0` takes the fast path everywhere, any `f > 0` forces the
    /// certified fallback — i.e. `FallbackTriggered` implies the observed
    /// faults exceed the fast-path budget.
    #[test]
    fn prop_pi_n_adaptive_any_path(
        n in 4usize..8,
        raw in proptest::collection::vec(any::<u64>(), 8),
        f_raw in 0usize..3,
    ) {
        let t = convex_agreement::net::max_faults(n);
        let f = f_raw.min(t);
        let inputs: Vec<Nat> = raw[..n].iter().map(|&v| Nat::from_u64(v)).collect();

        let sink = Arc::new(RingBufferSink::new(8_000_000));
        let mut sim = Sim::new(n).with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);
        for p in n - f..n {
            sim = sim.corrupt(PartyId(p), Corruption::Scripted);
        }
        let inputs_run = inputs.clone();
        let report = sim.run(move |ctx, id| {
            pi_n_adaptive(ctx, &inputs_run[id.index()], BaKind::TurpinCoan)
        });

        let honest_inputs: Vec<Nat> = report
            .honest_parties()
            .iter()
            .map(|p| inputs[p.index()].clone())
            .collect();
        let outputs: Vec<Nat> = report.honest_outputs().into_iter().cloned().collect();
        prop_assert!(check_agreement(&outputs), "agreement [f = {f}]");
        prop_assert!(
            check_convex_validity(&outputs, &honest_inputs),
            "validity [f = {f}]: {:?} ∉ hull of {:?}",
            outputs.first(),
            honest_inputs
        );

        let records = sink.records();
        prop_assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
        let violations = check(&records);
        prop_assert!(violations.is_empty(), "violations [f = {f}]: {violations:?}");

        let fast = records
            .iter()
            .filter(|r| matches!(r.event, Event::FastPathTaken { .. }))
            .count();
        let fell_back = records
            .iter()
            .any(|r| matches!(r.event, Event::FallbackTriggered { .. }));
        // FallbackTriggered ⇒ observed faults > budget (0 here) ⇒ f > 0.
        prop_assert!(!fell_back || f > 0, "fallback with zero faults");
        if f == 0 {
            prop_assert_eq!(fast, n, "fault-free must go fast everywhere");
        } else {
            // A silent party from round 0 leaves every offer incomplete.
            prop_assert_eq!(fast, 0, "fast path with {} silent parties", f);
            prop_assert!(fell_back, "no fallback marker with {f} silent parties");
        }
    }

    /// The combined attack matrix (standard + conformance) against
    /// `pi_n_adaptive`: Definition 1 plus clean trace invariants, however
    /// nasty the message-level schedule.
    #[test]
    fn prop_pi_n_adaptive_attack_matrix(
        n in 4usize..8,
        raw in proptest::collection::vec(any::<u64>(), 8),
        attack_idx in 0usize..16,
        seed in any::<u64>(),
    ) {
        let t = convex_agreement::net::max_faults(n);
        let attack = {
            let mut all = Attack::standard_suite(seed);
            all.extend(Attack::conformance_suite(seed));
            all[attack_idx]
        };
        let mut inputs: Vec<Nat> = raw[..n].iter().map(|&v| Nat::from_u64(v)).collect();
        if attack.is_lying() {
            for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
                inputs[p.index()] = match attack.lie_for(idx).unwrap() {
                    LieKind::ExtremeHigh => Nat::from_u64(u64::MAX),
                    LieKind::ExtremeLow => Nat::from_u64(0),
                    LieKind::Split => unreachable!(),
                };
            }
        }

        let sink = Arc::new(RingBufferSink::new(8_000_000));
        let sim = attack
            .install(Sim::new(n), n, t)
            .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let inputs_run = inputs.clone();
        let report = sim.run(move |ctx, id| {
            pi_n_adaptive(ctx, &inputs_run[id.index()], BaKind::TurpinCoan)
        });

        let honest_inputs: Vec<Nat> = report
            .honest_parties()
            .iter()
            .map(|p| inputs[p.index()].clone())
            .collect();
        let outputs: Vec<Nat> = report.honest_outputs().into_iter().cloned().collect();
        prop_assert!(check_agreement(&outputs), "agreement [{}]", attack.name());
        prop_assert!(
            check_convex_validity(&outputs, &honest_inputs),
            "validity [{}]: {:?} ∉ hull of {:?}",
            attack.name(),
            outputs.first(),
            honest_inputs
        );
        let records = sink.records();
        prop_assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
        let violations = check(&records);
        prop_assert!(violations.is_empty(), "violations [{}]: {violations:?}", attack.name());
    }

    #[test]
    fn prop_pi_z_clustered_inputs(
        n in 4usize..8,
        center in -1_000_000i64..1_000_000,
        jitter in proptest::collection::vec(-50i64..50, 8),
        attack_idx in 0usize..11,
    ) {
        let inputs: Vec<Int> = jitter[..n]
            .iter()
            .map(|&j| Int::from_i64(center.saturating_add(j)))
            .collect();
        let attack = Attack::standard_suite(7)[attack_idx];
        run_case(n, inputs, attack);
    }
}

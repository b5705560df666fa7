//! End-to-end integration tests: the full `Π_ℤ` stack across every crate,
//! checked against Definition 1 (Termination, Agreement, Convex Validity)
//! over a matrix of sizes, input shapes, and adversaries.

use convex_agreement::adversary::{Attack, AttackKind, LieKind};
use convex_agreement::ba::BaKind;
use convex_agreement::bits::{Int, Nat, Sign};
use convex_agreement::core::{check_agreement, check_convex_validity, pi_z, CaProtocol};
use convex_agreement::net::Sim;

/// Runs Π_ℤ under the given attack and asserts Definition 1.
fn assert_ca_int(n: usize, inputs: Vec<Int>, attack: Attack) -> Int {
    let t = convex_agreement::net::max_faults(n);
    let sim = attack.install(Sim::new(n), n, t);
    let inputs_run = inputs.clone();
    let report = sim.run(move |ctx, id| pi_z(ctx, &inputs_run[id.index()], BaKind::TurpinCoan));
    // Termination is implied by the run completing; now the other two.
    let honest_inputs: Vec<Int> = report
        .honest_parties()
        .iter()
        .map(|p| inputs[p.index()].clone())
        .collect();
    let outputs: Vec<Int> = report.honest_outputs().into_iter().cloned().collect();
    assert_eq!(
        outputs.len(),
        n - report.corrupted.len(),
        "all honest parties must produce outputs (termination)"
    );
    assert!(check_agreement(&outputs), "[{}] agreement", attack.name());
    assert!(
        check_convex_validity(&outputs, &honest_inputs),
        "[{}] convex validity: {:?} vs {:?}",
        attack.name(),
        outputs[0],
        honest_inputs
    );
    outputs[0].clone()
}

#[test]
fn minimal_sizes() {
    // n = 1 and n = 2 (t = 0): trivial but must work.
    assert_eq!(
        assert_ca_int(1, vec![Int::from_i64(-3)], Attack::none()),
        Int::from_i64(-3)
    );
    assert_ca_int(2, vec![Int::from_i64(5), Int::from_i64(9)], Attack::none());
    assert_ca_int(
        3,
        vec![Int::from_i64(-5), Int::from_i64(0), Int::from_i64(5)],
        Attack::none(),
    );
}

#[test]
fn first_nontrivial_resilience() {
    // n = 4, t = 1: the smallest setting with an actual corruption.
    for attack in Attack::standard_suite(7) {
        let mut inputs: Vec<Int> = vec![-10, -12, -11, -10]
            .into_iter()
            .map(Int::from_i64)
            .collect();
        if attack.is_lying() {
            inputs[3] = Int::from_i64(1 << 40);
        }
        assert_ca_int(4, inputs, attack);
    }
}

#[test]
fn zero_crossing_inputs() {
    // Sign disagreement among honest parties exercises the Π_ℤ sign logic.
    let inputs: Vec<Int> = vec![-2, -1, 0, 1, 2, 1, -1]
        .into_iter()
        .map(Int::from_i64)
        .collect();
    let out = assert_ca_int(7, inputs, Attack::none());
    assert!(out >= Int::from_i64(-2) && out <= Int::from_i64(2));
}

#[test]
fn huge_magnitudes_long_path() {
    // Magnitudes of ~2000 bits at n = 4 (n² = 16) force the block path.
    let n = 4;
    let inputs: Vec<Int> = (0..n as u64)
        .map(|i| {
            Int::from_parts(
                Sign::Neg,
                Nat::pow2(2000).add(&Nat::from_u64(i * 999_999_937)),
            )
        })
        .collect();
    assert_ca_int(n, inputs, Attack::none());
}

#[test]
fn long_path_with_lying_split() {
    let n = 7;
    let t = 2;
    let attack = Attack::new(AttackKind::Lying(LieKind::Split));
    let mut inputs: Vec<Int> = (0..n as u64)
        .map(|i| Int::from_parts(Sign::NonNeg, Nat::pow2(300).add(&Nat::from_u64(i))))
        .collect();
    for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
        inputs[p.index()] = match attack.lie_for(idx).unwrap() {
            LieKind::ExtremeHigh => Int::from_parts(Sign::NonNeg, Nat::all_ones(4000)),
            LieKind::ExtremeLow => Int::from_parts(Sign::Neg, Nat::all_ones(4000)),
            LieKind::Split => unreachable!(),
        };
    }
    assert_ca_int(n, inputs, attack);
}

#[test]
fn facade_matches_free_function() {
    let inputs: Vec<Int> = vec![4, 5, 6, 7].into_iter().map(Int::from_i64).collect();
    let proto = CaProtocol::new();
    let a = {
        let inputs = inputs.clone();
        Sim::new(4).run(move |ctx, id| proto.run_int(ctx, &inputs[id.index()]))
    };
    let b = {
        let inputs = inputs.clone();
        Sim::new(4).run(move |ctx, id| pi_z(ctx, &inputs[id.index()], BaKind::TurpinCoan))
    };
    assert_eq!(a.honest_outputs(), b.honest_outputs());
    assert_eq!(a.metrics.honest_bits, b.metrics.honest_bits);
}

#[test]
fn determinism_of_full_stack() {
    let inputs: Vec<Int> = vec![-100, 50, -25, 13, 99, -7, 42]
        .into_iter()
        .map(Int::from_i64)
        .collect();
    let run = || {
        let inputs = inputs.clone();
        let attack = Attack::new(AttackKind::Garbage).with_seed(11);
        attack
            .install(Sim::new(7), 7, 2)
            .run(move |ctx, id| pi_z(ctx, &inputs[id.index()], BaKind::TurpinCoan))
    };
    let (a, b) = (run(), run());
    assert_eq!(a.honest_outputs(), b.honest_outputs());
    assert_eq!(a.metrics.honest_bits, b.metrics.honest_bits);
    assert_eq!(a.metrics.rounds, b.metrics.rounds);
}

#[test]
fn both_ba_instantiations_full_stack() {
    let inputs: Vec<Int> = vec![-3, 1, 4, -1, 5, 9, -2]
        .into_iter()
        .map(Int::from_i64)
        .collect();
    for ba in [BaKind::TurpinCoan, BaKind::PhaseKing] {
        let inputs = inputs.clone();
        let report = Sim::new(7).run(move |ctx, id| pi_z(ctx, &inputs[id.index()], ba));
        let outs: Vec<Int> = report.honest_outputs().into_iter().cloned().collect();
        assert!(check_agreement(&outs));
    }
}

#[test]
fn many_seeds_adversarial_sweep() {
    // A small randomized sweep: seeds × attacks at n = 7 with jittered
    // inputs around a negative center.
    for seed in 0..3u64 {
        for attack in Attack::standard_suite(seed) {
            let n = 7;
            let t = 2;
            let mut inputs: Vec<Int> = (0..n as i64)
                .map(|i| Int::from_i64(-50_000 + (i * 7919 + seed as i64 * 104729) % 100))
                .collect();
            if attack.is_lying() {
                for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
                    inputs[p.index()] = match attack.lie_for(idx).unwrap() {
                        LieKind::ExtremeHigh => Int::from_i64(i64::MAX),
                        LieKind::ExtremeLow => Int::from_i64(i64::MIN),
                        LieKind::Split => unreachable!(),
                    };
                }
            }
            assert_ca_int(n, inputs, attack);
        }
    }
}

#[test]
fn large_scale_soak_n25() {
    // n = 25, t = 8: the largest configuration in the repo's test suite.
    let n = 25;
    let t = 8;
    let attack = Attack::new(AttackKind::Lying(LieKind::Split));
    let mut inputs: Vec<Int> = (0..n as i64)
        .map(|i| Int::from_i64(7_000_000 + i * 13))
        .collect();
    for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
        inputs[p.index()] = match attack.lie_for(idx).unwrap() {
            LieKind::ExtremeHigh => Int::from_i64(i64::MAX),
            LieKind::ExtremeLow => Int::from_i64(i64::MIN),
            LieKind::Split => unreachable!(),
        };
    }
    let sim = attack.install(Sim::new(n).with_t(t), n, t);
    let inputs_run = inputs.clone();
    let report = sim.run(move |ctx, id| pi_z(ctx, &inputs_run[id.index()], BaKind::TurpinCoan));
    let honest_inputs: Vec<Int> = report
        .honest_parties()
        .iter()
        .map(|p| inputs[p.index()].clone())
        .collect();
    let outputs: Vec<Int> = report.honest_outputs().into_iter().cloned().collect();
    assert!(check_agreement(&outputs));
    assert!(check_convex_validity(&outputs, &honest_inputs));
}

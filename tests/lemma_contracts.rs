//! Executable lemma contracts: each lemma of the paper, checked as a
//! runtime property across honest parties' outputs (cross-crate, i.e. the
//! lemmas as *observed* through the public API).

use convex_agreement::adversary::{Attack, AttackKind, Garbage, LieKind};
use convex_agreement::ba::{ba_plus, lba_plus, BaKind};
use convex_agreement::bits::{BitString, Nat};
use convex_agreement::core::{find_prefix, PrefixSearch};
use convex_agreement::crypto::sha256;
use convex_agreement::net::{max_faults, Corruption, PartyId, Sim};

fn to_bits(vals: &[u64], ell: usize) -> Vec<BitString> {
    vals.iter()
        .map(|&v| Nat::from_u64(v).to_bits_len(ell).unwrap())
        .collect()
}

/// Lemma 1 (i)+(ii): prefix agreement, validity of v/v⊥, and the t+1
/// dissent guarantee for every one-bit extension of PREFIX*.
#[test]
fn lemma1_full_contract() {
    let ell = 10;
    let n = 7;
    let t = max_faults(n);
    let vals = [512u64, 520, 530, 700, 701, 702, 800];
    let bits = to_bits(&vals, ell);
    let report = Sim::new(n).run({
        let bits = bits.clone();
        move |ctx, id| find_prefix(ctx, ell, &bits[id.index()], BaKind::TurpinCoan)
    });
    let outs: Vec<&PrefixSearch> = report.honest_outputs();

    // Same PREFIX* everywhere.
    assert!(outs.windows(2).all(|w| w[0].prefix == w[1].prefix));
    let prefix = &outs[0].prefix;

    let lo = Nat::from_u64(*vals.iter().min().unwrap());
    let hi = Nat::from_u64(*vals.iter().max().unwrap());
    for out in &outs {
        // (i) PREFIX* prefixes v; v and v⊥ valid.
        assert!(prefix.is_prefix_of(&out.v));
        for w in [&out.v, &out.v_bot] {
            let v = w.val();
            assert!(v >= lo && v <= hi, "value {v:?} outside honest range");
        }
    }

    // (ii) for ANY (|PREFIX*|+1)-bit extension, ≥ t+1 honest v⊥ disagree.
    if prefix.len() < ell {
        for next in [false, true] {
            let mut ext = prefix.clone();
            ext.push(next);
            let dissenters = outs.iter().filter(|o| !ext.is_prefix_of(&o.v_bot)).count();
            assert!(
                dissenters > t,
                "extension {ext}: only {dissenters} dissenting v⊥ (need {})",
                t + 1
            );
        }
    }
}

/// Lemma 1 under a splitting input attack: the liars cannot break the
/// contract (they can only influence *which* valid prefix emerges).
#[test]
fn lemma1_under_split_liars() {
    let ell = 12;
    let n = 7;
    let t = 2;
    let attack = Attack::new(AttackKind::Lying(LieKind::Split));
    let mut vals = vec![2048u64, 2050, 2052, 2049, 2051, 0, 0];
    for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
        vals[p.index()] = match attack.lie_for(idx).unwrap() {
            LieKind::ExtremeHigh => (1 << ell) - 1,
            LieKind::ExtremeLow => 0,
            LieKind::Split => unreachable!(),
        };
    }
    let bits = to_bits(&vals, ell);
    let sim = attack.install(Sim::new(n), n, t);
    let report = sim.run({
        let bits = bits.clone();
        move |ctx, id| find_prefix(ctx, ell, &bits[id.index()], BaKind::TurpinCoan)
    });
    let outs: Vec<&PrefixSearch> = report.honest_outputs();
    assert!(outs.windows(2).all(|w| w[0].prefix == w[1].prefix));
    let lo = Nat::from_u64(2048);
    let hi = Nat::from_u64(2052);
    for out in outs {
        let v = out.v.val();
        assert!(v >= lo && v <= hi, "liars dragged v to {v:?}");
    }
}

/// Theorem 6's extra properties for Π_BA+ across seeds and splits.
#[test]
fn theorem6_properties_sweep() {
    let n = 7;
    for split in 0..=n {
        // `split` parties share value A, the rest hold distinct values.
        let a = sha256(b"A");
        let inputs: Vec<_> = (0..n)
            .map(|i| {
                if i < split {
                    a
                } else {
                    sha256(&[i as u8, 0xEE])
                }
            })
            .collect();
        let report = Sim::new(n).run({
            let inputs = inputs.clone();
            move |ctx, id| ba_plus(ctx, inputs[id.index()], BaKind::TurpinCoan)
        });
        let outs = report.honest_outputs();
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "agreement (split {split})"
        );
        match outs[0] {
            Some(v) => assert!(inputs.contains(v), "intrusion tolerance (split {split})"),
            None => {
                // Bounded pre-agreement: ⊥ only if < n − 2t share a value.
                let t = max_faults(n);
                assert!(split < n - 2 * t, "bounded pre-agreement (split {split})");
            }
        }
    }
}

/// Theorem 1's properties for Π_ℓBA+ mirror Theorem 6 on long values.
#[test]
fn theorem1_properties_sweep() {
    let n = 4;
    let t = max_faults(n);
    let long = |tag: u8| {
        BitString::from_bits((0..3000).map(move |i| (i as u8).wrapping_add(tag).is_multiple_of(5)))
    };
    for split in 0..=n {
        let inputs: Vec<_> = (0..n)
            .map(|i| {
                if i < split {
                    long(0)
                } else {
                    long(i as u8 + 1)
                }
            })
            .collect();
        let report = Sim::new(n).run({
            let inputs = inputs.clone();
            move |ctx, id| lba_plus(ctx, &inputs[id.index()], BaKind::TurpinCoan)
        });
        let outs = report.honest_outputs();
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        match outs[0] {
            Some(v) => assert!(inputs.contains(v)),
            None => assert!(split < n - 2 * t),
        }
    }
}

/// Theorem 1's Validity at the decision benchmark's shape (n = 31,
/// k = 21), with a 64 KiB byte payload, fault-free and with parties 0..t
/// sending garbage. The bit counts are pinned: the data plane may get
/// cheaper, never chattier.
#[test]
fn theorem1_validity_at_the_benchmark_shape() {
    let n = 31;
    let t = max_faults(n);
    let payload: Vec<u8> = (0..64 << 10)
        .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let garbage = (0..t).fold(Sim::new(n), |sim, p| {
        sim.corrupt(PartyId(p), Corruption::Scripted)
    });
    for (name, sim, deciders, honest_bits) in [
        ("honest", Sim::new(n), n, 50_470_800u64),
        (
            "garbage",
            garbage.with_adversary(Garbage::new(27)),
            n - t,
            34_186_800,
        ),
    ] {
        let report = sim.run(|ctx, _| lba_plus(ctx, &payload, BaKind::default()));
        let outs = report.honest_outputs();
        assert_eq!(outs.len(), deciders, "{name}");
        assert!(
            outs.iter().all(|out| out.as_ref() == Some(&payload)),
            "{name}"
        );
        assert_eq!(report.metrics.honest_bits, honest_bits, "{name}");
    }
}

//! Workload generators: seeded, deterministic input distributions.

use ca_adversary::{Attack, LieKind};
use ca_bits::{BitString, Nat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random bitstring of exactly `len` bits.
pub fn random_bits(rng: &mut SmallRng, len: usize) -> BitString {
    BitString::from_bits((0..len).map(|_| rng.gen::<bool>()))
}

/// Clustered honest inputs: a shared random `ell`-bit base whose lowest
/// `spread_bits` bits are re-randomized per party — the "sensor jitter"
/// regime the paper motivates (honest values agree on a long prefix).
pub fn clustered_nats(seed: u64, n: usize, ell: usize, spread_bits: usize) -> Vec<Nat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = random_bits(&mut rng, ell);
    (0..n)
        .map(|_| {
            let mut v = base.clone();
            if ell > 0 {
                v.set(0, true);
            }
            let spread = spread_bits.min(ell.saturating_sub(1));
            for i in ell - spread..ell {
                let b = rng.gen::<bool>();
                v.set(i, b);
            }
            v.val()
        })
        .collect()
}

/// Applies an attack's input lies: corrupted parties (per
/// [`Attack::corrupted_parties`]) get extreme `ell`-bit values.
pub fn apply_lies(inputs: &mut [Nat], attack: &Attack, n: usize, t: usize, ell: usize) {
    if !attack.is_lying() {
        return;
    }
    for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
        inputs[p.index()] = match attack.lie_for(idx).expect("lying attack") {
            LieKind::ExtremeHigh => Nat::all_ones(ell),
            LieKind::ExtremeLow => Nat::zero(),
            LieKind::Split => unreachable!("lie_for resolves Split"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_inputs_share_prefix() {
        let vals = clustered_nats(7, 5, 128, 16);
        assert_eq!(vals.len(), 5);
        let bits: Vec<BitString> = vals.iter().map(|v| v.to_bits_len(128).unwrap()).collect();
        for w in bits.windows(2) {
            assert!(w[0].common_prefix_len(&w[1]) >= 128 - 16);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(clustered_nats(9, 4, 64, 8), clustered_nats(9, 4, 64, 8));
        assert_ne!(clustered_nats(9, 4, 64, 8), clustered_nats(10, 4, 64, 8));
    }
}

//! Seeded input generator. `--seed` is the only source of variation: every
//! workload draws a pool of [`POOL`] input vectors from it, and the
//! protocols under test receive nothing but those vectors.

use convex_agreement::bits::{BitString, Int, Nat, Sign};

/// Input vectors per workload; decisions cycle through them.
pub const POOL: usize = 8;

/// SplitMix64 finalizer over `seed` and a stream number: independent,
/// well-mixed sub-seeds without a dependency.
pub fn mix(seed: u64, stream: u64) -> u64 {
    finalize(
        seed.wrapping_add(GOLDEN_GAMMA)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    )
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of pool slot `slot` of the workload called `workload`.
pub fn slot_seed(seed: u64, workload: &str, slot: usize) -> u64 {
    // FNV-1a of the name keeps the workloads' streams apart.
    let name = workload.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    mix(mix(seed, name), slot as u64)
}

/// SplitMix64 sequence.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        finalize(self.0)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Clustered honest inputs, the "sensor jitter" regime the paper motivates:
/// one random `ell`-bit base (top bit set, so every value is exactly `ell`
/// bits long) whose lowest `spread_bits` bits are drawn again per party.
///
/// The base comes from `seed`, the per-party jitter from `jitter_seed`.
/// What a decision costs depends on how the honest inputs lie relative to
/// each other — which prefix windows find a quorum — and not on where the
/// cluster sits, so callers that want the same mix of search paths under
/// every seed hold `jitter_seed` fixed and let `seed` move the cluster.
pub fn clustered_nats(
    seed: u64,
    jitter_seed: u64,
    n: usize,
    ell: usize,
    spread_bits: usize,
) -> Vec<Nat> {
    assert!(ell > 0, "clustered inputs need at least one bit");
    let mut base = BitString::from_packed(&SplitMix::new(seed).bytes(ell.div_ceil(8)), ell);
    base.set(0, true);
    let spread = spread_bits.min(ell - 1);
    let mut jitter = SplitMix::new(jitter_seed);
    (0..n)
        .map(|_| {
            let mut v = base.clone();
            let mut word = 0u64;
            for (k, i) in (ell - spread..ell).enumerate() {
                if k % 64 == 0 {
                    word = jitter.next_u64();
                }
                v.set(i, word >> (k % 64) & 1 == 1);
            }
            v.val()
        })
        .collect()
}

/// A pool of clustered integer vectors for the workload called `workload`:
/// the inputs `Π_ℤ` takes. Slot `s` has the same arrangement of parties
/// around its base under every seed (so rounds and bytes per decision do
/// not depend on the seed, and a change in them is a change in the
/// protocol); the seed draws each slot's base and sign.
pub fn int_pool(
    seed: u64,
    workload: &str,
    n: usize,
    ell: usize,
    spread_bits: usize,
) -> Vec<Vec<Int>> {
    (0..POOL)
        .map(|slot| {
            let base_seed = slot_seed(seed, workload, slot);
            let arrangement = slot_seed(0, workload, slot);
            let sign = Sign::from_bit(mix(base_seed, 1) & 1 == 1);
            clustered_nats(mix(base_seed, 0), arrangement, n, ell, spread_bits)
                .into_iter()
                .map(|mag| Int::from_parts(sign, mag))
                .collect()
        })
        .collect()
}

/// A pool of random byte payloads of `len` bytes each.
pub fn payload_pool(seed: u64, workload: &str, len: usize) -> Vec<Vec<u8>> {
    (0..POOL)
        .map(|slot| SplitMix::new(slot_seed(seed, workload, slot)).bytes(len))
        .collect()
}

/// A pool of sub-seeds, for a workload whose program draws its own inputs
/// from a seed (the engine's load generator).
pub fn seed_pool(seed: u64, workload: &str) -> Vec<u64> {
    (0..POOL)
        .map(|slot| slot_seed(seed, workload, slot))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use convex_agreement::codec::Encode;

    fn int_pool_bytes(seed: u64) -> Vec<u8> {
        int_pool(seed, "sim_small", 16, 256, 64)
            .iter()
            .flatten()
            .flat_map(Encode::encode_to_vec)
            .collect()
    }

    #[test]
    fn one_seed_gives_identical_pools_two_seeds_differ() {
        assert_eq!(int_pool_bytes(1), int_pool_bytes(1));
        assert_ne!(int_pool_bytes(1), int_pool_bytes(2));
        assert_eq!(
            payload_pool(1, "lba_bulk", 4096),
            payload_pool(1, "lba_bulk", 4096)
        );
        assert_ne!(
            payload_pool(1, "lba_bulk", 4096),
            payload_pool(2, "lba_bulk", 4096)
        );
        assert_eq!(seed_pool(7, "engine_mux"), seed_pool(7, "engine_mux"));
        assert_ne!(seed_pool(7, "engine_mux"), seed_pool(8, "engine_mux"));
    }

    #[test]
    fn the_seed_moves_the_cluster_not_the_arrangement() {
        let ell = 256;
        let low_bits = |v: &Int| v.magnitude().to_bits_len(ell).unwrap().slice(ell - 64, ell);
        let (a, b) = (
            int_pool(1, "sim_small", 16, ell, 64),
            int_pool(2, "sim_small", 16, ell, 64),
        );
        for (slot_a, slot_b) in a.iter().zip(&b) {
            assert_ne!(slot_a[0].magnitude(), slot_b[0].magnitude(), "another base");
            for (x, y) in slot_a.iter().zip(slot_b) {
                assert_eq!(low_bits(x), low_bits(y), "the same jitter");
            }
        }
        assert_ne!(
            low_bits(&a[0][0]),
            low_bits(&a[1][0]),
            "slots differ in arrangement"
        );
    }

    #[test]
    fn workloads_and_slots_draw_from_separate_streams() {
        assert_ne!(slot_seed(1, "sim_small", 0), slot_seed(1, "sim_bulk", 0));
        assert_ne!(slot_seed(1, "sim_small", 0), slot_seed(1, "sim_small", 1));
        let pool = payload_pool(3, "lba_bulk", 64);
        assert_eq!(pool.len(), POOL);
        assert!(pool.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn clustered_inputs_share_all_but_the_spread() {
        let ell = 300;
        let vals = clustered_nats(9, 4, 5, ell, 64);
        let bits: Vec<BitString> = vals.iter().map(|v| v.to_bits_len(ell).unwrap()).collect();
        for b in &bits {
            assert_eq!(b.len(), ell);
            assert!(b.get(0), "top bit set: exactly ell bits");
        }
        for w in bits.windows(2) {
            assert!(w[0].common_prefix_len(&w[1]) >= ell - 64);
        }
        assert!(
            vals.windows(2).any(|w| w[0] != w[1]),
            "the spread bits vary"
        );
        for ints in int_pool(9, "sim_small", 5, ell, 64) {
            assert!(ints.windows(2).all(|w| w[0].sign() == w[1].sign()));
        }
    }
}

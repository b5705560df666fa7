//! Synchronous Approximate Agreement (AA) — the classical relaxation of CA
//! introduced by Dolev, Lynch, Pinter, Stark and Weihl [16] and the
//! starting point of the paper's related-work line (§1.1).
//!
//! AA weakens Agreement to *ε-agreement* (honest outputs within `ε` of
//! each other) while keeping the same convex validity; in exchange it
//! needs no BA machinery at all — just iterated trusted-interval
//! averaging. It is included both for completeness of the library and as
//! a reference point: CA delivers *exact* agreement for `O(ℓn)` bits,
//! whereas AA pays `O(ℓn²)` bits *per halving round*.
//!
//! ## Algorithm
//!
//! Each round, every party broadcasts its value and computes the
//! `(t+1)`-th lowest and `(t+1)`-th highest value received — a trusted
//! interval that (a) lies inside the honest range and (b) contains the
//! `(t+1)`-th lowest honest value `p` (same argument as `HighCostCA`'s
//! Lemma 10). The new value is the interval midpoint; since every honest
//! interval contains the common point `p`, honest values land in
//! `[(m+p)/2, (p+M)/2]`, halving the honest diameter every round. After
//! `⌈log₂(D/ε)⌉` rounds (`D` a public bound on the initial honest
//! diameter) the diameter is `≤ ε`.

use ca_net::{block_on, Comm, Ctx};

/// Runs synchronous Approximate Agreement on `input`.
///
/// * `range` — public bounds `(lo, hi)`; honest inputs must lie inside
///   (inputs are clamped defensively).
/// * `epsilon` — target honest-output spread, `≥ 1`.
///
/// Guarantees (for `t < n/3`, honest inputs within `range`): Termination
/// after `⌈log₂((hi−lo)/ε)⌉` rounds; ε-Agreement; Convex Validity.
///
/// # Examples
///
/// ```
/// use ca_core::approx_agreement;
/// use ca_net::Sim;
///
/// let inputs = [10i64, 14, 11, 13];
/// let report = Sim::new(4)
///     .run(|ctx, id| approx_agreement(ctx, inputs[id.index()], (0, 100), 2));
/// let outs: Vec<i64> = report.honest_outputs().into_iter().copied().collect();
/// let spread = outs.iter().max().unwrap() - outs.iter().min().unwrap();
/// assert!(spread <= 2);                                      // ε-agreement
/// assert!(outs.iter().all(|v| (10..=14).contains(v)));       // validity
/// ```
///
/// # Panics
///
/// Panics if `epsilon == 0` or `range.0 > range.1`.
pub fn approx_agreement(ctx: &mut dyn Comm, input: i64, range: (i64, i64), epsilon: u64) -> i64 {
    block_on(approx_agreement_async(
        &mut Ctx::live(ctx),
        input,
        range,
        epsilon,
    ))
}

/// [`approx_agreement`] as an `async fn` over a [`Ctx`].
pub(crate) async fn approx_agreement_async(
    ctx: &mut Ctx<'_>,
    input: i64,
    range: (i64, i64),
    epsilon: u64,
) -> i64 {
    assert!(epsilon > 0, "epsilon must be positive");
    let (lo, hi) = range;
    assert!(lo <= hi, "empty range");
    let t = ctx.t();

    ctx.scoped("approx", async |ctx| {
        let mut v = input.clamp(lo, hi);
        let diameter = (hi as i128 - lo as i128).max(1) as u128;
        let ratio = (diameter / u128::from(epsilon)).max(1);
        // ⌈log₂(D/ε)⌉ halvings (+1 slack for integer-midpoint rounding).
        let rounds = ratio.next_power_of_two().trailing_zeros() as usize + 1;

        for _ in 0..rounds {
            let inbox = ctx.exchange(&zigzag(v)).await;
            let mut received: Vec<i64> = inbox
                .decode_each::<u64>()
                .into_iter()
                .map(|(_, raw)| unzigzag(raw).clamp(lo, hi))
                .collect();
            received.sort_unstable();
            if received.len() > 2 * t {
                let a = received[t];
                let b = received[received.len() - 1 - t];
                v = ((a as i128 + b as i128) / 2) as i64;
            }
            // Fewer than 2t+1 values cannot happen with n−t honest
            // senders; keep v unchanged defensively.
        }
        v
    })
    .await
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_adversary::{Equivocate, Garbage, Replay};
    use ca_net::{Corruption, PartyId, Sim};

    fn spread(outs: &[i64]) -> u64 {
        (outs.iter().max().unwrap() - outs.iter().min().unwrap()) as u64
    }

    fn assert_aa(outs: &[i64], honest_inputs: &[i64], epsilon: u64) {
        assert!(spread(outs) <= epsilon, "ε-agreement violated: {outs:?}");
        let lo = *honest_inputs.iter().min().unwrap();
        let hi = *honest_inputs.iter().max().unwrap();
        for v in outs {
            assert!(
                *v >= lo && *v <= hi,
                "validity violated: {v} ∉ [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn honest_convergence() {
        let inputs = [0i64, 100, 37, 90, 55, 12, 76];
        let report =
            Sim::new(7).run(|ctx, id| approx_agreement(ctx, inputs[id.index()], (0, 1000), 1));
        let outs: Vec<i64> = report.honest_outputs().into_iter().copied().collect();
        assert_aa(&outs, &inputs, 1);
    }

    #[test]
    fn epsilon_controls_rounds() {
        let inputs = [0i64, 1024, 512, 256];
        let r1 = Sim::new(4)
            .run(|ctx, id| approx_agreement(ctx, inputs[id.index()], (0, 1024), 1))
            .metrics
            .rounds;
        let r256 = Sim::new(4)
            .run(|ctx, id| approx_agreement(ctx, inputs[id.index()], (0, 1024), 256))
            .metrics
            .rounds;
        assert!(
            r256 < r1,
            "coarser ε must need fewer rounds ({r256} vs {r1})"
        );
    }

    #[test]
    fn byzantine_extremes_cannot_stall_or_drag() {
        let n = 7;
        let honest = [500i64, 510, 505, 503, 508];
        for adv in 0..4 {
            let report = {
                let s = Sim::new(n)
                    .corrupt(PartyId(5), Corruption::Scripted)
                    .corrupt(PartyId(6), Corruption::Scripted);
                let s = match adv {
                    0 => s,
                    1 => s.with_adversary(Garbage::new(41)),
                    2 => s.with_adversary(Replay::new(42)),
                    _ => s.with_adversary(Equivocate::new(43)),
                };
                s.run(|ctx, id| {
                    let input = if id.index() < 5 {
                        honest[id.index()]
                    } else {
                        0
                    };
                    approx_agreement(ctx, input, (0, 1_000_000), 4)
                })
            };
            let outs: Vec<i64> = report.honest_outputs().into_iter().copied().collect();
            assert_aa(&outs, &honest, 4);
        }
    }

    #[test]
    fn lying_extremes() {
        let n = 10;
        let mut inputs = vec![100i64, 102, 98, 101, 99, 103, 97];
        inputs.extend([i64::MAX, i64::MIN, i64::MAX]); // clamped to range
        let report = Sim::new(n)
            .corrupt(PartyId(7), Corruption::LyingHonest)
            .corrupt(PartyId(8), Corruption::LyingHonest)
            .corrupt(PartyId(9), Corruption::LyingHonest)
            .run(|ctx, id| approx_agreement(ctx, inputs[id.index()], (-10_000, 10_000), 2));
        let outs: Vec<i64> = report.honest_outputs().into_iter().copied().collect();
        assert_aa(&outs, &inputs[..7], 2);
    }

    #[test]
    fn identical_inputs_stay_put() {
        let report = Sim::new(4).run(|ctx, _| approx_agreement(ctx, 42, (0, 100), 1));
        for out in report.honest_outputs() {
            assert_eq!(*out, 42);
        }
    }
}

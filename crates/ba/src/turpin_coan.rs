//! Multi-valued BA via reduction to binary BA (Turpin–Coan style [49]).
//!
//! The classic observation of Turpin and Coan: multi-valued agreement only
//! needs a constant number of all-to-all value exchanges plus one *binary*
//! agreement. This implementation restructures the original slightly for a
//! self-contained proof at `t < n/3`; the costs are the classic ones:
//!
//! `BITS_ℓ = O(ℓ·n²) + BITS₁(Π_BA)` and `ROUNDS = 3 + ROUNDS₁(Π_BA)`.
//!
//! With the binary phase-king BA underneath, κ-bit agreement costs
//! `O(κn² + n³)` bits — the `Π_BA` cost profile the paper assumes (§1, §7).
//!
//! # Protocol
//!
//! 1. **Candidate round** — everyone sends its value; `cand` := the value
//!    received from `≥ n−t` parties (at most one can exist, and if two
//!    honest parties hold non-`⊥` candidates they are equal: two `n−t`
//!    quorums intersect in `≥ n−2t > t` parties, i.e. in an honest party).
//! 2. **Confirmation round** — everyone sends `cand`; `confirmed` := 1 iff
//!    some value `w` occurs `≥ n−t` times among the candidates.
//! 3. **Binary BA** on `confirmed`.
//! 4. If the bit is 1: whoever holds a non-`⊥` candidate resends it; every
//!    party outputs the unique value received `≥ t+1` times. (If the bit
//!    is 1, some honest party was confirmed, so `≥ n−2t ≥ t+1` honest
//!    parties hold candidate `w` — everyone hears `w` at least `t+1` times,
//!    and no other value can reach `t+1`.) If the bit is 0: output the
//!    domain default (honest inputs were mixed, so Validity is vacuous).
//!
//! # Extra property
//!
//! Like the paper's `Π_BA+`, this BA is *intrusion-tolerant modulo the
//! default*: the output is an honest party's input or `V::default()`. (A
//! candidate needs an `n−t` quorum in round 1, which contains an honest
//! sender of that exact value.)

use std::collections::BTreeMap;

use ca_net::{block_on, Comm, Ctx};

use crate::{BaKind, Value};

/// Runs multi-valued BA on `input` via the binary-BA reduction.
///
/// Guarantees (for `t < n/3`): Termination, Agreement, Validity; output is
/// an honest input or `V::default()`.
///
/// # Examples
///
/// ```
/// use ca_ba::turpin_coan;
/// use ca_net::Sim;
///
/// // Mixed inputs: everyone still agrees, on an honest input or default.
/// let report = Sim::new(4).run(|ctx, id| turpin_coan(ctx, id.index() as u64));
/// let outs = report.honest_outputs();
/// assert!(outs.windows(2).all(|w| w[0] == w[1]));
/// ```
pub fn turpin_coan<V: Value>(ctx: &mut dyn Comm, input: V) -> V {
    block_on(turpin_coan_async(&mut Ctx::live(ctx), input))
}

/// [`turpin_coan`] as an `async fn` over a [`Ctx`].
pub(crate) async fn turpin_coan_async<V: Value>(ctx: &mut Ctx<'_>, input: V) -> V {
    ctx.scoped("tc", async |ctx| {
        let quorum = ctx.quorum();
        let t = ctx.t();

        // Round 1: candidates.
        let values = ctx.exchange(&input).await;
        let mut counts: BTreeMap<V, usize> = BTreeMap::new();
        for (_, v) in values.decode_each::<V>() {
            *counts.entry(v).or_insert(0) += 1;
        }
        let cand: Option<V> = counts
            .iter()
            .find(|(_, c)| **c >= quorum)
            .map(|(v, _)| v.clone());

        // Round 2: confirmation.
        let cands = ctx.exchange(&cand).await;
        let mut cand_counts: BTreeMap<V, usize> = BTreeMap::new();
        for (_, c) in cands.decode_each::<Option<V>>() {
            if let Some(v) = c {
                *cand_counts.entry(v).or_insert(0) += 1;
            }
        }
        let confirmed = cand_counts.values().any(|c| *c >= quorum);

        // Binary agreement on whether a confirmed candidate exists,
        // through the one binary-BA entry every protocol shares.
        let bit = BaKind::TurpinCoan.run_bit_async(ctx, confirmed).await;
        let out = if !bit {
            V::default()
        } else {
            // Round 3: redistribute the (unique) candidate.
            if let Some(v) = &cand {
                ctx.send_all(v);
            }
            let finals = ctx.next_round().await;
            let mut final_counts: BTreeMap<V, usize> = BTreeMap::new();
            for (_, v) in finals.decode_each::<V>() {
                *final_counts.entry(v).or_insert(0) += 1;
            }
            final_counts
                .into_iter()
                .find(|(_, c)| *c > t)
                .map(|(v, _)| v)
                // Unreachable when t < n/3 (see module docs); a deterministic
                // fallback keeps even an impossible state agreed-upon.
                .unwrap_or_default()
        };
        ctx.trace_decide(|| ca_net::compact_debug(&out));
        out
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase_king;
    use ca_adversary::{Equivocate, Garbage, Replay};
    use ca_bits::BitString;
    use ca_net::{Corruption, PartyId, Sim};

    #[test]
    fn validity_all_same() {
        for n in [1, 4, 7, 13] {
            let report = Sim::new(n).run(|ctx, _| turpin_coan(ctx, 777u64));
            for out in report.honest_outputs() {
                assert_eq!(*out, 777, "n = {n}");
            }
        }
    }

    #[test]
    fn agreement_on_mixed_inputs_yields_default_or_honest_input() {
        let inputs = [1u64, 2, 3, 4, 5, 6, 7];
        let report = Sim::new(7).run(|ctx, id| turpin_coan(ctx, inputs[id.index()]));
        let outs: Vec<u64> = report.honest_outputs().into_iter().copied().collect();
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        let v = outs[0];
        assert!(
            v == 0 || inputs.contains(&v),
            "output {v} is neither default nor honest"
        );
    }

    #[test]
    fn validity_under_each_message_attack() {
        let n = 7;
        for adv in 0..4 {
            let report = {
                let s = Sim::new(n)
                    .corrupt(PartyId(5), Corruption::Scripted)
                    .corrupt(PartyId(6), Corruption::Scripted);
                let s = match adv {
                    0 => s,
                    1 => s.with_adversary(Garbage::new(5)),
                    2 => s.with_adversary(Replay::new(6)),
                    _ => s.with_adversary(Equivocate::new(7)),
                };
                s.run(|ctx, _| turpin_coan(ctx, 31337u64))
            };
            for out in report.honest_outputs() {
                assert_eq!(*out, 31337, "adversary {adv}");
            }
        }
    }

    #[test]
    fn intrusion_tolerance_with_lying_minority() {
        // n−t honest parties agree; t liars push another value: the liars'
        // value must not win.
        let n = 10;
        let report = Sim::new(n)
            .corrupt(PartyId(7), Corruption::LyingHonest)
            .corrupt(PartyId(8), Corruption::LyingHonest)
            .corrupt(PartyId(9), Corruption::LyingHonest)
            .run(|ctx, id| {
                let input = if id.index() >= 7 { 666u64 } else { 5 };
                turpin_coan(ctx, input)
            });
        for out in report.honest_outputs() {
            assert_eq!(*out, 5);
        }
    }

    #[test]
    fn long_values_work() {
        let long = BitString::repeat(true, 5000);
        let report = Sim::new(4).run(|ctx, _| turpin_coan(ctx, long.clone()));
        for out in report.honest_outputs() {
            assert_eq!(out, &long);
        }
    }

    #[test]
    fn cheaper_than_phase_king_on_long_values() {
        // The whole point of the reduction: value-sized traffic is O(ℓn²)
        // instead of O(ℓn³).
        let long = BitString::repeat(true, 4000);
        let n = 7;
        let tc = Sim::new(n).run(|ctx, _| turpin_coan(ctx, long.clone()));
        let pk = Sim::new(n).run(|ctx, _| phase_king(ctx, long.clone()));
        assert!(
            tc.metrics.honest_bits < pk.metrics.honest_bits / 2,
            "tc = {}, pk = {}",
            tc.metrics.honest_bits,
            pk.metrics.honest_bits
        );
    }
}

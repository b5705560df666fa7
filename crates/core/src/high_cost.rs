//! `HighCostCA` (Appendix A.4, Theorem 3): king-style Convex Agreement at
//! `O(ℓ·n³)` bits and `O(n)` rounds — a variant of the Median Validity
//! protocol of Stolz–Wattenhofer [47] (itself a variant of the king BA [7]).
//!
//! Used in two roles:
//!
//! * as a subroutine of the optimal protocol (`AddLastBlock` and the
//!   block-size estimation of `Π_ℕ`), always on *short* inputs where its
//!   cubic cost is immaterial;
//! * as an experiment baseline for the `O(ℓn³)` row of T1/F1/F2.
//!
//! ## Structure
//!
//! **Setup stage.** Everyone distributes its input; receiving `n − t + k`
//! values means at most `k` are byzantine, so the `(k+1)`-th lowest and
//! `(k+1)`-th highest received values bound a *trusted interval* inside the
//! honest range (Lemma 10). Parties exchange intervals and pick a
//! `SUGGESTION` covered by `≥ n − t` of them (so by `≥ t + 1` honest ones).
//!
//! **Search stage.** `t + 1` king phases: values with an `n − t` receive
//! quorum are *proposed*; proposals backed `t + 1` times are adopted; the
//! phase king pushes its pick to parties lacking an `n − t` propose quorum,
//! who accept it only if it coincides with their value or falls in their
//! trusted interval. The first honest king forces agreement (Lemma 14),
//! and agreement persists (Lemma 13); every adopted value stays inside
//! some honest trusted interval (Lemma 11), giving convex validity.
//!
//! Following the paper's remark, every received value is filtered through a
//! caller-supplied domain predicate (the paper's "ignore any values outside
//! `ℕ`"; for `AddLastBlock`, "not exactly one block long").

use std::collections::BTreeMap;

use ca_ba::Value;
use ca_net::{block_on, Comm, Ctx, PartyId};

/// Runs `HighCostCA` on `input`; `valid` is the domain predicate applied to
/// every received value (the paper's "ignore values outside ℕ").
///
/// Guarantees (for `t < n/3`, honest inputs satisfying `valid`):
/// Termination, Agreement, Convex Validity w.r.t. the `Ord` on `V`.
///
/// # Examples
///
/// ```
/// use ca_core::high_cost_ca;
/// use ca_net::Sim;
///
/// let inputs = [30u64, 10, 20, 25];
/// let report = Sim::new(4).run(|ctx, id| high_cost_ca(ctx, inputs[id.index()], |_| true));
/// let outs = report.honest_outputs();
/// assert!(outs.windows(2).all(|w| w[0] == w[1]));           // Agreement
/// assert!((10..=30).contains(outs[0]));                     // Convex Validity
/// ```
pub fn high_cost_ca<V, F>(ctx: &mut dyn Comm, input: V, valid: F) -> V
where
    V: Value,
    F: Fn(&V) -> bool,
{
    block_on(high_cost_ca_async(&mut Ctx::live(ctx), input, valid))
}

/// [`high_cost_ca`] as an `async fn` over a [`Ctx`].
pub(crate) async fn high_cost_ca_async<V, F>(ctx: &mut Ctx<'_>, input: V, valid: F) -> V
where
    V: Value,
    F: Fn(&V) -> bool,
{
    ctx.scoped("high_cost", async |ctx| {
        ctx.trace_input(|| ca_net::compact_debug(&input));
        let n = ctx.n();
        let t = ctx.t();
        let quorum = n - t;

        // --- Setup stage ---
        let inbox = ctx.exchange(&input).await;
        let mut values: Vec<V> = inbox
            .decode_each::<V>()
            .into_iter()
            .map(|(_, v)| v)
            .filter(|v| valid(v))
            .collect();
        values.sort();
        // Received n−t+k values ⇒ at most k byzantine among them.
        let k = values.len().saturating_sub(quorum);
        let (interval_min, interval_max) = if values.is_empty() {
            // Unreachable with n−t honest senders; deterministic fallback.
            (input.clone(), input.clone())
        } else {
            (values[k].clone(), values[values.len() - 1 - k].clone())
        };

        let inbox = ctx
            .exchange(&(interval_min.clone(), interval_max.clone()))
            .await;
        let intervals: Vec<(V, V)> = inbox
            .decode_each::<(V, V)>()
            .into_iter()
            .map(|(_, iv)| iv)
            .filter(|(lo, hi)| valid(lo) && valid(hi))
            .collect();
        // SUGGESTION: a value inside ≥ n−t received intervals. A maximal
        // coverage point can always be chosen among the interval minima;
        // take the smallest qualifying one for determinism.
        let mut candidates: Vec<&V> = intervals.iter().map(|(lo, _)| lo).collect();
        candidates.sort();
        candidates.dedup();
        let suggestion = candidates
            .into_iter()
            .find(|c| {
                intervals
                    .iter()
                    .filter(|(lo, hi)| lo <= *c && *c <= hi)
                    .count()
                    >= quorum
            })
            .cloned()
            // Unreachable when ≥ n−t honest intervals were received
            // (Corollary 4); deterministic fallback.
            .unwrap_or_else(|| interval_min.clone());

        let mut current = suggestion.clone();

        // --- Search stage: t + 1 king phases ---
        for phase in 0..=t {
            let king = PartyId(phase % n);

            // Exchange current values.
            let inbox = ctx.exchange(&current).await;
            let mut counts: BTreeMap<V, usize> = BTreeMap::new();
            for (_, v) in inbox.decode_each::<V>() {
                if valid(&v) {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
            let proposal: Option<V> = counts
                .iter()
                .find(|(_, c)| **c >= quorum)
                .map(|(v, _)| v.clone());

            // Propose round.
            if let Some(p) = &proposal {
                ctx.send_all(p);
            }
            let inbox = ctx.next_round().await;
            let mut prop_counts: BTreeMap<V, usize> = BTreeMap::new();
            for (_, v) in inbox.decode_each::<V>() {
                if valid(&v) {
                    *prop_counts.entry(v).or_insert(0) += 1;
                }
            }
            let backed: Option<V> = prop_counts
                .iter()
                .find(|(_, c)| **c > t)
                .map(|(v, _)| v.clone());
            let strongly_backed = prop_counts.values().any(|c| *c >= quorum);
            if let Some(v) = &backed {
                current = v.clone();
            }

            // King round.
            if ctx.me() == king {
                let king_value = backed.clone().unwrap_or_else(|| suggestion.clone());
                ctx.send_all(&king_value);
            }
            let inbox = ctx.next_round().await;
            let king_value: Option<V> = inbox.decode_from::<V>(king).filter(|v| valid(v));

            // Vote round: endorse the king's value only if it matches our
            // own or falls inside our trusted interval.
            if let Some(kv) = &king_value {
                if *kv == current || (interval_min <= *kv && *kv <= interval_max) {
                    ctx.send_all(kv);
                }
            }
            let inbox = ctx.next_round().await;
            if !strongly_backed {
                let mut vote_counts: BTreeMap<V, usize> = BTreeMap::new();
                for (_, v) in inbox.decode_each::<V>() {
                    if valid(&v) {
                        *vote_counts.entry(v).or_insert(0) += 1;
                    }
                }
                if let Some((v, _)) = vote_counts.iter().find(|(_, c)| **c > t) {
                    current = v.clone();
                }
            }
        }

        ctx.trace_decide(|| ca_net::compact_debug(&current));
        current
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_adversary::{Equivocate, Garbage, Replay};
    use ca_net::{Corruption, Sim};

    fn check_ca(outs: &[&u64], honest_inputs: &[u64]) {
        assert!(!outs.is_empty());
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement: {outs:?}");
        let lo = honest_inputs.iter().min().unwrap();
        let hi = honest_inputs.iter().max().unwrap();
        assert!(
            outs[0] >= lo && outs[0] <= hi,
            "convex validity: {} ∉ [{lo}, {hi}]",
            outs[0]
        );
    }

    #[test]
    fn honest_run_is_convex() {
        let inputs = [100u64, 50, 75, 90, 10, 60, 55];
        let report = Sim::new(7).run(|ctx, id| high_cost_ca(ctx, inputs[id.index()], |_| true));
        check_ca(&report.honest_outputs(), &inputs);
    }

    #[test]
    fn identical_inputs_stay_fixed() {
        let report = Sim::new(4).run(|ctx, _| high_cost_ca(ctx, 42u64, |_| true));
        for out in report.honest_outputs() {
            assert_eq!(*out, 42);
        }
    }

    #[test]
    fn convex_under_all_message_attacks() {
        let n = 7;
        let inputs = [30u64, 31, 29, 33, 28, 0, 0];
        for adv in 0..4 {
            let report = {
                let s = Sim::new(n)
                    .corrupt(PartyId(5), Corruption::Scripted)
                    .corrupt(PartyId(6), Corruption::Scripted);
                let s = match adv {
                    0 => s,
                    1 => s.with_adversary(Garbage::new(31)),
                    2 => s.with_adversary(Replay::new(32)),
                    _ => s.with_adversary(Equivocate::new(33)),
                };
                s.run(|ctx, id| high_cost_ca(ctx, inputs[id.index()], |_| true))
            };
            check_ca(&report.honest_outputs(), &inputs[..5]);
        }
    }

    #[test]
    fn lying_extremes_cannot_leave_honest_range() {
        let n = 10; // t = 3
        let mut inputs = vec![500u64, 510, 520, 505, 515, 508, 512];
        inputs.extend([u64::MAX, 0, u64::MAX]); // liars
        let report = Sim::new(n)
            .corrupt(PartyId(7), Corruption::LyingHonest)
            .corrupt(PartyId(8), Corruption::LyingHonest)
            .corrupt(PartyId(9), Corruption::LyingHonest)
            .run(|ctx, id| high_cost_ca(ctx, inputs[id.index()], |_| true));
        check_ca(&report.honest_outputs(), &inputs[..7]);
    }

    #[test]
    fn domain_predicate_filters_byzantine_values() {
        use ca_bits::BitString;
        // Blocks of exactly 4 bits; a lying party ships a 2-bit "block".
        let n = 4;
        let blocks = ["1010", "1011", "1001", "11"];
        let report = Sim::new(n)
            .corrupt(PartyId(3), Corruption::LyingHonest)
            .run(|ctx, id| {
                let b = BitString::parse_binary(blocks[id.index()]).unwrap();
                high_cost_ca(ctx, b, |v: &BitString| v.len() == 4)
            });
        for out in report.honest_outputs() {
            assert_eq!(out.len(), 4, "short byzantine block leaked through");
            let v = out.val().to_u64().unwrap();
            assert!((0b1001..=0b1011).contains(&v));
        }
    }

    #[test]
    fn rounds_are_linear_in_n() {
        let report = Sim::new(7).run(|ctx, _| high_cost_ca(ctx, 5u64, |_| true));
        // setup (2) + 4 rounds × (t+1 = 3 phases) = 14.
        assert_eq!(report.metrics.rounds, 14);
    }
}

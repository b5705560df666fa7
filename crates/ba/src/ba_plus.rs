//! `Π_BA+` (paper §7, Theorem 6): BA for short values with
//! *Intrusion Tolerance* and *Bounded Pre-Agreement*.
//!
//! The paper's protocol, verbatim:
//!
//! 1. Send the input to all parties.
//! 2. Vote for every value received from `≥ n − 2t` parties (at most two
//!    such values can exist).
//! 3. Let `a ≤ b` be the (at most two) values voted by `≥ n − t` parties
//!    (`⊥` if fewer).
//! 4. BA on `a`; then binary BA on "my `a` equals the outcome and is
//!    non-`⊥`". If the bit is 1, output the agreed `a`.
//! 5. Otherwise repeat for `b`; if that fails too, output `⊥`.
//!
//! Costs: `BITSκ(Π_BA+) = O(κn²) + 4·BITSκ(Π_BA)` (the paper folds the four
//! invocations into the `BITSκ(Π_BA)` term), `ROUNDS = 2 + O(1)·ROUNDSκ(Π_BA)`.

use std::collections::BTreeMap;

use ca_codec::{CodecError, Decode, Encode, Reader, Writer};
use ca_net::{block_on, Comm, Ctx};

use crate::{BaKind, Value};

/// A vote for the (at most two, strictly increasing) values a party has
/// seen `n − 2t` times. Malformed votes (too many entries, unsorted,
/// duplicates) are rejected at decode time, i.e. treated as silence.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Vote<V> {
    values: Vec<V>,
}

impl<V: Encode> Encode for Vote<V> {
    fn encode(&self, w: &mut Writer) {
        self.values.encode(w);
    }
    fn encoded_len(&self) -> usize {
        self.values.encoded_len()
    }
}

impl<V: Decode + Ord> Decode for Vote<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let values: Vec<V> = Vec::decode(r)?;
        if values.len() > 2 {
            return Err(CodecError::Invalid("vote with more than two values"));
        }
        if values.len() == 2 && values[0] >= values[1] {
            return Err(CodecError::Invalid("vote not strictly increasing"));
        }
        Ok(Vote { values })
    }
}

/// Runs `Π_BA+` on `input`, instantiating the assumed `Π_BA` with `ba`.
///
/// # Examples
///
/// ```
/// use ca_ba::{ba_plus, BaKind};
/// use ca_crypto::sha256;
/// use ca_net::Sim;
///
/// let z = sha256(b"shared value");
/// let report = Sim::new(4).run(|ctx, _| ba_plus(ctx, z, BaKind::TurpinCoan));
/// assert!(report.honest_outputs().iter().all(|o| **o == Some(z)));
/// ```
///
/// Guarantees (for `t < n/3`), per Theorem 6:
/// * BA: Termination, Agreement, Validity;
/// * **Intrusion Tolerance**: the output is an honest input or `None`;
/// * **Bounded Pre-Agreement**: output `None` implies fewer than `n − 2t`
///   honest parties shared an input.
pub fn ba_plus<V: Value>(ctx: &mut dyn Comm, input: V, ba: BaKind) -> Option<V> {
    block_on(ba_plus_async(&mut Ctx::live(ctx), input, ba))
}

/// [`ba_plus`] as an `async fn` over a [`Ctx`].
pub(crate) async fn ba_plus_async<V: Value>(ctx: &mut Ctx<'_>, input: V, ba: BaKind) -> Option<V> {
    ctx.scoped("ba+", async |ctx| {
        let n = ctx.n();
        let t = ctx.t();

        // Line 1: distribute inputs.
        let inbox = ctx.exchange(&input).await;
        let mut counts: BTreeMap<V, usize> = BTreeMap::new();
        for (_, v) in inbox.decode_each::<V>() {
            *counts.entry(v).or_insert(0) += 1;
        }
        // Line 2: vote for values seen from ≥ n − 2t parties (≤ 2 exist).
        let mut seen: Vec<V> = counts
            .into_iter()
            .filter(|(_, c)| *c >= n - 2 * t)
            .map(|(v, _)| v)
            .collect();
        seen.truncate(2); // provably ≤ 2 already; defensive
        let votes_msg = Vote { values: seen };
        let inbox = ctx.exchange(&votes_msg).await;

        // Line 3: a ≤ b = the values voted by ≥ n − t parties.
        let mut vote_counts: BTreeMap<V, usize> = BTreeMap::new();
        for (_, vote) in inbox.decode_each::<Vote<V>>() {
            for v in vote.values {
                *vote_counts.entry(v).or_insert(0) += 1;
            }
        }
        let backed: Vec<V> = vote_counts
            .into_iter()
            .filter(|(_, c)| *c >= n - t)
            .map(|(v, _)| v)
            .collect();
        let (a, b): (Option<V>, Option<V>) = match backed.as_slice() {
            [] => (None, None),
            [v] => (Some(v.clone()), Some(v.clone())),
            // BTreeMap iteration is ascending, so backed[0] ≤ backed[1];
            // more than two n−t vote quorums are impossible.
            [v, w, ..] => (Some(v.clone()), Some(w.clone())),
        };

        // Lines 4–5: try to agree on a, then on b.
        let mut out = None;
        for candidate in [a, b] {
            let agreed: Option<V> = ba.run_async(ctx, candidate.clone()).await;
            let happy = agreed.is_some() && agreed == candidate;
            if ba.run_bit_async(ctx, happy).await {
                // Some honest party voted 1, so `agreed` is its non-⊥
                // candidate; by Agreement everyone holds the same `agreed`.
                out = agreed;
                break;
            }
        }
        ctx.trace_decide(|| ca_net::compact_debug(&out));
        out
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_adversary::{Equivocate, Garbage, Replay};
    use ca_crypto::sha256;
    use ca_net::{Corruption, PartyId, Sim};

    fn hashes(n: usize) -> Vec<ca_crypto::Hash256> {
        (0..n).map(|i| sha256(&[i as u8])).collect()
    }

    #[test]
    fn validity_all_same() {
        let h = sha256(b"value");
        for ba in [BaKind::TurpinCoan, BaKind::PhaseKing] {
            let report = Sim::new(7).run(|ctx, _| ba_plus(ctx, h, ba));
            for out in report.honest_outputs() {
                assert_eq!(*out, Some(h));
            }
        }
    }

    #[test]
    fn all_distinct_inputs_agree_possibly_bot() {
        let hs = hashes(7);
        let report = Sim::new(7).run(|ctx, id| ba_plus(ctx, hs[id.index()], BaKind::TurpinCoan));
        let outs = report.honest_outputs();
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        // Intrusion tolerance: output is an honest input or ⊥.
        if let Some(v) = outs[0] {
            assert!(hs.contains(v));
        }
    }

    #[test]
    fn bounded_pre_agreement() {
        // n = 7, t = 2: n − 2t = 3 parties share a value ⇒ the output must
        // be non-⊥ (and by intrusion tolerance, an honest input).
        let n = 7;
        let shared = sha256(b"popular");
        let hs = hashes(n);
        let report = Sim::new(n)
            .corrupt(PartyId(5), Corruption::Scripted)
            .corrupt(PartyId(6), Corruption::Scripted)
            .run(|ctx, id| {
                let input = if id.index() < 3 {
                    shared
                } else {
                    hs[id.index()]
                };
                ba_plus(ctx, input, BaKind::TurpinCoan)
            });
        for out in report.honest_outputs() {
            assert!(out.is_some(), "bounded pre-agreement violated");
        }
    }

    #[test]
    fn bounded_pre_agreement_under_attacks() {
        let n = 7;
        let shared = sha256(b"target");
        for adv in 0..3 {
            let report = {
                let s = Sim::new(n)
                    .corrupt(PartyId(5), Corruption::Scripted)
                    .corrupt(PartyId(6), Corruption::Scripted);
                let s = match adv {
                    0 => s.with_adversary(Garbage::new(11)),
                    1 => s.with_adversary(Replay::new(12)),
                    _ => s.with_adversary(Equivocate::new(13)),
                };
                s.run(|ctx, _| ba_plus(ctx, shared, BaKind::TurpinCoan))
            };
            for out in report.honest_outputs() {
                assert_eq!(*out, Some(shared), "adversary {adv}");
            }
        }
    }

    #[test]
    fn intrusion_tolerance_with_lying_split() {
        // Liars try to push their own value; output must be ⊥ or an honest
        // party's input — never the liars' exclusive value.
        let n = 7;
        let honest_val = sha256(b"honest");
        let liar_val = sha256(b"liar");
        let report = Sim::new(n)
            .corrupt(PartyId(5), Corruption::LyingHonest)
            .corrupt(PartyId(6), Corruption::LyingHonest)
            .run(|ctx, id| {
                let input = if id.index() >= 5 {
                    liar_val
                } else {
                    honest_val
                };
                ba_plus(ctx, input, BaKind::TurpinCoan)
            });
        for out in report.honest_outputs() {
            // 5 honest share a value (≥ n − 2t = 3): bounded pre-agreement
            // forces non-⊥; intrusion tolerance forces the honest value.
            assert_eq!(*out, Some(honest_val));
        }
    }

    #[test]
    fn malformed_votes_are_silence() {
        use ca_codec::Encode;
        // Unsorted 2-value vote must fail decoding.
        let vote = Vote {
            values: vec![5u64, 3u64],
        };
        let bytes = vote.encode_to_vec();
        assert!(Vote::<u64>::decode_from_slice(&bytes).is_err());
        // Three-value vote rejected too.
        let vote = Vote {
            values: vec![1u64, 2, 3],
        };
        let bytes = vote.encode_to_vec();
        assert!(Vote::<u64>::decode_from_slice(&bytes).is_err());
    }
}

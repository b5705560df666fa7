//! Multi-valued phase-king byzantine agreement (Berman–Garay–Perry [7]).
//!
//! The deterministic, setup-free `t < n/3` BA the paper's final corollary
//! instantiates `Π_BA` with. `t + 1` phases of three rounds each — at least
//! one phase has an honest king, which forces agreement; agreement, once
//! reached, persists.
//!
//! Complexity: `ROUNDS = 3(t+1) = O(n)`, `BITS = O(|v| · n² · t) = O(|v|·n³)`
//! worst case. For κ-bit values the Turpin–Coan reduction
//! ([`crate::turpin_coan`]) is cheaper; this direct version is kept both as
//! the binary BA it reduces to (`|v| = 1`) and for the F4 ablation.

use std::collections::BTreeMap;

use ca_net::{block_on, Comm, Ctx, PartyId};

use crate::Value;

/// Runs one instance of phase-king BA on `input`.
///
/// Guarantees (for `t < n/3`): Termination, Agreement, and Validity (if all
/// honest parties input `v`, they output `v`).
///
/// # Examples
///
/// ```
/// use ca_ba::phase_king;
/// use ca_net::Sim;
///
/// let report = Sim::new(4).run(|ctx, _id| phase_king(ctx, 42u64));
/// assert!(report.honest_outputs().iter().all(|v| **v == 42)); // Validity
/// ```
///
/// Additionally (used by `HighCostCA`'s analysis): every honest party's
/// decision variable is, at every phase boundary, either its own previous
/// value or a value proposed by `≥ t+1` parties (hence by an honest party).
pub fn phase_king<V: Value>(ctx: &mut dyn Comm, input: V) -> V {
    block_on(phase_king_async(&mut Ctx::live(ctx), input))
}

/// [`phase_king`] as an `async fn` over a [`Ctx`].
pub(crate) async fn phase_king_async<V: Value>(ctx: &mut Ctx<'_>, input: V) -> V {
    ctx.scoped("pk", async |ctx| {
        let n = ctx.n();
        let t = ctx.t();
        let quorum = n - t;
        let mut current = input;

        for phase in 0..=t {
            let king = PartyId(phase % n);

            // Round 1: universal exchange of the current values.
            let values = ctx.exchange(&current).await;
            let mut counts: BTreeMap<V, usize> = BTreeMap::new();
            for (_, v) in values.decode_each::<V>() {
                *counts.entry(v).or_insert(0) += 1;
            }
            let proposal: Option<V> = counts
                .iter()
                .find(|(_, c)| **c >= quorum)
                .map(|(v, _)| v.clone());

            // Round 2: parties that saw a (n−t)-quorum propose its value.
            if let Some(p) = &proposal {
                ctx.send_all(p);
            }
            let proposes = ctx.next_round().await;
            let mut prop_counts: BTreeMap<V, usize> = BTreeMap::new();
            for (_, v) in proposes.decode_each::<V>() {
                *prop_counts.entry(v).or_insert(0) += 1;
            }
            // At most one value can be proposed by ≥ t+1 parties
            // (two honest proposers would need two intersecting quorums);
            // smallest-first iteration makes byzantine edge cases
            // deterministic anyway.
            let backed: Option<V> = prop_counts
                .iter()
                .find(|(_, c)| **c > t)
                .map(|(v, _)| v.clone());
            let strongly_backed = prop_counts.values().any(|c| *c >= quorum);
            if let Some(v) = &backed {
                current = v.clone();
            }

            // Round 3: the king broadcasts its pick; parties without a
            // strong (n−t) propose-quorum adopt it.
            if ctx.me() == king {
                let king_value = backed.unwrap_or_else(|| current.clone());
                ctx.send_all(&king_value);
            }
            let king_msgs = ctx.next_round().await;
            if !strongly_backed {
                if let Some(kv) = king_msgs.decode_from::<V>(king) {
                    current = kv;
                }
                // A silent/garbled king leaves `current` unchanged —
                // harmless: only phases with an honest king must converge.
            }
        }
        // Decide only (no Input event): BA validity is vacuous on mixed
        // inputs, so a hull check over BA scopes would be wrong.
        ctx.trace_decide(|| ca_net::compact_debug(&current));
        current
    })
    .await
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use ca_adversary::{Equivocate, Garbage, Replay};
    use ca_net::{Adversary, CommExt as _, Corruption, RoundActions, RoundView, Sim};

    fn run_pk(n: usize, inputs: Vec<u64>, setup: impl FnOnce(Sim) -> Sim) -> Vec<u64> {
        let report = setup(Sim::new(n)).run(|ctx, id| phase_king(ctx, inputs[id.index()]));
        let outs: Vec<u64> = report.honest_outputs().into_iter().copied().collect();
        assert!(!outs.is_empty());
        outs
    }

    #[test]
    fn validity_all_same_input() {
        for n in [1, 2, 4, 7, 10] {
            let outs = run_pk(n, vec![42; n], |s| s);
            assert!(outs.iter().all(|&v| v == 42), "n = {n}");
        }
    }

    #[test]
    fn agreement_on_mixed_inputs() {
        let outs = run_pk(7, vec![1, 2, 3, 4, 5, 6, 7], |s| s);
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
    }

    #[test]
    fn validity_under_crash_faults() {
        let n = 7;
        let outs = run_pk(n, vec![9; n], |s| {
            s.corrupt(PartyId(5), Corruption::Scripted)
                .corrupt(PartyId(6), Corruption::Scripted)
        });
        assert_eq!(outs, vec![9; 5]);
    }

    #[test]
    fn validity_under_garbage_and_replay_and_equivocate() {
        let n = 7;
        for adv in 0..3 {
            let outs = run_pk(n, vec![7; n], |s| {
                let s = s
                    .corrupt(PartyId(5), Corruption::Scripted)
                    .corrupt(PartyId(6), Corruption::Scripted);
                match adv {
                    0 => s.with_adversary(Garbage::new(1)),
                    1 => s.with_adversary(Replay::new(2)),
                    _ => s.with_adversary(Equivocate::new(3)),
                }
            });
            assert_eq!(outs, vec![7; 5], "adversary {adv}");
        }
    }

    #[test]
    fn agreement_with_lying_parties() {
        let n = 10; // t = 3
        let mut inputs = vec![5u64; n];
        inputs[7] = 1_000;
        inputs[8] = 2_000;
        inputs[9] = 3_000;
        let report = Sim::new(n)
            .corrupt(PartyId(7), Corruption::LyingHonest)
            .corrupt(PartyId(8), Corruption::LyingHonest)
            .corrupt(PartyId(9), Corruption::LyingHonest)
            .run(|ctx, id| phase_king(ctx, inputs[id.index()]));
        let outs: Vec<u64> = report.honest_outputs().into_iter().copied().collect();
        // 7 honest parties share input 5 ≥ n − t: validity must hold even
        // though the liars push huge values.
        assert_eq!(outs, vec![5; 7]);
    }

    /// Forwards to the transport, but sends one more message to all as
    /// `pk`'s scope closes: the stray send of EXPERIMENTS.md M1.
    struct SendAtPkExit<'a>(&'a mut dyn Comm);
    impl Comm for SendAtPkExit<'_> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn t(&self) -> usize {
            self.0.t()
        }
        fn me(&self) -> PartyId {
            self.0.me()
        }
        fn send_bytes(&mut self, to: PartyId, payload: bytes::Bytes) {
            self.0.send_bytes(to, payload);
        }
        fn next_round(&mut self) -> ca_net::Inbox {
            self.0.next_round()
        }
        fn push_scope(&mut self, name: &str) {
            self.0.push_scope(name);
        }
        fn pop_scope(&mut self) {
            self.0.send_all(&0u64);
            self.0.pop_scope();
        }
    }

    /// A send still pending when `pk` returns would be read as the
    /// caller's next-round message; the scope exit rejects it instead.
    #[test]
    #[should_panic(expected = "4 send(s) still pending at the exit of scope pk")]
    fn a_send_pending_at_pk_exit_panics_naming_the_scope() {
        Sim::new(4).run(|ctx, _| phase_king(&mut SendAtPkExit(ctx), 1u64));
    }

    /// A king-targeted attack: equivocate exactly during king rounds.
    struct KingSplitter;
    impl Adversary for KingSplitter {
        fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
            use bytes::Bytes;
            use ca_codec::Encode;
            let mut a = RoundActions::default();
            // Every third round is a king round; pretend to be a king
            // sending different values to each half.
            if view.round % 3 == 2 {
                for &from in view.corrupted {
                    for to in 0..view.n {
                        let v: u64 = if to % 2 == 0 { 111 } else { 222 };
                        a.sends.push(ca_net::SendSpec {
                            from,
                            to: PartyId(to),
                            payload: Bytes::from(v.encode_to_vec()),
                        });
                    }
                }
            }
            a
        }
    }

    #[test]
    fn byzantine_king_cannot_break_agreement() {
        // P0 is the phase-0 king and corrupted: it splits the parties; later
        // honest kings must still converge.
        let n = 4;
        let inputs = [10u64, 20, 30, 40];
        let report = Sim::new(n)
            .corrupt(PartyId(0), Corruption::Scripted)
            .with_adversary(KingSplitter)
            .run(|ctx, id| phase_king(ctx, inputs[id.index()]));
        let outs: Vec<u64> = report.honest_outputs().into_iter().copied().collect();
        assert_eq!(outs.len(), 3);
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
    }

    #[test]
    fn rounds_are_three_per_phase() {
        let report = Sim::new(7).run(|ctx, _| phase_king(ctx, true));
        // t = 2 → 3 phases → 9 rounds.
        assert_eq!(report.metrics.rounds, 9);
        assert_eq!(report.metrics.scope_subtree("pk").rounds, 9);
    }

    #[test]
    fn works_on_bitstrings() {
        use ca_bits::BitString;
        let v = BitString::parse_binary("1011001").unwrap();
        let inputs: Vec<BitString> = (0..4)
            .map(|i| if i < 3 { v.clone() } else { BitString::empty() })
            .collect();
        let report = Sim::new(4)
            .corrupt(PartyId(3), Corruption::LyingHonest)
            .run(|ctx, id| phase_king(ctx, inputs[id.index()].clone()));
        for out in report.honest_outputs() {
            assert_eq!(out, &v);
        }
    }
}

//! Seeded per-edge delay/reorder/drop injection for the simulator.
//!
//! [`EdgeDelays`] is a pure function from `(seed, from, to, seq)` to a
//! delivery delay (or a drop), built on a splitmix64-style bit mixer — no
//! RNG state, no ordering sensitivity, byte-reproducible across runs and
//! platforms. [`Sim::with_delays`](crate::Sim::with_delays) plugs it into
//! the simulator: a message sent in
//! round `r` with sampled delay `d` arrives at round `r + ⌊d/Δ⌋`, so a
//! lock-step protocol experiences late (reordered relative to round
//! boundaries) and lost messages exactly as a Δ-timeout runtime would on
//! a jittery network. The async executor (`ca-async`) reuses the same
//! sampler for its virtual-time event queue, which is what makes the
//! sync-vs-async benchmark (AS1) an apples-to-apples comparison: both
//! backends face the identical delay distribution.

/// One targeted delay/drop rule. `None` endpoints are wildcards.
#[derive(Debug, Clone, Default)]
pub struct EdgeRule {
    /// Sender filter (`None` = any sender).
    pub from: Option<usize>,
    /// Receiver filter (`None` = any receiver).
    pub to: Option<usize>,
    /// Extra delay added on top of the base + jitter sample.
    pub extra_delay: u64,
    /// Drop probability in percent (0–100), sampled per message.
    pub drop_pct: u8,
}

impl EdgeRule {
    fn matches(&self, from: usize, to: usize) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// Deterministic per-edge delay sampler (time units are abstract; the
/// consumer decides what one unit means — `Sim::with_delays` divides by Δ,
/// the async executor uses them as virtual time directly).
#[derive(Debug, Clone)]
pub struct EdgeDelays {
    seed: u64,
    base: u64,
    jitter: u64,
    rules: Vec<EdgeRule>,
}

/// The SplitMix64 step: adds the golden-ratio increment to `z`, then
/// applies the finalizer, a high-quality 64-bit bit mixer. Pure and
/// stateless, so determinism comes for free; the workspace's one seeded
/// hash outside the `rand` shim.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl EdgeDelays {
    /// Every edge gets `base + U[0, jitter]` delay, sampled per message.
    pub fn uniform(seed: u64, base: u64, jitter: u64) -> Self {
        Self {
            seed,
            base,
            jitter,
            rules: Vec::new(),
        }
    }

    /// Adds a targeted rule (extra delay and/or probabilistic drop).
    #[must_use]
    pub fn with_rule(mut self, rule: EdgeRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Samples the delivery delay of message number `seq` on edge
    /// `from → to`. `None` means the message is dropped on the wire.
    ///
    /// Self-edges are never delayed or dropped (self-delivery is local).
    pub fn sample(&self, from: usize, to: usize, seq: u64) -> Option<u64> {
        if from == to {
            return Some(0);
        }
        let h = splitmix64(
            self.seed
                ^ splitmix64(((from as u64) << 32) | to as u64)
                ^ splitmix64(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let mut delay = self.base;
        if self.jitter > 0 {
            delay += h % (self.jitter + 1);
        }
        let mut drop_pct = 0u8;
        for rule in &self.rules {
            if rule.matches(from, to) {
                delay += rule.extra_delay;
                drop_pct = drop_pct.max(rule.drop_pct);
            }
        }
        if drop_pct > 0 && (h >> 32) % 100 < u64::from(drop_pct) {
            return None;
        }
        Some(delay)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use crate::{Comm, CommExt, Inbox, PartyId, Sim};
    use ca_codec::Decode;

    /// The *latest* well-formed message from `sender`. The first-message
    /// convention of [`Inbox::decode_from`] assumes a round barrier; under
    /// a delay model a round's inbox can stack a late round-`r` message
    /// and a fresh round-`r+1` one from the same honest sender, and
    /// delivery order is send order, so the freshest state is the last
    /// parseable payload.
    fn decode_latest_from<T: Decode>(inbox: &Inbox, sender: PartyId) -> Option<T> {
        let mut msgs = inbox.raw_from(sender).iter().rev();
        msgs.find_map(|m| T::decode_from_bytes(m).ok())
    }

    /// A quorum-waiting averaging protocol: each iteration, re-send
    /// `(iter, value)` every round until `n − t` values with
    /// `iter' ≥ iter` have arrived (own value included), then average.
    /// Tolerates late and reordered delivery by construction.
    fn quorum_avg(ctx: &mut dyn Comm, start: u64, iters: u64) -> u64 {
        let n = ctx.n();
        let quorum = ctx.quorum();
        let mut value = start;
        let mut latest: Vec<Option<(u64, u64)>> = vec![None; n];
        for iter in 0..iters {
            latest[ctx.me().0] = Some((iter, value));
            loop {
                let inbox = ctx.exchange(&(iter, value));
                for p in 0..n {
                    let p = PartyId(p);
                    if let Some((i, v)) = decode_latest_from::<(u64, u64)>(&inbox, p) {
                        if latest[p.0].is_none_or(|(old, _)| i > old) {
                            latest[p.0] = Some((i, v));
                        }
                    }
                }
                let fresh: Vec<u64> = latest
                    .iter()
                    .flatten()
                    .filter(|(i, _)| *i >= iter)
                    .map(|(_, v)| *v)
                    .collect();
                if fresh.len() >= quorum {
                    value = fresh.iter().sum::<u64>() / fresh.len() as u64;
                    break;
                }
            }
        }
        value
    }

    #[test]
    fn delayed_sim_holds_messages_across_rounds() {
        // Delays 10..=19 against a round length of 12: roughly half of all
        // messages land one round late, so the quorum loop must wait.
        let report = Sim::new(4)
            .with_delays(EdgeDelays::uniform(5, 10, 9), 12)
            .with_max_rounds(200)
            .run(|ctx, id| quorum_avg(ctx, id.0 as u64 * 100, 4));
        let outs: Vec<u64> = report.honest_outputs().into_iter().copied().collect();
        assert_eq!(outs.len(), 4);
        let spread = outs.iter().max().unwrap() - outs.iter().min().unwrap();
        assert!(spread <= 150, "averaging should contract, got {outs:?}");
        assert!(
            report.metrics.rounds > 4,
            "late deliveries must cost extra waiting rounds, got {}",
            report.metrics.rounds
        );
    }

    #[test]
    fn delayed_runs_are_deterministic() {
        let run = || {
            Sim::new(4)
                .with_delays(EdgeDelays::uniform(9, 8, 8), 10)
                .with_max_rounds(200)
                .run(|ctx, id| quorum_avg(ctx, id.0 as u64 * 7, 3))
        };
        let a = run();
        let b = run();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
        assert_eq!(a.metrics.honest_bits, b.metrics.honest_bits);
    }

    #[test]
    fn sampler_is_deterministic_and_seed_sensitive() {
        let a = EdgeDelays::uniform(7, 10, 5);
        let b = EdgeDelays::uniform(7, 10, 5);
        let c = EdgeDelays::uniform(8, 10, 5);
        let mut differs = false;
        for seq in 0..64 {
            for from in 0..4 {
                for to in 0..4 {
                    assert_eq!(a.sample(from, to, seq), b.sample(from, to, seq));
                    if a.sample(from, to, seq) != c.sample(from, to, seq) {
                        differs = true;
                    }
                }
            }
        }
        assert!(differs, "different seeds must induce different schedules");
    }

    #[test]
    fn delays_stay_in_range_and_self_edges_are_free() {
        let d = EdgeDelays::uniform(42, 10, 5);
        for seq in 0..256 {
            let delay = d.sample(0, 1, seq).unwrap();
            assert!((10..=15).contains(&delay), "delay {delay} out of range");
            assert_eq!(d.sample(2, 2, seq), Some(0));
        }
    }

    #[test]
    fn self_delivery_is_immediate() {
        // Even with a large base delay and jitter, a party's own messages
        // arrive at once.
        let d = EdgeDelays::uniform(3, 50, 50);
        assert_eq!(d.sample(2, 2, 0), Some(0));
    }

    #[test]
    fn jitter_reorders_later_sends() {
        let d = EdgeDelays::uniform(11, 5, 10);
        let mut reordered = false;
        let mut prev = 0;
        for seq in 0..64 {
            let delay = d.sample(0, 1, seq).unwrap();
            assert_eq!(d.sample(0, 1, seq), Some(delay), "stateless sampling");
            // Message seq sent at time seq arrives at seq + delay; a later
            // send arriving before an earlier one is a reorder.
            if seq > 0 && seq + delay < prev {
                reordered = true;
            }
            prev = seq + delay;
        }
        assert!(reordered, "jitter of 10 over send gaps of 1 must reorder");
    }

    #[test]
    fn rules_target_edges_and_drop() {
        let d = EdgeDelays::uniform(1, 4, 0).with_rule(EdgeRule {
            from: Some(0),
            to: None,
            extra_delay: 100,
            drop_pct: 100,
        });
        for seq in 0..32 {
            assert_eq!(d.sample(0, 1, seq), None, "from-0 edges always drop");
            assert_eq!(d.sample(1, 2, seq), Some(4), "other edges untouched");
        }
        let partial = EdgeDelays::uniform(3, 4, 0).with_rule(EdgeRule {
            from: None,
            to: Some(2),
            extra_delay: 0,
            drop_pct: 50,
        });
        let dropped = (0..200)
            .filter(|&seq| partial.sample(1, 2, seq).is_none())
            .count();
        assert!(
            (50..150).contains(&dropped),
            "~50% drop expected, saw {dropped}/200"
        );
    }
}

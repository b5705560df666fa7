//! Seeded delivery schedules for the deterministic executor.

use ca_net::{EdgeDelays, EdgeRule};

/// Decides, per message, when (or whether) the network delivers it.
///
/// A thin wrapper over [`ca_net::EdgeDelays`] — the *same* sampler the
/// synchronous `Sim::with_delays` uses — so the AS1 benchmark can subject both
/// backends to the identical delay distribution. Delays are virtual time
/// units; reordering falls out naturally (a later message with a smaller
/// sampled delay overtakes an earlier one in the executor's priority
/// queue). Self-deliveries are immediate and never dropped.
#[derive(Debug, Clone)]
pub struct DeliverySchedule {
    edges: EdgeDelays,
}

impl DeliverySchedule {
    /// Schedule driven by an existing sampler.
    pub fn new(edges: EdgeDelays) -> Self {
        Self { edges }
    }

    /// Every edge delivers after `base + U[0, jitter]` virtual time.
    pub fn uniform(seed: u64, base: u64, jitter: u64) -> Self {
        Self::new(EdgeDelays::uniform(seed, base, jitter))
    }

    /// Adds a targeted delay/drop rule (see [`ca_net::EdgeRule`]).
    #[must_use]
    pub fn with_rule(mut self, rule: EdgeRule) -> Self {
        self.edges = self.edges.with_rule(rule);
        self
    }

    /// Delay of message `seq` on edge `from → to`; `None` = dropped.
    pub fn delay(&self, from: usize, to: usize, seq: u64) -> Option<u64> {
        self.edges.sample(from, to, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_can_reorder() {
        let s = DeliverySchedule::uniform(11, 5, 10);
        let mut reordered = false;
        let mut prev = 0;
        for seq in 0..64 {
            let d = s.delay(0, 1, seq).unwrap();
            assert_eq!(s.delay(0, 1, seq), Some(d), "stateless sampling");
            // Message seq sent at time seq: arrival seq + d. Reordering
            // means some later send arrives before an earlier one.
            if seq > 0 && seq + d < prev {
                reordered = true;
            }
            prev = seq + d;
        }
        assert!(reordered, "jitter of 10 over send gaps of 1 must reorder");
    }

    #[test]
    fn self_delivery_is_immediate() {
        let s = DeliverySchedule::uniform(3, 50, 50);
        assert_eq!(s.delay(2, 2, 0), Some(0));
    }
}

//! Scripted transport faults for crash-tolerance testing.
//!
//! A [`FaultPlan`] is a deterministic, per-party schedule of transport
//! misbehavior, keyed by round number. It is applied inside
//! [`TcpParty::next_round`](crate::TcpParty) — protocol code above the
//! `Comm` seam never sees it, which is exactly the point: the honest
//! parties must keep deciding while the transport underneath a faulty
//! party crashes, stalls, or emits garbage.
//!
//! Because the schedule is data (no randomness, no wall clock), a run
//! with a given plan is reproducible: pair it with a
//! [`ManualClock`](crate::ManualClock) and the honest parties' traces
//! are byte-stable across runs (modulo `peer_gone` observation records;
//! see [`ca_trace::Event::PeerGone`]).

use std::collections::BTreeSet;

/// A deterministic schedule of transport faults for one party.
///
/// Build one with the chainable constructors, then install it with
/// [`TcpParty::set_fault_plan`](crate::TcpParty::set_fault_plan) or
/// [`TcpCluster::with_fault_plan`](crate::TcpCluster::with_fault_plan).
///
/// # Examples
///
/// ```
/// use ca_runtime::FaultPlan;
///
/// // Crash at round 3 after sending garbage in round 2.
/// let plan = FaultPlan::new().garbage_in(2).crash_at(3);
/// assert!(plan.is_crash_round(3));
/// assert!(plan.is_crash_round(7)); // crashes are permanent
/// assert!(!plan.is_crash_round(2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// First round in which the party is crashed (silent forever after).
    crash_at: Option<u64>,
    /// Rounds in which the party sends nothing (no messages, no
    /// end-of-round marker) but keeps listening.
    stall: BTreeSet<u64>,
    /// Rounds in which the party sends an undecodable frame to every
    /// peer before its real traffic.
    garbage: BTreeSet<u64>,
    /// Rounds in which the party does not drain its inbound events
    /// (messages for the round are later discarded as stale).
    slow_reader: BTreeSet<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Crash at the start of `round`: the party stops sending *and*
    /// listening, never says `Bye`, and its write sides close once the
    /// frames it already sent are out — peers observe an abrupt EOF, exactly
    /// like a process kill.
    #[must_use]
    pub fn crash_at(mut self, round: u64) -> Self {
        self.crash_at = Some(round);
        self
    }

    /// Stay silent during `round`: buffered sends are discarded (they
    /// missed their synchronous window) and no end-of-round marker goes
    /// out, so peers wait the full `Δ` on this party.
    #[must_use]
    pub fn stall_in(mut self, round: u64) -> Self {
        self.stall.insert(round);
        self
    }

    /// Send one undecodable frame to every peer at the start of `round`.
    /// Honest receivers drop the connection on decode failure, so this
    /// models a byzantine transport getting itself disconnected.
    #[must_use]
    pub fn garbage_in(mut self, round: u64) -> Self {
        self.garbage.insert(round);
        self
    }

    /// Skip draining inbound events during `round`, as a reader that
    /// cannot keep up would. The round's messages are consumed late and
    /// discarded as stale.
    #[must_use]
    pub fn slow_reader_in(mut self, round: u64) -> Self {
        self.slow_reader.insert(round);
        self
    }

    /// Whether the party is crashed as of `round` (crashes persist).
    #[must_use]
    pub fn is_crash_round(&self, round: u64) -> bool {
        self.crash_at.is_some_and(|at| round >= at)
    }

    /// Whether the party stalls in exactly `round`.
    #[must_use]
    pub fn stalls_in(&self, round: u64) -> bool {
        self.stall.contains(&round)
    }

    /// Whether the party emits garbage in exactly `round`.
    #[must_use]
    pub fn emits_garbage_in(&self, round: u64) -> bool {
        self.garbage.contains(&round)
    }

    /// Whether the party skips its event drain in exactly `round`.
    #[must_use]
    pub fn skips_drain_in(&self, round: u64) -> bool {
        self.slow_reader.contains(&round)
    }

    /// Whether the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crash_at.is_none()
            && self.stall.is_empty()
            && self.garbage.is_empty()
            && self.slow_reader.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_schedules_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        for r in 0..10 {
            assert!(!plan.is_crash_round(r));
            assert!(!plan.stalls_in(r));
            assert!(!plan.emits_garbage_in(r));
            assert!(!plan.skips_drain_in(r));
        }
    }

    #[test]
    fn crash_is_permanent_from_its_round() {
        let plan = FaultPlan::new().crash_at(4);
        assert!(!plan.is_crash_round(3));
        assert!(plan.is_crash_round(4));
        assert!(plan.is_crash_round(100));
        assert!(!plan.is_empty());
    }

    #[test]
    fn round_scoped_faults_hit_only_their_round() {
        let plan = FaultPlan::new().stall_in(2).garbage_in(3).slow_reader_in(5);
        assert!(plan.stalls_in(2) && !plan.stalls_in(3));
        assert!(plan.emits_garbage_in(3) && !plan.emits_garbage_in(2));
        assert!(plan.skips_drain_in(5) && !plan.skips_drain_in(4));
    }
}

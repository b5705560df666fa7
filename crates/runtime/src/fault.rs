//! Scripted crash faults for crash-tolerance testing.
//!
//! A [`FaultPlan`] is a deterministic, per-party crash schedule. The
//! transport's liveness core applies it — protocol code above the `Comm`
//! seam never sees it, which is exactly the point: the honest parties
//! must keep deciding while the transport underneath a faulty party
//! crashes. Misbehaviour short of a crash (withheld markers, late
//! delivery, malformed streams, floods) is exercised against the core
//! directly by its seeded packet adversary.
//!
//! Because the schedule is data (no randomness, no wall clock), a run
//! with a given plan is reproducible: pair it with a
//! [`ManualClock`](crate::ManualClock) and the honest parties' traces
//! are byte-stable across runs (modulo `peer_gone` observation records;
//! see [`ca_trace::Event::PeerGone`]).

/// A deterministic crash schedule for one party.
///
/// Build one with the chainable constructor, then install it with
/// [`TcpParty::set_fault_plan`](crate::TcpParty::set_fault_plan) or
/// [`TcpCluster::with_fault_plan`](crate::TcpCluster::with_fault_plan).
/// The synchronous path counts rounds; the event-driven path
/// ([`run_async_party`](crate::run_async_party)) counts delivered
/// messages instead.
///
/// # Examples
///
/// ```
/// use ca_runtime::FaultPlan;
///
/// let plan = FaultPlan::new().crash_at(3);
/// assert!(plan.is_crash_round(3));
/// assert!(plan.is_crash_round(7)); // crashes are permanent
/// assert!(!plan.is_crash_round(2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// First round in which the party is crashed (silent forever after).
    crash_at: Option<u64>,
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

    /// Whether the party is crashed as of `round` (crashes persist).
    #[must_use]
    pub fn is_crash_round(&self, round: u64) -> bool {
        self.crash_at.is_some_and(|at| round >= at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_schedules_nothing() {
        let plan = FaultPlan::new();
        for r in 0..10 {
            assert!(!plan.is_crash_round(r));
        }
    }

    #[test]
    fn crash_is_permanent_from_its_round() {
        let plan = FaultPlan::new().crash_at(4);
        assert!(!plan.is_crash_round(3));
        assert!(plan.is_crash_round(4));
        assert!(plan.is_crash_round(100));
        assert_ne!(plan, FaultPlan::new());
    }
}

//! Engine capacity and session arrival plans.

use crate::SessionId;

/// Capacity of one engine deployment.
///
/// Every honest party must run the same configuration — admission and
/// shedding decisions are part of the deterministic lock-step state, which
/// is what keeps the parties' session tables aligned without extra
/// coordination rounds.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Session-table capacity: the maximum number of concurrently live
    /// sessions. Arrivals beyond it are rejected (open loop) or queued
    /// (closed loop).
    pub max_sessions: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { max_sessions: 64 }
    }
}

/// How sessions are offered to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// All sessions are queued up front; the engine admits as capacity
    /// frees up and never rejects (arrival rounds are ignored).
    Closed,
    /// Sessions arrive at their `arrival_round`; an arrival that finds the
    /// session table full is rejected — explicit load shedding instead of
    /// an unbounded queue.
    Open,
}

/// One session submission.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Deployment-unique session id.
    pub id: SessionId,
    /// Engine round at which this session arrives (ignored in closed
    /// mode). Must be non-decreasing across the plan.
    pub arrival_round: u64,
    /// Whether this session runs behind the fault-adaptive fast path
    /// (`false` = worst-case only). Part of the shared deterministic
    /// input, like the rest of the plan: every honest party must submit
    /// the same per-session mode or their round schedules diverge.
    pub fast_path: bool,
}

/// The full arrival schedule of one engine run.
///
/// The plan is part of the shared deterministic input: every honest party
/// runs the same plan, so all session tables evolve in lock step.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Arrival semantics.
    pub mode: ArrivalMode,
    /// Sessions in arrival order.
    pub sessions: Vec<SessionSpec>,
}

impl SessionPlan {
    /// A closed-loop plan of `k` sessions with ids `0..k`, all queued at
    /// round 0.
    #[must_use]
    pub fn closed(k: usize) -> Self {
        Self {
            mode: ArrivalMode::Closed,
            sessions: (0..k as u64)
                .map(|id| SessionSpec {
                    id: SessionId(id),
                    arrival_round: 0,
                    fast_path: false,
                })
                .collect(),
        }
    }

    /// An open-loop plan from `(id, arrival_round)` pairs.
    #[must_use]
    pub fn open(arrivals: impl IntoIterator<Item = (u64, u64)>) -> Self {
        Self {
            mode: ArrivalMode::Open,
            sessions: arrivals
                .into_iter()
                .map(|(id, arrival_round)| SessionSpec {
                    id: SessionId(id),
                    arrival_round,
                    fast_path: false,
                })
                .collect(),
        }
    }

    /// Enables the fault-adaptive fast path on every session in the plan.
    #[must_use]
    pub fn with_fast_path(mut self) -> Self {
        for s in &mut self.sessions {
            s.fast_path = true;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_plan_enumerates_ids() {
        let plan = SessionPlan::closed(3);
        assert_eq!(plan.mode, ArrivalMode::Closed);
        let ids: Vec<u64> = plan.sessions.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(plan.sessions.iter().all(|s| s.arrival_round == 0));
    }

    #[test]
    fn open_plan_keeps_arrival_rounds() {
        let plan = SessionPlan::open([(5, 0), (9, 2)]);
        assert_eq!(plan.mode, ArrivalMode::Open);
        assert_eq!(plan.sessions[1].id, SessionId(9));
        assert_eq!(plan.sessions[1].arrival_round, 2);
        assert!(plan.sessions.iter().all(|s| !s.fast_path));
    }

    #[test]
    fn with_fast_path_marks_every_session() {
        let plan = SessionPlan::closed(3).with_fast_path();
        assert!(plan.sessions.iter().all(|s| s.fast_path));
    }
}

//! Engine capacity and the session plan.

/// Capacity of one engine deployment.
///
/// Every honest party must run the same configuration: admission is part
/// of the deterministic lock-step state, which is what keeps the parties'
/// session tables aligned without extra coordination rounds.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Session-table capacity: the maximum number of concurrently live
    /// sessions per party, and so of session tasks (or, for a blocking
    /// body, of session threads). Sessions past it wait in id order until
    /// a slot frees.
    pub max_sessions: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { max_sessions: 64 }
    }
}

/// The sessions of one engine run: ids `0..sessions`, admitted in id
/// order as the table has room.
///
/// The plan is part of the shared deterministic input: every honest party
/// runs the same plan, so all session tables evolve in lock step.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// How many sessions the run hosts.
    pub sessions: u64,
}

impl SessionPlan {
    /// A plan of `k` sessions with ids `0..k`.
    #[must_use]
    pub fn closed(k: usize) -> Self {
        Self { sessions: k as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_engine_party;
    use ca_net::{CommExt as _, Sim};

    #[test]
    fn closed_plan_enumerates_ids() {
        let plan = SessionPlan::closed(3);
        assert_eq!(plan.sessions, 3);
        let config = EngineConfig::default();
        let report = Sim::new(3).run(|ctx, _id| {
            run_engine_party(ctx, &plan, &config, |sctx, sid| {
                sctx.exchange(&sid.0).decode_each::<u64>().len()
            })
        });
        for out in report.honest_outputs() {
            let ids: Vec<u64> = out.decided.iter().map(|(sid, _)| sid.0).collect();
            assert_eq!(ids, [0, 1, 2]);
        }
    }
}

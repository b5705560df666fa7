//! Message-level adversary strategies.

use bytes::Bytes;
use ca_net::{Adversary, PartyId, RoundActions, RoundView, SendSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sends random byte strings of random lengths from every corrupted party to
/// every party, every round. Stresses codec robustness: all of this must be
/// indistinguishable from silence to honest parties.
#[derive(Debug)]
pub struct Garbage {
    rng: SmallRng,
}

/// Garbage payloads are shorter than this many bytes.
const GARBAGE_MAX_LEN: usize = 64;

impl Garbage {
    /// Creates the strategy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for Garbage {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        let mut actions = RoundActions::default();
        for &from in view.corrupted {
            for to in 0..view.n {
                if self.rng.gen_bool(0.25) {
                    continue; // occasionally stay silent on a channel
                }
                let len = self.rng.gen_range(0..GARBAGE_MAX_LEN);
                let payload: Vec<u8> = (0..len).map(|_| self.rng.gen()).collect();
                actions.sends.push(SendSpec {
                    from,
                    to: PartyId(to),
                    payload: Bytes::from(payload),
                });
            }
        }
        actions
    }
}

/// Replays honest payloads of the *current* round (rushing) from corrupted
/// parties, choosing independently per recipient. The injected messages are
/// perfectly well-formed protocol messages — only their origin and
/// consistency are wrong — which attacks vote counting and quorum
/// intersection much harder than garbage does.
#[derive(Debug)]
pub struct Replay {
    rng: SmallRng,
}

impl Replay {
    /// Creates the strategy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for Replay {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        let mut actions = RoundActions::default();
        if view.honest_sends.is_empty() {
            return actions;
        }
        for &from in view.corrupted {
            for to in 0..view.n {
                let pick = self.rng.gen_range(0..view.honest_sends.len());
                actions.sends.push(SendSpec {
                    from,
                    to: PartyId(to),
                    payload: view.honest_sends[pick].2.clone(),
                });
            }
        }
        actions
    }
}

/// Classic equivocation: each corrupted party picks **two** distinct honest
/// payloads each round and sends one to the low half of the parties and the
/// other to the high half, trying to drive honest parties into conflicting
/// quorums.
#[derive(Debug)]
pub struct Equivocate {
    rng: SmallRng,
}

impl Equivocate {
    /// Creates the strategy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for Equivocate {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        let mut actions = RoundActions::default();
        if view.honest_sends.is_empty() {
            return actions;
        }
        for &from in view.corrupted {
            let a = self.rng.gen_range(0..view.honest_sends.len());
            let b = self.rng.gen_range(0..view.honest_sends.len());
            let low = view.honest_sends[a].2.clone();
            let high = view.honest_sends[b].2.clone();
            for to in 0..view.n {
                let payload = if to < view.n / 2 {
                    low.clone()
                } else {
                    high.clone()
                };
                actions.sends.push(SendSpec {
                    from,
                    to: PartyId(to),
                    payload,
                });
            }
        }
        actions
    }
}

/// Adaptive corruption: starts with no corrupted parties and corrupts one
/// additional (lowest-id honest) party every `interval` rounds until the
/// budget `t` is spent, then plays [`Garbage`] with the growing set.
///
/// Exercises the "adaptive adversary may corrupt at any point of the
/// execution" clause of the model.
#[derive(Debug)]
pub struct AdaptiveGarbage {
    interval: u64,
    inner: Garbage,
}

impl AdaptiveGarbage {
    /// Corrupts one new party every `interval` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(seed: u64, interval: u64) -> Self {
        assert!(interval > 0, "interval must be positive");
        Self {
            interval,
            inner: Garbage::new(seed),
        }
    }
}

impl Adversary for AdaptiveGarbage {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        let mut actions = self.inner.on_round(view);
        if view.round.is_multiple_of(self.interval) && view.corrupted.len() < view.t {
            if let Some(&victim) = view.honest_parties().first() {
                actions.corrupt.push(victim);
            }
        }
        actions
    }
}

/// Crash-stop at a chosen round: corrupted parties replay honest payloads
/// (i.e. look protocol-plausible) until round `crash_at`, then fall silent
/// forever. Exercises the difference between "byzantine from the start"
/// and mid-protocol failure.
#[derive(Debug)]
pub struct DelayedCrash {
    crash_at: u64,
    inner: Replay,
}

impl DelayedCrash {
    /// Plausible until `crash_at`, silent afterwards.
    pub fn new(seed: u64, crash_at: u64) -> Self {
        Self {
            crash_at,
            inner: Replay::new(seed),
        }
    }
}

impl Adversary for DelayedCrash {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        if view.round >= self.crash_at {
            RoundActions::default()
        } else {
            self.inner.on_round(view)
        }
    }
}

/// Equivocate-then-crash: corrupted parties equivocate (two honest
/// payloads, split across recipients) until round `crash_at`, then fall
/// silent forever. The worst case for an optimistic fast path: the
/// equivocation poisons the attempt while the subsequent silence tests
/// that the certified fallback still terminates with `f` fewer senders.
#[derive(Debug)]
pub struct EquivocateThenCrash {
    crash_at: u64,
    inner: Equivocate,
}

impl EquivocateThenCrash {
    /// Equivocates until `crash_at`, silent afterwards.
    pub fn new(seed: u64, crash_at: u64) -> Self {
        Self {
            crash_at,
            inner: Equivocate::new(seed),
        }
    }
}

impl Adversary for EquivocateThenCrash {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        if view.round >= self.crash_at {
            RoundActions::default()
        } else {
            self.inner.on_round(view)
        }
    }
}

/// Late fault: corrupted parties behave exactly like honest silence until
/// round `start_at`, then spray garbage forever. Complements
/// [`DelayedCrash`]: the misbehavior *starts* late instead of stopping
/// early, so an optimistic protocol that sampled a clean prefix of the
/// run must still survive the onset.
#[derive(Debug)]
pub struct LateFault {
    start_at: u64,
    inner: Garbage,
}

impl LateFault {
    /// Silent until `start_at`, garbage afterwards.
    pub fn new(seed: u64, start_at: u64) -> Self {
        Self {
            start_at,
            inner: Garbage::new(seed),
        }
    }
}

impl Adversary for LateFault {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        if view.round < self.start_at {
            RoundActions::default()
        } else {
            self.inner.on_round(view)
        }
    }
}

/// Periodic burst attack: silent except every `period`-th round, where all
/// corrupted parties spray equivocating replays. Timed to coincide with
/// king/vote rounds of phase-structured protocols (whose period is a small
/// constant), without needing protocol knowledge.
#[derive(Debug)]
pub struct PeriodicBurst {
    period: u64,
    inner: Equivocate,
}

impl PeriodicBurst {
    /// Bursts on rounds `r` with `r % period == period − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(seed: u64, period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        Self {
            period,
            inner: Equivocate::new(seed),
        }
    }
}

impl Adversary for PeriodicBurst {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        if view.round % self.period == self.period - 1 {
            self.inner.on_round(view)
        } else {
            RoundActions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_net::{Comm, CommExt, Corruption, Sim};

    fn run_under(adv: impl Adversary + 'static) -> ca_net::RunReport<usize> {
        Sim::new(7)
            .corrupt(PartyId(5), Corruption::Scripted)
            .corrupt(PartyId(6), Corruption::Scripted)
            .with_adversary(adv)
            .run(|ctx: &mut dyn Comm, _id| {
                let mut count = 0;
                for r in 0..5u64 {
                    let inbox = ctx.exchange(&r);
                    count += inbox.decode_each::<u64>().len();
                }
                count
            })
    }

    #[test]
    fn garbage_does_not_break_lockstep() {
        let report = run_under(Garbage::new(7));
        // Honest parties always hear the 5 honest senders; garbage decodes
        // to junk u64s sometimes (any bytes of len 1-10 can be a varint), so
        // count varies, but the run itself must stay in lock step.
        assert_eq!(report.metrics.rounds, 5);
        assert_eq!(report.honest_outputs().len(), 5);
        assert!(report.metrics.adversary_bits > 0);
    }

    #[test]
    fn replay_messages_are_well_formed() {
        let report = run_under(Replay::new(3));
        for out in report.honest_outputs() {
            // 5 honest + 2 replaying corrupted parties, all well-formed.
            assert_eq!(*out, 5 * 7);
        }
    }

    #[test]
    fn equivocate_runs() {
        let report = run_under(Equivocate::new(11));
        assert_eq!(report.metrics.rounds, 5);
    }

    #[test]
    fn delayed_crash_goes_silent() {
        let report = Sim::new(4)
            .corrupt(PartyId(3), Corruption::Scripted)
            .with_adversary(DelayedCrash::new(1, 2))
            .run(|ctx: &mut dyn Comm, _id| {
                let mut per_round = Vec::new();
                for r in 0..4u64 {
                    let inbox = ctx.exchange(&r);
                    per_round.push(inbox.senders().count());
                }
                per_round
            });
        for out in report.honest_outputs() {
            // Rounds 0-1: replays present (4 senders); rounds 2-3: silent (3).
            assert_eq!(out[2], 3);
            assert_eq!(out[3], 3);
        }
    }

    #[test]
    fn periodic_burst_fires_on_schedule() {
        let report = Sim::new(4)
            .corrupt(PartyId(3), Corruption::Scripted)
            .with_adversary(PeriodicBurst::new(2, 3))
            .run(|ctx: &mut dyn Comm, _id| {
                let mut per_round = Vec::new();
                for r in 0..6u64 {
                    let inbox = ctx.exchange(&r);
                    per_round.push(inbox.raw_from(PartyId(3)).len());
                }
                per_round
            });
        for out in report.honest_outputs() {
            assert_eq!(out[0], 0);
            assert_eq!(out[1], 0);
            assert!(out[2] > 0, "burst expected on round 2: {out:?}");
        }
    }

    #[test]
    fn equivocate_then_crash_goes_silent() {
        let report = Sim::new(4)
            .corrupt(PartyId(3), Corruption::Scripted)
            .with_adversary(EquivocateThenCrash::new(5, 2))
            .run(|ctx: &mut dyn Comm, _id| {
                let mut per_round = Vec::new();
                for r in 0..4u64 {
                    let inbox = ctx.exchange(&r);
                    per_round.push(inbox.raw_from(PartyId(3)).len());
                }
                per_round
            });
        for out in report.honest_outputs() {
            assert!(out[0] > 0, "equivocation expected before crash: {out:?}");
            assert_eq!(out[2], 0, "silent after crash: {out:?}");
            assert_eq!(out[3], 0);
        }
    }

    #[test]
    fn late_fault_starts_on_schedule() {
        let report = Sim::new(4)
            .corrupt(PartyId(3), Corruption::Scripted)
            .with_adversary(LateFault::new(5, 2))
            .run(|ctx: &mut dyn Comm, _id| {
                let mut per_round = Vec::new();
                for r in 0..4u64 {
                    let inbox = ctx.exchange(&r);
                    per_round.push(inbox.raw_from(PartyId(3)).len());
                }
                per_round
            });
        for out in report.honest_outputs() {
            assert_eq!(out[0], 0, "silent before onset: {out:?}");
            assert_eq!(out[1], 0);
            // Garbage skips some channels randomly; across two rounds and
            // three honest observers at least one injection lands.
        }
        let total_late: usize = report
            .honest_outputs()
            .iter()
            .map(|out| out[2] + out[3])
            .sum();
        assert!(total_late > 0, "garbage expected after onset");
    }

    #[test]
    fn adaptive_garbage_spends_budget() {
        let report = Sim::new(7).with_adversary(AdaptiveGarbage::new(1, 2)).run(
            |ctx: &mut dyn Comm, _id| {
                for r in 0..10u64 {
                    ctx.exchange(&r);
                }
            },
        );
        assert_eq!(report.corrupted.len(), 2); // t = 2 for n = 7
    }
}

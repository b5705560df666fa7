//! The adversary interface (paper §2: adaptive, rushing, up to `t < n/3`).

use bytes::Bytes;

use crate::PartyId;

/// One message injected by the adversary: `from` must be a corrupted party.
#[derive(Debug, Clone)]
pub struct SendSpec {
    /// Corrupted sender the message is attributed to (channels are
    /// authenticated, so the adversary cannot forge honest senders).
    pub from: PartyId,
    /// Recipient.
    pub to: PartyId,
    /// Arbitrary payload (may be malformed).
    pub payload: Bytes,
}

/// What the adversary sees when it is invoked for round `r`.
///
/// Invocation happens *after* the honest parties have committed their
/// round-`r` messages — this models a **rushing** adversary: corrupted
/// parties' round-`r` messages may depend on the honest round-`r` messages.
#[derive(Debug)]
pub struct RoundView<'a> {
    /// Number of parties.
    pub n: usize,
    /// Corruption budget.
    pub t: usize,
    /// Current round number (0-based).
    pub round: u64,
    /// Parties currently corrupted (sorted).
    pub corrupted: &'a [PartyId],
    /// Every honest message of this round as `(from, to, payload)`,
    /// ordered by sender. Messages addressed to corrupted parties are
    /// included — the adversary reads all its parties' channels.
    pub honest_sends: &'a [(PartyId, PartyId, Bytes)],
}

impl RoundView<'_> {
    /// Honest round-`r` messages originating from `from`.
    pub fn sends_from(&self, from: PartyId) -> impl Iterator<Item = &(PartyId, PartyId, Bytes)> {
        self.honest_sends.iter().filter(move |(f, _, _)| *f == from)
    }

    /// Parties not currently corrupted, ascending.
    pub fn honest_parties(&self) -> Vec<PartyId> {
        (0..self.n)
            .map(PartyId)
            .filter(|p| !self.corrupted.contains(p))
            .collect()
    }
}

/// The adversary's round-`r` decisions.
#[derive(Debug, Default)]
pub struct RoundActions {
    /// Additional parties to corrupt, effective *this* round: their honest
    /// round-`r` messages are suppressed and the adversary speaks for them
    /// from now on. The executor enforces the global budget `t`.
    pub corrupt: Vec<PartyId>,
    /// Messages sent by corrupted parties this round.
    pub sends: Vec<SendSpec>,
}

/// A byzantine adversary controlling the corrupted parties.
///
/// Strategy implementations live in `ca-adversary`; this trait is defined
/// here so the executor and the strategies don't depend on each other.
pub trait Adversary: Send {
    /// Called once per round with the rushing view; returns the corrupted
    /// parties' messages (and any adaptive-corruption requests).
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions;
}

/// The trivial adversary: corrupted parties stay silent (crash-like from
/// round 0). Also the right choice when no party is corrupted at all.
#[derive(Debug, Default, Clone)]
pub struct Silent;

impl Adversary for Silent {
    fn on_round(&mut self, _view: &RoundView<'_>) -> RoundActions {
        RoundActions::default()
    }
}

impl<F> Adversary for F
where
    F: FnMut(&RoundView<'_>) -> RoundActions + Send,
{
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        self(view)
    }
}

impl Adversary for Box<dyn Adversary> {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        (**self).on_round(view)
    }
}

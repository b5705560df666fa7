//! Per-round received messages.

use bytes::Bytes;
use ca_codec::Decode;

use crate::PartyId;

/// All messages delivered to one party in one round, grouped by sender.
///
/// Byzantine senders may deliver zero, one, or many (possibly malformed)
/// messages per round; honest protocol steps expect at most one. The typed
/// accessors implement the standard convention: only the *first* message
/// from each sender is considered, and a message that fails to decode is
/// treated exactly like silence.
///
/// A sender's first message is held inline, so a round in which every
/// sender sends at most one message allocates nothing beyond the
/// per-sender table; a second message moves them into a vector.
#[derive(Debug, Clone, Default)]
pub struct Inbox {
    /// `by_sender[p]` = payloads received from party `p` this round, in
    /// submission order.
    by_sender: Vec<Heard>,
}

/// What one sender delivered this round.
#[derive(Debug, Clone, Default)]
enum Heard {
    #[default]
    Silent,
    One(Bytes),
    /// Two or more, in submission order.
    Many(Vec<Bytes>),
}

impl Heard {
    fn push(&mut self, payload: Bytes) {
        *self = match std::mem::take(self) {
            Heard::Silent => Heard::One(payload),
            Heard::One(first) => Heard::Many(vec![first, payload]),
            Heard::Many(mut all) => {
                all.push(payload);
                Heard::Many(all)
            }
        };
    }

    fn as_slice(&self) -> &[Bytes] {
        match self {
            Heard::Silent => &[],
            Heard::One(first) => std::slice::from_ref(first),
            Heard::Many(all) => all,
        }
    }
}

impl Inbox {
    /// Creates an inbox for `n` potential senders.
    #[expect(clippy::disallowed_methods, reason = "one slot per party")]
    pub fn with_parties(n: usize) -> Self {
        Self {
            by_sender: vec![Heard::Silent; n],
        }
    }

    /// Records a delivery (used by network executors).
    pub fn push(&mut self, from: PartyId, payload: Bytes) {
        self.by_sender[from.0].push(payload);
    }

    /// Number of parties in the network.
    pub fn party_count(&self) -> usize {
        self.by_sender.len()
    }

    /// Raw payloads received from `sender`, in order.
    pub fn raw_from(&self, sender: PartyId) -> &[Bytes] {
        self.by_sender[sender.0].as_slice()
    }

    /// Senders that delivered at least one message this round, ascending.
    pub fn senders(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.by_sender
            .iter()
            .enumerate()
            .filter(|(_, heard)| !matches!(heard, Heard::Silent))
            .map(|(i, _)| PartyId(i))
    }

    /// Decodes the first message from `sender` as `T`; `None` on silence or
    /// malformed bytes.
    pub fn decode_from<T: Decode>(&self, sender: PartyId) -> Option<T> {
        let first = self.raw_from(sender).first()?;
        T::decode_from_bytes(first).ok()
    }

    /// Decodes the first message of every sender, skipping silent or
    /// malformed ones. Result is ordered by sender id.
    pub fn decode_each<T: Decode>(&self) -> Vec<(PartyId, T)> {
        (0..self.by_sender.len())
            .filter_map(|i| self.decode_from::<T>(PartyId(i)).map(|v| (PartyId(i), v)))
            .collect()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use ca_codec::{Decode, Encode};

    fn inbox3() -> Inbox {
        let mut inbox = Inbox::with_parties(3);
        inbox.push(PartyId(0), 11u64.encode_to_vec().into());
        inbox.push(PartyId(2), Bytes::from_static(b"\xff\xff\xff garbage"));
        inbox.push(PartyId(2), 22u64.encode_to_vec().into());
        inbox
    }

    #[test]
    fn decode_from_takes_first_only() {
        let inbox = inbox3();
        assert_eq!(inbox.decode_from::<u64>(PartyId(0)), Some(11));
        assert_eq!(inbox.decode_from::<u64>(PartyId(1)), None); // silent
        assert_eq!(inbox.decode_from::<u64>(PartyId(2)), None); // first is garbage
    }

    #[test]
    fn decode_each_skips_bad_senders() {
        let decoded = inbox3().decode_each::<u64>();
        assert_eq!(decoded, vec![(PartyId(0), 11)]);
    }

    /// Checks every accessor of `inbox` against the plain per-sender
    /// vectors it should hold.
    fn assert_models(inbox: &Inbox, model: &[Vec<Bytes>], seed: u64) {
        assert_eq!(inbox.party_count(), model.len(), "seed {seed}");
        for (s, sent) in model.iter().enumerate() {
            let first = sent.first().and_then(|b| u64::decode_from_bytes(b).ok());
            assert_eq!(
                inbox.raw_from(PartyId(s)),
                sent.as_slice(),
                "seed {seed} P{s}"
            );
            assert_eq!(
                inbox.decode_from::<u64>(PartyId(s)),
                first,
                "seed {seed} P{s}"
            );
        }
        let senders: Vec<PartyId> = (0..model.len())
            .filter(|&s| !model[s].is_empty())
            .map(PartyId)
            .collect();
        assert_eq!(inbox.senders().collect::<Vec<_>>(), senders, "seed {seed}");
        let decoded: Vec<(PartyId, u64)> = (0..model.len())
            .filter_map(|s| {
                let first = model[s].first()?;
                Some((PartyId(s), u64::decode_from_bytes(first).ok()?))
            })
            .collect();
        assert_eq!(inbox.decode_each::<u64>(), decoded, "seed {seed}");
    }

    /// Random rounds of 1 to 6 senders, each delivering 0 to 3 messages
    /// (a quarter of them malformed) in a random interleaving, against a
    /// `Vec<Vec<Bytes>>` model; then the same on a clone, and a push to
    /// the clone leaves the original as it was.
    #[test]
    fn inbox_matches_a_per_sender_vector_model() {
        for seed in 0..500u64 {
            let mut draws = (0u64..).map(|i| crate::splitmix64(seed << 16 | i));
            let mut draw = |below: u64| draws.next().unwrap() % below;
            let n = 1 + draw(6) as usize;
            let mut pending: Vec<usize> = (0..n).map(|_| draw(4) as usize).collect();
            let mut model = vec![Vec::new(); n];
            let mut inbox = Inbox::with_parties(n);
            while pending.iter().any(|&left| left > 0) {
                let s = draw(n as u64) as usize;
                if pending[s] == 0 {
                    continue;
                }
                pending[s] -= 1;
                let payload = match draw(4) {
                    0 => Bytes::from(vec![0xff; draw(3) as usize]), // truncated varint
                    _ => Bytes::from(draw(1 << 20).encode_to_vec()),
                };
                model[s].push(payload.clone());
                inbox.push(PartyId(s), payload);
            }
            assert_models(&inbox, &model, seed);
            let mut copy = inbox.clone();
            assert_models(&copy, &model, seed);
            copy.push(PartyId(0), Bytes::from_static(b"\x07"));
            assert_models(&inbox, &model, seed);
            model[0].push(Bytes::from_static(b"\x07"));
            assert_models(&copy, &model, seed);
        }
    }

    #[test]
    fn senders_ordered() {
        let senders: Vec<_> = inbox3().senders().collect();
        assert_eq!(senders, vec![PartyId(0), PartyId(2)]);
    }
}

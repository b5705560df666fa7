//! Bracha-style reliable broadcast (Init → Echo → Ready).
//!
//! Guarantees with `t < n/3` byzantine parties, on a purely asynchronous
//! network:
//!
//! * **Validity** — if the origin is honest, every honest party delivers
//!   its payload.
//! * **Consistency** — no two honest parties deliver different payloads
//!   for the same `(origin, seq)` slot, even if the origin equivocates.
//! * **Totality** — if any honest party delivers a slot, every honest
//!   party eventually does (Ready amplification at `t + 1`).
//!
//! Echo and Ready counts are kept **per payload** (keyed by the exact
//! bytes): an equivocating origin splits the echo vote and no payload
//! reaches the `n − t` echo quorum, so consistency never depends on
//! trusting the origin. Each sender gets one echo vote and one ready vote
//! per slot — later votes from the same sender are discarded.

use std::collections::{BTreeMap, BTreeSet};

use ca_codec::{CodecError, Decode, Encode, Reader, Writer};
use ca_net::PartyId;

use crate::quorum::QuorumTracker;

/// Identifies one broadcast slot: `origin`'s `seq`-th broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RbcTag {
    /// The broadcasting party.
    pub origin: PartyId,
    /// Origin-local sequence number (the async round, for AAA).
    pub seq: u64,
}

impl Encode for RbcTag {
    fn encode(&self, w: &mut Writer) {
        self.origin.encode(w);
        self.seq.encode(w);
    }
    fn encoded_len(&self) -> usize {
        self.origin.encoded_len() + self.seq.encoded_len()
    }
}

impl Decode for RbcTag {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RbcTag {
            origin: PartyId::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

/// Bracha's three message kinds. Every kind is multicast to all parties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RbcMsg {
    /// The origin's proposal for its slot.
    Init {
        /// Slot being broadcast.
        tag: RbcTag,
        /// Proposed payload.
        payload: Vec<u8>,
    },
    /// "I heard this Init" — sent once per slot.
    Echo {
        /// Slot being echoed.
        tag: RbcTag,
        /// Echoed payload.
        payload: Vec<u8>,
    },
    /// "An echo/ready quorum exists for this payload" — sent once per slot.
    Ready {
        /// Slot being confirmed.
        tag: RbcTag,
        /// Confirmed payload.
        payload: Vec<u8>,
    },
}

impl Encode for RbcMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            RbcMsg::Init { tag, payload } => {
                w.put_u8(0);
                tag.encode(w);
                payload.encode(w);
            }
            RbcMsg::Echo { tag, payload } => {
                w.put_u8(1);
                tag.encode(w);
                payload.encode(w);
            }
            RbcMsg::Ready { tag, payload } => {
                w.put_u8(2);
                tag.encode(w);
                payload.encode(w);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        let (tag, payload) = match self {
            RbcMsg::Init { tag, payload }
            | RbcMsg::Echo { tag, payload }
            | RbcMsg::Ready { tag, payload } => (tag, payload),
        };
        1 + tag.encoded_len() + payload.encoded_len()
    }
}

impl Decode for RbcMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let kind = r.get_u8()?;
        let tag = RbcTag::decode(r)?;
        let payload = Vec::<u8>::decode(r)?;
        match kind {
            0 => Ok(RbcMsg::Init { tag, payload }),
            1 => Ok(RbcMsg::Echo { tag, payload }),
            2 => Ok(RbcMsg::Ready { tag, payload }),
            value => Err(CodecError::InvalidDiscriminant {
                type_name: "RbcMsg",
                value: value.into(),
            }),
        }
    }
}

/// Per-slot voting state.
#[derive(Debug)]
struct Slot {
    /// Only the first Init from the origin is acted on.
    init_seen: bool,
    /// One echo vote per sender per slot.
    echo_voters: BTreeSet<usize>,
    /// One ready vote per sender per slot.
    ready_voters: BTreeSet<usize>,
    /// Echo quorum (`n − t`) per payload.
    echoes: QuorumTracker<Vec<u8>>,
    /// Ready amplification threshold (`t + 1`) per payload.
    ready_amplify: QuorumTracker<Vec<u8>>,
    /// Delivery threshold (`2t + 1`) per payload.
    ready_deliver: QuorumTracker<Vec<u8>>,
    echoed: bool,
    readied: bool,
    delivered: bool,
}

/// What a batch of RBC processing produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RbcOutcome {
    /// Messages to multicast to every party (self included).
    pub outgoing: Vec<RbcMsg>,
    /// Slots delivered by this step, with their payloads.
    pub delivered: Vec<(RbcTag, Vec<u8>)>,
}

/// One party's view of all reliable-broadcast slots.
#[derive(Debug)]
pub struct Rbc {
    n: usize,
    t: usize,
    slots: BTreeMap<(usize, u64), Slot>,
}

impl Rbc {
    /// An RBC participant among `n` parties tolerating `t` byzantine.
    pub fn new(n: usize, t: usize) -> Self {
        Self {
            n,
            t,
            slots: BTreeMap::new(),
        }
    }

    fn slot(&mut self, tag: RbcTag) -> &mut Slot {
        let (n, t) = (self.n, self.t);
        self.slots
            .entry((tag.origin.0, tag.seq))
            .or_insert_with(|| Slot {
                init_seen: false,
                echo_voters: BTreeSet::new(),
                ready_voters: BTreeSet::new(),
                echoes: QuorumTracker::new(n - t),
                ready_amplify: QuorumTracker::new(t + 1),
                ready_deliver: QuorumTracker::new(2 * t + 1),
                echoed: false,
                readied: false,
                delivered: false,
            })
    }

    /// Starts broadcasting `payload` in our slot `seq` (as `origin`).
    /// Returns the Init to multicast; the state machine advances when the
    /// host loops our own copy back through [`Rbc::on_message`].
    pub fn broadcast(&mut self, origin: PartyId, seq: u64, payload: Vec<u8>) -> RbcOutcome {
        RbcOutcome {
            outgoing: vec![RbcMsg::Init {
                tag: RbcTag { origin, seq },
                payload,
            }],
            delivered: Vec::new(),
        }
    }

    /// Processes one RBC message from `from` (already decoded).
    pub fn on_message(&mut self, from: PartyId, msg: RbcMsg) -> RbcOutcome {
        let mut out = RbcOutcome::default();
        // A slot whose origin is no party can never deliver (honest parties
        // echo only its origin's Init, and ≤ t Readys reach no threshold):
        // ignoring it keeps a byzantine sender from growing the slot table.
        let (RbcMsg::Init { tag, .. } | RbcMsg::Echo { tag, .. } | RbcMsg::Ready { tag, .. }) =
            &msg;
        if from.0 >= self.n || tag.origin.0 >= self.n {
            return out;
        }
        match msg {
            RbcMsg::Init { tag, payload } => {
                // Channels are authenticated: an Init is only meaningful
                // from the slot's origin, and only its first one counts.
                if from != tag.origin {
                    return out;
                }
                let slot = self.slot(tag);
                if slot.init_seen {
                    return out;
                }
                slot.init_seen = true;
                if !slot.echoed {
                    slot.echoed = true;
                    out.outgoing.push(RbcMsg::Echo { tag, payload });
                }
            }
            RbcMsg::Echo { tag, payload } => {
                let slot = self.slot(tag);
                if !slot.echo_voters.insert(from.0) {
                    return out;
                }
                if slot.echoes.support(payload.clone(), from.0) && !slot.readied {
                    slot.readied = true;
                    out.outgoing.push(RbcMsg::Ready { tag, payload });
                }
            }
            RbcMsg::Ready { tag, payload } => {
                let slot = self.slot(tag);
                if !slot.ready_voters.insert(from.0) {
                    return out;
                }
                if slot.ready_amplify.support(payload.clone(), from.0) && !slot.readied {
                    slot.readied = true;
                    out.outgoing.push(RbcMsg::Ready {
                        tag,
                        payload: payload.clone(),
                    });
                }
                if slot.ready_deliver.support(payload.clone(), from.0) && !slot.delivered {
                    slot.delivered = true;
                    out.delivered.push((tag, payload));
                }
            }
        }
        out
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;

    const N: usize = 4;
    const T: usize = 1;

    /// Runs a fully-connected network of `Rbc` machines to quiescence,
    /// delivering every multicast to every party in FIFO order.
    fn settle(
        machines: &mut [Rbc],
        initial: Vec<(PartyId, RbcMsg)>,
    ) -> Vec<Vec<(RbcTag, Vec<u8>)>> {
        let mut delivered: Vec<Vec<(RbcTag, Vec<u8>)>> = vec![Vec::new(); machines.len()];
        let mut queue: Vec<(PartyId, RbcMsg)> = initial;
        while let Some((from, msg)) = queue.pop() {
            for (i, machine) in machines.iter_mut().enumerate() {
                let out = machine.on_message(from, msg.clone());
                delivered[i].extend(out.delivered);
                for m in out.outgoing {
                    queue.push((PartyId(i), m));
                }
            }
        }
        delivered
    }

    #[test]
    fn honest_broadcast_delivers_everywhere() {
        let mut machines: Vec<Rbc> = (0..N).map(|_| Rbc::new(N, T)).collect();
        let tag = RbcTag {
            origin: PartyId(0),
            seq: 7,
        };
        let init = machines[0]
            .broadcast(PartyId(0), 7, b"hello".to_vec())
            .outgoing
            .remove(0);
        let delivered = settle(&mut machines, vec![(PartyId(0), init)]);
        for (i, d) in delivered.iter().enumerate() {
            assert_eq!(d, &vec![(tag, b"hello".to_vec())], "party {i}");
        }
    }

    #[test]
    fn equivocating_origin_cannot_split_delivery() {
        // Origin 3 (byzantine) sends Init "a" to half, Init "b" to the
        // other half. With per-payload echo counting neither payload can
        // reach the n − t echo quorum from honest parties alone… unless
        // one side's echoes dominate — in which case *all* honest parties
        // deliver that same payload. Never two different ones.
        let mut machines: Vec<Rbc> = (0..N).map(|_| Rbc::new(N, T)).collect();
        let tag = RbcTag {
            origin: PartyId(3),
            seq: 0,
        };
        // Hand-deliver conflicting Inits (bypassing the full mesh).
        let mut queue = Vec::new();
        for (i, machine) in machines.iter_mut().enumerate().take(3) {
            let payload = if i < 2 { b"a".to_vec() } else { b"b".to_vec() };
            let out = machine.on_message(PartyId(3), RbcMsg::Init { tag, payload });
            for m in out.outgoing {
                queue.push((PartyId(i), m));
            }
        }
        let delivered = settle(&mut machines, queue);
        let outputs: BTreeSet<Vec<u8>> = delivered
            .iter()
            .take(3) // honest parties
            .flat_map(|d| d.iter().map(|(_, p)| p.clone()))
            .collect();
        assert!(
            outputs.len() <= 1,
            "honest parties delivered conflicting payloads: {outputs:?}"
        );
    }

    #[test]
    fn forged_init_from_non_origin_is_ignored() {
        let mut rbc = Rbc::new(N, T);
        let tag = RbcTag {
            origin: PartyId(0),
            seq: 0,
        };
        let out = rbc.on_message(
            PartyId(2), // not the origin
            RbcMsg::Init {
                tag,
                payload: b"forged".to_vec(),
            },
        );
        assert_eq!(out, RbcOutcome::default());
    }

    #[test]
    fn duplicate_votes_do_not_advance_thresholds() {
        let mut rbc = Rbc::new(N, T);
        let tag = RbcTag {
            origin: PartyId(0),
            seq: 0,
        };
        // The same sender echoing three times is one vote, not a quorum.
        for _ in 0..3 {
            let out = rbc.on_message(
                PartyId(1),
                RbcMsg::Echo {
                    tag,
                    payload: b"x".to_vec(),
                },
            );
            assert!(out.outgoing.is_empty());
        }
    }

    #[test]
    fn votes_for_origins_beyond_n_open_no_slot() {
        let mut rbc = Rbc::new(N, T);
        for origin in N..N + 1000 {
            let tag = RbcTag {
                origin: PartyId(origin),
                seq: 0,
            };
            let payload = b"junk".to_vec();
            let echo = RbcMsg::Echo {
                tag,
                payload: payload.clone(),
            };
            assert_eq!(rbc.on_message(PartyId(1), echo), RbcOutcome::default());
            let ready = RbcMsg::Ready { tag, payload };
            assert_eq!(rbc.on_message(PartyId(1), ready), RbcOutcome::default());
        }
        assert!(rbc.slots.is_empty(), "{} slots opened", rbc.slots.len());
    }

    #[test]
    fn wire_round_trip() {
        let tag = RbcTag {
            origin: PartyId(2),
            seq: 9,
        };
        for msg in [
            RbcMsg::Init {
                tag,
                payload: vec![1, 2, 3],
            },
            RbcMsg::Echo {
                tag,
                payload: vec![],
            },
            RbcMsg::Ready {
                tag,
                payload: vec![255; 40],
            },
        ] {
            let bytes = msg.encode_to_vec();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(RbcMsg::decode_from_slice(&bytes).unwrap(), msg);
        }
        assert!(RbcMsg::decode_from_slice(&[9, 0, 0, 0]).is_err());
    }
}

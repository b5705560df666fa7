//! Asynchronous approximate agreement over [`Nat`] values.
//!
//! The Erbes–Wattenhofer/AAD-style iteration, driven entirely by quorums
//! (no Δ anywhere):
//!
//! 1. **Disperse** — each async round `r`, reliably broadcast the current
//!    value ([`crate::Rbc`] slot `(me, r)`), so byzantine parties are
//!    bound to a single value per round.
//! 2. **Gather** — after delivering `n − t` round-`r` values, announce
//!    *which* origins were seen and collect `n − t` witness claims each
//!    covered by the local delivered set ([`crate::WitnessGather`]). Any
//!    two honest parties then share ≥ `n − 2t ≥ t + 1` witnesses, which
//!    keeps their value sets close enough for the update rule to contract.
//! 3. **Update** — sort the delivered values, trim the `t` lowest and `t`
//!    highest, and move to the midpoint of the trimmed extremes. With
//!    ≤ `t` byzantine values in any delivered set, the trimmed range is
//!    contained in the honest hull — so every honest value stays in the
//!    hull (convexity) while the honest spread halves round over round.
//! 4. After a fixed number of rounds, decide the current value.
//!
//! Over the integers the spread contraction floors at 1 (`⌊(a+b)/2⌋`
//! cannot split adjacent naturals), so "decide" here means ε-agreement
//! with ε = 1 — the async analogue of the approximate core the exact
//! paper stack sharpens with byzantine agreement.

use std::collections::BTreeMap;

use bytes::Bytes;
use ca_bits::Nat;
use ca_codec::{CodecError, Decode, Encode, Reader, Writer};
use ca_net::PartyId;

use crate::protocol::{Action, AsyncProtocol};
use crate::quorum::WitnessGather;
use crate::rbc::{Rbc, RbcMsg};

/// Wire envelope for the AAA instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AaaMsg {
    /// A reliable-broadcast step (value dispersal).
    Rbc(RbcMsg),
    /// "My round-`round` delivered set is exactly `set`."
    Witness {
        /// Async round the claim is about.
        round: u64,
        /// Origins whose round-`round` values the claimant delivered.
        set: Vec<u64>,
    },
}

impl Encode for AaaMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            AaaMsg::Rbc(msg) => {
                w.put_u8(0);
                msg.encode(w);
            }
            AaaMsg::Witness { round, set } => {
                w.put_u8(1);
                round.encode(w);
                set.encode(w);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            AaaMsg::Rbc(msg) => msg.encoded_len(),
            AaaMsg::Witness { round, set } => round.encoded_len() + set.encoded_len(),
        }
    }
}

impl Decode for AaaMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(AaaMsg::Rbc(RbcMsg::decode(r)?)),
            1 => Ok(AaaMsg::Witness {
                round: u64::decode(r)?,
                set: Vec::<u64>::decode(r)?,
            }),
            value => Err(CodecError::InvalidDiscriminant {
                type_name: "AaaMsg",
                value: value.into(),
            }),
        }
    }
}

/// Rounds needed to shrink an input spread of `spread` to ≤ 1: the
/// trimmed-midpoint update halves the honest spread each round.
pub fn rounds_for_spread(spread: &Nat) -> u64 {
    spread.bit_len() as u64 + 1
}

/// One party's asynchronous approximate-agreement instance.
#[derive(Debug)]
pub struct AsyncApprox {
    n: usize,
    t: usize,
    me: PartyId,
    /// Total async rounds before deciding.
    rounds: u64,
    /// Current async round (= RBC seq of our in-flight broadcast).
    round: u64,
    input: Nat,
    value: Nat,
    rbc: Rbc,
    /// Values delivered per round, by origin. RBC consistency makes this
    /// map identical (eventually) at all honest parties.
    delivered: BTreeMap<u64, BTreeMap<usize, Nat>>,
    gathers: BTreeMap<u64, WitnessGather>,
    decided: Option<Nat>,
}

impl AsyncApprox {
    /// A party with the given `input`, running `rounds` async rounds
    /// among `n` parties with corruption budget `t`.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` (the witness technique's requirement).
    pub fn new(n: usize, t: usize, me: PartyId, input: Nat, rounds: u64) -> Self {
        assert!(3 * t < n, "async AA requires t < n/3 (t = {t}, n = {n})");
        Self {
            n,
            t,
            me,
            rounds,
            round: 0,
            value: input.clone(),
            input,
            rbc: Rbc::new(n, t),
            delivered: BTreeMap::new(),
            gathers: BTreeMap::new(),
            decided: None,
        }
    }

    fn wrap_rbc(outgoing: Vec<RbcMsg>, actions: &mut Vec<Action>) {
        for msg in outgoing {
            actions.push(Action::Broadcast {
                payload: Bytes::from(AaaMsg::Rbc(msg).encode_to_vec()),
            });
        }
    }

    fn gather_for(
        gathers: &mut BTreeMap<u64, WitnessGather>,
        n: usize,
        t: usize,
        round: u64,
    ) -> &mut WitnessGather {
        gathers
            .entry(round)
            .or_insert_with(|| WitnessGather::new(n, t))
    }

    /// Folds a [`WitnessGather`] step for `round` into `actions`, then
    /// advances through any rounds whose gathers are complete.
    fn absorb_step(
        &mut self,
        round: u64,
        step: crate::quorum::WitnessStep,
        actions: &mut Vec<Action>,
    ) {
        if let Some(set) = step.announce {
            let set: Vec<u64> = set.into_iter().map(|i| i as u64).collect();
            actions.push(Action::Broadcast {
                payload: Bytes::from(AaaMsg::Witness { round, set }.encode_to_vec()),
            });
        }
        self.advance_ready_rounds(actions);
    }

    /// While the *current* round's gather is complete, apply the trimmed
    /// midpoint update and move on (future rounds may already be complete
    /// when witnesses raced ahead of our own deliveries).
    fn advance_ready_rounds(&mut self, actions: &mut Vec<Action>) {
        while self.decided.is_none()
            && self
                .gathers
                .get(&self.round)
                .is_some_and(WitnessGather::completed)
        {
            let mut vals: Vec<Nat> = self
                .delivered
                .get(&self.round)
                .map(|m| m.values().cloned().collect())
                .unwrap_or_default();
            vals.sort();
            // Completion implies n − t ≥ 2t + 1 delivered values, so the
            // trim indices are always in range.
            let lo = &vals[self.t];
            let hi = &vals[vals.len() - 1 - self.t];
            self.value = lo.midpoint(hi);
            actions.push(Action::Note {
                label: format!("aaa_round_{}", self.round),
                value: self.value.to_string(),
            });
            self.round += 1;
            if self.round >= self.rounds {
                self.decided = Some(self.value.clone());
            } else {
                let out = self
                    .rbc
                    .broadcast(self.me, self.round, self.value.encode_to_vec());
                Self::wrap_rbc(out.outgoing, actions);
            }
        }
    }
}

impl AsyncProtocol for AsyncApprox {
    type Output = Nat;

    fn on_start(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.rounds == 0 {
            self.decided = Some(self.value.clone());
            return actions;
        }
        let out = self.rbc.broadcast(self.me, 0, self.value.encode_to_vec());
        Self::wrap_rbc(out.outgoing, &mut actions);
        actions
    }

    fn on_message(&mut self, from: PartyId, payload: &Bytes) -> Vec<Action> {
        let mut actions = Vec::new();
        // Byzantine bytes decode to garbage or nothing: both are silence.
        let Ok(msg) = AaaMsg::decode_from_slice(payload) else {
            return actions;
        };
        match msg {
            AaaMsg::Rbc(rbc_msg) => {
                let (RbcMsg::Init { tag, .. }
                | RbcMsg::Echo { tag, .. }
                | RbcMsg::Ready { tag, .. }) = &rbc_msg;
                // Slots beyond the fixed round count can never matter;
                // dropping them (as `Rbc` drops origins that are no party)
                // bounds state against byzantine flooding.
                if tag.seq >= self.rounds {
                    return actions;
                }
                let out = self.rbc.on_message(from, rbc_msg);
                Self::wrap_rbc(out.outgoing, &mut actions);
                for (tag, bytes) in out.delivered {
                    let Ok(value) = Nat::decode_from_slice(&bytes) else {
                        // An unparsable value is a provably-faulty origin;
                        // its slot simply never lands.
                        continue;
                    };
                    self.delivered
                        .entry(tag.seq)
                        .or_default()
                        .insert(tag.origin.0, value);
                    let step = Self::gather_for(&mut self.gathers, self.n, self.t, tag.seq)
                        .deliver(tag.origin.0);
                    self.absorb_step(tag.seq, step, &mut actions);
                }
            }
            AaaMsg::Witness { round, set } => {
                if round >= self.rounds {
                    return actions;
                }
                let set: Vec<usize> = set.into_iter().map(|i| i as usize).collect();
                let step = Self::gather_for(&mut self.gathers, self.n, self.t, round)
                    .on_witness(from.0, &set);
                self.absorb_step(round, step, &mut actions);
            }
        }
        actions
    }

    fn output(&self) -> Option<Nat> {
        self.decided.clone()
    }

    fn input_repr(&self) -> Option<String> {
        Some(self.input.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        let witness = AaaMsg::Witness {
            round: 3,
            set: vec![0, 2, 3],
        };
        let bytes = witness.encode_to_vec();
        assert_eq!(bytes.len(), witness.encoded_len());
        assert_eq!(AaaMsg::decode_from_slice(&bytes).unwrap(), witness);

        let rbc = AaaMsg::Rbc(RbcMsg::Init {
            tag: crate::rbc::RbcTag {
                origin: PartyId(1),
                seq: 0,
            },
            payload: Nat::from_u64(42).encode_to_vec(),
        });
        let bytes = rbc.encode_to_vec();
        assert_eq!(AaaMsg::decode_from_slice(&bytes).unwrap(), rbc);
        assert!(AaaMsg::decode_from_slice(&[7]).is_err());
    }

    #[test]
    fn zero_rounds_decides_input_immediately() {
        let mut p = AsyncApprox::new(4, 1, PartyId(0), Nat::from_u64(9), 0);
        assert!(p.on_start().is_empty());
        assert_eq!(p.output(), Some(Nat::from_u64(9)));
    }

    #[test]
    fn rounds_for_spread_covers_halving() {
        assert_eq!(rounds_for_spread(&Nat::zero()), 1);
        assert_eq!(rounds_for_spread(&Nat::from_u64(1)), 2);
        assert_eq!(rounds_for_spread(&Nat::from_u64(100)), 8);
        // 2^R must dominate the spread.
        for s in [1u64, 2, 3, 100, 1000, u64::MAX / 2] {
            let r = rounds_for_spread(&Nat::from_u64(s));
            assert!(r < 66 && (r >= 64 || (1u64 << r) > s));
        }
    }
}

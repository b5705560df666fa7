//! The TCP transport's liveness policy, as a state machine without I/O.
//!
//! [`Liveness`] decides, for one party, when a peer is gone, what is shed
//! and when a round ends. It keeps each peer's state and the tag of its
//! last round batch (the batch is the peer's end-of-round marker), the
//! buffer of batches that arrived early and its caps, and the crash
//! schedule. It does no I/O, spawns no thread and never reads a clock:
//! the shell in `party.rs` feeds it events (a decoded frame, a lost
//! stream, a failed write, the round's sends, the expiry of `Δ`) and
//! applies the [`Effect`]s it queues. `TcpParty::next_round` and
//! `run_async_party` drive the same core, so the rules live here alone and
//! are tested without sockets, down to a seeded packet adversary.

use std::collections::VecDeque;

use bytes::Bytes;
use ca_net::FaultEstimate;

use crate::frame::held;
use crate::{FaultPlan, Frame};

/// Why a peer was lost. Its [`Reason::as_str`] is the `PeerGone` trace
/// spelling; a lost stream carries `Eof` or `Malformed`, a failed write
/// `Stalled` or `Closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reason {
    /// The stream ended without a `Bye`.
    Eof,
    /// The stream carried an oversized or undecodable frame, or a round
    /// batch whose tag did not rise.
    Malformed,
    /// The peer overfilled its early-batch buffer.
    Flood,
    /// A write to the peer missed its `Δ` deadline, or its write queue
    /// overfilled.
    Stalled,
    /// A write to the peer failed: the link is closed.
    Closed,
}

impl Reason {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Reason::Eof => "eof",
            Reason::Malformed => "malformed",
            Reason::Flood | Reason::Stalled => "overflow",
            Reason::Closed => "writer-closed",
        }
    }
}

/// What the core asks of the shell, in order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Hand `payload` from `from` to the protocol.
    Deliver { from: usize, payload: Bytes },
    /// Write `frame` to `to`.
    Write { to: usize, frame: Frame },
    /// Cut `peer` off: shut its socket, count and trace the outage.
    Disconnect { peer: usize, reason: Reason },
    /// A frame was dropped: the batch to a peer that stalled, or one from
    /// a peer that flooded.
    Shed,
    /// The crash fault fires: close every link without a `Bye`. `strategy`
    /// names it in the trace.
    Crash { strategy: &'static str },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Live,
    /// Said `Bye`, or is this party: not waited on, and no outage.
    Bye,
    Gone(Reason),
}

struct Peer {
    state: State,
    /// Tag of the last round batch received, which ends the peer's rounds
    /// up to it.
    last: u64,
    /// Batches tagged with rounds not reached yet, in rising order.
    early: VecDeque<(u64, Vec<Bytes>)>,
    /// What `early` holds: each payload plus its handle.
    early_bytes: usize,
}

/// One party's liveness state; see the module documentation.
pub(crate) struct Liveness {
    me: usize,
    round: u64,
    /// The current round ended on `Δ`.
    expired: bool,
    /// Event-driven: a batch is delivered whatever its tag, and the crash
    /// plan counts deliveries instead of rounds.
    unbarriered: bool,
    peers: Vec<Peer>,
    /// A peer with `cap` early batches, or `cap_bytes` early bytes,
    /// waiting is flooding.
    cap: usize,
    cap_bytes: usize,
    plan: FaultPlan,
    delivered: u64,
    /// Event-driven batches sent: the tag of the last one.
    sent: u64,
    crashed: bool,
    effects: VecDeque<Effect>,
}

impl Liveness {
    /// Party `me` of `n`, in round 0, capping each peer's early buffer at
    /// `cap` batches and `cap_bytes` bytes.
    pub(crate) fn new(n: usize, me: usize, cap: usize, cap_bytes: usize) -> Self {
        let mut peers: Vec<Peer> = (0..n)
            .map(|_| Peer {
                state: State::Live,
                last: 0,
                early: VecDeque::new(),
                early_bytes: 0,
            })
            .collect();
        peers[me].state = State::Bye;
        Self {
            me,
            round: 0,
            expired: false,
            unbarriered: false,
            peers,
            cap,
            cap_bytes,
            plan: FaultPlan::default(),
            delivered: 0,
            sent: 0,
            crashed: false,
            effects: VecDeque::new(),
        }
    }

    pub(crate) fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Switches to event-driven delivery (see the `unbarriered` field).
    pub(crate) fn set_async(&mut self) {
        self.unbarriered = true;
    }

    pub(crate) fn round(&self) -> u64 {
        self.round
    }

    pub(crate) fn crashed(&self) -> bool {
        self.crashed
    }

    /// The next effect to apply.
    pub(crate) fn poll_effect(&mut self) -> Option<Effect> {
        self.effects.pop_front()
    }

    /// Enters the next round: crashes if the plan says so, else delivers
    /// the batches that arrived early for it.
    pub(crate) fn begin_round(&mut self) {
        self.round += 1;
        self.expired = false;
        if self.crashed {
            return;
        }
        if self.plan.is_crash_round(self.round) {
            self.crash("crash");
            return;
        }
        let (round, effects) = (self.round, &mut self.effects);
        for (from, peer) in self.peers.iter_mut().enumerate() {
            // Tags rise along a link, so only the front can be due.
            if let Some((_, msgs)) = peer.early.pop_front_if(|(tag, _)| *tag == round) {
                peer.early_bytes -= held(&msgs);
                effects.extend(
                    msgs.into_iter()
                        .map(|payload| Effect::Deliver { from, payload }),
                );
            }
        }
    }

    /// The round's sends are ready: a send to this party is delivered at
    /// once, the rest go out as one round frame per peer, which is also
    /// this party's end-of-round marker.
    ///
    /// # Panics
    ///
    /// If the sends to one peer exceed the wire limit (see `Frame::round`).
    pub(crate) fn send_round(&mut self, sends: impl IntoIterator<Item = (usize, Bytes)>) {
        if self.crashed {
            return;
        }
        #[expect(clippy::disallowed_methods, reason = "one batch per peer")]
        let mut batches: Vec<Vec<Bytes>> = vec![Vec::new(); self.peers.len()];
        for (to, payload) in sends {
            if to == self.me {
                self.deliver(to, payload);
            } else {
                batches[to].push(payload);
            }
        }
        for (to, msgs) in batches.into_iter().enumerate() {
            if to != self.me {
                self.write(to, self.round, msgs);
            }
        }
    }

    /// Event-driven send: `payload` goes to `to` at once, in a batch of
    /// its own tagged with this party's send count, which rises along
    /// every link.
    ///
    /// # Panics
    ///
    /// If `payload` exceeds the wire limit (see `Frame::round`).
    pub(crate) fn send_now(&mut self, to: usize, payload: Bytes) {
        if !self.crashed {
            self.sent += 1;
            self.write(to, self.sent, vec![payload]);
        }
    }

    /// Whether the round is over: every peer still waited on has sent
    /// its batch for it, or `Δ` expired.
    pub(crate) fn round_done(&self) -> bool {
        self.expired || self.crashed || self.awaited().next().is_none()
    }

    /// Live peers whose batch for the current round has not arrived.
    pub(crate) fn awaited(&self) -> impl Iterator<Item = usize> + '_ {
        let round = self.round;
        (0..self.peers.len())
            .filter(move |&p| self.peers[p].state == State::Live && self.peers[p].last < round)
    }

    /// `Δ` has expired: the round ends, and what still comes for it is
    /// late.
    pub(crate) fn on_timeout(&mut self) {
        self.expired = true;
    }

    /// A frame decoded from `from`'s stream.
    pub(crate) fn on_frame(&mut self, from: usize, frame: Frame) {
        if self.crashed {
            return;
        }
        let peer = &mut self.peers[from];
        match frame {
            // What a peer had in flight when it said `Bye` or was cut off
            // is never delivered.
            Frame::Round { .. } if peer.state != State::Live => {}
            // An honest peer's tags rise along its FIFO link, so at most
            // one batch per round gets past this.
            Frame::Round { round, .. } if round <= peer.last => {
                self.cut_off(from, Reason::Malformed);
            }
            Frame::Round { round, msgs } => {
                peer.last = round;
                if self.unbarriered || (round == self.round && !self.expired) {
                    for payload in msgs {
                        self.deliver(from, payload);
                    }
                } else if round > self.round {
                    self.file_early(from, round, msgs);
                }
                // A late batch missed its Δ: its payloads are dropped, but
                // it still ends the peer's round.
            }
            // The peer finished its run: stop waiting on it, but this is
            // no outage.
            Frame::Bye if peer.state == State::Live => peer.state = State::Bye,
            Frame::Bye | Frame::Hello { .. } => {}
        }
    }

    /// `from`'s stream ended without a `Bye` (`Eof`) or carried a frame
    /// that does not decode (`Malformed`).
    pub(crate) fn on_lost(&mut self, from: usize, cause: Reason) {
        if !self.crashed {
            self.cut_off(from, cause);
        }
    }

    /// A write to `to` failed: it `Stalled` or the link is `Closed`. A
    /// peer that stalled is off the synchronous schedule, so the batch is
    /// shed and the peer cut off as suspected rather than letting its
    /// backlog grow; a closed link just means the peer is gone; either is
    /// no outage once the peer said `Bye`.
    pub(crate) fn on_write_failed(&mut self, to: usize, cause: Reason) {
        if self.crashed || self.peers[to].state != State::Live {
            return;
        }
        if cause == Reason::Stalled {
            self.effects.push_back(Effect::Shed);
        }
        self.cut_off(to, cause);
    }

    /// Peers not waited on any more, this party aside.
    pub(crate) fn silent(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.peers.len()).filter(|&p| p != self.me && self.peers[p].state != State::Live)
    }

    /// [`Liveness::silent`] split by cause: a peer cut off for a flood, a
    /// stall or a malformed stream is suspected, one that went quiet is
    /// silent.
    pub(crate) fn fault_estimate(&self) -> FaultEstimate {
        let mut est = FaultEstimate::default();
        for p in self.silent() {
            match self.peers[p].state {
                State::Gone(Reason::Flood | Reason::Stalled | Reason::Malformed) => {
                    est.suspected += 1;
                }
                _ => est.silent += 1,
            }
        }
        est
    }

    fn deliver(&mut self, from: usize, payload: Bytes) {
        if self.crashed {
            return;
        }
        if self.unbarriered {
            self.delivered += 1;
            if self.plan.is_crash_round(self.delivered) {
                self.crash("crash:async");
                return;
            }
        }
        self.effects.push_back(Effect::Deliver { from, payload });
    }

    /// Queues `msgs` for `to` as one round frame tagged `round`, unless
    /// `to` is gone.
    fn write(&mut self, to: usize, round: u64, msgs: Vec<Bytes>) {
        let frame = Frame::round(round, msgs);
        if !matches!(self.peers[to].state, State::Gone(_)) {
            self.effects.push_back(Effect::Write { to, frame });
        }
    }

    /// Buffers a batch tagged with a round not reached yet. Honest peers
    /// run at most a round or two ahead; one whose buffer would pass
    /// either cap is flooding, so the batch is shed, the peer cut off and
    /// its backlog freed.
    fn file_early(&mut self, from: usize, round: u64, msgs: Vec<Bytes>) {
        let peer = &mut self.peers[from];
        let bytes = peer.early_bytes + held(&msgs);
        if peer.early.len() < self.cap && bytes <= self.cap_bytes {
            peer.early.push_back((round, msgs));
            peer.early_bytes = bytes;
            return;
        }
        (peer.early, peer.early_bytes) = (VecDeque::new(), 0);
        self.effects.push_back(Effect::Shed);
        self.cut_off(from, Reason::Flood);
    }

    /// Marks a live `peer` gone for `reason` (once).
    fn cut_off(&mut self, peer: usize, reason: Reason) {
        let state = &mut self.peers[peer].state;
        if *state == State::Live {
            *state = State::Gone(reason);
            self.effects.push_back(Effect::Disconnect { peer, reason });
        }
    }

    fn crash(&mut self, strategy: &'static str) {
        self.crashed = true;
        self.effects.push_back(Effect::Crash { strategy });
    }
}

#[cfg(test)]
impl Liveness {
    /// What `peer`'s early batches hold.
    pub(crate) fn early_bytes(&self, peer: usize) -> usize {
        self.peers[peer].early_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The early-buffer caps the tests run under.
    const CAP: usize = 8;
    const CAP_BYTES: usize = 2048;

    fn batch(round: u64, tag: u8) -> Frame {
        Frame::Round {
            round,
            msgs: vec![Bytes::from(vec![tag])],
        }
    }

    fn drain(core: &mut Liveness) -> Vec<Effect> {
        std::iter::from_fn(|| core.poll_effect()).collect()
    }

    /// Party 0 of `n`, in round 1 with nothing to send.
    fn in_round_one(n: usize) -> Liveness {
        let mut core = Liveness::new(n, 0, CAP, CAP_BYTES);
        core.begin_round();
        core.send_round([]);
        drain(&mut core);
        core
    }

    /// The payloads `effects` deliver, by sender.
    fn delivered(effects: &[Effect]) -> Vec<(usize, &[u8])> {
        effects
            .iter()
            .filter_map(|effect| match effect {
                Effect::Deliver { from, payload } => Some((*from, &payload[..])),
                _ => None,
            })
            .collect()
    }

    /// A peer that sends rising far-future batches does not grow the
    /// early buffer past the cap: the next batch is shed, the flooder cut
    /// off as suspected and its backlog freed.
    #[test]
    fn far_future_flood_is_bounded_and_drops_the_flooder() {
        let mut core = in_round_one(2);
        for k in 0..CAP as u64 {
            core.on_frame(1, batch((1 << 40) + k, 0xEE));
        }
        assert!(drain(&mut core).is_empty());
        assert_eq!(core.peers[1].early.len(), CAP);
        core.on_frame(1, batch(1 << 41, 0xEE));
        assert_eq!(
            drain(&mut core),
            [
                Effect::Shed,
                Effect::Disconnect {
                    peer: 1,
                    reason: Reason::Flood
                },
            ]
        );
        assert!(core.peers[1].early.is_empty());
        assert!(core.round_done());
        assert_eq!(core.silent().collect::<Vec<_>>(), [1]);
        assert_eq!(core.fault_estimate().suspected, 1);
        core.on_frame(1, batch(1 << 42, 0xEE));
        assert!(drain(&mut core).is_empty());
    }

    /// The early buffer is bounded in bytes too: two batches whose
    /// payloads are each half the byte cap overfill it, far below the
    /// entry cap, and the second one cuts its sender off.
    #[test]
    fn early_bytes_are_capped() {
        let mut core = in_round_one(2);
        let half = |round: u64| Frame::Round {
            round,
            msgs: vec![Bytes::from(vec![0xEE; CAP_BYTES / 2])],
        };
        core.on_frame(1, half(2));
        assert!(drain(&mut core).is_empty());
        assert_eq!(
            core.peers[1].early_bytes,
            CAP_BYTES / 2 + std::mem::size_of::<Bytes>()
        );
        core.on_frame(1, half(3));
        assert_eq!(
            drain(&mut core),
            [
                Effect::Shed,
                Effect::Disconnect {
                    peer: 1,
                    reason: Reason::Flood
                },
            ]
        );
        assert!(core.peers[1].early.is_empty());
        assert_eq!(core.peers[1].early_bytes, 0);
    }

    /// Once a flooder is cut off, nothing of it is delivered again: not
    /// the batches it had buffered, and not a batch with a fresh, higher
    /// tag that it sends afterwards, in any round up to that tag, while an
    /// honest peer's batches still arrive and end each round.
    #[test]
    fn cut_off_flooder_is_never_delivered_again() {
        let mut core = in_round_one(3);
        for k in 0..=CAP as u64 {
            core.on_frame(1, batch(2 + k, 0xEE));
        }
        assert_eq!(core.silent().collect::<Vec<_>>(), [1]);
        let fresh = 2 + 2 * CAP as u64;
        core.on_frame(1, batch(fresh, 99));
        for round in 1..=fresh {
            if round > 1 {
                core.begin_round();
                core.send_round([]);
            }
            core.on_frame(2, batch(round, 7));
            assert!(core.round_done());
            assert_eq!(
                delivered(&drain(&mut core)),
                [(2, &[7][..])],
                "round {round}"
            );
        }
    }

    /// Tags rise along a link, so a batch whose tag repeats or falls is
    /// forged: its sender is cut off as suspected and nothing of it is
    /// delivered, on both paths.
    #[test]
    fn a_batch_whose_tag_does_not_rise_cuts_its_sender_off() {
        for (unbarriered, stale) in [(false, 1), (false, 0), (true, 1)] {
            let mut core = in_round_one(3);
            if unbarriered {
                core.set_async();
            }
            core.on_frame(1, batch(1, 1));
            core.on_frame(1, batch(stale, 2));
            let effects = drain(&mut core);
            assert_eq!(delivered(&effects), [(1, &[1][..])]);
            assert_eq!(
                effects.last(),
                Some(&Effect::Disconnect {
                    peer: 1,
                    reason: Reason::Malformed
                })
            );
            assert_eq!(core.fault_estimate().suspected, 1);
        }
    }

    /// A stream that ended is silence; one that carried garbage is active
    /// misbehaviour, and so is a peer that stopped reading. A closed link
    /// is silence.
    #[test]
    fn lost_streams_and_failed_writes_are_classified_by_cause() {
        let mut core = in_round_one(5);
        core.on_lost(1, Reason::Eof);
        core.on_lost(2, Reason::Malformed);
        core.on_write_failed(3, Reason::Stalled);
        core.on_write_failed(4, Reason::Closed);
        let reasons: Vec<&str> = drain(&mut core)
            .into_iter()
            .filter_map(|effect| match effect {
                Effect::Disconnect { reason, .. } => Some(reason.as_str()),
                Effect::Shed => None,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(reasons, ["eof", "malformed", "overflow", "writer-closed"]);
        assert_eq!(
            core.fault_estimate(),
            FaultEstimate {
                silent: 2,
                suspected: 2
            }
        );
        // Each peer is lost once.
        core.on_lost(2, Reason::Eof);
        assert!(drain(&mut core).is_empty());
    }

    /// `Bye` stops the waiting without an outage: no effect, then or when
    /// the peer's stream or a write to it fails afterwards, and nothing
    /// it sends after the `Bye` is delivered.
    #[test]
    fn bye_is_no_outage_and_ends_delivery() {
        let mut core = in_round_one(2);
        core.on_frame(1, Frame::Bye);
        assert!(core.round_done());
        core.on_frame(1, batch(1, 5));
        core.on_write_failed(1, Reason::Stalled);
        core.on_lost(1, Reason::Eof);
        assert!(drain(&mut core).is_empty());
        assert_eq!(core.silent().collect::<Vec<_>>(), [1]);
        assert_eq!(core.fault_estimate().suspected, 0);
    }

    /// A batch for the current round after `Δ` expired is dropped but
    /// still ends the peer's round; one for a later round waits for it,
    /// and ends the rounds before it too. A round's sends to a peer go
    /// out as one frame tagged with the round.
    #[test]
    fn late_messages_are_dropped_and_early_ones_wait() {
        let mut core = in_round_one(2);
        core.on_timeout();
        assert!(core.round_done());
        core.on_frame(1, batch(1, 1));
        core.on_frame(1, batch(3, 3));
        assert!(drain(&mut core).is_empty());
        core.begin_round();
        assert!(core.round_done());
        core.send_round([
            (1, Bytes::from_static(b"x")),
            (0, Bytes::from_static(b"own")),
            (1, Bytes::from_static(b"y")),
        ]);
        assert_eq!(
            drain(&mut core),
            [
                Effect::Deliver {
                    from: 0,
                    payload: Bytes::from_static(b"own")
                },
                Effect::Write {
                    to: 1,
                    frame: Frame::Round {
                        round: 2,
                        msgs: vec![Bytes::from_static(b"x"), Bytes::from_static(b"y")]
                    }
                },
            ]
        );
        core.begin_round();
        assert_eq!(delivered(&drain(&mut core)), [(1, &[3][..])]);
        assert!(core.round_done());
    }

    /// The event-driven path tags each send with the next send count,
    /// whatever the peer.
    #[test]
    fn async_sends_are_tagged_with_a_rising_count() {
        let mut core = Liveness::new(3, 0, CAP, CAP_BYTES);
        core.set_async();
        for to in [1, 2, 1] {
            core.send_now(to, Bytes::new());
        }
        let tags: Vec<(usize, u64)> = drain(&mut core)
            .into_iter()
            .map(|effect| match effect {
                Effect::Write {
                    to,
                    frame: Frame::Round { round, .. },
                } => (to, round),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(tags, [(1, 1), (2, 2), (1, 3)]);
    }

    /// A round's batch to one peer that the receiver would reject is
    /// refused at the sender.
    #[test]
    #[should_panic(expected = "-byte wire limit")]
    fn an_over_limit_round_panics() {
        let mut core = in_round_one(2);
        core.begin_round();
        let half = Bytes::from(vec![0; crate::MAX_WIRE_FRAME_LEN / 2]);
        core.send_round([(1, half.clone()), (1, half)]);
    }

    /// The crash plan counts rounds on the synchronous path and delivered
    /// messages on the event-driven one, where a crash stops delivery
    /// within a batch; a crashed core does nothing.
    #[test]
    fn crash_plan_counts_rounds_or_deliveries() {
        let mut sync = Liveness::new(2, 0, CAP, CAP_BYTES);
        sync.set_plan(FaultPlan::new().crash_at(2));
        sync.begin_round();
        assert!(!sync.crashed());
        drain(&mut sync);
        sync.begin_round();
        assert!(sync.crashed() && sync.round_done());
        assert_eq!(drain(&mut sync), [Effect::Crash { strategy: "crash" }]);
        sync.send_round([(1, Bytes::new())]);
        sync.send_now(1, Bytes::new());
        sync.on_frame(1, batch(2, 0));
        sync.on_lost(1, Reason::Eof);
        sync.begin_round();
        assert!(drain(&mut sync).is_empty());
        assert_eq!(sync.round(), 3);

        let mut unbarriered = Liveness::new(2, 0, CAP, CAP_BYTES);
        unbarriered.set_plan(FaultPlan::new().crash_at(2));
        unbarriered.set_async();
        unbarriered.on_frame(
            1,
            Frame::Round {
                round: 1 << 40,
                msgs: [1, 2, 3].map(|tag| Bytes::from(vec![tag])).to_vec(),
            },
        );
        assert_eq!(
            drain(&mut unbarriered),
            [
                Effect::Deliver {
                    from: 1,
                    payload: Bytes::from(vec![1])
                },
                Effect::Crash {
                    strategy: "crash:async"
                },
            ]
        );
    }

    /// Four cores, one byzantine, on a seeded in-memory network.
    mod adversary {
        use std::collections::{BTreeMap, BTreeSet};
        use std::fmt::Write as _;

        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        use super::super::*;
        use super::{CAP, CAP_BYTES};

        const N: usize = 4;
        /// `Δ`, in ticks of virtual time.
        const DELTA: u64 = 100;
        const ROUNDS: u64 = 10;
        /// Times the byzantine party acts, per run.
        const WAKES: usize = 60;
        const FAR: u64 = 1 << 40;

        enum Input {
            Frame(Frame),
            Lost(Reason),
            /// A write from the receiving core to the sender failed.
            WriteFailed(Reason),
            /// `Δ` of the given round expired.
            Timeout(u64),
            /// The byzantine party acts.
            Wake,
        }

        /// One run's state. The queue is keyed by (virtual time, sequence
        /// number), like `ca_async::Executor`'s, so a seed fixes the run.
        struct Net {
            rng: SmallRng,
            now: u64,
            seq: u64,
            queue: BTreeMap<(u64, u64), (usize, usize, Input)>,
            byz: usize,
            /// `None` for the byzantine party.
            cores: Vec<Option<Liveness>>,
            started: Vec<u64>,
            finished: Vec<bool>,
            /// Per honest link, when its last frame arrives: streams are
            /// FIFO.
            link_free: Vec<Vec<u64>>,
            /// The test's own model, per (receiver, sender): the sender
            /// said `Bye`, lost its stream or was cut off.
            cut: Vec<Vec<bool>>,
            /// The tag of the last batch the receiver had to accept.
            last: Vec<Vec<u64>>,
            expired: Vec<bool>,
            next_id: u64,
            /// (receiver, message) that arrived in a batch the receiver
            /// had to accept: its sender was not cut off, and its tag
            /// rose.
            clean: BTreeSet<(usize, u64)>,
            /// Honest (receiver, message) → the round it must be
            /// delivered in.
            expect: BTreeMap<(usize, u64), u64>,
            delivered: BTreeMap<(usize, u64), u64>,
            /// Message → the first message of its batch, for the
            /// byzantine party's batches of more than one.
            batch_of: BTreeMap<u64, u64>,
            /// (receiver, sender, round) → the batches delivered in it.
            batches: BTreeMap<(usize, usize, u64), BTreeSet<u64>>,
            /// What the byzantine party sent, to replay.
            sent: Vec<(usize, Frame)>,
            log: String,
        }

        fn id_of(payload: &Bytes) -> u64 {
            u64::from_le_bytes(payload[..8].try_into().unwrap())
        }

        impl Net {
            fn new(seed: u64) -> Self {
                let mut rng = SmallRng::seed_from_u64(seed);
                let byz = rng.gen_range(0..N);
                Self {
                    rng,
                    now: 0,
                    seq: 0,
                    queue: BTreeMap::new(),
                    byz,
                    cores: (0..N)
                        .map(|p| (p != byz).then(|| Liveness::new(N, p, CAP, CAP_BYTES)))
                        .collect(),
                    started: vec![0; N],
                    finished: vec![false; N],
                    link_free: vec![vec![0; N]; N],
                    cut: vec![vec![false; N]; N],
                    last: vec![vec![0; N]; N],
                    expired: vec![false; N],
                    next_id: 0,
                    clean: BTreeSet::new(),
                    expect: BTreeMap::new(),
                    delivered: BTreeMap::new(),
                    batch_of: BTreeMap::new(),
                    batches: BTreeMap::new(),
                    sent: Vec::new(),
                    log: String::new(),
                }
            }

            fn core(&mut self, p: usize) -> &mut Liveness {
                self.cores[p].as_mut().expect("an honest core")
            }

            fn at(&mut self, time: u64, to: usize, from: usize, input: Input) {
                self.queue.insert((time, self.seq), (to, from, input));
                self.seq += 1;
            }

            /// A fresh message of `len` ≥ 8 bytes, its id first.
            fn payload_of(&mut self, len: usize) -> Bytes {
                self.next_id += 1;
                let mut payload = self.next_id.to_le_bytes().to_vec();
                payload.resize(len, 0);
                Bytes::from(payload)
            }

            fn payload(&mut self) -> Bytes {
                self.payload_of(8)
            }

            /// A fresh byzantine batch of `k` messages of `len` bytes.
            fn batch(&mut self, round: u64, k: usize, len: usize) -> Frame {
                let msgs: Vec<Bytes> = (0..k).map(|_| self.payload_of(len)).collect();
                for msg in &msgs {
                    self.batch_of.insert(id_of(msg), id_of(&msgs[0]));
                }
                Frame::Round { round, msgs }
            }

            /// When the next batch on honest link `from → to` arrives:
            /// mostly well within `Δ`, sometimes after it.
            fn arrival(&mut self, from: usize, to: usize) -> u64 {
                let delay = if self.rng.gen_bool(0.15) {
                    self.rng.gen_range(DELTA..2 * DELTA)
                } else {
                    self.rng.gen_range(1..DELTA / 2)
                };
                let at = (self.now + delay).max(self.link_free[from][to]);
                self.link_free[from][to] = at;
                at
            }

            fn start_round(&mut self, p: usize) {
                self.core(p).begin_round();
                let sends: Vec<(usize, Bytes)> = (0..N).map(|q| (q, self.payload())).collect();
                self.core(p).send_round(sends);
                let round = self.core(p).round();
                self.started[p] = self.now;
                self.expired[p] = false;
                self.at(self.now + DELTA, p, p, Input::Timeout(round));
                self.after_event(p);
            }

            fn apply(&mut self, p: usize, effect: Effect) {
                writeln!(self.log, "{} {p} {effect:?}", self.now).unwrap();
                match effect {
                    Effect::Deliver { from, payload } => {
                        let id = id_of(&payload);
                        assert!(
                            from == p || !self.cut[p][from] || self.clean.contains(&(p, id)),
                            "party {p} delivered message {id} from {from}, \
                             which arrived after {from} said Bye or was cut off"
                        );
                        let round = self.core(p).round();
                        assert!(
                            self.delivered.insert((p, id), round).is_none(),
                            "party {p} delivered message {id} twice"
                        );
                        let batch = *self.batch_of.get(&id).unwrap_or(&id);
                        let batches = self.batches.entry((p, from, round)).or_default();
                        batches.insert(batch);
                        assert!(
                            batches.len() <= 1,
                            "party {p} delivered batches {batches:?} from {from} in round {round}"
                        );
                    }
                    Effect::Write { to, frame } if to != self.byz => {
                        let at = self.arrival(p, to);
                        self.at(at, to, p, Input::Frame(frame));
                    }
                    Effect::Write { .. } | Effect::Shed => {}
                    Effect::Disconnect { peer, .. } => {
                        assert_eq!(peer, self.byz, "party {p} cut off honest {peer}");
                        self.cut[p][peer] = true;
                    }
                    Effect::Crash { .. } => panic!("no crash is scheduled"),
                }
            }

            fn feed(&mut self, to: usize, from: usize, input: Input) {
                if to == self.byz || self.finished[to] {
                    return;
                }
                match input {
                    Input::Timeout(round) if round == self.core(to).round() => {
                        self.expired[to] = true;
                        self.core(to).on_timeout();
                    }
                    Input::Timeout(_) | Input::Wake => return,
                    Input::Frame(frame) => {
                        match &frame {
                            Frame::Round { round, msgs }
                                if !self.cut[to][from] && *round > self.last[to][from] =>
                            {
                                self.last[to][from] = *round;
                                let now = self.core(to).round();
                                let open = now < *round || (now == *round && !self.expired[to]);
                                for id in msgs.iter().map(id_of) {
                                    self.clean.insert((to, id));
                                    if from != self.byz && open {
                                        self.expect.insert((to, id), *round);
                                    }
                                }
                            }
                            Frame::Bye => self.cut[to][from] = true,
                            Frame::Round { .. } | Frame::Hello { .. } => {}
                        }
                        self.core(to).on_frame(from, frame);
                    }
                    Input::Lost(cause) => {
                        self.cut[to][from] = true;
                        self.core(to).on_lost(from, cause);
                    }
                    Input::WriteFailed(failure) => self.core(to).on_write_failed(from, failure),
                }
                self.after_event(to);
            }

            /// Applies `p`'s effects, checks its buffers and its round,
            /// and moves it to its next round once this one is over.
            fn after_event(&mut self, p: usize) {
                while let Some(effect) = self.core(p).poll_effect() {
                    self.apply(p, effect);
                }
                let core = self.cores[p].as_ref().expect("an honest core");
                for (q, peer) in core.peers.iter().enumerate() {
                    let bytes: usize = peer.early.iter().map(|(_, msgs)| held(msgs)).sum();
                    assert!(
                        peer.early.len() <= CAP && bytes <= CAP_BYTES,
                        "party {p} buffers {} early batches, {bytes} bytes, from {q}",
                        peer.early.len()
                    );
                }
                let round = core.round();
                let over = self.expired[p]
                    || (0..N).all(|q| q == p || self.cut[p][q] || self.last[p][q] >= round);
                assert_eq!(core.round_done(), over, "party {p}, round {round}");
                if !over {
                    return;
                }
                assert!(self.now - self.started[p] <= DELTA);
                if round < ROUNDS {
                    return self.start_round(p);
                }
                self.finished[p] = true;
                let byz = self.byz;
                for q in (0..N).filter(|&q| q != p && q != byz) {
                    let at = self.arrival(p, q);
                    self.at(at, q, p, Input::Frame(Frame::Bye));
                }
            }

            /// The byzantine party sends something to one honest party:
            /// anything that does not forge an honest sender.
            fn wake(&mut self) {
                let (b, at) = (self.byz, self.now + self.rng.gen_range(0..2 * DELTA));
                let to = (b + self.rng.gen_range(1..N)) % N;
                let round = self.core(to).round();
                let frames = match self.rng.gen_range(0..13u32) {
                    // A batch of 0–3 messages tagged with the target's
                    // past, current, next, next-but-one or a far-future
                    // round.
                    0..=2 => {
                        let tags = [round.saturating_sub(1), round, round + 1, round + 2, FAR];
                        let tag = tags[self.rng.gen_range(0..tags.len())];
                        let k = self.rng.gen_range(0..4);
                        vec![self.batch(tag, k, 8)]
                    }
                    // An empty batch: only a marker.
                    3 => {
                        let tags = [0, round.saturating_sub(1), round, round + 1, FAR, u64::MAX];
                        let tag = tags[self.rng.gen_range(0..tags.len())];
                        vec![self.batch(tag, 0, 8)]
                    }
                    // A stale batch: one sent before, again.
                    4 if !self.sent.is_empty() => {
                        let (to, frame) = self.sent[self.rng.gen_range(0..self.sent.len())].clone();
                        return self.at(at, to, b, Input::Frame(frame));
                    }
                    4 | 5 => vec![Frame::Bye],
                    6 => vec![Frame::Hello {
                        from: self.rng.gen(),
                    }],
                    7 => {
                        let cause = if self.rng.gen_bool(0.5) {
                            Reason::Eof
                        } else {
                            Reason::Malformed
                        };
                        return self.at(at, to, b, Input::Lost(cause));
                    }
                    // More far-future batches than the entry cap.
                    8 => {
                        let count = self.rng.gen_range(CAP as u64..4 * CAP as u64);
                        (0..count).map(|k| self.batch(FAR + k, 1, 8)).collect()
                    }
                    9 => {
                        let failure = if self.rng.gen_bool(0.5) {
                            Reason::Closed
                        } else {
                            Reason::Stalled
                        };
                        return self.at(at, to, b, Input::WriteFailed(failure));
                    }
                    // The same batch for the current round, twice.
                    10 => {
                        let k = self.rng.gen_range(1..3);
                        let frame = self.batch(round, k, 8);
                        vec![frame.clone(), frame]
                    }
                    // Out of order: the next round's batch, then this one's.
                    11 => vec![self.batch(round + 1, 1, 8), self.batch(round, 1, 8)],
                    // Far-future batches within the entry cap whose
                    // payloads pass the byte cap.
                    _ => {
                        let count = self.rng.gen_range(2..4);
                        (0..count)
                            .map(|k| self.batch(2 * FAR + k, 1, CAP_BYTES / 2))
                            .collect()
                    }
                };
                for frame in frames {
                    self.sent.push((to, frame.clone()));
                    self.at(at, to, b, Input::Frame(frame));
                }
            }
        }

        /// Runs one seed to completion, checking every property on the
        /// way; returns the effect log.
        fn run(seed: u64) -> String {
            let mut net = Net::new(seed);
            for _ in 0..WAKES {
                let at = net.rng.gen_range(0..ROUNDS * DELTA);
                net.at(at, net.byz, net.byz, Input::Wake);
            }
            let byz = net.byz;
            for p in (0..N).filter(|&p| p != byz) {
                net.start_round(p);
            }
            while let Some(((now, _), (to, from, input))) = net.queue.pop_first() {
                net.now = now;
                if matches!(input, Input::Wake) {
                    net.wake();
                } else {
                    net.feed(to, from, input);
                }
            }
            for p in (0..N).filter(|&p| p != net.byz) {
                assert!(net.finished[p], "party {p} never finished");
            }
            for (&(p, id), &round) in &net.expect {
                assert_eq!(
                    net.delivered.get(&(p, id)),
                    Some(&round),
                    "party {p}: honest message {id} arrived within Δ of round {round}"
                );
            }
            net.log
        }

        /// The liveness properties, on every seed: nothing that arrives
        /// after its sender's `Bye` or cut-off is delivered; no message is
        /// delivered twice, and at most one batch per peer per round;
        /// early buffers stay within both caps; an honest message that
        /// arrives before its round is over at the receiver is delivered
        /// in that round, and no honest party is ever cut off; every round
        /// ends within `Δ`, and as soon as every live peer's batch for it
        /// is in; and a seed's effect log is the same on every run.
        #[test]
        fn seeded_packet_adversary_cannot_break_liveness() {
            let mut reasons = BTreeSet::new();
            for seed in 0..500 {
                let log = std::panic::catch_unwind(|| run(seed))
                    .unwrap_or_else(|_| panic!("seed {seed} failed the assertion above"));
                assert_eq!(log, run(seed), "seed {seed} is not reproducible");
                for reason in ["Eof", "Malformed", "Flood", "Stalled", "Closed"] {
                    if log.contains(&format!("reason: {reason} ")) {
                        reasons.insert(reason);
                    }
                }
            }
            // The adversary reached every way of being cut off.
            assert_eq!(reasons.len(), 5, "{reasons:?}");
        }
    }
}

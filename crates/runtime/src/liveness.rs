//! The TCP transport's liveness policy, as a state machine without I/O.
//!
//! [`Liveness`] decides, for one party, when a peer is gone, what is shed
//! and when a round ends. It keeps each peer's state, the round's
//! end-of-round markers, the buffer of messages that arrived early and its
//! cap, and the crash schedule. It does no I/O, spawns no thread and never
//! reads a clock: the shell in `party.rs` feeds it events (a decoded
//! frame, a lost stream, a failed write, the round's sends, the expiry of
//! `Δ`) and applies the [`Effect`]s it queues. `TcpParty::next_round` and
//! `run_async_party` drive the same core, so the rules live here alone and
//! are tested without sockets, down to a seeded packet adversary.

use std::collections::VecDeque;

use bytes::Bytes;
use ca_net::FaultEstimate;

use crate::{FaultPlan, Frame};

/// Why a peer was lost. Its [`Reason::as_str`] is the `PeerGone` trace
/// spelling; a lost stream carries `Eof` or `Malformed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reason {
    /// The stream ended without a `Bye`.
    Eof,
    /// The stream carried an oversized or undecodable frame.
    Malformed,
    /// The peer overfilled its early-message buffer.
    Flood,
    /// A write to the peer missed its `Δ` deadline, or its spill queue
    /// filled.
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

/// How a write to a peer failed.
#[derive(Debug)]
pub(crate) enum WriteFailure {
    /// The peer took too little for too long: its spill queue is full,
    /// or a batch missed its `Δ` deadline. `shed` frames are lost here.
    Stalled { shed: u64 },
    /// The link is closed.
    Closed,
}

/// What the core asks of the shell, in order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Hand `payload` from `from` to the protocol.
    Deliver { from: usize, payload: Bytes },
    /// Write `frames` to `to`, in one batch.
    Write { to: usize, frames: Vec<Frame> },
    /// Cut `peer` off: shut its socket, count and trace the outage.
    Disconnect { peer: usize, reason: Reason },
    /// `frames` were dropped: outbound to a peer that stalled, or inbound
    /// from one that flooded.
    Shed { frames: u64, outbound: bool },
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
    /// Highest end-of-round marker seen.
    eor: u64,
    /// Messages tagged with rounds not reached yet, in arrival order; at
    /// most `Liveness::cap` of them.
    early: Vec<(u64, Bytes)>,
}

/// One party's liveness state; see the module documentation.
pub(crate) struct Liveness {
    me: usize,
    round: u64,
    /// The current round ended on `Δ`.
    expired: bool,
    /// Event-driven: a message is delivered whatever its round tag, and
    /// the crash plan counts deliveries instead of rounds.
    unbarriered: bool,
    peers: Vec<Peer>,
    /// A peer with this many early messages waiting is flooding.
    cap: usize,
    plan: FaultPlan,
    delivered: u64,
    crashed: bool,
    effects: VecDeque<Effect>,
}

impl Liveness {
    /// Party `me` of `n`, in round 0, capping each peer's early messages
    /// at `cap`.
    pub(crate) fn new(n: usize, me: usize, cap: usize) -> Self {
        let mut peers: Vec<Peer> = (0..n)
            .map(|_| Peer {
                state: State::Live,
                eor: 0,
                early: Vec::new(),
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
            plan: FaultPlan::default(),
            delivered: 0,
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
    /// what arrived early for it.
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
            peer.early.retain(|(msg_round, payload)| {
                if *msg_round == round {
                    effects.push_back(Effect::Deliver {
                        from,
                        payload: payload.clone(),
                    });
                }
                *msg_round > round
            });
        }
    }

    /// The round's sends are ready: a send to this party is delivered at
    /// once, the rest go out as one batch per peer, the end-of-round
    /// marker last.
    pub(crate) fn send_round(&mut self, sends: impl IntoIterator<Item = (usize, Bytes)>) {
        if self.crashed {
            return;
        }
        let round = self.round;
        let mut batches: Vec<Vec<Frame>> = self.peers.iter().map(|_| Vec::new()).collect();
        for (to, payload) in sends {
            if to == self.me {
                self.deliver(to, payload);
            } else {
                batches[to].push(Frame::Msg { round, payload });
            }
        }
        for (to, mut frames) in batches.into_iter().enumerate() {
            if to != self.me && !matches!(self.peers[to].state, State::Gone(_)) {
                frames.push(Frame::Eor { round });
                self.effects.push_back(Effect::Write { to, frames });
            }
        }
    }

    /// Whether the round is over: every peer still waited on has sent
    /// its marker, or `Δ` expired.
    pub(crate) fn round_done(&self) -> bool {
        self.expired
            || self.crashed
            || self
                .peers
                .iter()
                .all(|peer| peer.state != State::Live || peer.eor >= self.round)
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
            Frame::Msg { .. } if peer.state != State::Live => {}
            Frame::Msg { round, payload } => {
                if self.unbarriered || (round == self.round && !self.expired) {
                    self.deliver(from, payload);
                } else if round > self.round {
                    self.file_early(from, round, payload);
                }
                // Late messages missed their Δ: dropped.
            }
            Frame::Eor { round } => peer.eor = peer.eor.max(round),
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

    /// A write to `to` failed. A peer that stalled is off the synchronous
    /// schedule, so the batch is shed and the peer cut off as suspected
    /// rather than letting its backlog grow; a closed link just means the
    /// peer is gone; either is no outage once the peer said `Bye`.
    pub(crate) fn on_write_failed(&mut self, to: usize, failure: WriteFailure) {
        if self.crashed || self.peers[to].state != State::Live {
            return;
        }
        match failure {
            WriteFailure::Stalled { shed } => {
                self.effects.push_back(Effect::Shed {
                    frames: shed,
                    outbound: true,
                });
                self.cut_off(to, Reason::Stalled);
            }
            WriteFailure::Closed => self.cut_off(to, Reason::Closed),
        }
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
        if self.unbarriered {
            self.delivered += 1;
            if self.plan.is_crash_round(self.delivered) {
                self.crash("crash:async");
                return;
            }
        }
        self.effects.push_back(Effect::Deliver { from, payload });
    }

    /// Buffers a message tagged with a round not reached yet. Honest
    /// peers run at most a round or two ahead; one with `cap` messages
    /// already waiting is flooding, so the message is shed, the peer cut
    /// off and its backlog freed.
    fn file_early(&mut self, from: usize, round: u64, payload: Bytes) {
        let early = &mut self.peers[from].early;
        if early.len() < self.cap {
            early.push((round, payload));
            return;
        }
        *early = Vec::new();
        self.effects.push_back(Effect::Shed {
            frames: 1,
            outbound: false,
        });
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
mod tests {
    use super::*;

    /// The early-message cap the tests run under.
    const CAP: usize = 8;

    fn msg(round: u64, tag: u8) -> Frame {
        Frame::Msg {
            round,
            payload: Bytes::from(vec![tag]),
        }
    }

    fn drain(core: &mut Liveness) -> Vec<Effect> {
        std::iter::from_fn(|| core.poll_effect()).collect()
    }

    /// Party 0 of `n`, in round 1 with nothing to send.
    fn in_round_one(n: usize) -> Liveness {
        let mut core = Liveness::new(n, 0, CAP);
        core.begin_round();
        core.send_round([]);
        drain(&mut core);
        core
    }

    /// A peer that tags well-formed frames with far-future rounds and
    /// never ends a round does not grow the early buffer past the cap:
    /// the next frame is shed, the flooder cut off as suspected and its
    /// backlog freed, and the round no longer waits on it.
    #[test]
    fn far_future_flood_is_bounded_and_drops_the_flooder() {
        let mut core = in_round_one(2);
        for k in 0..CAP as u64 {
            core.on_frame(1, msg((1 << 40) + k, 0xEE));
        }
        assert!(drain(&mut core).is_empty());
        assert_eq!(core.peers[1].early.len(), CAP);
        assert!(!core.round_done());
        core.on_frame(1, msg(1 << 41, 0xEE));
        assert_eq!(
            drain(&mut core),
            [
                Effect::Shed {
                    frames: 1,
                    outbound: false
                },
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
        core.on_frame(1, msg(1 << 42, 0xEE));
        assert!(drain(&mut core).is_empty());
    }

    /// Once a flooder is cut off, nothing of it is delivered again: not
    /// the next-round messages it had buffered, and not a well-formed
    /// message for the current round that it sends afterwards, although
    /// an honest peer keeps the round open.
    #[test]
    fn cut_off_flooder_is_never_delivered_again() {
        let mut core = in_round_one(3);
        for _ in 0..=CAP {
            core.on_frame(1, msg(2, 0xEE));
        }
        assert_eq!(core.silent().collect::<Vec<_>>(), [1]);
        core.on_frame(2, Frame::Eor { round: 1 });
        assert!(core.round_done());
        drain(&mut core);

        core.begin_round();
        core.send_round([]);
        core.on_frame(1, msg(2, 99));
        core.on_frame(2, msg(2, 7));
        let delivered: Vec<usize> = drain(&mut core)
            .into_iter()
            .filter_map(|effect| match effect {
                Effect::Deliver { from, .. } => Some(from),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [2]);
        assert!(!core.round_done());
    }

    /// A stream that ended is silence; one that carried garbage is active
    /// misbehaviour, and so is a peer that stopped reading. A closed link
    /// is silence.
    #[test]
    fn lost_streams_and_failed_writes_are_classified_by_cause() {
        let mut core = in_round_one(5);
        core.on_lost(1, Reason::Eof);
        core.on_lost(2, Reason::Malformed);
        core.on_write_failed(3, WriteFailure::Stalled { shed: 3 });
        core.on_write_failed(4, WriteFailure::Closed);
        let reasons: Vec<&str> = drain(&mut core)
            .into_iter()
            .filter_map(|effect| match effect {
                Effect::Disconnect { reason, .. } => Some(reason.as_str()),
                Effect::Shed { frames, outbound } => {
                    assert_eq!((frames, outbound), (3, true));
                    None
                }
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
        core.on_frame(1, msg(1, 5));
        core.on_write_failed(1, WriteFailure::Stalled { shed: 2 });
        core.on_lost(1, Reason::Eof);
        assert!(drain(&mut core).is_empty());
        assert_eq!(core.silent().collect::<Vec<_>>(), [1]);
        assert_eq!(core.fault_estimate().suspected, 0);
    }

    /// A message for a past round, or for the current one after `Δ`
    /// expired, is dropped; one for a later round waits for it.
    #[test]
    fn late_messages_are_dropped_and_early_ones_wait() {
        let mut core = in_round_one(2);
        core.on_timeout();
        assert!(core.round_done());
        core.on_frame(1, msg(1, 1));
        core.on_frame(1, msg(2, 2));
        core.on_frame(1, msg(0, 0));
        assert!(drain(&mut core).is_empty());
        core.begin_round();
        core.send_round([
            (0, Bytes::from_static(b"own")),
            (1, Bytes::from_static(b"x")),
        ]);
        assert!(!core.round_done());
        assert_eq!(
            drain(&mut core),
            [
                Effect::Deliver {
                    from: 1,
                    payload: Bytes::from(vec![2])
                },
                Effect::Deliver {
                    from: 0,
                    payload: Bytes::from_static(b"own")
                },
                Effect::Write {
                    to: 1,
                    frames: vec![
                        Frame::Msg {
                            round: 2,
                            payload: Bytes::from_static(b"x")
                        },
                        Frame::Eor { round: 2 }
                    ]
                },
            ]
        );
        core.on_frame(1, Frame::Eor { round: 2 });
        assert!(core.round_done());
    }

    /// The crash plan counts rounds on the synchronous path and delivered
    /// messages on the event-driven one; a crashed core does nothing.
    #[test]
    fn crash_plan_counts_rounds_or_deliveries() {
        let mut sync = Liveness::new(2, 0, CAP);
        sync.set_plan(FaultPlan::new().crash_at(2));
        sync.begin_round();
        assert!(!sync.crashed());
        drain(&mut sync);
        sync.begin_round();
        assert!(sync.crashed() && sync.round_done());
        assert_eq!(drain(&mut sync), [Effect::Crash { strategy: "crash" }]);
        sync.send_round([(1, Bytes::new())]);
        sync.on_frame(1, msg(2, 0));
        sync.on_lost(1, Reason::Eof);
        sync.begin_round();
        assert!(drain(&mut sync).is_empty());
        assert_eq!(sync.round(), 3);

        let mut unbarriered = Liveness::new(2, 0, CAP);
        unbarriered.set_plan(FaultPlan::new().crash_at(2));
        unbarriered.set_async();
        unbarriered.on_frame(1, msg(1 << 40, 1));
        unbarriered.on_frame(1, msg(0, 2));
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
        use super::CAP;

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
            WriteFailed(WriteFailure),
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
            eor: Vec<Vec<u64>>,
            expired: Vec<bool>,
            next_id: u64,
            /// (receiver, message) that arrived while the sender was not
            /// cut off.
            clean: BTreeSet<(usize, u64)>,
            /// Honest (receiver, message) → the round it must be
            /// delivered in.
            expect: BTreeMap<(usize, u64), u64>,
            delivered: BTreeMap<(usize, u64), u64>,
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
                        .map(|p| (p != byz).then(|| Liveness::new(N, p, CAP)))
                        .collect(),
                    started: vec![0; N],
                    finished: vec![false; N],
                    link_free: vec![vec![0; N]; N],
                    cut: vec![vec![false; N]; N],
                    eor: vec![vec![0; N]; N],
                    expired: vec![false; N],
                    next_id: 0,
                    clean: BTreeSet::new(),
                    expect: BTreeMap::new(),
                    delivered: BTreeMap::new(),
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

            fn payload(&mut self) -> Bytes {
                self.next_id += 1;
                Bytes::from(self.next_id.to_le_bytes().to_vec())
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
                        self.delivered.insert((p, id), round);
                    }
                    Effect::Write { to, frames } if to != self.byz => {
                        let at = self.arrival(p, to);
                        for frame in frames {
                            self.at(at, to, p, Input::Frame(frame));
                        }
                    }
                    Effect::Write { .. } | Effect::Shed { .. } => {}
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
                            Frame::Msg { round, payload } => {
                                let (id, now) = (id_of(payload), self.core(to).round());
                                if !self.cut[to][from] {
                                    self.clean.insert((to, id));
                                    let open = now < *round || (now == *round && !self.expired[to]);
                                    if from != self.byz && open {
                                        self.expect.insert((to, id), *round);
                                    }
                                }
                            }
                            Frame::Eor { round } => {
                                self.eor[to][from] = self.eor[to][from].max(*round);
                            }
                            Frame::Bye => self.cut[to][from] = true,
                            Frame::Hello { .. } => {}
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
                let buffered: Vec<usize> = core.peers.iter().map(|q| q.early.len()).collect();
                assert!(
                    buffered.iter().all(|&b| b <= CAP) && buffered.iter().sum::<usize>() <= CAP * N,
                    "party {p} buffers {buffered:?} early messages"
                );
                let round = core.round();
                let over = self.expired[p]
                    || (0..N).all(|q| q == p || self.cut[p][q] || self.eor[p][q] >= round);
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

            /// The byzantine party sends one thing to one honest party:
            /// anything that does not forge an honest sender.
            fn wake(&mut self) {
                let (b, at) = (self.byz, self.now + self.rng.gen_range(0..2 * DELTA));
                let to = (b + self.rng.gen_range(1..N)) % N;
                let round = self.core(to).round();
                let frame = match self.rng.gen_range(0..10u32) {
                    0..=2 => {
                        let tags = [round.saturating_sub(1), round, round + 1, round + 2, FAR];
                        Frame::Msg {
                            round: tags[self.rng.gen_range(0..tags.len())],
                            payload: self.payload(),
                        }
                    }
                    3 => {
                        let tags = [0, round.saturating_sub(1), round, round + 1, FAR, u64::MAX];
                        Frame::Eor {
                            round: tags[self.rng.gen_range(0..tags.len())],
                        }
                    }
                    4 if !self.sent.is_empty() => {
                        let (to, frame) = self.sent[self.rng.gen_range(0..self.sent.len())].clone();
                        return self.at(at, to, b, Input::Frame(frame));
                    }
                    4 | 5 => Frame::Bye,
                    6 => Frame::Hello {
                        from: self.rng.gen(),
                    },
                    7 => {
                        let cause = if self.rng.gen_bool(0.5) {
                            Reason::Eof
                        } else {
                            Reason::Malformed
                        };
                        return self.at(at, to, b, Input::Lost(cause));
                    }
                    8 => {
                        for k in 0..self.rng.gen_range(CAP as u64..4 * CAP as u64) {
                            let payload = self.payload();
                            let frame = Frame::Msg {
                                round: FAR + k,
                                payload,
                            };
                            self.at(at, to, b, Input::Frame(frame));
                        }
                        return;
                    }
                    _ => {
                        let failure = if self.rng.gen_bool(0.5) {
                            WriteFailure::Closed
                        } else {
                            WriteFailure::Stalled {
                                shed: self.rng.gen_range(1..4),
                            }
                        };
                        return self.at(at, to, b, Input::WriteFailed(failure));
                    }
                };
                self.sent.push((to, frame.clone()));
                self.at(at, to, b, Input::Frame(frame));
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
        /// after its sender's `Bye` or cut-off is delivered; early
        /// buffers stay within the cap; an honest message that arrives
        /// before its round is over at the receiver is delivered in that
        /// round, and no honest party is ever cut off; every round ends
        /// within `Δ`, and as soon as every live peer's marker is in; and
        /// a seed's effect log is the same on every run.
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

//! One TCP party: socket plumbing plus the `Comm` implementation.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ca_codec::{Decode, Writer};
use ca_net::{Comm, FaultEstimate, Inbox, PartyId};
use ca_trace::{Event as TraceEvent, NullSink, Record, TraceSink};

use crate::clock::{Clock, MonotonicClock};
use crate::frame::{validate_frame_len, LENGTH_PREFIX_LEN};
use crate::liveness::{Effect, Liveness, Reason};
use crate::stats::RuntimeStats;
use crate::{FaultPlan, Frame};

/// Errors from establishing or running a TCP party.
#[derive(Debug)]
pub enum RuntimeError {
    /// Socket-level failure during setup.
    Io(std::io::Error),
    /// The clique could not be completed within the 10 s establishment
    /// deadline, measured on the party's [`Clock`].
    EstablishTimeout {
        /// Peers still unconnected when the deadline fired.
        missing: Vec<usize>,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Io(e) => write!(f, "io error: {e}"),
            RuntimeError::EstablishTimeout { missing } => {
                write!(
                    f,
                    "clique establishment timed out; missing peers {missing:?}"
                )
            }
        }
    }
}

impl Error for RuntimeError {}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(e)
    }
}

/// Budget for establishing the whole clique, measured on the injected
/// [`Clock`]. Under a [`ManualClock`](crate::ManualClock) that never
/// advances, establishment never times out.
const ESTABLISH_DEADLINE: Duration = Duration::from_secs(10);

/// First dial-retry backoff; it doubles per retry up to
/// [`ESTABLISH_POLL`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);

/// Cap on any single blocking socket wait or dial backoff during
/// establishment, so the deadline is re-checked at least this often.
const ESTABLISH_POLL: Duration = Duration::from_millis(250);

/// Cap, per peer, on the batches buffered for rounds not reached yet.
const EARLY_BATCHES: usize = 4096;

/// Cap, per peer, on the bytes buffered for rounds not reached yet:
/// about four frames of the largest size.
const EARLY_BYTES: usize = 64 << 20;

/// Size of each peer's read buffer, and the payload size from which a
/// send goes out of its own `Bytes` instead of being copied in with the
/// frame headers around it.
const SOCKET_BUFFER: usize = 64 * 1024;

/// The longest the party blocks on one peer's socket before it sweeps
/// every peer again.
pub(crate) const SLICE: Duration = Duration::from_millis(1);

/// Cap, per peer, on the batches waiting to be written (one per round on
/// the sync path, one per message on the async path).
const WRITE_QUEUE: usize = 1024;

/// One frame's wire image, minus what is already written: the framing
/// and small payloads copied together, each large payload as its own
/// shared `Bytes`.
#[derive(Debug)]
struct Outbound {
    chunks: VecDeque<Bytes>,
}

impl Outbound {
    fn new(frame: &Frame) -> Self {
        let mut chunks = VecDeque::new();
        let mut small = Writer::new();
        frame.put_wire(&mut small, |small, payload| {
            if payload.len() >= SOCKET_BUFFER {
                chunks.push_back(Bytes::from(std::mem::take(small).into_vec()));
                chunks.push_back(payload.clone());
            } else {
                small.put_raw(payload);
            }
        });
        if !small.is_empty() {
            chunks.push_back(Bytes::from(small.into_vec()));
        }
        Self { chunks }
    }

    fn wire_len(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// Writes until the batch is out (`Ok(true)`) or a write comes back
    /// short or would block: the peer's buffers are full (`Ok(false)`).
    fn write_some(&mut self, mut socket: &TcpStream) -> io::Result<bool> {
        while let Some(chunk) = self.chunks.front_mut() {
            match socket.write(chunk) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) if k == chunk.len() => {
                    self.chunks.pop_front();
                }
                Ok(k) => {
                    *chunk = chunk.slice(k..);
                    return Ok(false);
                }
                Err(e) => match e.kind() {
                    io::ErrorKind::Interrupted => {}
                    io::ErrorKind::WouldBlock => return Ok(false),
                    _ => return Err(e),
                },
            }
        }
        Ok(true)
    }
}

/// One peer's inbound byte stream, cut into frames across as many
/// nonblocking reads as they take.
struct Assembler {
    /// Bytes read past the last whole frame, `buf[..filled]`: at most a
    /// partial length prefix once `next_body` returns `None`.
    buf: Box<[u8]>,
    filled: usize,
    /// The body being filled, at the length its prefix announced, and how
    /// many of its bytes are in.
    body: Option<(Vec<u8>, usize)>,
}

impl Assembler {
    #[expect(
        clippy::disallowed_methods,
        reason = "one socket buffer, a constant size"
    )]
    fn new() -> Self {
        Self {
            buf: vec![0; SOCKET_BUFFER].into_boxed_slice(),
            filled: 0,
            body: None,
        }
    }

    /// Reads once from `stream` (a peer's socket): straight into the body
    /// when nothing is buffered ahead of it and a buffer's worth or more of
    /// it is missing, else into the buffer. `Ok(0)` is the end of the
    /// stream.
    fn read_from(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        match &mut self.body {
            Some((body, got)) if self.filled == 0 && body.len() - *got >= self.buf.len() => {
                let k = stream.read(&mut body[*got..])?;
                *got += k;
                Ok(k)
            }
            _ => {
                let k = stream.read(&mut self.buf[self.filled..])?;
                self.filled += k;
                Ok(k)
            }
        }
    }

    /// The next whole frame body read so far. The length prefix is
    /// validated before the body is allocated, so a peer announcing 4 GiB
    /// is cut off without costing anything.
    fn next_body(&mut self) -> Result<Option<Bytes>, Reason> {
        let mut used = 0;
        if self.body.is_none() && self.filled >= LENGTH_PREFIX_LEN {
            let mut prefix = [0u8; LENGTH_PREFIX_LEN];
            prefix.copy_from_slice(&self.buf[..LENGTH_PREFIX_LEN]);
            let len =
                validate_frame_len(u32::from_be_bytes(prefix)).map_err(|_| Reason::Malformed)?;
            (used, self.body) = (LENGTH_PREFIX_LEN, Some((len.zeroed(), 0)));
        }
        let Some((body, got)) = &mut self.body else {
            return Ok(None);
        };
        let k = (self.filled - used).min(body.len() - *got);
        body[*got..*got + k].copy_from_slice(&self.buf[used..used + k]);
        *got += k;
        self.buf.copy_within(used + k..self.filled, 0);
        self.filled -= used + k;
        if *got < body.len() {
            return Ok(None);
        }
        // The body becomes the backing store of the delivered payloads:
        // `Bytes::from` adopts it and the shared decode slices it.
        Ok(self.body.take().map(|(body, _)| Bytes::from(body)))
    }
}

/// This party's end of one peer's connection.
struct Link {
    /// The socket: nonblocking, but for the [`SLICE`]s the party waits on
    /// it.
    socket: TcpStream,
    /// Batches not yet written in full, oldest first: the head may be
    /// part written, and the rest wait behind it, so the peer reads every
    /// frame in send order.
    unwritten: VecDeque<Outbound>,
    /// When the head must be out, in real time: `Δ` after its first write
    /// that came back short.
    due: Option<Duration>,
    /// What has been read of the peer's stream; `None` once the peer
    /// said `Bye` or its stream was lost.
    inbound: Option<Assembler>,
}

/// A fully connected TCP party implementing [`Comm`].
///
/// Create one per process with [`TcpParty::establish`], then hand it to
/// protocol code. `next_round` writes each peer one frame holding the
/// round's sends to it, which is also its end-of-round marker, then reads
/// its peers' sockets itself until every live peer's frame for the round
/// arrives or `Δ` elapses. A write never blocks: what a full socket does
/// not take waits in that peer's queue, and the party writes it out
/// whenever it reads, so a peer that stops reading delays no other peer.
/// The party starts no thread.
///
/// # Crash tolerance
///
/// The party owns the sockets; who is gone, what is shed and
/// when a round ends is decided by its liveness core (`crate::liveness`).
/// A peer whose stream ends without `Bye` or carries a malformed frame,
/// that stops reading, or that floods the early-batch buffer is *gone*:
/// never waited on or delivered from again, and its socket is shut down.
/// To the protocol it is silent-byzantine, which the model tolerates for
/// up to `t` parties. A `Bye` also stops the waiting but is no outage, so
/// fault-free runs report zero gone peers. [`TcpParty::set_fault_plan`]
/// scripts this party's own crash for tests; [`TcpParty::stats`] exposes
/// what the transport absorbed.
pub struct TcpParty {
    n: usize,
    t: usize,
    me: PartyId,
    delta: Duration,
    pending: Vec<(PartyId, Bytes)>,
    scopes: Vec<String>,
    /// Per peer, its connection; taken when the peer is cut off or this
    /// party crashes.
    links: Vec<Option<Link>>,
    /// The peer bytes last arrived from.
    recent: usize,
    /// Time source for the Δ deadline, and the async driver's only one;
    /// injectable for tests.
    pub(crate) clock: Box<dyn Clock>,
    /// Real time for the write deadlines, which, like an OS socket timer,
    /// do not follow the injected clock.
    wall: MonotonicClock,
    /// The liveness policy, which both drivers feed.
    pub(crate) core: Liveness,
    stats: RuntimeStats,
    /// Trace destination ([`NullSink`] unless [`TcpParty::set_trace`]).
    sink: Arc<dyn TraceSink>,
}

impl TcpParty {
    /// Binds `addrs[me]`, connects to all peers, and returns a ready
    /// transport. Every party must call this with the same address list;
    /// the function blocks until the clique is established or its 10 s
    /// deadline expires.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] if sockets cannot be bound,
    /// [`RuntimeError::EstablishTimeout`] if some peer never came up.
    pub fn establish(
        me: PartyId,
        addrs: &[SocketAddr],
        delta: Duration,
    ) -> Result<Self, RuntimeError> {
        Self::establish_with(me, addrs, delta, Box::new(MonotonicClock::default()))
    }

    /// [`TcpParty::establish`] with an explicit time source for the
    /// establishment deadline and Δ (tests drive both with a
    /// [`ManualClock`](crate::ManualClock)).
    ///
    /// # Errors
    ///
    /// As for [`TcpParty::establish`].
    pub fn establish_with(
        me: PartyId,
        addrs: &[SocketAddr],
        delta: Duration,
        clock: Box<dyn Clock>,
    ) -> Result<Self, RuntimeError> {
        let n = addrs.len();
        let t = ca_net::max_faults(n);
        let mut stats = RuntimeStats::default();
        let mut links: Vec<Option<Link>> = (0..n).map(|_| None).collect();
        for (peer, socket) in establish_clique(me, addrs, &*clock, &mut stats)? {
            socket.set_nonblocking(true)?;
            links[peer] = Some(Link {
                socket,
                unwritten: VecDeque::new(),
                due: None,
                inbound: Some(Assembler::new()),
            });
        }
        Ok(Self {
            n,
            t,
            me,
            delta,
            pending: Vec::new(),
            scopes: Vec::new(),
            links,
            recent: 0,
            clock,
            wall: MonotonicClock::default(),
            core: Liveness::new(n, me.index(), EARLY_BATCHES, EARLY_BYTES),
            stats,
            sink: Arc::new(NullSink),
        })
    }

    /// Attaches a trace sink. Unlike the simulator (which interleaves all
    /// parties into one stream), a TCP party records only its own
    /// timeline; pair one [`ca_trace::JsonlSink`] per party (see
    /// `TcpCluster::with_trace_dir`).
    pub fn set_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Installs a scripted crash for this party (tests and chaos
    /// experiments). Takes effect from the next round.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.core.set_plan(plan);
    }

    /// Snapshot of this party's transport counters.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Rounds completed so far (the round number of the last
    /// `next_round` call).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.core.round()
    }

    fn emit(&self, event: TraceEvent) {
        self.sink.record(&Record {
            party: Some(self.me.index() as u64),
            round: self.core.round(),
            scope: ca_net::step::scope_path(&self.scopes),
            event,
        });
    }

    /// Sweeps (see [`TcpParty::sweep`]) until something changes, and while
    /// nothing does and `budget` lasts, waits at most [`SLICE`] for bytes
    /// between sweeps. Returns whether bytes arrived, a stream ended or a
    /// link was cut; `false` at once when no peer is read from any more.
    pub(crate) fn pump(&mut self, budget: Duration) -> bool {
        let deadline = self.clock.now().saturating_add(budget);
        loop {
            if self.sweep() {
                return true;
            }
            if !(0..self.n).any(|peer| self.readable(peer)) {
                return false;
            }
            let Some(left) = remaining_budget(deadline, &*self.clock) else {
                return false;
            };
            if self.wait(left.min(SLICE)) {
                return true;
            }
        }
    }

    /// Writes what every peer's socket takes of its queue, then reads once
    /// from every peer still read from, without blocking. Returns whether
    /// bytes arrived, a stream ended or a link was cut.
    fn sweep(&mut self) -> bool {
        let mut changed = false;
        for peer in 0..self.n {
            changed |= self.flush(peer);
        }
        for peer in 0..self.n {
            changed |= self.read(peer, None);
        }
        changed
    }

    /// Blocks for at most `wait` on one peer's socket: the first the round
    /// waits for, else the last heard from, else any still read from; with
    /// none, just sleeps. Returns whether bytes arrived or a stream ended.
    fn wait(&mut self, wait: Duration) -> bool {
        let peer = (self.core.awaited())
            .chain([self.recent])
            .chain(0..self.n)
            .find(|&p| self.readable(p));
        match peer {
            Some(peer) => self.read(peer, Some(wait)),
            None => {
                std::thread::sleep(wait);
                false
            }
        }
    }

    fn readable(&self, peer: usize) -> bool {
        self.links[peer]
            .as_ref()
            .is_some_and(|link| link.inbound.is_some())
    }

    /// One read from `peer`, waiting up to `wait`; the frames it completes
    /// go to the core. Returns whether bytes arrived or the stream ended.
    fn read(&mut self, peer: usize, wait: Option<Duration>) -> bool {
        let Some(Link {
            socket,
            inbound: Some(inbound),
            ..
        }) = &mut self.links[peer]
        else {
            return false;
        };
        let read = match wait {
            None => inbound.read_from(socket),
            Some(wait) => socket
                .set_read_timeout(Some(wait))
                .and_then(|()| socket.set_nonblocking(false))
                .and_then(|()| {
                    let read = inbound.read_from(socket);
                    socket.set_nonblocking(true)?;
                    read
                }),
        };
        let lost = match read {
            Ok(0) => Some(Reason::Eof),
            Ok(_) => {
                self.recent = peer;
                loop {
                    let frame = match inbound.next_body() {
                        Ok(Some(body)) => Frame::decode_from_bytes(&body),
                        Ok(None) => return true,
                        Err(cause) => break Some(cause),
                    };
                    let Ok(frame) = frame else {
                        break Some(Reason::Malformed);
                    };
                    let bye = frame == Frame::Bye;
                    self.core.on_frame(peer, frame);
                    if bye {
                        break None;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return false;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => return false,
            Err(_) => Some(Reason::Eof),
        };
        // Nothing more is read after a `Bye` or a lost stream.
        if let Some(link) = &mut self.links[peer] {
            link.inbound = None;
        }
        if let Some(cause) = lost {
            self.core.on_lost(peer, cause);
        }
        true
    }

    /// Applies the core's effects up to the next delivery, and returns it.
    pub(crate) fn next_delivery(&mut self) -> Option<(usize, Bytes)> {
        while let Some(effect) = self.core.poll_effect() {
            match effect {
                Effect::Deliver { from, payload } => return Some((from, payload)),
                Effect::Write { to, frame } => self.send_batch(to, Outbound::new(&frame)),
                Effect::Disconnect { peer, reason } => {
                    self.close(peer);
                    if reason == Reason::Stalled {
                        self.stats.overflow_disconnects += 1;
                    }
                    self.stats.peers_gone += 1;
                    if self.sink.enabled() {
                        self.emit(TraceEvent::PeerGone {
                            peer: peer as u64,
                            reason: reason.as_str().to_owned(),
                        });
                    }
                }
                Effect::Shed => self.stats.frames_shed += 1,
                // No `Bye`: this models a process kill, not a graceful exit.
                Effect::Crash { strategy } => {
                    if self.sink.enabled() {
                        self.emit(TraceEvent::FaultInjected {
                            strategy: strategy.to_owned(),
                        });
                    }
                    self.pending.clear();
                    self.close_links();
                }
            }
        }
        None
    }

    /// Queues `batch` for `to` behind what is already queued, counted as
    /// sent, and writes what the socket takes; skipped if `to` has no link.
    fn send_batch(&mut self, to: usize, batch: Outbound) {
        let Some(link) = self.links[to].as_mut() else {
            return;
        };
        self.stats.frames_sent += 1;
        self.stats.wire_bytes_sent += batch.wire_len();
        link.unwritten.push_back(batch);
        self.flush(to);
    }

    /// Writes what `peer`'s socket takes of its queue. A head batch not
    /// out within `Δ` of its first short write, or a queue past
    /// [`WRITE_QUEUE`], means the peer is off the synchronous schedule: the
    /// batch and those behind it are shed and the peer goes to the core as
    /// `Stalled`. Any other failed write goes as `Closed`. Either closes
    /// the link; returns whether it did.
    fn flush(&mut self, peer: usize) -> bool {
        let Some(link) = self.links[peer].as_mut() else {
            return false;
        };
        let failure = loop {
            let Some(head) = link.unwritten.front_mut() else {
                return false;
            };
            match head.write_some(&link.socket) {
                Ok(true) => {
                    link.unwritten.pop_front();
                    link.due = None;
                }
                Ok(false) => {
                    let now = self.wall.now();
                    let due = *link.due.get_or_insert(now.saturating_add(self.delta));
                    if now < due && link.unwritten.len() <= WRITE_QUEUE {
                        return false;
                    }
                    // The core sheds the head; those behind it are shed here.
                    self.stats.frames_shed += link.unwritten.len() as u64 - 1;
                    break Reason::Stalled;
                }
                Err(_) => break Reason::Closed,
            }
        };
        self.close(peer);
        self.core.on_write_failed(peer, failure);
        true
    }

    /// Shuts `peer`'s socket down both ways and drops the link with what
    /// is queued for it, so nothing more of it is written or read.
    fn close(&mut self, peer: usize) {
        if let Some(link) = self.links[peer].take() {
            let _ = link.socket.shutdown(Shutdown::Both);
        }
    }

    /// Drops every link with what is still queued for it, counted as shed,
    /// and shuts its write side down: peers read what their sockets took,
    /// then EOF.
    fn close_links(&mut self) {
        for link in self.links.iter_mut().filter_map(Option::take) {
            self.stats.frames_shed += link.unwritten.len() as u64;
            let _ = link.socket.shutdown(Shutdown::Write);
        }
    }
}

impl Comm for TcpParty {
    fn n(&self) -> usize {
        self.n
    }

    fn t(&self) -> usize {
        self.t
    }

    fn me(&self) -> PartyId {
        self.me
    }

    fn send_bytes(&mut self, to: PartyId, payload: Bytes) {
        assert!(to.index() < self.n, "send to nonexistent {to}");
        self.pending.push((to, payload));
    }

    fn next_round(&mut self) -> Inbox {
        // A crashed party neither sends nor observes anything; calls keep
        // returning empty so driver loops above stay simple.
        let tracing = self.sink.enabled() && !self.core.crashed();
        // What the sockets did not take of earlier rounds goes first.
        for peer in 0..self.n {
            self.flush(peer);
        }
        self.core.begin_round();
        if tracing {
            self.emit(TraceEvent::RoundStart);
        }
        let sends = std::mem::take(&mut self.pending);
        if tracing && !self.core.crashed() {
            for (to, payload) in sends.iter().filter(|(to, _)| *to != self.me) {
                self.emit(TraceEvent::Send {
                    to: to.index() as u64,
                    bytes: payload.len() as u64,
                });
            }
        }
        self.core
            .send_round(sends.into_iter().map(|(to, payload)| (to.index(), payload)));

        // Deliver, write, and wait for every live peer's marker, at most Δ.
        let mut inbox = Inbox::with_parties(self.n);
        let deadline = self.clock.now().saturating_add(self.delta);
        loop {
            while let Some((from, payload)) = self.next_delivery() {
                inbox.push(PartyId(from), payload);
            }
            if self.core.round_done() {
                break;
            }
            match remaining_budget(deadline, &*self.clock) {
                Some(budget) if self.pump(budget) => {}
                _ => self.core.on_timeout(),
            }
        }
        if tracing {
            for from in 0..self.n {
                for raw in inbox.raw_from(PartyId(from)) {
                    self.emit(TraceEvent::Deliver {
                        from: from as u64,
                        bytes: raw.len() as u64,
                    });
                }
            }
            self.emit(TraceEvent::RoundEnd);
        }
        inbox
    }

    fn push_scope(&mut self, name: &str) {
        self.scopes.push(name.to_owned());
        if self.sink.enabled() {
            self.emit(TraceEvent::ScopeEnter {
                name: name.to_owned(),
            });
        }
    }

    fn pop_scope(&mut self) {
        assert!(
            self.pending.is_empty(),
            "{} send(s) still pending at the exit of scope {}",
            self.pending.len(),
            ca_net::step::scope_path(&self.scopes)
        );
        let popped = self.scopes.pop();
        if self.sink.enabled() {
            if let Some(name) = popped {
                self.emit(TraceEvent::ScopeExit { name });
            }
        }
    }

    fn silent_parties(&self) -> Vec<PartyId> {
        self.core.silent().map(PartyId).collect()
    }

    fn fault_estimate(&self) -> FaultEstimate {
        self.core.fault_estimate()
    }

    fn trace_enabled(&self) -> bool {
        self.sink.enabled()
    }

    fn trace(&mut self, event: ca_trace::Event) {
        if self.sink.enabled() {
            self.emit(event);
        }
    }
}

impl Drop for TcpParty {
    fn drop(&mut self) {
        // A crashed party has no links left. The rest say `Bye` behind
        // everything already queued, then sweep until every queue is out
        // or cut off on its deadline, so peers read every frame, the `Bye`,
        // then EOF. The sweeps also take the peers' own `Bye`s, so fewer
        // sockets close unread.
        for link in self.links.iter_mut().flatten() {
            link.unwritten.push_back(Outbound::new(&Frame::Bye));
        }
        loop {
            let changed = self.sweep();
            while self.next_delivery().is_some() {}
            if self.links.iter().flatten().all(|l| l.unwritten.is_empty()) {
                break;
            }
            if !changed {
                self.wait(SLICE);
            }
        }
        self.close_links();
        self.sink.flush();
    }
}

/// Establishes one TCP stream per peer: lower-indexed parties accept,
/// higher-indexed parties dial (so each pair has exactly one stream).
///
/// Hardened against a hostile or flaky network: dials retry with bounded
/// exponential backoff under an overall deadline, and the accept loop
/// drops (rather than aborts on) connections with malformed, impersonated,
/// or duplicate handshakes — a port scanner cannot consume a peer's slot.
fn establish_clique(
    me: PartyId,
    addrs: &[SocketAddr],
    clock: &dyn Clock,
    stats: &mut RuntimeStats,
) -> Result<Vec<(usize, TcpStream)>, RuntimeError> {
    let n = addrs.len();
    let listener = TcpListener::bind(addrs[me.index()])?;
    let deadline = clock.now().saturating_add(ESTABLISH_DEADLINE);
    #[expect(clippy::disallowed_methods, reason = "one stream per configured peer")]
    let mut streams: Vec<(usize, TcpStream)> = Vec::with_capacity(n.saturating_sub(1));

    // Dial everyone below us, retrying with backoff while they come up.
    for (peer, addr) in addrs.iter().enumerate().take(me.index()) {
        let mut backoff = INITIAL_BACKOFF;
        let mut stream = loop {
            let Some(remaining) = remaining_budget(deadline, clock) else {
                return Err(RuntimeError::EstablishTimeout {
                    missing: vec![peer],
                });
            };
            match TcpStream::connect_timeout(addr, remaining.min(ESTABLISH_POLL)) {
                Ok(s) => break s,
                Err(_) => {
                    stats.dial_retries += 1;
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2).min(ESTABLISH_POLL);
                }
            }
        };
        stream.set_nodelay(true).ok();
        let hello = Frame::Hello {
            from: me.index() as u32,
        };
        hello.write_to(&mut stream)?;
        streams.push((peer, stream));
    }

    // Accept everyone above us, dropping strays until the deadline. `std`
    // has no accept with a deadline, so the listener is polled.
    listener.set_nonblocking(true)?;
    let expected = n - me.index() - 1;
    #[expect(clippy::disallowed_methods, reason = "one flag per party")]
    let mut taken = vec![false; n];
    let mut accepted = 0usize;
    while accepted < expected {
        let Some(remaining) = remaining_budget(deadline, clock) else {
            let missing: Vec<usize> = (me.index() + 1..n).filter(|&p| !taken[p]).collect();
            return Err(RuntimeError::EstablishTimeout { missing });
        };
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        stream.set_nodelay(true).ok();
        // A connection that never completes its handshake must not block
        // the accept loop: the hello is read blocking (an accepted socket
        // can inherit the listener's nonblocking mode) under a timeout,
        // and rejected when it expires.
        stream.set_nonblocking(false)?;
        stream
            .set_read_timeout(Some(remaining.min(ESTABLISH_POLL)))
            .ok();
        match read_hello(&mut stream) {
            // The accept side only ever hears from higher-indexed
            // parties (they dial us), so a hello claiming our own index
            // or lower is an impersonation attempt; a repeated index is
            // a duplicate. Both are dropped, never trusted.
            Some(from) if from > me.index() && from < n && !taken[from] => {
                taken[from] = true;
                streams.push((from, stream));
                accepted += 1;
            }
            _ => {
                stats.handshake_rejects += 1;
                // Drop the stray and keep accepting.
            }
        }
    }

    Ok(streams)
}

/// Time left before `deadline`, or `None` when it has passed.
fn remaining_budget(deadline: Duration, clock: &dyn Clock) -> Option<Duration> {
    deadline.checked_sub(clock.now()).filter(|d| !d.is_zero())
}

/// Reads and decodes one handshake frame; `None` on anything malformed.
fn read_hello(stream: &mut TcpStream) -> Option<usize> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).ok()?;
    // Validate the claimed length BEFORE sizing the buffer, same as the
    // round-frame reader — a stray connection gets no allocation budget.
    let len = crate::frame::validate_hello_len(u32::from_be_bytes(len_buf)).ok()?;
    let mut body = len.zeroed();
    stream.read_exact(&mut body).ok()?;
    match Frame::decode_from_slice(&body) {
        Ok(Frame::Hello { from }) => Some(from as usize),
        _ => None,
    }
}

#[cfg(test)]
impl TcpParty {
    /// The length and the bytes in of the frame body being assembled
    /// from `peer`, if any.
    pub(crate) fn partial_frame(&self, peer: usize) -> Option<(usize, usize)> {
        let inbound = self.links[peer].as_ref()?.inbound.as_ref()?;
        let (body, got) = inbound.body.as_ref()?;
        Some((body.capacity(), *got))
    }

    /// The wire bytes queued for `peer` and not written yet.
    pub(crate) fn unwritten(&self, peer: usize) -> u64 {
        self.links[peer].as_ref().map_or(0, |link| {
            link.unwritten.iter().map(Outbound::wire_len).sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame's chunks are exactly its wire image, none of them empty,
    /// and a large payload is its own chunk, still the caller's
    /// allocation.
    #[test]
    fn outbound_chunks_are_the_wire_image() {
        let small = Bytes::from(vec![0xA5; 100]);
        let large = Bytes::from(vec![0x5A; SOCKET_BUFFER]);
        let round = |msgs: &[&Bytes]| Frame::Round {
            round: 3,
            msgs: msgs.iter().map(|&msg| msg.clone()).collect(),
        };
        for frame in [
            round(&[&large]),
            round(&[&small, &large, &small]),
            round(&[]),
            Frame::Bye,
        ] {
            let batch = Outbound::new(&frame);
            let mut wire = Vec::new();
            frame.write_to(&mut wire).unwrap();
            let chunks: Vec<u8> = batch.chunks.iter().flat_map(|c| c.to_vec()).collect();
            assert_eq!(chunks, wire);
            assert_eq!(batch.wire_len(), frame.wire_len() as u64);
            assert!(batch.chunks.iter().all(|c| !c.is_empty()));
            let shares = |c: &Bytes| c.as_ptr() == large.as_ptr() && c.len() == large.len();
            let large_sent = matches!(&frame, Frame::Round { msgs, .. } if msgs.contains(&large));
            assert_eq!(batch.chunks.iter().any(shares), large_sent);
        }
    }

    /// Feeds `chunks` to `assembler` in order, each through as many reads
    /// as it takes, and returns the frame bodies they complete.
    fn assemble(assembler: &mut Assembler, chunks: &[&[u8]]) -> Result<Vec<Vec<u8>>, Reason> {
        let mut bodies = Vec::new();
        for mut chunk in chunks.iter().copied() {
            while !chunk.is_empty() {
                assembler.read_from(&mut chunk).unwrap();
                while let Some(body) = assembler.next_body()? {
                    bodies.push(body.to_vec());
                }
            }
        }
        Ok(bodies)
    }

    /// Without a socket: a round frame, alone or followed by another, is
    /// assembled whole wherever the stream is cut; a length prefix over
    /// the wire limit is malformed before a body is allocated; a truncated
    /// body waits, held at exactly its announced length.
    #[test]
    fn the_assembler_cuts_frames_wherever_the_stream_splits() {
        use crate::frame::MAX_WIRE_FRAME_LEN;
        use ca_codec::Encode;
        let msgs = vec![
            Bytes::from(vec![0xA5; 300]),
            Bytes::new(),
            Bytes::from_static(b"abc"),
        ];
        let frames = [
            Frame::Round { round: 7, msgs },
            Frame::Round {
                round: 8,
                msgs: vec![Bytes::from_static(b"next")],
            },
        ];
        for frames in [&frames[..1], &frames[..]] {
            let mut wire = Vec::new();
            frames.iter().for_each(|f| f.write_to(&mut wire).unwrap());
            let bodies: Vec<Vec<u8>> = frames.iter().map(Encode::encode_to_vec).collect();
            for cut in 1..wire.len() {
                let (head, tail) = wire.split_at(cut);
                let got = assemble(&mut Assembler::new(), &[head, tail]);
                assert_eq!(got, Ok(bodies.clone()), "cut at {cut}");
            }
        }

        for len in [MAX_WIRE_FRAME_LEN as u32 + 1, u32::MAX] {
            let mut assembler = Assembler::new();
            let got = assemble(&mut assembler, &[&len.to_be_bytes(), b"body"]);
            assert_eq!(got, Err(Reason::Malformed), "length {len}");
            assert!(assembler.body.is_none(), "a {len}-byte body was allocated");
        }

        let mut wire = Vec::new();
        frames[0].write_to(&mut wire).unwrap();
        let announced = wire.len() - LENGTH_PREFIX_LEN;
        let mut assembler = Assembler::new();
        let got = assemble(&mut assembler, &[&wire[..wire.len() - 1]]);
        assert_eq!(got, Ok(vec![]));
        let (body, got) = assembler.body.as_ref().expect("the body is being filled");
        assert_eq!(
            (body.len(), body.capacity(), *got),
            (announced, announced, announced - 1)
        );
    }

    /// A peer flooding max-size frames tagged with rounds not reached
    /// yet makes the party hold at most [`EARLY_BYTES`] plus one frame:
    /// its early buffer fills, the frame that would overfill it is shed,
    /// and the peer is cut off, which ends its connection and the flood.
    #[test]
    fn a_flooder_s_held_bytes_are_capped() {
        use crate::frame::MAX_WIRE_FRAME_LEN;
        let addr0 = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let flooder = std::thread::spawn(move || {
            let mut stream = loop {
                match TcpStream::connect(addr0) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            Frame::Hello { from: 1 }.write_to(&mut stream).unwrap();
            let payload = Bytes::from(vec![0xEE; MAX_WIRE_FRAME_LEN - 64]);
            (1..=12).all(|round| {
                let msgs = vec![payload.clone()];
                Frame::Round { round, msgs }.write_to(&mut stream).is_ok()
            })
        });
        let addrs = [addr0, "127.0.0.1:9".parse().unwrap()];
        let mut party = TcpParty::establish(PartyId(0), &addrs, Duration::from_secs(30)).unwrap();
        // The party stays in round 0, so every frame is early. Each read
        // completes at most one frame, so looking after every pump sees
        // the most the party held.
        let clock = MonotonicClock::default();
        let mut peak = 0;
        while party.links[1].is_some() && clock.now() < Duration::from_secs(20) {
            party.pump(Duration::from_millis(10));
            while party.next_delivery().is_some() {}
            let partial = party.partial_frame(1).map_or(0, |(len, _)| len);
            peak = peak.max(party.core.early_bytes(1) + partial);
        }
        assert!(
            peak + MAX_WIRE_FRAME_LEN > EARLY_BYTES,
            "the early buffer filled: {peak}"
        );
        assert!(
            peak <= EARLY_BYTES + MAX_WIRE_FRAME_LEN,
            "{peak} bytes held"
        );
        assert_eq!(party.silent_parties(), [PartyId(1)]);
        let stats = party.stats();
        assert_eq!((stats.frames_shed, stats.peers_gone), (1, 1), "{stats:?}");
        assert!(!flooder.join().unwrap(), "the flood stopped at the cap");
    }
}

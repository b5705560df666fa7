//! One TCP party: socket plumbing plus the `Comm` implementation.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use bytes::Bytes;
use ca_codec::{Decode, Writer};
use ca_net::{Comm, FaultEstimate, Inbox, PartyId};
use ca_trace::{Event as TraceEvent, NullSink, Record, TraceSink};

use crate::clock::{Clock, MonotonicClock};
use crate::liveness::{Effect, Liveness, Reason};
use crate::stats::{RuntimeStats, StatsInner};
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

/// Capacity of the inbound event queue shared by all reader threads. A
/// reader whose event does not fit waits, which back-pressures its peer's
/// socket; nothing inbound is shed here. The same number caps the batches
/// buffered per peer for rounds not yet reached.
const EVENT_QUEUE: usize = 4096;

/// Cap, per peer, on the bytes buffered for rounds not yet reached, and
/// on the bytes of its frames waiting in the event queue (see [`Inflow`]):
/// about four frames of the largest size.
const EARLY_BYTES: usize = 64 << 20;

/// Size of each peer's receive buffer, and the payload size from which a
/// send goes out of its own `Bytes` instead of being copied in with the
/// frame headers around it.
const SOCKET_BUFFER: usize = 64 * 1024;

/// Write timeout on every socket: the longest the protocol thread blocks
/// on one peer's full socket before the rest of the batch goes to that
/// peer's spill thread.
const WRITE_POLL: Duration = Duration::from_millis(1);

/// Capacity of each spill thread's queue, in batches (one per round on
/// the sync path, one per message on the async path).
const SPILL_QUEUE: usize = 1024;

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
    /// short, which on a blocking socket means its write timeout fired:
    /// the peer's buffers are full (`Ok(false)`).
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
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => return Ok(false),
                    _ => return Err(e),
                },
            }
        }
        Ok(true)
    }
}

/// The protocol thread's end of one peer's connection.
struct Link {
    /// The socket, under the [`WRITE_POLL`] write timeout.
    socket: TcpStream,
    /// The peer's spill thread, started the first time a write to the
    /// peer came back short.
    spill: Option<Spill>,
    /// What the peer's reader has queued; shared with it.
    inflow: Arc<Inflow>,
}

impl Link {
    /// Shuts the socket down both ways and stops the peer's reader, so
    /// its reader and spill threads exit.
    fn close(&self) {
        self.inflow.stop();
        let _ = self.socket.shutdown(Shutdown::Both);
    }
}

/// One peer's frames in the event queue, counted in the bytes they hold
/// ([`queued_size`]) until the protocol thread takes them.
/// Before queueing a frame that would take the count past
/// [`EARLY_BYTES`], the peer's reader waits, unless none of its frames is
/// queued; so one peer holds at most `EARLY_BYTES` plus one frame there.
#[derive(Debug, Default)]
struct Inflow {
    state: Mutex<Queued>,
    /// Signalled when bytes are taken or the reader is stopped.
    changed: Condvar,
}

#[derive(Debug, Default)]
struct Queued {
    bytes: usize,
    /// The reader is to stop: its peer was cut off, or the party is gone.
    stopped: bool,
}

impl Inflow {
    /// Every update is one assignment, so a poisoned guard still holds
    /// a valid count.
    fn lock(&self) -> MutexGuard<'_, Queued> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts `size` more queued bytes once they fit, or returns `false`
    /// if the reader is to stop.
    fn reserve(&self, size: usize) -> bool {
        let mut queued = self.lock();
        while !queued.stopped && queued.bytes > 0 && queued.bytes + size > EARLY_BYTES {
            queued = self
                .changed
                .wait(queued)
                .unwrap_or_else(PoisonError::into_inner);
        }
        queued.bytes += size;
        !queued.stopped
    }

    /// The protocol thread took `size` of the queued bytes.
    fn release(&self, size: usize) {
        self.lock().bytes -= size;
        self.changed.notify_one();
    }

    /// Tells the reader to stop at its next frame, or now if it waits.
    fn stop(&self) {
        self.lock().stopped = true;
        self.changed.notify_one();
    }
}

/// Bytes a frame holds while queued: its wire image plus one handle per
/// message.
fn queued_size(frame: &Frame) -> usize {
    let handles = match frame {
        Frame::Round { msgs, .. } => msgs.len(),
        Frame::Hello { .. } | Frame::Bye => 0,
    };
    frame.wire_len() + handles * std::mem::size_of::<Bytes>()
}

/// A thread that finishes writing what a peer's socket did not take at
/// once, so that a peer that reads slowly or not at all blocks only it.
struct Spill {
    /// Bounded by [`SPILL_QUEUE`].
    tx: mpsc::SyncSender<Outbound>,
    /// Batches handed over and not yet written. While there are any,
    /// later batches queue behind them, so the peer reads them in order.
    unwritten: Arc<AtomicUsize>,
    /// Returns whether it stopped because a batch missed its deadline.
    thread: std::thread::JoinHandle<bool>,
}

impl Spill {
    /// Starts `peer`'s spill thread on a handle of `socket`.
    fn start(
        peer: usize,
        socket: &TcpStream,
        delta: Duration,
        stats: &Arc<StatsInner>,
    ) -> Result<Self, Reason> {
        let socket = socket.try_clone().map_err(|_| Reason::Closed)?;
        let (tx, rx) = mpsc::sync_channel::<Outbound>(SPILL_QUEUE);
        let unwritten = Arc::new(AtomicUsize::new(0));
        let (left, stats) = (Arc::clone(&unwritten), Arc::clone(stats));
        let thread = std::thread::Builder::new()
            .name(format!("ca-spill-{peer}"))
            .spawn(move || spill_loop(&socket, &rx, &left, delta, &stats))
            .map_err(|_| Reason::Closed)?;
        Ok(Self {
            tx,
            unwritten,
            thread,
        })
    }
}

/// What a reader thread reports to the protocol thread: a frame from
/// peer `from`, or how that peer's stream was lost without a `Bye`
/// ([`Reason::Eof`], or [`Reason::Malformed`] for an oversized or
/// undecodable frame).
#[derive(Debug)]
struct Event {
    from: usize,
    frame: Result<Frame, Reason>,
}

/// A fully connected TCP party implementing [`Comm`].
///
/// Create one per process with [`TcpParty::establish`], then hand it to
/// protocol code. `next_round` writes each peer one frame holding the
/// round's sends to it, which is also its end-of-round marker, then waits
/// until every live peer's frame for the round arrives or `Δ` elapses. A
/// write blocks at most [`WRITE_POLL`]: what a full socket does not take
/// goes to that peer's spill thread, so a peer that stops reading delays
/// no other peer.
///
/// # Crash tolerance
///
/// The party owns the sockets and threads; who is gone, what is shed and
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
    /// Per peer, its socket's write side; taken when the peer is cut off
    /// or this party crashes.
    links: Vec<Option<Link>>,
    /// Inbound events from all reader threads (bounded by
    /// [`EVENT_QUEUE`], and per peer by its [`Inflow`]).
    events: mpsc::Receiver<Event>,
    /// Per peer, what its reader has queued.
    inflows: Vec<Arc<Inflow>>,
    /// Time source for the Δ deadline, and the async driver's only one;
    /// injectable for tests.
    pub(crate) clock: Box<dyn Clock>,
    /// The liveness policy, which both drivers feed.
    pub(crate) core: Liveness,
    /// Transport counters shared with the socket threads.
    stats: Arc<StatsInner>,
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
        let stats = Arc::new(StatsInner::default());
        let (event_tx, event_rx) = mpsc::sync_channel::<Event>(EVENT_QUEUE);

        let streams = establish_clique(me, addrs, &*clock, &stats)?;

        // One detached reader thread per peer; it exits when its socket or
        // the event channel closes.
        let mut links: Vec<Option<Link>> = (0..n).map(|_| None).collect();
        let inflows: Vec<Arc<Inflow>> = (0..n).map(|_| Arc::default()).collect();
        for (peer, socket) in streams {
            let read_half = socket.try_clone()?;
            socket.set_write_timeout(Some(WRITE_POLL))?;
            let inflow = Arc::clone(&inflows[peer]);
            let (event_tx, reader_inflow) = (event_tx.clone(), Arc::clone(&inflow));
            links[peer] = Some(Link {
                socket,
                spill: None,
                inflow,
            });
            std::thread::Builder::new()
                .name(format!("ca-reader-{peer}"))
                .spawn(move || reader_loop(peer, read_half, &reader_inflow, &event_tx))?;
        }

        Ok(Self {
            n,
            t,
            me,
            delta,
            pending: Vec::new(),
            scopes: Vec::new(),
            links,
            events: event_rx,
            inflows,
            clock,
            core: Liveness::new(n, me.index(), EVENT_QUEUE, EARLY_BYTES),
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
        self.stats.snapshot()
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
            scope: ca_net::fiber::scope_path(&self.scopes),
            event,
        });
    }

    /// Waits up to `timeout` for one inbound event and feeds it to the
    /// core.
    pub(crate) fn pump(&mut self, timeout: Duration) -> Result<(), mpsc::RecvTimeoutError> {
        let Event { from, frame } = self.events.recv_timeout(timeout)?;
        match frame {
            Ok(frame) => {
                self.inflows[from].release(queued_size(&frame));
                self.core.on_frame(from, frame);
            }
            Err(cause) => self.core.on_lost(from, cause),
        }
        Ok(())
    }

    /// Applies the core's effects up to the next delivery, and returns it.
    pub(crate) fn next_delivery(&mut self) -> Option<(usize, Bytes)> {
        while let Some(effect) = self.core.poll_effect() {
            match effect {
                Effect::Deliver { from, payload } => return Some((from, payload)),
                Effect::Write { to, frame } => self.send_batch(to, Outbound::new(&frame)),
                Effect::Disconnect { peer, reason } => {
                    if let Some(link) = self.links[peer].take() {
                        link.close();
                    }
                    if reason == Reason::Stalled {
                        self.stats
                            .overflow_disconnects
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.stats.peers_gone.fetch_add(1, Ordering::Relaxed);
                    if self.sink.enabled() {
                        self.emit(TraceEvent::PeerGone {
                            peer: peer as u64,
                            reason: reason.as_str().to_owned(),
                        });
                    }
                }
                Effect::Shed => {
                    self.stats.frames_shed.fetch_add(1, Ordering::Relaxed);
                }
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

    /// Sends `batch` to `to`, counted as sent; skipped if `to` has no link.
    fn send_batch(&mut self, to: usize, batch: Outbound) {
        if self.links[to].is_none() {
            return;
        }
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .wire_bytes_sent
            .fetch_add(batch.wire_len(), Ordering::Relaxed);
        self.write_or_report(to, batch);
    }

    /// [`TcpParty::write_out`]; a failure closes the link and goes to the
    /// core.
    fn write_or_report(&mut self, to: usize, batch: Outbound) {
        if let Err(failure) = self.write_out(to, batch) {
            if let Some(link) = self.links[to].take() {
                link.close();
            }
            self.core.on_write_failed(to, failure);
        }
    }

    /// Writes `batch` to `to` from this thread if nothing is queued for
    /// the peer, and hands what its socket does not take within
    /// [`WRITE_POLL`] to the peer's spill thread, started on first use. So
    /// this blocks at most one `WRITE_POLL`, and a peer that stops reading
    /// delays no other peer.
    fn write_out(&mut self, to: usize, mut batch: Outbound) -> Result<(), Reason> {
        let Some(link) = self.links[to].as_mut() else {
            return Ok(());
        };
        let queued = link
            .spill
            .as_ref()
            .is_some_and(|spill| spill.unwritten.load(Ordering::Acquire) > 0);
        if !queued && batch.write_some(&link.socket).map_err(|_| Reason::Closed)? {
            return Ok(());
        }
        let spill = match link.spill.take() {
            Some(spill) => link.spill.insert(spill),
            None => link
                .spill
                .insert(Spill::start(to, &link.socket, self.delta, &self.stats)?),
        };
        spill.unwritten.fetch_add(1, Ordering::Relaxed);
        match spill.tx.try_send(batch) {
            Ok(()) => Ok(()),
            Err(mpsc::TrySendError::Full(_)) => Err(Reason::Stalled),
            // The spill thread dropped its queue on the way out; joined,
            // it says why.
            Err(mpsc::TrySendError::Disconnected(_)) => {
                let stalled = self.links[to].take().is_some_and(|link| {
                    link.close();
                    link.spill
                        .is_some_and(|spill| spill.thread.join().unwrap_or(false))
                });
                Err(if stalled {
                    Reason::Stalled
                } else {
                    Reason::Closed
                })
            }
        }
    }

    /// Drops every link after its last write. A spill thread shuts the
    /// write side down once it has written what it holds; a link without
    /// one has nothing pending, so it is shut down here. Peers read the
    /// frames already sent, then EOF.
    fn close_links(&mut self) {
        for link in self.links.iter_mut().filter_map(Option::take) {
            if link.spill.is_none() {
                let _ = link.socket.shutdown(Shutdown::Write);
            }
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
            let budget = deadline.checked_sub(self.clock.now());
            match budget.filter(|d| !d.is_zero()) {
                Some(budget) if self.pump(budget).is_ok() => {}
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
            ca_net::fiber::scope_path(&self.scopes)
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
        // everything already sent and close: peers read the `Bye`, then
        // EOF. Drop blocks at most one `WRITE_POLL` per peer; a spill
        // thread finishes in the background.
        for peer in 0..self.n {
            self.write_or_report(peer, Outbound::new(&Frame::Bye));
        }
        while self.next_delivery().is_some() {}
        self.close_links();
        for inflow in &self.inflows {
            inflow.stop();
        }
        self.sink.flush();
    }
}

/// Spill thread: writes each batch it is handed, behind the ones before
/// it. A batch must be out within `Δ` of this thread starting on it,
/// measured in real time like an OS socket timer; a peer that takes it
/// more slowly is off the synchronous schedule, so that batch and those
/// still queued are shed and the thread returns `true`. When the queue's
/// sender is dropped (normal exit or injected crash) the queue drains
/// FIFO, then the write side shuts down — peers observe EOF only after
/// in-flight frames land.
fn spill_loop(
    socket: &TcpStream,
    rx: &mpsc::Receiver<Outbound>,
    unwritten: &AtomicUsize,
    delta: Duration,
    stats: &StatsInner,
) -> bool {
    let clock = MonotonicClock::default();
    let mut stalled = false;
    'batches: while let Ok(mut batch) = rx.recv() {
        let deadline = clock.now().saturating_add(delta);
        loop {
            match batch.write_some(socket) {
                Ok(true) => break,
                Ok(false) if clock.now() < deadline => {}
                Ok(false) => {
                    stalled = true;
                    let shed = 1 + rx.try_iter().count() as u64;
                    stats.frames_shed.fetch_add(shed, Ordering::Relaxed);
                    break 'batches;
                }
                Err(_) => break 'batches,
            }
        }
        unwritten.fetch_sub(1, Ordering::Release);
    }
    let _ = socket.shutdown(Shutdown::Write);
    stalled
}

/// Reader thread: decode frames, forward as events, and report how the
/// stream was lost. It never sheds: while the event queue is full, or
/// its peer's [`Inflow`] has no room for the next frame, it waits, and
/// the peer's socket backs up. That cannot deadlock, since the protocol
/// thread, the queue's one consumer, blocks on no write for longer than
/// [`WRITE_POLL`], and dropping the queue releases the reader. Once the
/// peer is cut off, the reader returns at its next frame, or at once if
/// it waits for room, so the socket closes with what is unread (a reset)
/// instead of draining a flood nobody reads. Reads go through one
/// [`SOCKET_BUFFER`], so a round's frame from the peer costs about one
/// `read`.
fn reader_loop(
    peer: usize,
    stream: TcpStream,
    inflow: &Inflow,
    event_tx: &mpsc::SyncSender<Event>,
) {
    let mut stream = BufReader::with_capacity(SOCKET_BUFFER, stream);
    let event = |frame| Event { from: peer, frame };
    let lost = loop {
        let mut len_buf = [0u8; 4];
        if stream.read_exact(&mut len_buf).is_err() {
            break Reason::Eof;
        }
        // Validate the claimed length BEFORE sizing the buffer: a
        // byzantine peer announcing a 4 GiB frame is dropped without
        // allocating anything.
        let Ok(len) = crate::frame::validate_frame_len(u32::from_be_bytes(len_buf)) else {
            break Reason::Malformed;
        };
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            break Reason::Eof;
        }
        // The receive buffer becomes the backing store of the delivered
        // payloads: `Bytes::from` adopts it and the shared decode slices it.
        let Ok(frame) = Frame::decode_from_bytes(&Bytes::from(body)) else {
            break Reason::Malformed;
        };
        let bye = frame == Frame::Bye;
        if !inflow.reserve(queued_size(&frame)) || event_tx.send(event(Ok(frame))).is_err() || bye {
            return;
        }
    };
    let _ = event_tx.send(event(Err(lost)));
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
    stats: &StatsInner,
) -> Result<Vec<(usize, TcpStream)>, RuntimeError> {
    let n = addrs.len();
    let listener = TcpListener::bind(addrs[me.index()])?;
    let deadline = clock.now().saturating_add(ESTABLISH_DEADLINE);
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
                    stats.dial_retries.fetch_add(1, Ordering::Relaxed);
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

    // Accept everyone above us, dropping strays until the deadline.
    let expected = n - me.index() - 1;
    let mut taken = vec![false; n];
    let mut accepted = 0usize;
    while accepted < expected {
        let Some(remaining) = remaining_budget(deadline, clock) else {
            let missing: Vec<usize> = (me.index() + 1..n).filter(|&p| !taken[p]).collect();
            return Err(RuntimeError::EstablishTimeout { missing });
        };
        let mut stream = match accept_timeout(&listener, clock, remaining.min(ESTABLISH_POLL)) {
            Ok(stream) => stream,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => continue,
            Err(e) => return Err(e.into()),
        };
        stream.set_nodelay(true).ok();
        // A connection that never completes its handshake must not block
        // the accept loop: bound the hello read, then reject on timeout.
        stream
            .set_read_timeout(Some(remaining.min(ESTABLISH_POLL)))
            .ok();
        match read_hello(&mut stream) {
            // The accept side only ever hears from higher-indexed
            // parties (they dial us), so a hello claiming our own index
            // or lower is an impersonation attempt; a repeated index is
            // a duplicate. Both are dropped, never trusted.
            Some(from) if from > me.index() && from < n && !taken[from] => {
                stream.set_read_timeout(None).ok();
                taken[from] = true;
                streams.push((from, stream));
                accepted += 1;
            }
            _ => {
                stats.handshake_rejects.fetch_add(1, Ordering::Relaxed);
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

/// Accepts one inbound connection, failing with `TimedOut` when nothing
/// arrives within `timeout` on `clock`: the listener is polled in
/// nonblocking mode, since `std` has no accept-with-deadline.
fn accept_timeout(
    listener: &TcpListener,
    clock: &dyn Clock,
    timeout: Duration,
) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let deadline = clock.now().saturating_add(timeout);
    let result = loop {
        match listener.accept() {
            Ok((stream, _)) => break Ok(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if clock.now() >= deadline {
                    break Err(io::Error::new(io::ErrorKind::TimedOut, "accept timed out"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => break Err(e),
        }
    };
    // Restore blocking mode on the listener AND the accepted socket
    // (accepted sockets can inherit O_NONBLOCK on some platforms).
    listener.set_nonblocking(false)?;
    let stream = result?;
    stream.set_nonblocking(false)?;
    Ok(stream)
}

/// Reads and decodes one handshake frame; `None` on anything malformed.
fn read_hello(stream: &mut TcpStream) -> Option<usize> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).ok()?;
    // Validate the claimed length BEFORE sizing the buffer, same as the
    // round-frame reader — a stray connection gets no allocation budget.
    let len = crate::frame::validate_hello_len(u32::from_be_bytes(len_buf)).ok()?;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).ok()?;
    match Frame::decode_from_slice(&body) {
        Ok(Frame::Hello { from }) => Some(from as usize),
        _ => None,
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

    /// A peer flooding max-size frames at a party that takes none of them
    /// gets at most [`EARLY_BYTES`] plus one frame into the event queue:
    /// its reader then waits for room. Once the party is gone, the waiting
    /// reader exits, and with it the flooder's connection.
    #[test]
    fn a_flooder_s_queued_bytes_are_capped() {
        use crate::frame::{LENGTH_PREFIX_LEN, MAX_WIRE_FRAME_LEN};
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
        let party = TcpParty::establish(PartyId(0), &addrs, Duration::from_secs(30)).unwrap();
        let inflow = Arc::clone(&party.inflows[1]);
        let clock = MonotonicClock::default();
        let wait = |secs: u64, done: &dyn Fn() -> bool| {
            let deadline = clock.now() + Duration::from_secs(secs);
            while !done() && clock.now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        // Nothing takes a frame, so the count only grows: until the reader
        // has filled its share, then while the flood could still add to it.
        let frame = LENGTH_PREFIX_LEN + MAX_WIRE_FRAME_LEN + std::mem::size_of::<Bytes>();
        let queued = || inflow.lock().bytes;
        wait(10, &|| queued() + frame > EARLY_BYTES);
        wait(1, &|| flooder.is_finished());
        assert!(
            queued() + frame > EARLY_BYTES,
            "the reader filled its share"
        );
        assert!(queued() <= EARLY_BYTES + frame, "{} bytes queued", queued());

        drop(party);
        wait(10, &|| Arc::strong_count(&inflow) == 1);
        assert_eq!(Arc::strong_count(&inflow), 1, "the waiting reader exited");
        assert!(!flooder.join().unwrap(), "the flood stopped at the cap");
    }

    #[test]
    fn accept_timeout_expires_then_still_accepts() {
        let clock = MonotonicClock::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let local = listener.local_addr().unwrap();
        // Nothing is dialing yet: the bounded accept must expire.
        let err = accept_timeout(&listener, &clock, Duration::from_millis(30)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // A real connection is still accepted afterwards, in blocking
        // mode, and the accepted socket reads normally.
        let dialer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(local).unwrap();
            s.write_all(b"ok").unwrap();
        });
        let mut stream = accept_timeout(&listener, &clock, Duration::from_secs(5)).unwrap();
        let mut buf = [0u8; 2];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ok");
        dialer.join().unwrap();
    }
}

//! The channel abstraction protocol code is written against.

use bytes::Bytes;
use ca_codec::Encode;

use crate::{Inbox, PartyId};

/// A transport's running estimate of how many parties are actually
/// misbehaving, fed to adaptive protocols (the `f`-adaptive fast path in
/// `ca-core`) so they can size their optimism to observed reality rather
/// than the worst-case budget `t`.
///
/// The estimate is *local* and *monotone pessimistic*: it only ever counts
/// parties this transport has concrete evidence against (stopped streams,
/// queue-overflow disconnects). A byzantine party that lies politely is
/// invisible here — adaptive protocols must therefore treat the estimate as
/// advisory and certify any shortcut with an agreement sub-protocol before
/// acting on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultEstimate {
    /// Parties that have gone silent (EOF, never connected).
    pub silent: usize,
    /// Parties with active evidence of misbehavior (e.g. flooding until
    /// the transport cut them off).
    pub suspected: usize,
}

impl FaultEstimate {
    /// Total observed faults: silent plus actively suspected parties.
    pub fn observed(&self) -> usize {
        self.silent + self.suspected
    }

    /// Whether the observed fault count is within `budget` — the gate an
    /// adaptive protocol checks before proposing its fast path.
    pub fn within(&self, budget: usize) -> bool {
        self.observed() <= budget
    }
}

/// A party's view of the synchronous network (paper §2).
///
/// Protocol functions take `&mut dyn Comm`, which lets the same code run on
/// the lock-step simulator ([`crate::Sim`]) and on the TCP runtime in
/// `ca-runtime`.
///
/// # Round semantics
///
/// Sends are buffered; [`Comm::next_round`] flushes them, waits for the round
/// boundary (`Δ` in the real world, the barrier in the simulator), and
/// returns everything delivered this round. All honest parties of a
/// deterministic synchronous protocol call `next_round` the same number of
/// times, which is what keeps instances aligned without message tags.
///
/// A scope ([`Comm::push_scope`] to [`Comm::pop_scope`]) must end with no
/// send pending: a send made after a nested protocol's last round would
/// otherwise be delivered in the caller's next round, where nothing tells
/// it apart from the caller's own messages. The transports' `pop_scope`
/// panics, naming the scope path and the count, when sends are pending.
/// Only the top level may leave a fire-and-forget tail.
pub trait Comm {
    /// Number of parties `n`.
    fn n(&self) -> usize;

    /// Corruption budget `t` (`t < n/3`).
    fn t(&self) -> usize;

    /// This party's identity.
    fn me(&self) -> PartyId;

    /// Buffers `payload` for delivery to `to` at the next round boundary.
    ///
    /// Sending to oneself is allowed; it is delivered like any other message
    /// but does not count as network communication.
    fn send_bytes(&mut self, to: PartyId, payload: Bytes);

    /// Flushes buffered sends, advances to the next round, and returns the
    /// messages delivered to this party.
    fn next_round(&mut self) -> Inbox;

    /// Enters a named metrics scope (bits/rounds are attributed to the
    /// innermost scope). Prefer [`CommExt::scoped`].
    fn push_scope(&mut self, name: &str);

    /// Leaves the innermost metrics scope.
    fn pop_scope(&mut self);

    /// Parties this transport has stopped hearing from: their stream
    /// ended or the transport cut them off (queue overflow). The
    /// protocol model already treats such peers as silent-byzantine —
    /// `next_round` simply never again delivers from them — so protocol
    /// code needs no special handling; this accessor exists for
    /// *accounting* (service stats, experiments). Transports without a
    /// liveness notion (the simulator) report no one.
    fn silent_parties(&self) -> Vec<PartyId> {
        Vec::new()
    }

    /// This transport's current [`FaultEstimate`]. The default derives it
    /// entirely from [`Comm::silent_parties`]; transports with richer
    /// misbehavior evidence (the TCP runtime's overflow disconnects)
    /// override it to split silent from suspected parties.
    fn fault_estimate(&self) -> FaultEstimate {
        FaultEstimate {
            silent: self.silent_parties().len(),
            suspected: 0,
        }
    }

    /// Whether a trace sink is attached and recording. Instrumentation
    /// sites check this before rendering event values, so transports
    /// without tracing (the default) pay one virtual call and nothing
    /// else — prefer the lazy [`CommExt::trace_input`]-style helpers.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Emits a protocol-level trace event, stamped by the transport with
    /// this party's id, current round, and scope path. A no-op unless
    /// the transport has a sink attached.
    fn trace(&mut self, event: ca_trace::Event) {
        let _ = event;
    }
}

/// Ergonomic extension methods available on every [`Comm`]
/// (including `&mut dyn Comm`).
pub trait CommExt: Comm {
    /// Encodes and sends `msg` to `to`.
    fn send<T: Encode + ?Sized>(&mut self, to: PartyId, msg: &T) {
        self.send_bytes(to, Bytes::from(msg.encode_to_vec()));
    }

    /// Encodes and sends `msg` to every party (including self — the paper's
    /// "send to all parties").
    fn send_all<T: Encode + ?Sized>(&mut self, msg: &T) {
        let payload = Bytes::from(msg.encode_to_vec());
        for p in 0..self.n() {
            self.send_bytes(PartyId(p), payload.clone());
        }
    }

    /// `send_all(msg)` followed by `next_round()`: the ubiquitous all-to-all
    /// exchange step.
    fn exchange<T: Encode + ?Sized>(&mut self, msg: &T) -> Inbox {
        self.send_all(msg);
        self.next_round()
    }

    /// Runs `f` inside the metrics scope `name`.
    fn scoped<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_scope(name);
        let out = f(self);
        self.pop_scope();
        out
    }

    /// `n − t`: the guaranteed number of honest parties (a quorum).
    fn quorum(&self) -> usize {
        self.n() - self.t()
    }

    /// Traces this party's protocol input. `render` runs only when a
    /// sink is recording, so rendering cost never touches untraced runs.
    fn trace_input(&mut self, render: impl FnOnce() -> String) {
        if self.trace_enabled() {
            self.trace(ca_trace::Event::Input { value: render() });
        }
    }

    /// Traces this party's decision (lazily rendered, like
    /// [`CommExt::trace_input`]).
    fn trace_decide(&mut self, render: impl FnOnce() -> String) {
        if self.trace_enabled() {
            self.trace(ca_trace::Event::Decide { value: render() });
        }
    }

    /// Traces a fast-path decision (lazily rendered). The rendered value
    /// must equal the one passed to [`CommExt::trace_decide`] in the same
    /// scope — the `fast-path-agreement` trace invariant checks it.
    fn trace_fast_path(&mut self, render: impl FnOnce() -> String) {
        if self.trace_enabled() {
            self.trace(ca_trace::Event::FastPathTaken { value: render() });
        }
    }

    /// Traces abandonment of the fast path with a short machine-readable
    /// reason (e.g. `"incomplete"`, `"mismatch"`, `"ba-rejected"`).
    fn trace_fallback(&mut self, reason: &str) {
        if self.trace_enabled() {
            self.trace(ca_trace::Event::FallbackTriggered {
                reason: reason.to_owned(),
            });
        }
    }

    /// Traces a free-form protocol annotation (lazily rendered).
    fn trace_note(&mut self, label: &str, render: impl FnOnce() -> String) {
        if self.trace_enabled() {
            self.trace(ca_trace::Event::Note {
                label: label.to_owned(),
                value: render(),
            });
        }
    }
}

impl<C: Comm + ?Sized> CommExt for C {}

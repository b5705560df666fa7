//! One round context for protocol bodies written as `async fn`s.
//!
//! A protocol body is straight-line code over rounds: buffer sends, cross
//! the round boundary, read the inbox. As an `async fn` over [`Ctx`] the
//! boundary is [`Ctx::next_round`]`.await`, and one body runs on two
//! backings:
//!
//! * **live** ([`Ctx::live`]) — over a `&mut dyn Comm`: every call is
//!   forwarded at once, so `next_round` is ready on its first poll and
//!   [`block_on`] runs the whole body in one poll. This is how every
//!   blocking entry point (`ca_core::pi_n`, `ca_ba::lba_plus`, …) runs on
//!   `Sim`, the TCP runtime or any other [`Comm`].
//! * **hosted** (made by [`crate::Tasks`]) — sends and trace events buffer
//!   in a [`StepBuf`], the buffer a fiber's `Comm` uses too; `next_round`
//!   leaves a [`Step`] in the mailbox it shares with its host and returns
//!   `Pending` exactly once. The host resumes it by delivering the round's
//!   inbox and polling again, on its own thread.
//!
//! `Ctx` deliberately does not implement [`Comm`]: a blocking call cannot
//! cross a hosted boundary, so the compiler keeps blocking code out of
//! hosted bodies.

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;
use ca_codec::Encode;
use ca_trace::Event;

use crate::step::{FaultView, Step, StepBuf};
use crate::{Comm, FaultEstimate, Inbox, PartyId};

/// A party's view of the synchronous network for an `async` protocol body
/// (see the module doc): the [`Comm`] round semantics, with the boundary
/// as `next_round().await`.
///
/// # Examples
///
/// One body, run live under the simulator:
///
/// ```
/// use ca_net::{block_on, Comm, Ctx, Sim};
///
/// async fn sum_all(ctx: &mut Ctx<'_>, x: u64) -> u64 {
///     let inbox = ctx.exchange(&x).await;
///     inbox.decode_each::<u64>().into_iter().map(|(_, v)| v).sum()
/// }
///
/// let report = Sim::new(4)
///     .run(|comm: &mut dyn Comm, id| block_on(sum_all(&mut Ctx::live(comm), id.index() as u64)));
/// assert!(report.outputs.iter().all(|o| o == &Some(6)));
/// ```
pub struct Ctx<'a> {
    n: usize,
    t: usize,
    me: PartyId,
    backing: Backing<'a>,
}

enum Backing<'a> {
    Live(&'a mut dyn Comm),
    Hosted {
        buf: StepBuf,
        mailbox: Rc<RefCell<Mailbox>>,
    },
}

/// The hand-off between a hosted [`Ctx`] and its host: the body leaves
/// its step, the host leaves the round's delivery.
#[derive(Default)]
pub(crate) struct Mailbox {
    pub(crate) step: Option<Step<()>>,
    pub(crate) delivery: Option<(Inbox, FaultView)>,
}

impl<'a> Ctx<'a> {
    /// A context that forwards every call to `comm` as it is made.
    pub fn live(comm: &'a mut dyn Comm) -> Self {
        Self {
            n: comm.n(),
            t: comm.t(),
            me: comm.me(),
            backing: Backing::Live(comm),
        }
    }
}

impl Ctx<'static> {
    /// A context that buffers into `buf` and crosses each boundary through
    /// `mailbox`.
    pub(crate) fn hosted(
        n: usize,
        t: usize,
        me: PartyId,
        buf: StepBuf,
        mailbox: Rc<RefCell<Mailbox>>,
    ) -> Self {
        Self {
            n,
            t,
            me,
            backing: Backing::Hosted { buf, mailbox },
        }
    }

    /// The step of a body that returned `output`: its unsent tail.
    pub(crate) fn done<O>(mut self, output: O) -> Step<O> {
        match &mut self.backing {
            Backing::Hosted { buf, .. } => buf.done(output),
            // A live context buffers nothing: its sends went out as made.
            Backing::Live(_) => Step::Done {
                output,
                sends: Vec::new(),
                events: Vec::new(),
            },
        }
    }
}

impl Ctx<'_> {
    /// Number of parties `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Corruption budget `t` (`t < n/3`).
    pub fn t(&self) -> usize {
        self.t
    }

    /// This party's identity.
    pub fn me(&self) -> PartyId {
        self.me
    }

    /// `n − t`: the guaranteed number of honest parties (a quorum).
    pub fn quorum(&self) -> usize {
        self.n - self.t
    }

    /// Buffers `payload` for delivery to `to` at the next round boundary
    /// ([`Comm::send_bytes`]).
    pub fn send_bytes(&mut self, to: PartyId, payload: Bytes) {
        match &mut self.backing {
            Backing::Live(comm) => comm.send_bytes(to, payload),
            Backing::Hosted { buf, .. } => buf.send_bytes(to, payload),
        }
    }

    /// Encodes and sends `msg` to `to`.
    pub fn send<T: Encode + ?Sized>(&mut self, to: PartyId, msg: &T) {
        self.send_bytes(to, Bytes::from(msg.encode_to_vec()));
    }

    /// Encodes `msg` once and sends it to every party, self included.
    pub fn send_all<T: Encode + ?Sized>(&mut self, msg: &T) {
        let payload = Bytes::from(msg.encode_to_vec());
        for p in 0..self.n {
            self.send_bytes(PartyId(p), payload.clone());
        }
    }

    /// Flushes buffered sends, crosses the round boundary and returns the
    /// messages delivered to this party ([`Comm::next_round`]).
    pub async fn next_round(&mut self) -> Inbox {
        match &mut self.backing {
            Backing::Live(comm) => comm.next_round(),
            Backing::Hosted { buf, mailbox } => {
                mailbox.borrow_mut().step = Some(buf.round());
                let mut parked = false;
                poll_fn(|_| match std::mem::replace(&mut parked, true) {
                    false => Poll::Pending,
                    true => Poll::Ready(()),
                })
                .await;
                let delivery = mailbox.borrow_mut().delivery.take();
                #[expect(
                    clippy::expect_used,
                    reason = "a host polls a parked body only after delivering"
                )]
                let (inbox, faults) =
                    delivery.expect("a hosted body was resumed before its delivery");
                buf.resume(faults);
                inbox
            }
        }
    }

    /// `send_all(msg)` followed by `next_round()`: the all-to-all exchange.
    pub async fn exchange<T: Encode + ?Sized>(&mut self, msg: &T) -> Inbox {
        self.send_all(msg);
        self.next_round().await
    }

    /// Enters a named metrics scope ([`Comm::push_scope`]).
    pub fn push_scope(&mut self, name: &str) {
        match &mut self.backing {
            Backing::Live(comm) => comm.push_scope(name),
            Backing::Hosted { buf, .. } => buf.push_scope(name),
        }
    }

    /// Leaves the innermost metrics scope ([`Comm::pop_scope`]).
    pub fn pop_scope(&mut self) {
        match &mut self.backing {
            Backing::Live(comm) => comm.pop_scope(),
            Backing::Hosted { buf, .. } => buf.pop_scope(),
        }
    }

    /// Runs `body` inside the metrics scope `name`.
    pub async fn scoped<R>(&mut self, name: &str, body: impl AsyncFnOnce(&mut Self) -> R) -> R {
        self.push_scope(name);
        let out = body(self).await;
        self.pop_scope();
        out
    }

    /// The transport's silent parties ([`Comm::silent_parties`]).
    pub fn silent_parties(&self) -> Vec<PartyId> {
        match &self.backing {
            Backing::Live(comm) => comm.silent_parties(),
            Backing::Hosted { buf, .. } => buf.silent_parties(),
        }
    }

    /// The transport's fault estimate ([`Comm::fault_estimate`]).
    pub fn fault_estimate(&self) -> FaultEstimate {
        match &self.backing {
            Backing::Live(comm) => comm.fault_estimate(),
            Backing::Hosted { buf, .. } => buf.fault_estimate(),
        }
    }

    /// Whether a trace sink is recording ([`Comm::trace_enabled`]).
    pub fn trace_enabled(&self) -> bool {
        match &self.backing {
            Backing::Live(comm) => comm.trace_enabled(),
            Backing::Hosted { buf, .. } => buf.trace_enabled(),
        }
    }

    /// Emits a protocol-level trace event ([`Comm::trace`]).
    pub fn trace(&mut self, event: Event) {
        match &mut self.backing {
            Backing::Live(comm) => comm.trace(event),
            Backing::Hosted { buf, .. } => buf.trace(event),
        }
    }

    /// Traces this party's protocol input ([`CommExt::trace_input`]).
    ///
    /// [`CommExt::trace_input`]: crate::CommExt::trace_input
    pub fn trace_input(&mut self, render: impl FnOnce() -> String) {
        if self.trace_enabled() {
            self.trace(Event::Input { value: render() });
        }
    }

    /// Traces this party's decision ([`CommExt::trace_decide`]).
    ///
    /// [`CommExt::trace_decide`]: crate::CommExt::trace_decide
    pub fn trace_decide(&mut self, render: impl FnOnce() -> String) {
        if self.trace_enabled() {
            self.trace(Event::Decide { value: render() });
        }
    }

    /// Traces a fast-path decision ([`CommExt::trace_fast_path`]).
    ///
    /// [`CommExt::trace_fast_path`]: crate::CommExt::trace_fast_path
    pub fn trace_fast_path(&mut self, render: impl FnOnce() -> String) {
        if self.trace_enabled() {
            self.trace(Event::FastPathTaken { value: render() });
        }
    }

    /// Traces abandonment of the fast path ([`CommExt::trace_fallback`]).
    ///
    /// [`CommExt::trace_fallback`]: crate::CommExt::trace_fallback
    pub fn trace_fallback(&mut self, reason: &str) {
        if self.trace_enabled() {
            self.trace(Event::FallbackTriggered {
                reason: reason.to_owned(),
            });
        }
    }

    /// Traces a free-form annotation ([`CommExt::trace_note`]).
    ///
    /// [`CommExt::trace_note`]: crate::CommExt::trace_note
    pub fn trace_note(&mut self, label: &str, render: impl FnOnce() -> String) {
        if self.trace_enabled() {
            self.trace(Event::Note {
                label: label.to_owned(),
                value: render(),
            });
        }
    }
}

/// Runs a body over a live [`Ctx`] to completion in one poll, under
/// [`Waker::noop`]; the body is boxed, so a deep protocol stack's state
/// lives on the heap rather than the caller's stack.
///
/// # Panics
///
/// Panics if the body returns `Pending`: it awaited something other than
/// its live context, which nothing here would ever wake.
pub fn block_on<T>(body: impl Future<Output = T>) -> T {
    let mut body = Box::pin(body);
    match body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        #[expect(clippy::panic, reason = "a live body has nothing to wait for")]
        Poll::Pending => panic!("a body over a live Ctx returned Pending"),
    }
}

//! What a hosted protocol body hands its host at a round boundary, and the
//! buffer it fills between two boundaries.
//!
//! Two hosts run many bodies for one owner: [`crate::fiber::Fibers`]
//! parks blocking bodies (`FnOnce(&mut dyn Comm)`) on threads of their
//! own, and [`crate::Tasks`] polls `async` bodies (over a hosted
//! [`crate::Ctx`]) on the owner's thread. Both hand the owner the same
//! [`Step`] from the same [`StepBuf`], so what an owner does with a step —
//! the simulator's metering, the engine's multiplexing — cannot tell the
//! two hosts apart.

use std::any::Any;

use bytes::Bytes;
use ca_trace::{Event, ROOT_SCOPE};

use crate::{Comm, FaultEstimate, PartyId};

/// What a hosted body handed its owner at one `collect`.
pub enum Step<O> {
    /// The body reached a round boundary and waits for its delivery.
    Round {
        /// Sends buffered since the previous step.
        sends: Vec<(PartyId, Bytes)>,
        /// The body's scope path at the boundary.
        scope: String,
        /// Trace events buffered since the previous step (scope
        /// enters/exits included); empty unless tracing is on.
        events: Vec<Event>,
    },
    /// The body returned; `sends` is its fire-and-forget tail.
    Done {
        /// The body's return value.
        output: O,
        /// Sends buffered since the previous step.
        sends: Vec<(PartyId, Bytes)>,
        /// Trace events buffered since the previous step.
        events: Vec<Event>,
    },
    /// The body panicked; the original payload, for the owner to present.
    Panicked(Box<dyn Any + Send>),
}

/// The owner's view of transport faults, handed to a body at spawn and
/// with every delivery so hosted protocols see what the transport
/// beneath their host knows ([`Comm::silent_parties`],
/// [`Comm::fault_estimate`]). The default is "no one".
#[derive(Debug, Clone, Default)]
pub struct FaultView {
    silent: Vec<PartyId>,
    estimate: FaultEstimate,
}

impl FaultView {
    /// Snapshot of `ctx`'s current fault view.
    pub fn of(ctx: &dyn Comm) -> Self {
        Self {
            silent: ctx.silent_parties(),
            estimate: ctx.fault_estimate(),
        }
    }

    /// Parties the snapshotted transport had stopped hearing from.
    pub fn silent(&self) -> &[PartyId] {
        &self.silent
    }
}

/// Renders a scope stack as the `/`-joined path traces and metrics use.
pub fn scope_path(stack: &[String]) -> String {
    if stack.is_empty() {
        ROOT_SCOPE.to_owned()
    } else {
        stack.join("/")
    }
}

/// The text of a panic payload, for owners that re-raise a
/// [`Step::Panicked`] under their own message.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic>"
    }
}

/// A hosted body's side of the network between two boundaries: sends and
/// trace events buffer here, the scope stack lives here, and the fault
/// view is the one its owner handed over with the last delivery.
pub(crate) struct StepBuf {
    n: usize,
    trace_on: bool,
    pending: Vec<(PartyId, Bytes)>,
    scopes: Vec<String>,
    events: Vec<Event>,
    faults: FaultView,
}

impl StepBuf {
    /// An empty buffer of a body among `n` parties.
    pub(crate) fn new(n: usize, trace_on: bool, faults: FaultView) -> Self {
        Self {
            n,
            trace_on,
            pending: Vec::new(),
            scopes: Vec::new(),
            events: Vec::new(),
            faults,
        }
    }

    pub(crate) fn send_bytes(&mut self, to: PartyId, payload: Bytes) {
        assert!(to.0 < self.n, "send to nonexistent {to}");
        self.pending.push((to, payload));
    }

    pub(crate) fn push_scope(&mut self, name: &str) {
        self.scopes.push(name.to_owned());
        if self.trace_on {
            self.events.push(Event::ScopeEnter {
                name: name.to_owned(),
            });
        }
    }

    /// Leaves the innermost scope; panics, naming the scope path and the
    /// count, while sends are pending (see [`Comm`]'s round semantics).
    pub(crate) fn pop_scope(&mut self) {
        assert!(
            self.pending.is_empty(),
            "{} send(s) still pending at the exit of scope {}",
            self.pending.len(),
            scope_path(&self.scopes)
        );
        if let Some(name) = self.scopes.pop() {
            if self.trace_on {
                self.events.push(Event::ScopeExit { name });
            }
        }
    }

    pub(crate) fn silent_parties(&self) -> Vec<PartyId> {
        self.faults.silent.clone()
    }

    pub(crate) fn fault_estimate(&self) -> FaultEstimate {
        self.faults.estimate
    }

    pub(crate) fn trace_enabled(&self) -> bool {
        self.trace_on
    }

    pub(crate) fn trace(&mut self, event: Event) {
        if self.trace_on {
            self.events.push(event);
        }
    }

    /// The step of a body at a boundary: what it buffered since the last.
    pub(crate) fn round<O>(&mut self) -> Step<O> {
        Step::Round {
            sends: std::mem::take(&mut self.pending),
            scope: scope_path(&self.scopes),
            events: std::mem::take(&mut self.events),
        }
    }

    /// The last step of a body that returned `output`.
    pub(crate) fn done<O>(&mut self, output: O) -> Step<O> {
        Step::Done {
            output,
            sends: std::mem::take(&mut self.pending),
            events: std::mem::take(&mut self.events),
        }
    }

    /// Takes in the fault view delivered with a round's inbox.
    pub(crate) fn resume(&mut self, faults: FaultView) {
        self.faults = faults;
    }
}

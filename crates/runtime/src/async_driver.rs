//! Event-driven TCP driver: runs an [`AsyncProtocol`] over a
//! [`TcpParty`] with no round barriers, no timers and no Δ.
//!
//! The synchronous surface of [`TcpParty`] batches sends until
//! `next_round` and then waits on each peer's round frame under a Δ
//! timeout. The async driver inverts that: every [`Action::Send`] ships
//! immediately, as a round frame of one message tagged with the party's
//! send count, and the protocol advances on each delivered message —
//! progress is quorum-driven, exactly as in the deterministic
//! [`ca_async::Executor`], but over real sockets. A protocol written
//! against [`AsyncProtocol`] therefore runs unchanged on both hosts.
//!
//! Inbound frames come in through the party's one inbound path,
//! `TcpParty::pump`, and its liveness core, as on the sync path; in
//! event-driven mode the core delivers every batch whatever its tag.
//!
//! # Fault plans
//!
//! A [`FaultPlan`](crate::FaultPlan) installed on the party applies to
//! this path too, reinterpreted for a world without rounds: the plan's
//! crash round is matched against the count of protocol messages this
//! party has delivered. "Crash at round 20" means "crash when the 20th
//! message arrives" — that message is never seen by the protocol. The
//! crash itself behaves exactly as on the sync path (abrupt EOF after the
//! frames already sent).
//!
//! # Termination
//!
//! Quorum-driven protocols never time out, but a deployment still needs
//! an exit: the driver returns once the protocol decides *and* the link
//! has been quiet for the fixed linger window of 300 ms (so late peers
//! still get this party's echo/ready responses — reliable-broadcast
//! totality needs deciders to keep participating), or unconditionally
//! after the fixed 30 s deadline (a liveness backstop for runs with more
//! than `t` failures).

use std::collections::VecDeque;
use std::fmt::Display;
use std::time::Duration;

use bytes::Bytes;
use ca_async::{Action, AsyncProtocol};
use ca_net::{Comm as _, PartyId};
use ca_trace::Event as TraceEvent;

use crate::TcpParty;

/// Hard wall-clock cap on the whole run (measured on the party's injected
/// clock). The driver returns whatever the protocol has decided when it
/// expires.
const DEADLINE: Duration = Duration::from_secs(30);

/// After deciding, keep serving peers until the link has been quiet this
/// long. Must comfortably exceed one network round trip.
const LINGER: Duration = Duration::from_millis(300);

/// Trace scope the run's records live under.
const SCOPE: &str = "async";

/// Runs `proto` on `party` event-driven until it decides (plus the
/// linger window) or the deadline expires. Returns the decision, or
/// `None` if the protocol never decided — or crashed under its fault
/// plan, which wipes the decision exactly as the deterministic executor
/// does.
pub fn run_async_party<P: AsyncProtocol>(party: &mut TcpParty, mut proto: P) -> Option<P::Output>
where
    P::Output: Display,
{
    let me = party.me();
    let start = party.clock.now();
    party.core.set_async();
    party.push_scope(SCOPE);
    if let Some(repr) = proto.input_repr() {
        party.trace(TraceEvent::Input { value: repr });
    }

    // Self-deliveries stay local (Broadcast includes `me`).
    let mut self_queue: VecDeque<Bytes> = VecDeque::new();
    let mut decided = false;
    let mut last_activity = start;

    let actions = proto.on_start();
    apply(party, &mut self_queue, actions);

    loop {
        if party.core.crashed() || party.clock.now().saturating_sub(start) >= DEADLINE {
            break;
        }

        // Local work first: self-deliveries, then the network.
        if let Some(payload) = self_queue.pop_front() {
            party.trace(TraceEvent::Deliver {
                from: me.index() as u64,
                bytes: payload.len() as u64,
            });
            let actions = proto.on_message(me, &payload);
            apply(party, &mut self_queue, actions);
        } else {
            // The network, until the driver has something to check: the
            // end of the linger window once decided, else the deadline.
            let until = if decided {
                last_activity.saturating_add(LINGER)
            } else {
                start.saturating_add(DEADLINE)
            };
            if !party.pump(until.saturating_sub(party.clock.now())) {
                break;
            }
        }

        // What the core decided: a delivery, and any cut-off that a failed
        // send caused.
        while let Some((from, payload)) = party.next_delivery() {
            party.trace(TraceEvent::Deliver {
                from: from as u64,
                bytes: payload.len() as u64,
            });
            last_activity = party.clock.now();
            let actions = proto.on_message(PartyId(from), &payload);
            apply(party, &mut self_queue, actions);
        }
        if !decided {
            if let Some(out) = proto.output() {
                decided = true;
                party.trace(TraceEvent::Decide {
                    value: out.to_string(),
                });
            }
        }
    }

    party.pop_scope();
    if party.core.crashed() {
        // A crash wipes the decision, mirroring `ca_async::Executor`.
        return None;
    }
    proto.output()
}

/// Executes one batch of protocol actions against the transport.
fn apply(party: &mut TcpParty, self_queue: &mut VecDeque<Bytes>, actions: Vec<Action>) {
    for action in actions {
        match action {
            Action::Send { to, payload } => send(party, self_queue, to.index(), payload),
            Action::Broadcast { payload } => {
                for to in 0..party.n() {
                    send(party, self_queue, to, payload.clone());
                }
            }
            Action::Note { label, value } => {
                party.trace(TraceEvent::Note { label, value });
            }
        }
    }
}

/// Queues `payload` for this party itself, or traces it and has the core
/// ship it to `to` at once; panics over the wire limit (see `Frame::round`).
fn send(party: &mut TcpParty, self_queue: &mut VecDeque<Bytes>, to: usize, payload: Bytes) {
    if to == party.me().index() {
        return self_queue.push_back(payload);
    }
    party.trace(TraceEvent::Send {
        to: to as u64,
        bytes: payload.len() as u64,
    });
    party.core.send_now(to, payload);
}

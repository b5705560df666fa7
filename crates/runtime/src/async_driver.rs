//! Event-driven TCP driver: runs an [`AsyncProtocol`] over a
//! [`TcpParty`] with no round barriers and no Δ.
//!
//! The synchronous surface of [`TcpParty`] batches sends until
//! `next_round` and then waits on end-of-round markers under a Δ
//! timeout. The async driver inverts that: every [`Action::Send`] ships
//! immediately, and the protocol advances on each delivered message —
//! progress is quorum-driven, exactly as in the deterministic
//! [`ca_async::Executor`], but over real sockets. A protocol written
//! against [`AsyncProtocol`] therefore runs unchanged on both hosts.
//!
//! Inbound events go through the party's liveness core, as on the sync
//! path; in event-driven mode it delivers every message whatever its
//! round tag.
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

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;
use std::sync::mpsc::RecvTimeoutError;
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

/// How long each event poll blocks. Smaller is more responsive, larger
/// burns fewer wakeups; correctness does not depend on it.
const POLL: Duration = Duration::from_millis(5);

/// After deciding, keep serving peers until the link has been quiet this
/// long. Must comfortably exceed one network round trip.
const LINGER: Duration = Duration::from_millis(300);

/// Trace scope the run's records live under.
const SCOPE: &str = "async";

/// Milliseconds one [`Action::SetTimer`] unit stretches to.
const MS_PER_TIMER_UNIT: u64 = 1;

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
    let start = party.clock_now();
    party.core.set_async();
    party.push_scope(SCOPE);
    if let Some(repr) = proto.input_repr() {
        party.trace(TraceEvent::Input { value: repr });
    }

    // Self-deliveries stay local (Broadcast includes `me`); timers are
    // keyed by absolute fire time with a tiebreak sequence.
    let mut self_queue: VecDeque<Bytes> = VecDeque::new();
    let mut timers: BTreeMap<(Duration, u64), u64> = BTreeMap::new();
    let mut timer_seq: u64 = 0;
    let mut decided = false;
    let mut last_activity = start;

    let actions = proto.on_start();
    apply(party, &mut self_queue, &mut timers, &mut timer_seq, actions);

    loop {
        let now = party.clock_now();
        if party.core.crashed() || now.saturating_sub(start) >= DEADLINE {
            break;
        }

        // Local work first: self-deliveries, then due timers.
        if let Some(payload) = self_queue.pop_front() {
            party.trace(TraceEvent::Deliver {
                from: me.index() as u64,
                bytes: payload.len() as u64,
            });
            let actions = proto.on_message(me, &payload);
            apply(party, &mut self_queue, &mut timers, &mut timer_seq, actions);
        } else if timers
            .first_key_value()
            .is_some_and(|((at, _), _)| *at <= now)
        {
            let ((_, _), id) = timers.pop_first().expect("checked non-empty");
            let actions = proto.on_timer(id);
            apply(party, &mut self_queue, &mut timers, &mut timer_seq, actions);
        } else {
            match party.pump(POLL) {
                Ok(()) => {}
                Err(RecvTimeoutError::Timeout) => {
                    if decided && party.clock_now().saturating_sub(last_activity) >= LINGER {
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // What the core decided: a delivery, and any cut-off that a failed
        // send caused.
        while let Some((from, payload)) = party.next_delivery() {
            party.trace(TraceEvent::Deliver {
                from: from as u64,
                bytes: payload.len() as u64,
            });
            last_activity = party.clock_now();
            let actions = proto.on_message(PartyId(from), &payload);
            apply(party, &mut self_queue, &mut timers, &mut timer_seq, actions);
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
fn apply(
    party: &mut TcpParty,
    self_queue: &mut VecDeque<Bytes>,
    timers: &mut BTreeMap<(Duration, u64), u64>,
    timer_seq: &mut u64,
    actions: Vec<Action>,
) {
    let me = party.me().index();
    for action in actions {
        match action {
            Action::Send { to, payload } => {
                if to.index() == me {
                    self_queue.push_back(payload);
                } else {
                    party.send_now(to.index(), payload);
                }
            }
            Action::Broadcast { payload } => {
                for to in 0..party.n() {
                    if to == me {
                        self_queue.push_back(payload.clone());
                    } else {
                        party.send_now(to, payload.clone());
                    }
                }
            }
            Action::SetTimer { id, after } => {
                let at = party
                    .clock_now()
                    .saturating_add(Duration::from_millis(after * MS_PER_TIMER_UNIT));
                timers.insert((at, *timer_seq), id);
                *timer_seq += 1;
            }
            Action::Note { label, value } => {
                party.trace(TraceEvent::Note { label, value });
            }
        }
    }
}

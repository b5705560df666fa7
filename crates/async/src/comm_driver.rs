//! Hosting an [`AsyncProtocol`] on a round-based [`Comm`] substrate.
//!
//! The adapter lets the same state machine run under the lock-step
//! simulator (and therefore inside `ca-engine` sessions, next to
//! synchronous protocols): each `next_round` inbox becomes a batch of
//! `on_message` events and actions turn into `send_bytes` calls. A
//! quorum-driven protocol doesn't care — it only sees messages arriving
//! in some order — which is precisely the point: round barriers are one
//! legal asynchronous schedule.

use bytes::Bytes;
use ca_net::{Comm, PartyId};
use ca_trace::Event as TraceEvent;

use crate::protocol::{Action, AsyncProtocol};

/// Drives `proto` over `ctx` until it decides or `max_rounds` barriers
/// pass, returning the decision (or `None` on round exhaustion).
///
/// Tracing rides the substrate: sends/deliveries are recorded by the
/// `Comm` executor under the caller's current scope, `Input`/`Decide`
/// are emitted here from the protocol's own reporting.
pub fn run_on_comm<P: AsyncProtocol>(
    ctx: &mut dyn Comm,
    mut proto: P,
    max_rounds: u64,
) -> Option<P::Output>
where
    P::Output: std::fmt::Display,
{
    if ctx.trace_enabled() {
        if let Some(value) = proto.input_repr() {
            ctx.trace(TraceEvent::Input { value });
        }
    }
    let me = ctx.me();
    let mut self_inbox: Vec<Bytes> = Vec::new();
    let actions = proto.on_start();
    apply(ctx, me, actions, &mut self_inbox);

    let mut round: u64 = 0;
    while proto.output().is_none() && round < max_rounds {
        // Self-deliveries are local: hand them over before the barrier.
        for payload in std::mem::take(&mut self_inbox) {
            let actions = proto.on_message(me, &payload);
            apply(ctx, me, actions, &mut self_inbox);
            if proto.output().is_some() {
                break;
            }
        }
        if proto.output().is_some() {
            break;
        }
        let inbox = ctx.next_round();
        round += 1;
        for from in inbox.senders().collect::<Vec<_>>() {
            if from == me {
                continue; // already handled pre-barrier
            }
            for payload in inbox.raw_from(from).to_vec() {
                let actions = proto.on_message(from, &payload);
                apply(ctx, me, actions, &mut self_inbox);
            }
        }
    }

    let output = proto.output();
    if ctx.trace_enabled() {
        if let Some(value) = &output {
            ctx.trace(TraceEvent::Decide {
                value: value.to_string(),
            });
        }
    }
    output
}

fn apply(ctx: &mut dyn Comm, me: PartyId, actions: Vec<Action>, self_inbox: &mut Vec<Bytes>) {
    for action in actions {
        match action {
            Action::Send { to, payload } => {
                if to == me {
                    self_inbox.push(payload);
                } else {
                    ctx.send_bytes(to, payload);
                }
            }
            Action::Broadcast { payload } => {
                for i in 0..ctx.n() {
                    let to = PartyId(i);
                    if to == me {
                        self_inbox.push(payload.clone());
                    } else {
                        ctx.send_bytes(to, payload.clone());
                    }
                }
            }
            Action::Note { label, value } => {
                ctx.trace(TraceEvent::Note { label, value });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aaa::AsyncApprox;
    use ca_bits::Nat;
    use ca_net::{CommExt, Sim};

    #[test]
    fn aaa_runs_on_the_lockstep_simulator() {
        let inputs = [0u64, 10, 20, 30];
        let report = Sim::new(4).run(|ctx, id| {
            ctx.scoped("aaa", |ctx| {
                let proto = AsyncApprox::new(ctx.n(), ctx.t(), id, Nat::from_u64(inputs[id.0]), 8);
                run_on_comm(ctx, proto, 200)
            })
        });
        let outs: Vec<Nat> = report
            .honest_outputs()
            .into_iter()
            .map(|o| o.clone().expect("decided"))
            .collect();
        assert_eq!(outs.len(), 4);
        let lo = outs.iter().min().unwrap().clone();
        let hi = outs.iter().max().unwrap().clone();
        let spread = hi.checked_sub(&lo).unwrap();
        assert!(
            spread <= Nat::one(),
            "ε-agreement (ε = 1) expected, got {outs:?}"
        );
        // Convexity: outputs inside [0, 30].
        assert!(lo >= Nat::zero() && hi <= Nat::from_u64(30));
    }

    #[test]
    fn round_budget_runs_out_without_a_decision() {
        struct Never;
        impl AsyncProtocol for Never {
            type Output = u64;
            fn on_start(&mut self) -> Vec<Action> {
                Vec::new()
            }
            fn on_message(&mut self, _from: PartyId, _payload: &Bytes) -> Vec<Action> {
                Vec::new()
            }
            fn output(&self) -> Option<u64> {
                None
            }
        }
        let report = Sim::new(3).run(|ctx, _id| run_on_comm(ctx, Never, 5));
        assert!(report.honest_outputs().into_iter().all(Option::is_none));
        assert_eq!(report.metrics.rounds, 5);
    }
}

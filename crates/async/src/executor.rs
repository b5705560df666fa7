//! The deterministic single-threaded event executor.
//!
//! All `n` protocol instances run in one thread, advanced by a virtual-
//! time priority queue of delivery and crash events. Event order is a
//! pure function of `(protocol logic, DeliverySchedule seed, crash plan)`
//! — there are no threads, no wall clocks, and no iteration over
//! unordered containers — so two runs with the same configuration produce
//! **byte-identical** traces. That determinism is what lets the chaos
//! tests diff reruns and `ca-trace` check invariants on async executions.
//!
//! Virtual time doubles as the trace `round` stamp: each party's records
//! carry the virtual time of the event that produced them, which is
//! non-decreasing per party (the round-monotone invariant) while the
//! round-alternation invariant is vacuous — an async run emits no
//! `RoundStart`/`RoundEnd` at all. There is no Δ anywhere in this module:
//! time only orders deliveries, nothing ever waits it out.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Arc;

use bytes::Bytes;
use ca_net::PartyId;
use ca_trace::{Event as TraceEvent, NullSink, Record, TraceSink, ROOT_SCOPE};

use crate::protocol::{Action, AsyncProtocol};
use crate::DeliverySchedule;

/// What the event queue can dispatch.
#[derive(Debug)]
enum EventKind {
    Deliver {
        from: usize,
        to: usize,
        payload: Bytes,
    },
    Crash {
        party: usize,
    },
}

/// Everything measured about one async execution.
#[derive(Debug)]
pub struct ExecReport<O> {
    /// Per-party outputs (`None` for crashed or undecided parties).
    pub outputs: Vec<Option<O>>,
    /// Virtual time at which each party decided.
    pub decide_time: Vec<Option<u64>>,
    /// Parties crashed by the schedule.
    pub crashed: Vec<usize>,
    /// Non-self protocol messages handed to the network.
    pub messages: u64,
    /// Payload bytes across those messages.
    pub payload_bytes: u64,
    /// Virtual time of the last dispatched event.
    pub final_time: u64,
}

impl<O> ExecReport<O> {
    /// Outputs of surviving (non-crashed) parties.
    pub fn surviving_outputs(&self) -> Vec<&O> {
        self.outputs.iter().filter_map(Option::as_ref).collect()
    }

    /// Virtual time by which every surviving party had decided.
    pub fn last_decide_time(&self) -> Option<u64> {
        self.decide_time.iter().flatten().copied().max()
    }
}

/// Scope name stamped on the run's records.
const SCOPE: &str = "async";

/// Runaway-protocol safety valve: dispatched events per run.
const MAX_EVENTS: u64 = 10_000_000;

/// Deterministic executor over `n` instances of one protocol type.
pub struct Executor<P: AsyncProtocol> {
    parties: Vec<P>,
    schedule: DeliverySchedule,
    crash_plan: BTreeMap<usize, u64>,
    sink: Arc<dyn TraceSink>,
    /// [`MAX_EVENTS`]; only a unit test lowers it.
    max_events: u64,
}

impl<P: AsyncProtocol> Executor<P> {
    /// An executor over the given instances (`parties[i]` is party `i`).
    ///
    /// # Panics
    ///
    /// Panics if `parties` is empty.
    pub fn new(parties: Vec<P>, schedule: DeliverySchedule) -> Self {
        assert!(!parties.is_empty(), "need at least one party");
        Self {
            parties,
            schedule,
            crash_plan: BTreeMap::new(),
            sink: Arc::new(NullSink),
            max_events: MAX_EVENTS,
        }
    }

    /// Crashes `party` at virtual time `at`: events already in flight
    /// from it still deliver, but it processes and sends nothing after.
    #[must_use]
    pub fn crash_at(mut self, party: PartyId, at: u64) -> Self {
        self.crash_plan.insert(party.0, at);
        self
    }

    /// Attaches a trace sink (same contract as `Sim::with_trace`:
    /// identical configurations yield byte-identical record streams).
    #[must_use]
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Runs the execution to completion: until every surviving party has
    /// decided or the event queue drains.
    ///
    /// # Panics
    ///
    /// Panics if the event limit is exceeded (runaway protocol).
    pub fn run(mut self) -> ExecReport<P::Output>
    where
        P::Output: Display,
    {
        let n = self.parties.len();
        let tracing = self.sink.enabled();
        #[expect(clippy::disallowed_methods, reason = "one decision slot per party")]
        let mut report = ExecReport {
            outputs: (0..n).map(|_| None).collect(),
            decide_time: vec![None; n],
            crashed: Vec::new(),
            messages: 0,
            payload_bytes: 0,
            final_time: 0,
        };
        #[expect(clippy::disallowed_methods, reason = "one flag per party")]
        let mut crashed = vec![false; n];
        #[expect(clippy::disallowed_methods, reason = "one flag per party")]
        let mut decided = vec![false; n];
        // The queue: (virtual time, tie-break seq) → event. BTreeMap keys
        // are unique and iterate in order, giving a deterministic total
        // order without a hand-rolled heap.
        let mut queue: BTreeMap<(u64, u64), EventKind> = BTreeMap::new();
        let mut next_seq: u64 = 0;
        let mut msg_seq: u64 = 0;

        let record =
            |sink: &Arc<dyn TraceSink>, party: usize, time: u64, scope: &str, event: TraceEvent| {
                sink.record(&Record {
                    party: Some(party as u64),
                    round: time,
                    scope: scope.to_owned(),
                    event,
                });
            };

        // Opening ceremony, in party order: enter the scope, declare the
        // input (these anchor the decide-in-hull check).
        if tracing {
            for (i, party) in self.parties.iter().enumerate() {
                record(
                    &self.sink,
                    i,
                    0,
                    SCOPE,
                    TraceEvent::ScopeEnter {
                        name: SCOPE.to_owned(),
                    },
                );
                if let Some(value) = party.input_repr() {
                    record(&self.sink, i, 0, SCOPE, TraceEvent::Input { value });
                }
            }
        }
        for (&party, &at) in &self.crash_plan {
            if party < n {
                queue.insert((at, next_seq), EventKind::Crash { party });
                next_seq += 1;
            }
        }

        // A macro rather than a closure: applying actions needs mutable
        // access to the queue, counters, and report at once.
        macro_rules! apply_actions {
            ($party:expr, $now:expr, $actions:expr) => {
                for action in $actions {
                    match action {
                        Action::Send { to, payload } => {
                            enqueue_send!($party, $now, to.0, payload);
                        }
                        Action::Broadcast { payload } => {
                            for to in 0..n {
                                enqueue_send!($party, $now, to, payload.clone());
                            }
                        }
                        Action::Note { label, value } => {
                            if tracing {
                                record(
                                    &self.sink,
                                    $party,
                                    $now,
                                    SCOPE,
                                    TraceEvent::Note { label, value },
                                );
                            }
                        }
                    }
                }
            };
        }
        macro_rules! enqueue_send {
            ($from:expr, $now:expr, $to:expr, $payload:expr) => {
                if $to < n {
                    let payload: Bytes = $payload;
                    if $from != $to {
                        report.messages += 1;
                        report.payload_bytes += payload.len() as u64;
                        if tracing {
                            record(
                                &self.sink,
                                $from,
                                $now,
                                SCOPE,
                                TraceEvent::Send {
                                    to: $to as u64,
                                    bytes: payload.len() as u64,
                                },
                            );
                        }
                    }
                    // `None`: the schedule dropped the message on the wire.
                    if let Some(delay) = self.schedule.sample($from, $to, msg_seq) {
                        queue.insert(
                            ($now + delay, next_seq),
                            EventKind::Deliver {
                                from: $from,
                                to: $to,
                                payload,
                            },
                        );
                        next_seq += 1;
                    }
                    msg_seq += 1;
                }
            };
        }
        macro_rules! check_decided {
            ($party:expr, $now:expr) => {
                if !decided[$party] && !crashed[$party] {
                    if let Some(output) = self.parties[$party].output() {
                        decided[$party] = true;
                        report.decide_time[$party] = Some($now);
                        if tracing {
                            record(
                                &self.sink,
                                $party,
                                $now,
                                SCOPE,
                                TraceEvent::Decide {
                                    value: output.to_string(),
                                },
                            );
                        }
                        report.outputs[$party] = Some(output);
                    }
                }
            };
        }

        for i in 0..n {
            let actions = self.parties[i].on_start();
            apply_actions!(i, 0, actions);
            check_decided!(i, 0);
        }

        let mut dispatched: u64 = 0;
        while let Some(((time, _), event)) = queue.pop_first() {
            if (0..n).all(|i| decided[i] || crashed[i]) {
                break;
            }
            dispatched += 1;
            assert!(
                dispatched <= self.max_events,
                "event limit {} exceeded (runaway protocol?)",
                self.max_events
            );
            report.final_time = time;
            match event {
                EventKind::Crash { party } => {
                    if !crashed[party] {
                        crashed[party] = true;
                        decided[party] = false;
                        report.outputs[party] = None;
                        report.decide_time[party] = None;
                        report.crashed.push(party);
                        if tracing {
                            record(
                                &self.sink,
                                party,
                                time,
                                ROOT_SCOPE,
                                TraceEvent::FaultInjected {
                                    strategy: "crash:async".to_owned(),
                                },
                            );
                        }
                    }
                }
                EventKind::Deliver { from, to, payload } => {
                    if crashed[to] {
                        continue;
                    }
                    if tracing {
                        record(
                            &self.sink,
                            to,
                            time,
                            SCOPE,
                            TraceEvent::Deliver {
                                from: from as u64,
                                bytes: payload.len() as u64,
                            },
                        );
                    }
                    let actions = self.parties[to].on_message(PartyId(from), &payload);
                    if !crashed[to] {
                        apply_actions!(to, time, actions);
                        check_decided!(to, time);
                    }
                }
            }
        }

        if tracing {
            for (i, _) in crashed.iter().enumerate().filter(|(_, c)| !**c) {
                record(
                    &self.sink,
                    i,
                    report.final_time,
                    ROOT_SCOPE,
                    TraceEvent::ScopeExit {
                        name: SCOPE.to_owned(),
                    },
                );
            }
        }
        self.sink.flush();
        report
    }
}

impl<P: AsyncProtocol> std::fmt::Debug for Executor<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("n", &self.parties.len())
            .field("crash_plan", &self.crash_plan)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo-count protocol: broadcasts one byte, decides after hearing
    /// from `quorum` distinct parties (itself included).
    struct CountQuorum {
        me: usize,
        quorum: usize,
        heard: std::collections::BTreeSet<usize>,
        out: Option<u64>,
    }

    impl CountQuorum {
        fn new(me: usize, quorum: usize) -> Self {
            Self {
                me,
                quorum,
                heard: std::collections::BTreeSet::new(),
                out: None,
            }
        }
    }

    impl AsyncProtocol for CountQuorum {
        type Output = u64;
        fn on_start(&mut self) -> Vec<Action> {
            vec![Action::Broadcast {
                payload: Bytes::from(vec![self.me as u8]),
            }]
        }
        fn on_message(&mut self, from: PartyId, _payload: &Bytes) -> Vec<Action> {
            self.heard.insert(from.0);
            if self.out.is_none() && self.heard.len() >= self.quorum {
                self.out = Some(self.heard.len() as u64);
            }
            Vec::new()
        }
        fn output(&self) -> Option<u64> {
            self.out
        }
        fn input_repr(&self) -> Option<String> {
            Some(self.me.to_string())
        }
    }

    fn quorum_exec(seed: u64) -> Executor<CountQuorum> {
        let parties = (0..4).map(|i| CountQuorum::new(i, 3)).collect();
        Executor::new(parties, DeliverySchedule::uniform(seed, 5, 10))
    }

    #[test]
    fn quorum_decides_without_timeouts() {
        let report = quorum_exec(1).run();
        for out in &report.outputs {
            assert_eq!(*out, Some(3));
        }
        assert!(report.last_decide_time().unwrap() > 0);
        assert_eq!(report.messages, 4 * 4 - 4);
    }

    #[test]
    fn crash_before_start_silences_party() {
        let report = quorum_exec(2).crash_at(PartyId(3), 0).run();
        assert_eq!(report.crashed, vec![3]);
        assert_eq!(report.outputs[3], None);
        // Survivors still reach the 3-quorum among themselves… but P3's
        // on_start ran at vt 0 before the crash event? No: the crash is
        // queued at (0, seq 0), before any delivery, yet on_start runs
        // outside the queue — its messages are in flight and deliver.
        for i in 0..3 {
            assert_eq!(report.outputs[i], Some(3), "party {i}");
        }
    }

    #[test]
    fn executions_are_deterministic_and_seed_sensitive() {
        let a = quorum_exec(7).run();
        let b = quorum_exec(7).run();
        assert_eq!(a.decide_time, b.decide_time);
        assert_eq!(a.final_time, b.final_time);
        let c = quorum_exec(8).run();
        assert!(
            a.decide_time != c.decide_time || a.final_time != c.final_time,
            "different seeds should schedule differently"
        );
    }

    #[test]
    fn traces_are_byte_identical_across_reruns() {
        let run = || {
            let sink = Arc::new(ca_trace::RingBufferSink::new(1 << 16));
            quorum_exec(3)
                .crash_at(PartyId(2), 7)
                .with_trace(sink.clone())
                .run();
            sink.records()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(ca_trace::first_divergence(&a, &b), None);
        assert_eq!(ca_trace::check(&a), vec![]);
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn runaway_protocol_hits_event_limit() {
        struct PingPong;
        impl AsyncProtocol for PingPong {
            type Output = u8;
            fn on_start(&mut self) -> Vec<Action> {
                vec![Action::Broadcast {
                    payload: Bytes::from_static(b"x"),
                }]
            }
            fn on_message(&mut self, _from: PartyId, _payload: &Bytes) -> Vec<Action> {
                vec![Action::Broadcast {
                    payload: Bytes::from_static(b"x"),
                }]
            }
            fn output(&self) -> Option<u8> {
                None
            }
        }
        let mut exec = Executor::new(vec![PingPong, PingPong], DeliverySchedule::uniform(0, 1, 0));
        exec.max_events = 1000;
        exec.run();
    }
}

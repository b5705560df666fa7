//! Deterministic lock-step simulator.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use ca_trace::{Event as TraceEvent, NullSink, Record, TraceSink, ROOT_SCOPE};

use crate::adversary::{Adversary, RoundActions, RoundView, Silent};
use crate::delay::EdgeDelays;
use crate::fiber::Fibers;
use crate::step::{panic_message, scope_path, FaultView, Step};
use crate::{Comm, Inbox, Metrics, PartyId};

/// How a party participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Corruption {
    /// Runs the protocol faithfully; counted in `BITSℓ`, output checked.
    #[default]
    Honest,
    /// Runs the protocol code faithfully **but is corrupted**: the paper
    /// notes byzantine parties "can act as honest parties with inputs of
    /// their own choice". Its bits are charged to the adversary and its
    /// output is discarded.
    LyingHonest,
    /// Fully adversary-controlled: no protocol thread; the [`Adversary`]
    /// speaks for it each round.
    Scripted,
}

/// Result of a simulated run.
#[derive(Debug)]
pub struct RunReport<O> {
    /// Per-party outputs; `Some` only for parties honest at the end of the
    /// run (adaptively corrupted or lying parties yield `None`).
    pub outputs: Vec<Option<O>>,
    /// Exact communication/round measurements.
    pub metrics: Metrics,
    /// Parties corrupted by the end of the run (lying + scripted).
    pub corrupted: Vec<PartyId>,
}

impl<O> RunReport<O> {
    /// Outputs of honest parties only.
    pub fn honest_outputs(&self) -> Vec<&O> {
        self.outputs.iter().filter_map(|o| o.as_ref()).collect()
    }

    /// Parties honest at the end of the run.
    pub fn honest_parties(&self) -> Vec<PartyId> {
        (0..self.outputs.len())
            .map(PartyId)
            .filter(|p| !self.corrupted.contains(p))
            .collect()
    }
}

/// Builder/executor for one synchronous protocol run (paper §2 model).
///
/// Every protocol-running party is a [`crate::fiber`]; the executor enforces
/// lock-step rounds, meters honest communication, and gives the adversary
/// its rushing view each round.
pub struct Sim {
    n: usize,
    t: usize,
    corruption: Vec<Corruption>,
    adversary: Box<dyn Adversary>,
    max_rounds: u64,
    sink: Arc<dyn TraceSink>,
    delay_model: Option<DelayModel>,
}

/// Per-run state of the seeded delay injection (see [`Sim::with_delays`]).
struct DelayModel {
    delays: EdgeDelays,
    /// Round length in delay time units; a sampled delay `d` postpones
    /// delivery by `⌊d/delta⌋` rounds.
    delta: u64,
    /// Global message counter feeding the sampler — deterministic because
    /// sends are processed in sorted (sender, submission) order.
    seq: u64,
    /// Messages held for a future round, keyed by arrival round.
    held: BTreeMap<u64, Vec<(PartyId, PartyId, Bytes)>>,
}

impl Sim {
    /// A run with `n` parties, all honest, `t = ⌊(n−1)/3⌋`, and the
    /// [`Silent`] adversary.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[expect(clippy::disallowed_methods, reason = "one corruption mode per party")]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one party");
        Self {
            n,
            t: crate::max_faults(n),
            corruption: vec![Corruption::Honest; n],
            adversary: Box::new(Silent),
            max_rounds: 1_000_000,
            sink: Arc::new(NullSink),
            delay_model: None,
        }
    }

    /// Routes every protocol send through a seeded [`EdgeDelays`] sampler
    /// with round length `delta` time units (`delta = 0` is treated as 1):
    /// a message sent in round `r` with sampled delay `d` arrives at round
    /// `r + ⌊d/delta⌋`, or is dropped, instead of the barrier's usual
    /// perfect next-round delivery.
    ///
    /// This breaks the synchronous model on purpose — protocols that assume
    /// "everything sent in round r is in round r's inbox" will see stale or
    /// missing values. Quorum-waiting protocols (and the async executor's
    /// conformance tests) are the intended tenants. Dropped messages are
    /// still metered as sent: the bits hit the wire; the network ate them.
    #[must_use]
    pub fn with_delays(mut self, delays: EdgeDelays, delta: u64) -> Self {
        self.delay_model = Some(DelayModel {
            delays,
            delta: delta.max(1),
            seq: 0,
            held: BTreeMap::new(),
        });
        self
    }

    /// Overrides the corruption budget `t`.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n`.
    pub fn with_t(mut self, t: usize) -> Self {
        assert!(
            3 * t < self.n,
            "resilience requires t < n/3 (t = {t}, n = {})",
            self.n
        );
        self.t = t;
        self
    }

    /// Marks `party` as corrupted from the start, in the given mode.
    ///
    /// # Panics
    ///
    /// Panics if the static corruption count would exceed `t`.
    pub fn corrupt(mut self, party: PartyId, mode: Corruption) -> Self {
        self.corruption[party.0] = mode;
        let count = self
            .corruption
            .iter()
            .filter(|c| **c != Corruption::Honest)
            .count();
        assert!(
            count <= self.t,
            "more than t = {} static corruptions",
            self.t
        );
        self
    }

    /// Installs the adversary controlling scripted parties.
    pub fn with_adversary(mut self, adversary: impl Adversary + 'static) -> Self {
        self.adversary = Box::new(adversary);
        self
    }

    /// Overrides the runaway-protocol safety valve (default 1 000 000 rounds).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Attaches a trace sink; every event of the run is recorded into it.
    ///
    /// Party threads buffer their records locally and ship them with each
    /// round submission; the executor flushes everything in a canonical
    /// order (round start → per-party records sorted by id → fault
    /// injections → sends → deliveries → round end), so two runs of the
    /// same protocol with the same inputs produce *byte-identical* JSONL
    /// traces regardless of thread scheduling — that determinism is what
    /// makes `ca-trace diff` meaningful.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Runs `party(ctx, id)` for every protocol-running party in lock-step.
    ///
    /// # Panics
    ///
    /// Propagates any panic from honest protocol code (a protocol bug), and
    /// panics if the round limit is exceeded or the adversary oversteps its
    /// corruption budget.
    pub fn run<O, F>(mut self, party: F) -> RunReport<O>
    where
        O: Send,
        F: Fn(&mut dyn Comm, PartyId) -> O + Sync,
    {
        let n = self.n;
        let t = self.t;
        let sink = Arc::clone(&self.sink);
        let tracing = sink.enabled();

        let mut report = RunReport {
            outputs: (0..n).map(|_| None).collect(),
            metrics: Metrics::default(),
            corrupted: Vec::new(),
        };

        std::thread::scope(|scope| {
            // Protocol fibers (honest + lying-honest parties). Leaving this
            // closure by ANY path — including a panic (budget violation,
            // protocol-bug propagation) — drops the set, which releases
            // every parked party so the scope's implicit join returns.
            let mut fibers = Fibers::new(scope, n, t, tracing);
            for (i, mode) in self.corruption.iter().enumerate() {
                if *mode != Corruption::Scripted {
                    let party = &party;
                    fibers.spawn(i, PartyId(i), FaultView::default(), move |ctx| {
                        party(ctx, PartyId(i))
                    });
                }
            }

            let mut corrupted: BTreeSet<PartyId> = self
                .corruption
                .iter()
                .enumerate()
                .filter(|(_, c)| **c != Corruption::Honest)
                .map(|(i, _)| PartyId(i))
                .collect();
            // Each party's scope stack as of its last flushed event; party
            // events arrive unstamped and are stamped against it.
            #[expect(clippy::disallowed_methods, reason = "one scope stack per party")]
            let mut stacks: Vec<Vec<String>> = vec![Vec::new(); n];
            let mut round: u64 = 0;
            // Per-round buffers, drained every round and reused. The
            // honest senders' messages as `(from, to, payload)` in
            // sender-then-send order are the adversary's view; the lying
            // senders' follow the same order in a buffer of their own.
            let mut honest_sends: Vec<(PartyId, PartyId, Bytes)> = Vec::new();
            let mut lying_sends: Vec<(PartyId, PartyId, Bytes)> = Vec::new();
            // `(sender, message count, lying)` per step, in party-id order.
            let mut batches: Vec<(usize, usize, bool)> = Vec::new();
            let mut waiting: Vec<usize> = Vec::new();
            // The scope path each waiting party submitted; `None` otherwise.
            #[expect(clippy::disallowed_methods, reason = "one scope path per party")]
            let mut scopes: Vec<Option<String>> = vec![None; n];

            // Statically corrupted parties are faulted before round 0.
            if tracing {
                for (i, mode) in self.corruption.iter().enumerate() {
                    let strategy = match mode {
                        Corruption::Honest => continue,
                        Corruption::LyingHonest => "static:lying_honest",
                        Corruption::Scripted => "static:scripted",
                    };
                    sink.record(&Record {
                        party: Some(i as u64),
                        round: 0,
                        scope: ROOT_SCOPE.to_owned(),
                        event: TraceEvent::FaultInjected {
                            strategy: strategy.to_owned(),
                        },
                    });
                }
            }

            'rounds: loop {
                if tracing {
                    sink.record(&Record {
                        party: None,
                        round,
                        scope: ROOT_SCOPE.to_owned(),
                        event: TraceEvent::RoundStart,
                    });
                }

                // --- Collect one step from every live fiber. ---
                // Steps come in party-id order, so the party-buffered
                // events flush in an order no scheduler can change.
                waiting.clear();
                for (from, step) in fibers.collect() {
                    let (s, events) = match step {
                        Step::Round {
                            sends,
                            scope,
                            events,
                        } => {
                            waiting.push(from);
                            scopes[from] = Some(scope);
                            (sends, events)
                        }
                        Step::Done {
                            output,
                            sends,
                            events,
                        } => {
                            if !corrupted.contains(&PartyId(from)) {
                                report.outputs[from] = Some(output);
                            }
                            scopes[from] = None;
                            (sends, events)
                        }
                        #[expect(
                            clippy::panic,
                            reason = "the simulator surfaces a party's panic to the driving test"
                        )]
                        Step::Panicked(payload) => {
                            let info = panic_message(payload.as_ref());
                            panic!("party P{from} panicked: {info}");
                        }
                    };
                    // Only lying parties are corrupted and still stepping:
                    // an adaptively corrupted fiber was killed.
                    let lying = self.corruption[from] == Corruption::LyingHonest;
                    batches.push((from, s.len(), lying));
                    let flat = if lying {
                        &mut lying_sends
                    } else {
                        &mut honest_sends
                    };
                    flat.extend(
                        s.into_iter()
                            .map(|(to, payload)| (PartyId(from), to, payload)),
                    );
                    for event in events {
                        match &event {
                            TraceEvent::ScopeEnter { name } => stacks[from].push(name.clone()),
                            TraceEvent::ScopeExit { .. } => {
                                stacks[from].pop();
                            }
                            _ => {}
                        }
                        sink.record(&Record {
                            party: Some(from as u64),
                            round,
                            scope: scope_path(&stacks[from]),
                            event,
                        });
                    }
                }

                // --- Rushing adversary phase: only while a fiber waits on
                // the round, so nothing is done to a party that decided. ---
                let actions = if waiting.is_empty() {
                    RoundActions::default()
                } else {
                    let corrupted_list: Vec<PartyId> = corrupted.iter().copied().collect();
                    self.adversary.on_round(&RoundView {
                        n,
                        t,
                        round,
                        corrupted: &corrupted_list,
                        honest_sends: &honest_sends,
                    })
                };

                // Adaptive corruptions take effect this round.
                for p in actions.corrupt {
                    assert!(p.0 < n, "adversary corrupted nonexistent {p}");
                    if corrupted.insert(p) {
                        assert!(
                            corrupted.len() <= t,
                            "adversary exceeded corruption budget t = {t}"
                        );
                        if tracing {
                            sink.record(&Record {
                                party: Some(p.0 as u64),
                                round,
                                scope: ROOT_SCOPE.to_owned(),
                                event: TraceEvent::FaultInjected {
                                    strategy: "adaptive".to_owned(),
                                },
                            });
                        }
                        report.outputs[p.0] = None;
                        fibers.kill(&p.0);
                    }
                }

                // --- Metering + delivery assembly. ---
                let mut inboxes: Vec<Inbox> = (0..n).map(|_| Inbox::with_parties(n)).collect();
                // (receiver, sender, bytes) for this round's deliveries, in
                // assembly order — traced after the send events; filled
                // only while tracing, the one reader.
                let mut deliveries: Vec<(usize, usize, u64)> = Vec::new();
                // Messages held back by the delay model whose arrival round
                // has come are delivered first (they were sent earlier).
                if let Some(model) = self.delay_model.as_mut() {
                    for (from, to, payload) in model.held.remove(&round).unwrap_or_default() {
                        if tracing {
                            deliveries.push((to.0, from.0, payload.len() as u64));
                        }
                        inboxes[to.0].push(from, payload);
                    }
                }
                // One pass over the batches in sender order, moving each
                // message out of the buffer it was collected into.
                let (mut honest, mut lying) = (honest_sends.drain(..), lying_sends.drain(..));
                for (from, count, is_lying) in batches.drain(..) {
                    let from_id = PartyId(from);
                    let source = if is_lying { &mut lying } else { &mut honest };
                    if !is_lying && corrupted.contains(&from_id) {
                        // Adaptively corrupted this round: its honest sends are
                        // suppressed (the adversary replaces them). Lying
                        // parties' sends still flow — they *are* the attack.
                        source.by_ref().take(count).for_each(drop);
                        continue;
                    }
                    // Self-delivery is free on a real network.
                    let batch = &source.as_slice()[..count];
                    let others = || batch.iter().filter(|(_, to, _)| *to != from_id);
                    let scope = if is_lying {
                        others().for_each(|(_, _, payload)| {
                            report.metrics.record_adversary_send(payload.len());
                        });
                        ca_trace::ADVERSARY_SCOPE
                    } else {
                        let scope = scopes[from].as_deref().unwrap_or(ROOT_SCOPE);
                        let sizes = others().map(|(_, _, payload)| payload.len());
                        report.metrics.record_honest_sends(scope, sizes);
                        scope
                    };
                    if tracing {
                        for (_, to, payload) in others() {
                            sink.record(&Record {
                                party: Some(from as u64),
                                round,
                                scope: scope.to_owned(),
                                event: TraceEvent::Send {
                                    to: to.0 as u64,
                                    bytes: payload.len() as u64,
                                },
                            });
                        }
                    }
                    for (_, to, payload) in source.by_ref().take(count) {
                        let mut arrival = round;
                        if let Some(model) = self.delay_model.as_mut() {
                            if to != from_id {
                                let seq = model.seq;
                                model.seq += 1;
                                match model.delays.sample(from, to.0, seq) {
                                    // Dropped on the wire; the send was
                                    // already metered and traced above.
                                    None => continue,
                                    Some(d) => arrival = round + d / model.delta,
                                }
                            }
                        }
                        if arrival > round {
                            if let Some(model) = self.delay_model.as_mut() {
                                model
                                    .held
                                    .entry(arrival)
                                    .or_default()
                                    .push((from_id, to, payload));
                            }
                        } else {
                            if tracing {
                                deliveries.push((to.0, from, payload.len() as u64));
                            }
                            inboxes[to.0].push(from_id, payload);
                        }
                    }
                }
                for spec in actions.sends {
                    assert!(
                        corrupted.contains(&spec.from),
                        "adversary sent from honest {} (channels are authenticated)",
                        spec.from
                    );
                    assert!(spec.to.0 < n, "adversary sent to nonexistent {}", spec.to);
                    report.metrics.record_adversary_send(spec.payload.len());
                    if tracing {
                        sink.record(&Record {
                            party: Some(spec.from.0 as u64),
                            round,
                            scope: ca_trace::ADVERSARY_SCOPE.to_owned(),
                            event: TraceEvent::Send {
                                to: spec.to.0 as u64,
                                bytes: spec.payload.len() as u64,
                            },
                        });
                    }
                    if tracing {
                        deliveries.push((spec.to.0, spec.from.0, spec.payload.len() as u64));
                    }
                    inboxes[spec.to.0].push(spec.from, spec.payload);
                }

                if waiting.is_empty() {
                    // Nobody is blocked on a round boundary: the protocol is over.
                    break 'rounds;
                }

                // Round attribution: innermost scope of the lowest-id honest
                // waiting party (all honest parties of a lock-step protocol
                // share the same scope).
                let round_scope = waiting
                    .iter()
                    .find(|p| !corrupted.contains(&PartyId(**p)))
                    .and_then(|p| scopes[*p].as_deref())
                    .unwrap_or(ROOT_SCOPE);
                report.metrics.record_round(round_scope);

                // Deliveries reach only the parties still at the barrier;
                // stamp each with the receiver's submitted scope.
                if tracing {
                    let mut ordered = deliveries;
                    ordered.sort_by_key(|&(to, _, _)| to);
                    for (to, from, bytes) in ordered {
                        if !waiting.contains(&to) {
                            continue;
                        }
                        let scope = scopes[to].as_deref().unwrap_or(ROOT_SCOPE);
                        sink.record(&Record {
                            party: Some(to as u64),
                            round,
                            scope: scope.to_owned(),
                            event: TraceEvent::Deliver {
                                from: from as u64,
                                bytes,
                            },
                        });
                    }
                    sink.record(&Record {
                        party: None,
                        round,
                        scope: round_scope.to_owned(),
                        event: TraceEvent::RoundEnd,
                    });
                }

                // --- Deliver (only parties still at the barrier are live). ---
                for (i, inbox) in inboxes.into_iter().enumerate() {
                    fibers.deliver(&i, inbox, FaultView::default());
                }

                round += 1;
                assert!(
                    round <= self.max_rounds,
                    "round limit {} exceeded (runaway protocol?)",
                    self.max_rounds
                );
            }

            report.corrupted = corrupted.into_iter().collect();
        });

        sink.flush();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::SendSpec;
    use crate::CommExt;
    use ca_codec::Encode;

    /// Every party sends its id to all; checks everyone hears everyone.
    #[test]
    fn all_to_all_delivery() {
        let report = Sim::new(5).run(|ctx, id| {
            let inbox = ctx.exchange(&(id.0 as u64));
            inbox.decode_each::<u64>()
        });
        for out in report.honest_outputs() {
            let values: Vec<u64> = out.iter().map(|(_, v)| *v).collect();
            assert_eq!(values, vec![0, 1, 2, 3, 4]);
        }
        assert_eq!(report.metrics.rounds, 1);
        // 5 parties × 4 non-self messages, varint id = 1 byte each.
        assert_eq!(report.metrics.honest_msgs, 20);
        assert_eq!(report.metrics.honest_bits, 20 * 8);
    }

    #[test]
    fn multi_round_protocol() {
        let report = Sim::new(4).run(|ctx, id| {
            let mut sum = 0u64;
            for r in 0..3u64 {
                let inbox = ctx.exchange(&(r + id.0 as u64));
                sum += inbox
                    .decode_each::<u64>()
                    .iter()
                    .map(|(_, v)| v)
                    .sum::<u64>();
            }
            sum
        });
        assert_eq!(report.metrics.rounds, 3);
        let outs = report.honest_outputs();
        assert!(outs.iter().all(|&&o| o == **outs.first().unwrap()));
    }

    #[test]
    fn scripted_party_is_adversary_driven() {
        struct Echo;
        impl Adversary for Echo {
            fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
                // Rushing: echo back P0's message content + 1 to everyone.
                let mut actions = RoundActions::default();
                if let Some((_, _, payload)) = view.sends_from(PartyId(0)).next() {
                    let v = <u64 as ca_codec::Decode>::decode_from_slice(payload).unwrap();
                    for to in 0..view.n {
                        actions.sends.push(SendSpec {
                            from: PartyId(3),
                            to: PartyId(to),
                            payload: (v + 1).encode_to_vec().into(),
                        });
                    }
                }
                actions
            }
        }
        let report = Sim::new(4)
            .corrupt(PartyId(3), Corruption::Scripted)
            .with_adversary(Echo)
            .run(|ctx, id| {
                if id.0 == 3 {
                    unreachable!("scripted party must not run protocol code");
                }
                let inbox = ctx.exchange(&42u64);
                inbox.decode_from::<u64>(PartyId(3))
            });
        assert_eq!(report.outputs[3], None);
        for out in report.honest_outputs() {
            assert_eq!(*out, Some(43)); // rushing echo observed same round
        }
        assert!(report.metrics.adversary_bits > 0);
    }

    #[test]
    fn lying_honest_runs_protocol_but_is_excluded() {
        let report = Sim::new(4)
            .corrupt(PartyId(1), Corruption::LyingHonest)
            .run(|ctx, id| {
                let inbox = ctx.exchange(&(if id.0 == 1 { 999u64 } else { 7 }));
                inbox
                    .decode_each::<u64>()
                    .iter()
                    .map(|(_, v)| *v)
                    .sum::<u64>()
            });
        // Lying party's message was delivered (999 + 3×7 = 1020)…
        for out in report.honest_outputs() {
            assert_eq!(*out, 1020);
        }
        // …but its output is discarded and its bits are the adversary's.
        assert_eq!(report.outputs[1], None);
        assert_eq!(report.metrics.honest_msgs, 9); // 3 honest × 3 non-self
        assert_eq!(report.metrics.adversary_bits, 3 * 2 * 8); // 999 = 2-byte varint
    }

    #[test]
    fn adaptive_corruption_suppresses_and_silences() {
        struct CorruptP0AtRound1;
        impl Adversary for CorruptP0AtRound1 {
            fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
                let mut a = RoundActions::default();
                if view.round == 1 {
                    a.corrupt.push(PartyId(0));
                }
                a
            }
        }
        let report = Sim::new(4)
            .with_adversary(CorruptP0AtRound1)
            .run(|ctx, _id| {
                let r0 = ctx.exchange(&1u64).decode_each::<u64>().len();
                let r1 = ctx.exchange(&2u64).decode_each::<u64>().len();
                (r0, r1)
            });
        assert_eq!(report.outputs[0], None);
        assert_eq!(report.corrupted, vec![PartyId(0)]);
        for out in report.honest_outputs() {
            assert_eq!(*out, (4, 3)); // P0 heard in round 0, suppressed in round 1
        }
    }

    /// Once every party has returned, the adversary is not consulted
    /// again: a corruption it would ask for after the last round cannot
    /// erase an output, and a send it would make there is not metered.
    #[test]
    fn a_decided_party_cannot_be_corrupted_after_the_last_round() {
        let rounds = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&rounds);
        let late_corruptor = move |view: &RoundView<'_>| {
            seen.lock().unwrap().push(view.round);
            let mut actions = RoundActions::default();
            if view.round >= 2 {
                actions.corrupt.push(PartyId(0));
                actions.sends.push(SendSpec {
                    from: PartyId(0),
                    to: PartyId(1),
                    payload: Bytes::from_static(b"late"),
                });
            }
            actions
        };
        let report = Sim::new(4).with_adversary(late_corruptor).run(|ctx, id| {
            ctx.exchange(&1u64);
            ctx.exchange(&2u64);
            id.0
        });
        assert_eq!(*rounds.lock().unwrap(), [0, 1]);
        assert_eq!(report.outputs, [Some(0), Some(1), Some(2), Some(3)]);
        assert!(report.corrupted.is_empty());
        assert_eq!(report.metrics.adversary_bits, 0);
    }

    /// n = 7 (t = 2: room for both corruptions), P3 lying, P2 adaptively
    /// corrupted at round 1; every party sends `[from, round, to, k]` to all
    /// (itself included) each of three rounds, and P0 sends P1 a second
    /// message (`k = 1`). Checks the adversary's view, what is delivered,
    /// and the metering.
    #[test]
    fn the_adversary_sees_exactly_the_honest_sends_in_sender_then_send_order() {
        const N: usize = 7;
        type Sent = Vec<(PartyId, PartyId, Bytes)>;
        let sends_of = |from: usize, round: u8| -> Sent {
            let mut sends = Vec::new();
            for to in 0..N {
                sends.push((from, to, 0));
                if (from, to) == (0, 1) {
                    sends.push((from, to, 1));
                }
            }
            let msg = |(f, to, k): (usize, usize, u8)| {
                let payload = Bytes::from(vec![f as u8, round, to as u8, k]);
                (PartyId(f), PartyId(to), payload)
            };
            sends.into_iter().map(msg).collect()
        };
        let views = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&views);
        let recorder = move |view: &RoundView<'_>| {
            let mut seen = seen.lock().unwrap();
            seen.push((view.corrupted.to_vec(), view.honest_sends.to_vec()));
            let mut actions = RoundActions::default();
            if view.round == 1 {
                actions.corrupt.push(PartyId(2));
            }
            actions
        };
        let report = Sim::new(N)
            .corrupt(PartyId(3), Corruption::LyingHonest)
            .with_adversary(recorder)
            .run(|ctx, id| {
                ctx.scoped("x", |ctx| {
                    (0..3u8)
                        .map(|round| {
                            for (_, to, payload) in sends_of(id.0, round) {
                                ctx.send_bytes(to, payload);
                            }
                            let inbox = ctx.next_round();
                            (0..N)
                                .map(|s| inbox.raw_from(PartyId(s)).to_vec())
                                .collect()
                        })
                        .collect::<Vec<Vec<Vec<Bytes>>>>()
                })
            });

        // The view: senders honest when the adversary looks, in order. The
        // final collect, where every body has returned, is not shown.
        let views = views.lock().unwrap();
        let honest_at_view: [&[usize]; 3] =
            [&[0, 1, 2, 4, 5, 6], &[0, 1, 2, 4, 5, 6], &[0, 1, 4, 5, 6]];
        assert_eq!(views.len(), 3);
        for (round, (corrupted, honest_sends)) in views.iter().enumerate() {
            let expected_corrupted = if round >= 2 {
                vec![PartyId(2), PartyId(3)]
            } else {
                vec![PartyId(3)]
            };
            assert_eq!(corrupted, &expected_corrupted, "round {round}");
            let expected: Sent = (honest_at_view[round].iter())
                .flat_map(|&from| sends_of(from, round as u8))
                .collect();
            assert_eq!(honest_sends, &expected, "round {round}");
        }

        // Delivery: P2's round-1 sends are suppressed, P3's flow.
        assert_eq!(report.corrupted, vec![PartyId(2), PartyId(3)]);
        for me in 0..N {
            let Some(heard) = report.outputs[me].as_ref() else {
                assert!(me == 2 || me == 3, "P{me} has no output");
                continue;
            };
            for (round, by_sender) in heard.iter().enumerate() {
                for (from, got) in by_sender.iter().enumerate() {
                    let expected: Vec<Bytes> = if from == 2 && round > 0 {
                        Vec::new()
                    } else {
                        (sends_of(from, round as u8).into_iter())
                            .filter(|(_, to, _)| to.0 == me)
                            .map(|(_, _, payload)| payload)
                            .collect()
                    };
                    assert_eq!(got, &expected, "P{me} from P{from} round {round}");
                }
            }
        }

        // Metering by hand: round 0 has 6 honest senders, rounds 1 and 2
        // have 5, each with 6 non-self messages, plus P0's second one to
        // P1 every round; P3's 6 non-self messages a round are the
        // adversary's, and P2's suppressed round-1 sends are nobody's.
        // 4 bytes each.
        let honest_msgs = (6 * 6 + 1) + 2 * (5 * 6 + 1);
        assert_eq!(report.metrics.honest_msgs, honest_msgs);
        assert_eq!(report.metrics.honest_bits, 32 * honest_msgs);
        assert_eq!(report.metrics.adversary_bits, 32 * 3 * 6);
        assert_eq!(report.metrics.rounds, 3);
        let scope = crate::ScopeMetrics {
            honest_bits: 32 * honest_msgs,
            honest_msgs,
            rounds: 3,
        };
        assert_eq!(report.metrics.per_scope["x"], scope);
        assert_eq!(report.metrics.per_scope.len(), 1);
        assert_eq!(report.metrics.msg_bytes.count(), honest_msgs);
        assert_eq!(report.metrics.scope_msg_bytes["x"].sum(), 4 * honest_msgs);
    }

    #[test]
    fn scopes_attribute_bits_and_rounds() {
        let report = Sim::new(3).run(|ctx, _id| {
            ctx.scoped("phase_a", |ctx| {
                ctx.exchange(&1u64);
            });
            ctx.scoped("phase_b", |ctx| {
                ctx.scoped("inner", |ctx| {
                    ctx.exchange(&2u64);
                    ctx.exchange(&3u64);
                });
            });
        });
        assert_eq!(report.metrics.per_scope["phase_a"].rounds, 1);
        assert_eq!(report.metrics.per_scope["phase_b/inner"].rounds, 2);
        assert_eq!(report.metrics.scope_subtree("phase_b").rounds, 2);
        assert_eq!(
            report.metrics.honest_bits,
            report.metrics.scope_subtree("phase_a").honest_bits
                + report.metrics.scope_subtree("phase_b").honest_bits
        );
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn protocol_bug_propagates() {
        Sim::new(3).run(|ctx, id| {
            ctx.exchange(&1u64);
            if id.0 == 1 {
                panic!("intentional bug");
            }
            ctx.exchange(&2u64);
        });
    }

    #[test]
    #[should_panic(expected = "round limit")]
    fn runaway_protocol_hits_round_limit() {
        Sim::new(2).with_max_rounds(10).run(|ctx, _id| loop {
            ctx.exchange(&0u8);
        });
    }

    #[test]
    #[should_panic(expected = "corruption budget")]
    fn adversary_cannot_exceed_t() {
        struct GreedyCorruptor;
        impl Adversary for GreedyCorruptor {
            fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
                RoundActions {
                    corrupt: (0..view.n).map(PartyId).collect(),
                    sends: vec![],
                }
            }
        }
        Sim::new(4).with_adversary(GreedyCorruptor).run(|ctx, _id| {
            ctx.exchange(&0u8);
        });
    }

    #[test]
    #[should_panic(expected = "authenticated")]
    fn adversary_cannot_forge_honest_sender() {
        struct Forger;
        impl Adversary for Forger {
            fn on_round(&mut self, _view: &RoundView<'_>) -> RoundActions {
                RoundActions {
                    corrupt: vec![],
                    sends: vec![SendSpec {
                        from: PartyId(0), // honest!
                        to: PartyId(1),
                        payload: Bytes::from_static(b"forged"),
                    }],
                }
            }
        }
        Sim::new(4)
            .corrupt(PartyId(3), Corruption::Scripted)
            .with_adversary(Forger)
            .run(|ctx, _id| {
                ctx.exchange(&0u8);
            });
    }

    #[test]
    fn traced_run_emits_canonical_timeline() {
        let sink = Arc::new(ca_trace::RingBufferSink::new(4096));
        let report = Sim::new(3).with_trace(sink.clone()).run(|ctx, id| {
            ctx.trace_input(|| id.0.to_string());
            ctx.scoped("phase", |ctx| {
                ctx.exchange(&7u64);
            });
            // Decide the median input: stays inside the honest hull.
            ctx.trace_decide(|| "1".to_owned());
        });
        assert_eq!(report.metrics.rounds, 1);
        let records = sink.records();
        // Round boundaries present and ordered.
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds.first(), Some(&"round_start"));
        assert!(kinds.contains(&"round_end"), "{kinds:?}");
        // Every party contributed input, scope, sends, deliver, decide.
        for p in 0..3u64 {
            let mine: Vec<&Record> = records.iter().filter(|r| r.party == Some(p)).collect();
            assert!(mine.iter().any(|r| r.event.kind() == "input"));
            assert!(mine
                .iter()
                .any(|r| matches!(&r.event, TraceEvent::ScopeEnter { name } if name == "phase")));
            assert_eq!(
                mine.iter().filter(|r| r.event.kind() == "send").count(),
                2,
                "two non-self sends"
            );
            assert!(mine.iter().any(|r| r.event.kind() == "deliver"));
            assert!(mine.iter().any(|r| r.event.kind() == "decide"));
        }
        // Sends carry the scope they were submitted under.
        assert!(records
            .iter()
            .filter(|r| r.event.kind() == "send")
            .all(|r| r.scope == "phase"));
        // The whole trace passes the generic invariants.
        assert_eq!(ca_trace::check(&records), vec![]);
    }

    #[test]
    fn traces_are_deterministic_across_runs() {
        let run = || {
            let sink = Arc::new(ca_trace::RingBufferSink::new(1 << 16));
            Sim::new(4)
                .corrupt(PartyId(3), Corruption::LyingHonest)
                .with_trace(sink.clone())
                .run(|ctx, id| {
                    ctx.scoped("a", |ctx| {
                        ctx.exchange(&(id.0 as u64));
                    });
                    ctx.scoped("b", |ctx| {
                        ctx.exchange(&(id.0 as u64 + 10));
                    });
                });
            sink.records()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(ca_trace::first_divergence(&a, &b), None);
    }

    #[test]
    fn untraced_run_has_identical_metrics_to_traced() {
        let body = |ctx: &mut dyn Comm, id: PartyId| {
            ctx.scoped("x", |ctx| {
                ctx.exchange(&(id.0 as u64));
                ctx.exchange(&(id.0 as u64 * 3));
            });
        };
        let plain = Sim::new(4).run(body);
        let traced = Sim::new(4)
            .with_trace(Arc::new(ca_trace::RingBufferSink::new(1 << 16)))
            .run(body);
        assert_eq!(plain.metrics, traced.metrics);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            Sim::new(5)
                .corrupt(PartyId(2), Corruption::LyingHonest)
                .run(|ctx, id| {
                    let mut acc = Vec::new();
                    for r in 0..4u64 {
                        let inbox = ctx.exchange(&(id.0 as u64 * 100 + r));
                        acc.push(inbox.decode_each::<u64>());
                    }
                    acc
                })
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.outputs.iter().collect::<Vec<_>>(),
            b.outputs.iter().collect::<Vec<_>>()
        );
        assert_eq!(a.metrics.honest_bits, b.metrics.honest_bits);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
    }
}

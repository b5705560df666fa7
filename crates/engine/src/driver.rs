//! The engine driver: one party's multi-tenant session executor.
//!
//! Each admitted session runs its protocol body as a [`ca_net::fiber`];
//! the driver — itself running as an ordinary party closure against any
//! [`Comm`], so the same code multiplexes over the deterministic `Sim` and
//! the TCP runtime — repeats a lock-step service round:
//!
//! 1. **Admit** the plan's next sessions, in id order, while the table
//!    has capacity; the rest wait for a slot to free.
//! 2. **Collect** exactly one step per live session, in session-id order
//!    (determinism does not depend on thread scheduling).
//! 3. **Replay** each session's buffered trace events through the parent
//!    transport under the `engine/s<id>` scope prefix.
//! 4. **Batch** all sessions' same-destination sends into session-tagged
//!    envelopes and flush them once per destination.
//! 5. **Advance** the shared transport round, then **route** incoming
//!    envelope frames into bounded per-session inboxes, shedding floods
//!    past the per-sender cap.
//! 6. **Reap** decided sessions, recording latency and output.
//!
//! Teardown is ownership-driven: leaving the fiber scope releases every
//! session still parked, even when the transport itself shuts the driver
//! down mid-round (e.g. the simulator adaptively corrupting this party).

use std::collections::BTreeMap;

use bytes::Bytes;
use ca_codec::{Decode as _, Encode as _};
use ca_net::fiber::{panic_message, FaultView, Fibers, Step};
use ca_net::{Comm, Inbox, PartyId};
use ca_runtime::Frame;
use ca_trace::Event;

use crate::{EngineConfig, EngineStats, Envelope, SessionFrame, SessionId, SessionPlan};

/// The trace scope every engine-level record lives under; sessions nest
/// below it as `engine/s<id>/…`.
pub const ENGINE_SCOPE: &str = "engine";

/// Per-round cap on frames accepted into one session's inbox from one
/// sender. Honest protocols send at most one message per peer per round,
/// so anything above the cap is byzantine flooding; excess frames are shed
/// (counted, never delivered) without touching other sessions.
const INBOX_FRAMES_PER_SENDER: usize = 8;

/// What one party's engine run produced.
#[derive(Debug)]
pub struct EngineOutput<O> {
    /// Decided sessions with their protocol outputs, in session-id order.
    pub decided: Vec<(SessionId, O)>,
    /// Aggregate service measurements.
    pub stats: EngineStats,
}

impl<O> EngineOutput<O> {
    /// The decided output of `sid`, if that session ran here.
    pub fn output_of(&self, sid: SessionId) -> Option<&O> {
        self.decided
            .binary_search_by_key(&sid, |(s, _)| *s)
            .ok()
            .map(|i| &self.decided[i].1)
    }
}

/// Replays one session's round of buffered trace events through the
/// parent transport, nesting them under `s<id>` plus the session's scope
/// stack as it stood after the previous round. `rel_stack` tracks that
/// stack across rounds.
fn replay_session_trace(
    ctx: &mut dyn Comm,
    sid: SessionId,
    rel_stack: &mut Vec<String>,
    events: Vec<Event>,
) {
    if events.is_empty() {
        return;
    }
    let tag = sid.scope_tag();
    ctx.push_scope(&tag);
    for name in rel_stack.iter() {
        ctx.push_scope(name);
    }
    for event in events {
        match event {
            Event::ScopeEnter { name } => {
                ctx.push_scope(&name);
                rel_stack.push(name);
            }
            Event::ScopeExit { .. } => {
                ctx.pop_scope();
                rel_stack.pop();
            }
            other => ctx.trace(other),
        }
    }
    for _ in 0..=rel_stack.len() {
        ctx.pop_scope();
    }
}

// ---------------------------------------------------------------------------
// Deployment wire-cost model
// ---------------------------------------------------------------------------
//
// `Metrics::honest_bits` stays payload-only (the paper's BITSℓ); the
// engine additionally prices what a TCP deployment pays per round and per
// connection, by asking `ca_runtime::Frame` what each frame occupies on
// the wire. This is the denominator of the S1 amortization claim: K
// multiplexed sessions share the per-round frames and connection setup
// that K isolated deployments each pay in full.

fn wire_bits(frame: &Frame) -> u64 {
    8 * frame.wire_len() as u64
}

/// Wire bits of one transport round: to each peer, a `Frame::Round` with
/// the envelopes sent to it, which is also its end-of-round marker.
fn round_bits(round: u64, me: PartyId, mut batches: Vec<Vec<Bytes>>) -> u64 {
    batches.swap_remove(me.index()); // a party sends itself no frame
    let frames = batches.into_iter().map(|msgs| Frame::Round { round, msgs });
    frames.map(|frame| wire_bits(&frame)).sum()
}

/// Wire bits of per-connection setup/teardown (`Hello` out to each peer,
/// `Bye` at drop), paid once per deployment rather than once per session.
fn connection_bits(n: usize, me: PartyId) -> u64 {
    let from = me.index() as u32;
    (n as u64 - 1) * (wire_bits(&Frame::Hello { from }) + wire_bits(&Frame::Bye))
}

struct Slot {
    rel_stack: Vec<String>,
    admit_round: u64,
    rounds: u64,
}

/// Runs this party's share of a multi-tenant engine deployment.
///
/// `body` is the per-session protocol (e.g. `ca_core::pi_n` applied to
/// the session's input); it runs once per admitted session against a
/// session-scoped `Comm` that shares the transport's `n`/`t`/`me` and
/// fault view. All honest parties must call this with the same
/// `plan` and `config` — admission is part of the lock-step state.
///
/// Works over any transport: pass the `ctx` given to a `Sim::run` or
/// `TcpCluster::run` party closure.
///
/// # Panics
///
/// Panics if a session body panics (with that session's panic message),
/// or if `config.max_sessions` is zero.
pub fn run_engine_party<O, F>(
    ctx: &mut dyn Comm,
    plan: &SessionPlan,
    config: &EngineConfig,
    body: F,
) -> EngineOutput<O>
where
    O: Send,
    F: Fn(&mut dyn Comm, SessionId) -> O + Sync,
{
    assert!(config.max_sessions > 0, "engine needs table capacity");

    let n = ctx.n();
    let me = ctx.me();
    let mut stats = EngineStats::default();
    stats.wire_bits += connection_bits(n, me);
    let mut decided: Vec<(SessionId, O)> = Vec::new();

    ctx.push_scope(ENGINE_SCOPE);
    std::thread::scope(|scope| {
        let body = &body;
        let mut sessions = Fibers::new(scope, n, ctx.t(), ctx.trace_enabled());
        // What the transport knows about faults, resampled after every
        // transport round and handed to the sessions with their inboxes.
        let mut faults = FaultView::of(ctx);
        let mut table: BTreeMap<u64, Slot> = BTreeMap::new();
        // Sessions `0..next` have been admitted; those no longer in the
        // table were reaped.
        let mut next: u64 = 0;
        let mut engine_round: u64 = 0;

        loop {
            // ---- 1. Admission ----
            while next < plan.sessions && table.len() < config.max_sessions {
                let sid = SessionId(next);
                sessions.spawn(sid.0, me, faults.clone(), move |sctx| body(sctx, sid));
                table.insert(
                    sid.0,
                    Slot {
                        rel_stack: Vec::new(),
                        admit_round: engine_round,
                        rounds: 0,
                    },
                );
                if ctx.trace_enabled() {
                    ctx.trace(Event::Note {
                        label: "engine_admit".to_owned(),
                        value: sid.to_string(),
                    });
                }
                next += 1;
            }
            if table.is_empty() {
                break; // drained: every session decided
            }

            // ---- 2–4. One step per live session, in session-id order ----
            // Frames per destination accumulate in session order, so the
            // wire image is independent of session-thread scheduling.
            let mut outgoing: Vec<Vec<SessionFrame>> = vec![Vec::new(); n];
            for (sid_raw, step) in sessions.collect() {
                let sid = SessionId(sid_raw);
                let slot = table.get_mut(&sid_raw).expect("live session has a slot");
                let (sends, events, output) = match step {
                    Step::Round { sends, events, .. } => {
                        slot.rounds += 1;
                        (sends, events, None)
                    }
                    Step::Done {
                        output,
                        sends,
                        events,
                    } => (sends, events, Some(output)),
                    Step::Panicked(payload) => {
                        panic!(
                            "engine session {sid} panicked: {}",
                            panic_message(payload.as_ref())
                        );
                    }
                };
                replay_session_trace(ctx, sid, &mut slot.rel_stack, events);
                for (to, payload) in sends {
                    let frame = SessionFrame {
                        session: sid,
                        payload,
                    };
                    outgoing[to.index()].push(frame);
                }
                let Some(output) = output else { continue };
                stats.sessions_decided += 1;
                stats.session_rounds.record(slot.rounds);
                let latency = engine_round - slot.admit_round + 1;
                stats.session_latency_rounds.record(latency);
                table.remove(&sid_raw);
                if ctx.trace_enabled() {
                    ctx.trace(Event::Note {
                        label: "engine_reap".to_owned(),
                        value: sid.to_string(),
                    });
                }
                decided.push((sid, output));
            }

            // ---- 4. Batch & flush: one envelope per destination ----
            let mut batches: Vec<Vec<Bytes>> = vec![Vec::new(); n];
            for (to, frames) in outgoing.into_iter().enumerate() {
                if frames.is_empty() {
                    continue;
                }
                let to = PartyId(to);
                let env = Envelope { frames };
                let payload = Bytes::from(env.encode_to_vec());
                if to != me {
                    stats.envelopes_sent += 1;
                    stats.frames_sent += env.frames.len() as u64;
                    stats.batch_occupancy.record(env.frames.len() as u64);
                    batches[to.index()].push(payload.clone());
                }
                // A raw send: the batches collected above meter `wire_bits`
                // once per transport round; per-frame `CommExt` metering
                // would count them twice.
                ctx.send_bytes(to, payload);
            }

            if table.is_empty() && next == plan.sessions {
                // Graceful shutdown: the last sessions decided this round.
                // A fire-and-forget tail of theirs would still be pending
                // when the engine scope closes, which `Comm` rejects; the
                // session bodies hosted today (`pi_n`) leave none.
                break;
            }

            // ---- 5. Advance the shared transport round ----
            let inbox = ctx.next_round();
            stats.wire_bits += round_bits(engine_round, me, batches);
            faults = FaultView::of(ctx);
            stats.peers_gone = stats.peers_gone.max(faults.silent().len() as u64);
            stats.engine_rounds += 1;
            engine_round += 1;

            // ---- 5. Route incoming frames to session inboxes ----
            let mut routed: BTreeMap<u64, Inbox> = table
                .keys()
                .map(|sid| (*sid, Inbox::with_parties(n)))
                .collect();
            for from in 0..n {
                let from = PartyId(from);
                // Per-(session, sender) backpressure: honest peers send at
                // most one frame per session per round, so the cap only
                // ever sheds byzantine floods.
                let mut accepted: BTreeMap<u64, usize> = BTreeMap::new();
                for raw in inbox.raw_from(from) {
                    // Shared decode: every frame payload is a view into
                    // `raw`, so routing a batch to k sessions copies nothing.
                    let env = match Envelope::decode_from_bytes(raw) {
                        Ok(env) => env,
                        Err(_) => {
                            stats.malformed_envelopes += 1;
                            continue;
                        }
                    };
                    for frame in env.frames {
                        let sid = frame.session.0;
                        let Some(session_inbox) = routed.get_mut(&sid) else {
                            if sid < next {
                                stats.late_frames += 1;
                            } else {
                                stats.stray_frames += 1;
                            }
                            continue;
                        };
                        let count = accepted.entry(sid).or_insert(0);
                        if *count >= INBOX_FRAMES_PER_SENDER {
                            stats.shed_frames += 1;
                        } else {
                            *count += 1;
                            session_inbox.push(from, frame.payload);
                        }
                    }
                }
            }

            // ---- 5. Deliver ----
            for (sid, session_inbox) in routed {
                sessions.deliver(&sid, session_inbox, faults.clone());
            }
        }
    });
    ctx.pop_scope();

    decided.sort_by_key(|(sid, _)| *sid);
    EngineOutput { decided, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_net::{CommExt as _, Sim};

    /// A 3-round all-to-all summing protocol, multiplexed K ways over the
    /// simulator: every session decides the same (correct) value on every
    /// party, and the engine terminates cleanly.
    #[test]
    fn multiplexed_echo_sessions_decide() {
        let n = 4;
        let k = 5;
        let plan = SessionPlan::closed(k);
        let config = EngineConfig::default();
        let report = Sim::new(n).run(|ctx, _id| {
            run_engine_party(ctx, &plan, &config, |sctx, sid| {
                let mut sum = 0u64;
                for round in 0..3u64 {
                    let inbox = sctx.exchange(&(sid.0 * 100 + round));
                    sum += inbox
                        .decode_each::<u64>()
                        .into_iter()
                        .map(|(_, v)| v)
                        .sum::<u64>();
                }
                sum
            })
        });
        let outputs = report.honest_outputs();
        assert_eq!(outputs.len(), n);
        for out in &outputs {
            assert_eq!(out.decided.len(), k);
            assert_eq!(out.stats.sessions_decided, k as u64);
            // All sessions ran the same 3 protocol rounds concurrently.
            assert_eq!(out.stats.engine_rounds, 3);
            // Full batching: every peer envelope carries all K sessions.
            assert_eq!(out.stats.batch_occupancy.max(), k as u64);
            for (sid, sum) in &out.decided {
                let per_round: u64 = (0..n as u64).map(|_| sid.0 * 100).sum::<u64>();
                assert_eq!(*sum, per_round * 3 + 3 * n as u64);
            }
        }
        // All parties agree per session.
        for w in outputs.windows(2) {
            assert_eq!(w[0].decided, w[1].decided);
        }
    }

    /// Transport shim that mimics a peer crashing partway through: it
    /// delegates to the real simulator transport but reports the last
    /// party silent from a given round on. Only the *accounting* is
    /// faked — which is exactly the seam the engine samples.
    struct SilentAfter<'a> {
        inner: &'a mut dyn Comm,
        rounds_seen: u64,
        silent_from: u64,
    }

    impl Comm for SilentAfter<'_> {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn t(&self) -> usize {
            self.inner.t()
        }
        fn me(&self) -> PartyId {
            self.inner.me()
        }
        fn send_bytes(&mut self, to: PartyId, payload: bytes::Bytes) {
            self.inner.send_bytes(to, payload);
        }
        fn next_round(&mut self) -> Inbox {
            self.rounds_seen += 1;
            self.inner.next_round()
        }
        fn push_scope(&mut self, name: &str) {
            self.inner.push_scope(name);
        }
        fn pop_scope(&mut self) {
            self.inner.pop_scope();
        }
        fn silent_parties(&self) -> Vec<PartyId> {
            if self.rounds_seen >= self.silent_from {
                vec![PartyId(self.n() - 1)]
            } else {
                Vec::new()
            }
        }
    }

    /// The engine samples `Comm::silent_parties` after every transport
    /// round and records the peak in `EngineStats::peers_gone`.
    #[test]
    fn engine_records_peak_silent_peers() {
        let n = 4;
        let plan = SessionPlan::closed(2);
        let config = EngineConfig::default();
        let report = Sim::new(n).run(|ctx, _id| {
            let mut ctx = SilentAfter {
                inner: ctx,
                rounds_seen: 0,
                silent_from: 2,
            };
            run_engine_party(&mut ctx, &plan, &config, |sctx, _sid| {
                for _ in 0..3u64 {
                    let _ = sctx.exchange(&1u64);
                }
                0u64
            })
        });
        for out in report.honest_outputs() {
            assert_eq!(out.stats.peers_gone, 1, "{:?}", out.stats);
        }
    }

    /// A hosted session sees the transport's fault view, not `Comm`'s
    /// "no one" defaults: the peer that goes quiet after transport round 2
    /// is visible to the session body from its own round 2 on — which is
    /// what lets an adaptive protocol inside the engine skip its fast path.
    #[test]
    fn session_sees_the_transports_silent_peers() {
        let n = 4;
        let plan = SessionPlan::closed(2);
        let config = EngineConfig::default();
        let report = Sim::new(n).run(|ctx, _id| {
            let mut ctx = SilentAfter {
                inner: ctx,
                rounds_seen: 0,
                silent_from: 2,
            };
            run_engine_party(&mut ctx, &plan, &config, |sctx, _sid| {
                (0..3u64)
                    .map(|_| {
                        let _ = sctx.exchange(&1u64);
                        (sctx.silent_parties(), sctx.fault_estimate().observed())
                    })
                    .collect::<Vec<_>>()
            })
        });
        let gone = vec![PartyId(n - 1)];
        for out in report.honest_outputs() {
            for (_, seen) in &out.decided {
                assert_eq!(
                    seen,
                    &vec![(Vec::new(), 0), (gone.clone(), 1), (gone.clone(), 1)]
                );
            }
        }
    }

    /// Sessions beyond capacity queue until a slot frees: with capacity 2
    /// and 5 sessions of differing lengths, sessions 0..5 each decide
    /// once, in more engine rounds than the longest session takes.
    #[test]
    fn closed_loop_queues_past_capacity() {
        let n = 3;
        let plan = SessionPlan::closed(5);
        let config = EngineConfig { max_sessions: 2 };
        let report = Sim::new(n).run(|ctx, _id| {
            run_engine_party(ctx, &plan, &config, |sctx, sid| {
                // Sessions run different round counts (1..=3).
                let rounds = sid.0 % 3 + 1;
                let mut last = 0u64;
                for _ in 0..rounds {
                    let inbox = sctx.exchange(&sid.0);
                    last = inbox.decode_each::<u64>().len() as u64;
                }
                last
            })
        });
        for out in report.honest_outputs() {
            let ids: Vec<u64> = out.decided.iter().map(|(sid, _)| sid.0).collect();
            assert_eq!(ids, [0, 1, 2, 3, 4]);
            assert!(out.stats.engine_rounds > 3, "{:?}", out.stats);
        }
    }

    /// A session panic surfaces as an engine panic carrying the session
    /// id and original message (and the simulator reports it per party).
    #[test]
    fn session_panic_surfaces_with_session_id() {
        let n = 3;
        let plan = SessionPlan::closed(2);
        let config = EngineConfig::default();
        let result = std::panic::catch_unwind(|| {
            Sim::new(n).run(|ctx, _id| {
                run_engine_party(ctx, &plan, &config, |sctx, sid| {
                    let _ = sctx.exchange(&sid.0);
                    if sid.0 == 1 {
                        panic!("session body exploded");
                    }
                    0u64
                })
            })
        });
        let err = result.expect_err("must propagate");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("s1"), "panic names the session: {msg}");
        assert!(msg.contains("session body exploded"), "{msg}");
    }
}

//! Parallel composition of synchronous sub-protocols.
//!
//! The paper's baseline "CA via `n` broadcasts" (§1) assumes the `n`
//! broadcast instances run *in parallel*: one physical round carries one
//! round of every instance, so the composition costs the max of the
//! instances' round counts, not the sum. This module provides that
//! combinator for coroutine-style protocol code:
//!
//! [`run_parallel`] starts `k` logical instances of protocol code, each
//! seeing its own [`Comm`]; their sends are tagged with the instance index
//! and multiplexed onto the parent channel, and all instances advance
//! rounds in lock step (an instance that finishes early simply stops
//! contributing messages).
//!
//! Correctness relies on the same fact the simulator relies on globally:
//! honest parties of a deterministic synchronous protocol call
//! `next_round` in lock step, so the `i`-th physical round carries the
//! `i`-th logical round of every live instance, and tagging by instance
//! index is enough to demultiplex.

use std::collections::BTreeMap;

use bytes::Bytes;
use ca_codec::{Decode, Encode, Reader, Writer};

use crate::fiber::{FaultView, Fibers, Step};
use crate::{Comm, Inbox, PartyId};

/// Wire envelope for multiplexed sub-instance messages: the instance
/// tag, then the payload to the end of the message (no length prefix).
struct Tagged {
    instance: u32,
    payload: Bytes,
}

impl Encode for Tagged {
    fn encode(&self, w: &mut Writer) {
        self.instance.encode(w);
        w.put_raw(&self.payload);
    }
    fn encoded_len(&self) -> usize {
        Encode::encoded_len(&self.instance) + self.payload.len()
    }
}

impl Decode for Tagged {
    fn decode(r: &mut Reader<'_>) -> Result<Self, ca_codec::CodecError> {
        let instance = u32::decode(r)?;
        let payload = r.get_shared(r.remaining())?;
        Ok(Tagged { instance, payload })
    }
}

/// Runs `k` logical instances of `body` in parallel over one physical
/// [`Comm`], returning their outputs in instance order.
///
/// Each instance `i` runs `body(sub_ctx, i)` as a [`crate::fiber`] with a
/// virtual channel; one physical round carries one logical round of every
/// still-running instance. Instances of a deterministic synchronous
/// protocol stay aligned across honest parties, exactly like the top-level
/// protocol does.
///
/// The physical communication equals the sum of the instances' logical
/// communication plus an `O(1)`-byte instance tag per message; the physical
/// round count is the max (not the sum) of the instances' round counts.
///
/// # Examples
///
/// ```
/// use ca_net::{run_parallel, CommExt, Sim};
///
/// // Three all-to-all exchanges sharing ONE physical round.
/// let report = Sim::new(3).run(|ctx, _id| {
///     run_parallel(ctx, 3, |sub, idx| {
///         sub.exchange(&(idx as u64)).decode_each::<u64>().len()
///     })
/// });
/// assert_eq!(report.metrics.rounds, 1);
/// assert!(report.honest_outputs().iter().all(|o| **o == vec![3, 3, 3]));
/// ```
pub fn run_parallel<O, F>(ctx: &mut dyn Comm, k: usize, body: F) -> Vec<O>
where
    O: Send,
    F: Fn(&mut dyn Comm, usize) -> O + Sync,
{
    assert!(k > 0, "need at least one instance");
    assert!(u32::try_from(k).is_ok(), "too many instances");
    let n = ctx.n();
    let t = ctx.t();
    let me = ctx.me();
    // Sub-instances multiplex onto the parent channel and keep the
    // parent's metrics scope, so their `Comm`s do not trace individually;
    // one parent-level note marks the composition instead.
    if ctx.trace_enabled() {
        ctx.trace(ca_trace::Event::Note {
            label: "parallel".to_owned(),
            value: format!("k={k}"),
        });
    }

    std::thread::scope(|scope| {
        let mut fibers = Fibers::new(scope, n, t, false);
        let mut faults = FaultView::of(ctx);
        for index in 0..k {
            let body = &body;
            fibers.spawn(index, me, faults.clone(), move |sub| body(sub, index));
        }
        let mut outputs: BTreeMap<usize, O> = BTreeMap::new();

        loop {
            // One step from every live instance, in instance order: a
            // round submission, or the instance's return with its
            // trailing sends.
            let mut anyone_waiting = false;
            for (index, step) in fibers.collect() {
                let sends = match step {
                    Step::Round { sends, .. } => {
                        anyone_waiting = true;
                        sends
                    }
                    Step::Done { output, sends, .. } => {
                        outputs.insert(index, output);
                        sends
                    }
                    // Re-raise the ORIGINAL payload so callers see the
                    // real failure; unwinding out of the scope releases
                    // the surviving instances.
                    Step::Panicked(payload) => std::panic::resume_unwind(payload),
                };
                for (to, payload) in sends {
                    let instance = index as u32;
                    let tagged = Tagged { instance, payload };
                    ctx.send_bytes(to, Bytes::from(tagged.encode_to_vec()));
                }
            }
            // One physical round carries this cycle's logical round. If no
            // instance is waiting, trailing sends are merely buffered into
            // the parent (flushed at its next round boundary).
            if !anyone_waiting {
                break;
            }
            let physical = ctx.next_round();
            faults = FaultView::of(ctx);

            // Demultiplex into per-instance inboxes.
            let mut inboxes: Vec<Inbox> = (0..k).map(|_| Inbox::with_parties(n)).collect();
            for sender in 0..n {
                for raw in physical.raw_from(PartyId(sender)) {
                    if let Ok(tagged) = Tagged::decode_from_bytes(raw) {
                        let idx = tagged.instance as usize;
                        if idx < k {
                            inboxes[idx].push(PartyId(sender), tagged.payload);
                        }
                    }
                }
            }
            // Only the waiting instances are still live; `deliver` ignores
            // the rest.
            for (index, inbox) in inboxes.into_iter().enumerate() {
                fibers.deliver(&index, inbox, faults.clone());
            }
        }

        // Every instance returned (a panic re-raised above).
        outputs.into_values().collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommExt, Sim};

    #[test]
    fn parallel_instances_are_isolated() {
        // Each instance exchanges its own tagged value; cross-talk would
        // corrupt the per-instance sums.
        let report = Sim::new(4).run(|ctx, _id| {
            run_parallel(ctx, 3, |sub, idx| {
                let inbox = sub.exchange(&(idx as u64 * 1000));
                inbox
                    .decode_each::<u64>()
                    .into_iter()
                    .map(|(_, v)| v)
                    .sum::<u64>()
            })
        });
        for out in report.honest_outputs() {
            assert_eq!(out, &vec![0u64, 4000, 8000]);
        }
        // All three instances shared ONE physical round.
        assert_eq!(report.metrics.rounds, 1);
    }

    #[test]
    fn uneven_round_counts() {
        // Instance i runs i+1 rounds; physical rounds = max = 3.
        let report = Sim::new(3).run(|ctx, _id| {
            run_parallel(ctx, 3, |sub, idx| {
                let mut heard = 0;
                for r in 0..=idx as u64 {
                    let inbox = sub.exchange(&r);
                    heard += inbox.decode_each::<u64>().len();
                }
                heard
            })
        });
        assert_eq!(report.metrics.rounds, 3);
        for out in report.honest_outputs() {
            assert_eq!(out, &vec![3, 6, 9]);
        }
    }

    #[test]
    fn nested_real_protocol() {
        // Parallel binary phase-king-like voting: just verify round sharing
        // with a nontrivial multi-round body and distinct inputs per party.
        let report = Sim::new(4).run(|ctx, id| {
            run_parallel(ctx, 2, |sub, idx| {
                let mut v = (id.index() + idx) as u64;
                for _ in 0..3 {
                    let inbox = sub.exchange(&v);
                    v = inbox
                        .decode_each::<u64>()
                        .into_iter()
                        .map(|(_, x)| x)
                        .max()
                        .unwrap_or(v);
                }
                v
            })
        });
        assert_eq!(report.metrics.rounds, 3);
        for out in report.honest_outputs() {
            assert_eq!(out, &vec![3, 4]); // max over ids (0..=3) + idx
        }
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn zero_instances_rejected() {
        Sim::new(2).run(|ctx, _| run_parallel(ctx, 0, |_, _| ()));
    }

    /// Single-party transport that just reflects sends back, so the panic
    /// path can be exercised without the simulator re-wrapping payloads.
    /// It reports its one party silent once a round has passed — the
    /// accounting seam `instances_see_the_parents_fault_view` watches.
    struct Loopback {
        pending: Vec<Bytes>,
        rounds: u64,
    }

    impl Comm for Loopback {
        fn n(&self) -> usize {
            1
        }
        fn t(&self) -> usize {
            0
        }
        fn me(&self) -> PartyId {
            PartyId(0)
        }
        fn send_bytes(&mut self, _to: PartyId, payload: Bytes) {
            self.pending.push(payload);
        }
        fn next_round(&mut self) -> Inbox {
            self.rounds += 1;
            let mut inbox = Inbox::with_parties(1);
            for payload in self.pending.drain(..) {
                inbox.push(PartyId(0), payload);
            }
            inbox
        }
        fn push_scope(&mut self, _name: &str) {}
        fn pop_scope(&mut self) {}
        fn silent_parties(&self) -> Vec<PartyId> {
            if self.rounds > 0 {
                vec![PartyId(0)]
            } else {
                Vec::new()
            }
        }
    }

    /// An instance's `Comm` answers fault queries from the parent
    /// transport's view as of the last physical round, not from `Comm`'s
    /// "no one" defaults.
    #[test]
    fn instances_see_the_parents_fault_view() {
        let mut ctx = Loopback {
            pending: Vec::new(),
            rounds: 0,
        };
        let seen = run_parallel(&mut ctx, 2, |sub, _idx| {
            let before = sub.silent_parties();
            let _ = sub.exchange(&1u64);
            (before, sub.silent_parties(), sub.fault_estimate().silent)
        });
        for (before, after, estimated) in seen {
            assert!(before.is_empty());
            assert_eq!(after, vec![PartyId(0)]);
            assert_eq!(estimated, 1);
        }
    }

    /// An instance that panics mid-protocol — after a round in which a
    /// sibling already finished — must not deadlock the parent (which
    /// would otherwise wait forever for the dead instance's submission)
    /// and must surface its ORIGINAL panic payload after all instances
    /// are joined.
    #[test]
    #[should_panic(expected = "instance 1 exploded")]
    fn instance_panic_propagates_original_payload() {
        let mut ctx = Loopback {
            pending: Vec::new(),
            rounds: 0,
        };
        run_parallel(&mut ctx, 2, |sub, idx| {
            if idx == 1 {
                let _ = sub.exchange(&1u64);
                panic!("instance 1 exploded");
            }
            // Instance 0 finishes immediately; only instance 1 is live
            // when the panic happens.
        });
    }
}

//! Polled hosting: many `async` protocol bodies on their owner's thread.
//!
//! [`Tasks`] keeps the contract of [`crate::fiber::Fibers`] — `spawn`,
//! [`Tasks::collect`] one [`Step`] per live body in key order,
//! [`Tasks::deliver`], [`Tasks::kill`] — for bodies written as `async`
//! closures over a hosted [`Ctx`]. A body is a boxed future; `collect`
//! polls each live one once, under [`Waker::noop`], and the body runs
//! until its `next_round().await` leaves a step in its mailbox and
//! returns `Pending`. Nothing wakes a task: the owner's schedule is the
//! only one, so no thread, lock or condvar is involved, and `kill` is
//! dropping the future.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::ctx::Mailbox;
use crate::step::{FaultView, Step, StepBuf};
use crate::{Ctx, Inbox, PartyId};

/// One body: its future, which ends in its [`Step::Done`], and the
/// mailbox its [`Ctx`] crosses boundaries through.
struct Task<'a, O> {
    body: Pin<Box<dyn Future<Output = Step<O>> + 'a>>,
    mailbox: Rc<RefCell<Mailbox>>,
}

/// A set of `async` bodies keyed by `K`, polled by their owner.
pub struct Tasks<'a, K, O> {
    n: usize,
    t: usize,
    trace_on: bool,
    live: BTreeMap<K, Task<'a, O>>,
}

impl<'a, K: Ord + Clone, O: 'a> Tasks<'a, K, O> {
    /// An empty set whose bodies all see `n` parties, budget `t`, and
    /// buffer trace events iff `trace_on`.
    pub fn new(n: usize, t: usize, trace_on: bool) -> Self {
        Self {
            n,
            t,
            trace_on,
            live: BTreeMap::new(),
        }
    }

    /// Adds `body` as task `key`, running as party `me` with the initial
    /// fault view `faults`. It owes one step to the next
    /// [`Tasks::collect`], and runs no code before it.
    pub fn spawn(
        &mut self,
        key: K,
        me: PartyId,
        faults: FaultView,
        body: impl AsyncFnOnce(&mut Ctx<'static>) -> O + 'a,
    ) {
        let mailbox = Rc::default();
        let buf = StepBuf::new(self.n, self.trace_on, faults);
        let mut ctx = Ctx::hosted(self.n, self.t, me, buf, Rc::clone(&mailbox));
        let body = Box::pin(async move {
            let output = body(&mut ctx).await;
            ctx.done(output)
        });
        self.live.insert(key, Task { body, mailbox });
    }

    /// Polls every live task once, in key order, and takes its step.
    /// Tasks that report [`Step::Round`] stay live until their delivery;
    /// the others are finished and dropped.
    ///
    /// # Panics
    ///
    /// Panics if a body returns `Pending` without leaving a step: it
    /// awaited something other than its [`Ctx`], which nothing would
    /// ever wake.
    pub fn collect(&mut self) -> Vec<(K, Step<O>)> {
        #[expect(clippy::disallowed_methods, reason = "one step per live task")]
        let mut steps = Vec::with_capacity(self.live.len());
        let mut cx = Context::from_waker(Waker::noop());
        // `retain` visits in ascending key order.
        self.live.retain(|key, task| {
            let poll = panic::catch_unwind(AssertUnwindSafe(|| task.body.as_mut().poll(&mut cx)));
            let step = match poll {
                Ok(Poll::Ready(done)) => done,
                Ok(Poll::Pending) => match task.mailbox.borrow_mut().step.take() {
                    Some(Step::Round {
                        sends,
                        scope,
                        events,
                    }) => Step::Round {
                        sends,
                        scope,
                        events,
                    },
                    #[expect(clippy::panic, reason = "the host cannot resume such a body")]
                    _ => panic!("a task returned Pending without leaving a step"),
                },
                Err(payload) => Step::Panicked(payload),
            };
            let parked = matches!(step, Step::Round { .. });
            steps.push((key.clone(), step));
            parked
        });
        steps
    }

    /// Hands parked task `key` its round's `inbox` and the owner's current
    /// fault view; the next [`Tasks::collect`] resumes it. A key that is
    /// not live is ignored.
    pub fn deliver(&mut self, key: &K, inbox: Inbox, faults: FaultView) {
        if let Some(task) = self.live.get(key) {
            task.mailbox.borrow_mut().delivery = Some((inbox, faults));
        }
    }

    /// Lets go of task `key`: its future is dropped, so it is never
    /// polled again.
    pub fn kill(&mut self, key: &K) {
        self.live.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn delivered(tasks: &mut Tasks<'_, usize, usize>, keys: &[usize]) {
        for key in keys {
            tasks.deliver(key, Inbox::with_parties(3), FaultView::default());
        }
    }

    /// One task panics while its siblings are parked: `collect` hands back
    /// the original payload in its key's place, and the siblings step on.
    #[test]
    fn panic_surfaces_original_payload() {
        let mut tasks = Tasks::new(3, 0, false);
        for i in 0..3usize {
            tasks.spawn(i, PartyId(i), FaultView::default(), async move |ctx| {
                ctx.exchange(&1u64).await;
                if i == 1 {
                    std::panic::panic_any(41u32);
                }
                ctx.exchange(&2u64).await;
                i
            });
        }
        for (_, step) in tasks.collect() {
            assert!(matches!(step, Step::Round { .. }));
        }
        delivered(&mut tasks, &[0, 1, 2]);
        let mut steps = tasks.collect();
        match steps.remove(1) {
            (1, Step::Panicked(payload)) => assert_eq!(payload.downcast_ref::<u32>(), Some(&41)),
            _ => panic!("task 1 must report its panic"),
        }
        assert!(matches!(
            steps.as_slice(),
            [(0, Step::Round { .. }), (2, Step::Round { .. })]
        ));
        delivered(&mut tasks, &[0, 2]);
        let keys: Vec<usize> = tasks.collect().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [0, 2]);
    }

    /// A killed task is dropped where it is parked: it is never polled
    /// again, a delivery to it is ignored, and its locals are dropped.
    #[test]
    fn a_killed_task_is_never_stepped_again() {
        struct Flag<'a>(&'a Cell<bool>);
        impl Drop for Flag<'_> {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let (polls, dropped) = (Cell::new(0), Cell::new(false));
        let mut tasks = Tasks::new(2, 0, false);
        for key in 0..2usize {
            let (polls, dropped) = (&polls, &dropped);
            tasks.spawn(key, PartyId(key), FaultView::default(), async move |ctx| {
                let _flag = (key == 0).then(|| Flag(dropped));
                for _ in 0..3 {
                    polls.set(polls.get() + 1);
                    ctx.next_round().await;
                }
                key
            });
        }
        assert_eq!(tasks.collect().len(), 2);
        assert_eq!(polls.get(), 2);
        tasks.kill(&0);
        assert!(dropped.get(), "killing drops the body");
        delivered(&mut tasks, &[0, 1]);
        let keys: Vec<usize> = tasks.collect().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [1]);
        assert_eq!(polls.get(), 3, "only task 1 ran");
    }

    /// A task spawned between two collects owes the second exactly one
    /// step, taken beside its sibling's in key order; neither runs before
    /// it is collected.
    #[test]
    fn spawn_between_collects_owes_exactly_one_step() {
        let started = Cell::new(0);
        let mut tasks = Tasks::new(2, 0, false);
        let started = &started;
        tasks.spawn(0, PartyId(0), FaultView::default(), async move |ctx| {
            started.set(started.get() + 1);
            ctx.next_round().await;
            ctx.next_round().await;
            0
        });
        assert_eq!(started.get(), 0, "spawning runs nothing");
        assert_eq!(tasks.collect().len(), 1);
        delivered(&mut tasks, &[0]);
        tasks.spawn(1, PartyId(1), FaultView::default(), async move |ctx| {
            started.set(started.get() + 1);
            ctx.next_round().await;
            1
        });
        let steps = tasks.collect();
        assert!(matches!(
            steps.as_slice(),
            [(0, Step::Round { .. }), (1, Step::Round { .. })]
        ));
        assert_eq!(started.get(), 2);
        delivered(&mut tasks, &[0, 1]);
        let outputs: Vec<_> = (tasks.collect().into_iter())
            .map(|(key, step)| match step {
                Step::Done { output, .. } => (key, output),
                _ => panic!("task {key} must be done"),
            })
            .collect();
        assert_eq!(outputs, [(0, 0), (1, 1)]);
        assert!(tasks.collect().is_empty());
    }

    /// A step carries what the body buffered since the previous one: its
    /// sends, its scope path, and (traced) its scope events.
    #[test]
    fn steps_carry_sends_scope_and_events() {
        let mut tasks = Tasks::new(2, 0, true);
        tasks.spawn(0, PartyId(0), FaultView::default(), async |ctx| {
            ctx.scoped("outer", async |ctx| ctx.exchange(&7u64).await)
                .await;
            ctx.send(PartyId(1), &8u64);
            0
        });
        match tasks.collect().pop() {
            Some((
                0,
                Step::Round {
                    sends,
                    scope,
                    events,
                },
            )) => {
                assert_eq!(sends.len(), 2);
                assert_eq!(scope, "outer");
                assert_eq!(events.len(), 1);
            }
            _ => panic!("task 0 must be parked"),
        }
        delivered(&mut tasks, &[0]);
        match tasks.collect().pop() {
            Some((0, Step::Done { sends, events, .. })) => {
                assert_eq!(sends.len(), 1, "the fire-and-forget tail");
                assert_eq!(events.len(), 1, "the scope exit");
            }
            _ => panic!("task 0 must be done"),
        }
    }

    /// A body that awaits anything but its `Ctx` would never be woken;
    /// `collect` names the fault instead of reporting a step.
    #[test]
    #[should_panic(expected = "a task returned Pending without leaving a step")]
    fn pending_without_a_step_panics() {
        let mut tasks = Tasks::new(1, 0, false);
        tasks.spawn(0, PartyId(0), FaultView::default(), async |_ctx| {
            std::future::pending::<()>().await;
            0
        });
        let _ = tasks.collect();
    }
}

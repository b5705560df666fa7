//! Threaded hosting: many blocking protocol bodies, each parked at its
//! round boundary on a thread of its own.
//!
//! A blocking body is code over [`Comm::next_round`]. An executor that
//! hosts several such bodies — the simulator its parties, the engine
//! driver the sessions of a blocking body — needs each body suspended at
//! the boundary, its buffered sends taken, and the body resumed with an
//! [`Inbox`]. A *fiber* is that: one scoped OS thread running the body
//! against a private [`Comm`] whose `next_round` hands a [`Step`] to the
//! owner and parks until the owner delivers. (`async` bodies over a
//! [`crate::Ctx`] need none of this: [`crate::Tasks`] polls them on the
//! owner's thread, under the same contract.)
//!
//! The owner repeats [`Fibers::collect`] (exactly one step from every live
//! fiber, in key order, so nothing downstream depends on thread
//! scheduling) and [`Fibers::deliver`]. What the steps *mean* — metering,
//! multiplexing, batching, how a panic is reported — is the owner's
//! policy; this module never branches on who is calling.
//!
//! Each fiber has a *slot* (a mutex over its pending step, its pending
//! delivery and a `released` flag, plus the condvar the fiber parks on);
//! the set shares a *hub* (a mutex over `(arrived, need)`, plus the condvar
//! the owner parks on). A fiber leaves its step and counts itself in under
//! the lock order slot, then hub; the hub's fields are private to its own
//! module, so its lock is taken only inside `Hub`'s methods and no other
//! order can be written. `collect` sets
//! `need` to the live count and sleeps once per round, not once per
//! fiber. One notify suffices: each live fiber owes one arrival per round,
//! so exactly one arrival makes `arrived == need`, and the owner reads the
//! count under the hub lock before it sleeps, so that notify cannot be
//! missed.
//!
//! Teardown is ownership-driven. [`Fibers::kill`] and dropping the
//! [`Fibers`] release the slot (`kill` uncounts a step nobody took), and a
//! released fiber is never counted again: it unwinds with a private payload
//! raised by [`std::panic::resume_unwind`], which does not run the panic
//! hook — so it exits silently and the process-global hook is never
//! touched.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

use bytes::Bytes;
use ca_trace::Event;

use crate::step::{FaultView, Step, StepBuf};
use crate::{Comm, FaultEstimate, Inbox, PartyId};

/// Payload a fiber unwinds with when its owner has let go of it.
struct Released;

fn release() -> ! {
    panic::resume_unwind(Box::new(Released))
}

/// One fiber's hand-off point (see the module doc). Every update under
/// its lock and the hub's is one assignment, so a poisoned guard still
/// holds a valid value.
struct Slot<O> {
    state: Mutex<SlotState<O>>,
    delivered: Condvar,
    hub: Arc<Hub>,
}

struct SlotState<O> {
    step: Option<Step<O>>,
    delivery: Option<(Inbox, FaultView)>,
    released: bool,
}

mod hub {
    //! The hub lives in its own module so that its fields are private to
    //! it: the compiler rejects a `hub.count.lock()` anywhere else in
    //! `fiber.rs`, so no code outside these methods can hold the hub's
    //! lock, let alone take a slot's lock under it.

    use std::sync::{Condvar, Mutex, PoisonError};

    /// The set's `(arrived, need)` count; `collect` sleeps until they meet.
    ///
    /// Every method locks the count, updates it and releases it before it
    /// returns, and takes no other lock: no guard of the hub leaves this
    /// module, so a slot's lock is the only one a hub update can be nested
    /// in.
    #[derive(Default)]
    pub(super) struct Hub {
        count: Mutex<(usize, usize)>,
        all_in: Condvar,
    }

    impl Hub {
        /// Counts one arrival in, waking the owner if it was the last one.
        pub(super) fn count_in(&self) {
            let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
            count.0 += 1;
            let last = count.0 == count.1;
            drop(count);
            if last {
                self.all_in.notify_one();
            }
        }

        /// Takes back one arrival whose step nobody will collect.
        pub(super) fn uncount(&self) {
            self.count.lock().unwrap_or_else(PoisonError::into_inner).0 -= 1;
        }

        /// Starts the next round's count from zero.
        pub(super) fn reset(&self) {
            *self.count.lock().unwrap_or_else(PoisonError::into_inner) = (0, 0);
        }

        /// Sleeps until `need` fibers have arrived.
        pub(super) fn wait_for(&self, need: usize) {
            let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
            count.1 = need;
            let _all_in = self
                .all_in
                .wait_while(count, |(arrived, need)| arrived < need);
        }

        /// A copy of `(arrived, need)`.
        #[cfg(test)]
        pub(super) fn counts(&self) -> (usize, usize) {
            *self.count.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }
}

use hub::Hub;

impl<O> Slot<O> {
    /// Leaves `step` for the owner and counts it in. Returns the slot
    /// still locked, or `None` (dropping `step`) once released.
    fn arrive(&self, step: Step<O>) -> Option<MutexGuard<'_, SlotState<O>>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.released {
            return None;
        }
        state.step = Some(step);
        self.hub.count_in();
        Some(state)
    }

    /// Takes the step this fiber left, if any.
    fn take_step(&self) -> Option<Step<O>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.step.take()
    }

    /// Hands the fiber its round's delivery and wakes it.
    fn deliver(&self, delivery: (Inbox, FaultView)) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.delivery = Some(delivery);
        drop(state);
        self.delivered.notify_one();
    }

    /// Lets go of this fiber, uncounting a step it left but nobody took.
    fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.released = true;
        if state.step.take().is_some() {
            self.hub.uncount();
        }
        drop(state);
        self.delivered.notify_one();
    }
}

/// A set of fibers keyed by `K`, bound to a [`std::thread::scope`].
///
/// Create it inside the scope's closure: it cannot outlive the closure,
/// and dropping it releases every fiber still parked (or still
/// computing), so the scope's join never waits on a body that nobody will
/// resume — on the normal path and when the owner itself unwinds.
pub struct Fibers<'scope, 'env, K, O> {
    scope: &'scope Scope<'scope, 'env>,
    n: usize,
    t: usize,
    trace_on: bool,
    hub: Arc<Hub>,
    live: BTreeMap<K, Arc<Slot<O>>>,
}

impl<'scope, 'env, K: Ord + Clone, O: Send + 'scope> Fibers<'scope, 'env, K, O> {
    /// An empty set whose fibers all see `n` parties, budget `t`, and
    /// buffer trace events iff `trace_on`.
    pub fn new(scope: &'scope Scope<'scope, 'env>, n: usize, t: usize, trace_on: bool) -> Self {
        Self {
            scope,
            n,
            t,
            trace_on,
            hub: Arc::default(),
            live: BTreeMap::new(),
        }
    }

    /// Starts `body` as fiber `key`, running as party `me` with the
    /// initial fault view `faults`. It owes one step to the next
    /// [`Fibers::collect`].
    pub fn spawn(
        &mut self,
        key: K,
        me: PartyId,
        faults: FaultView,
        body: impl FnOnce(&mut dyn Comm) -> O + Send + 'scope,
    ) {
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                step: None,
                delivery: None,
                released: false,
            }),
            delivered: Condvar::new(),
            hub: Arc::clone(&self.hub),
        });
        let mut comm = FiberComm {
            n: self.n,
            t: self.t,
            me,
            buf: StepBuf::new(self.n, self.trace_on, faults),
            slot: Arc::clone(&slot),
        };
        self.scope.spawn(move || {
            let step = match panic::catch_unwind(AssertUnwindSafe(|| body(&mut comm))) {
                Ok(output) => comm.buf.done(output),
                Err(payload) if payload.is::<Released>() => return,
                Err(payload) => Step::Panicked(payload),
            };
            // The owner may have let go in the meantime; nobody to tell.
            let _ = comm.slot.arrive(step);
        });
        self.live.insert(key, slot);
    }

    /// Takes exactly one step from every live fiber, in key order, after
    /// one sleep until all of them have arrived. Fibers that report
    /// [`Step::Round`] stay live, parked until [`Fibers::deliver`]; the
    /// others are finished and forgotten.
    pub fn collect(&mut self) -> Vec<(K, Step<O>)> {
        let need = self.live.len();
        self.hub.wait_for(need);
        #[expect(clippy::disallowed_methods, reason = "one step per live fiber")]
        let mut steps = Vec::with_capacity(need);
        // `retain` visits in ascending key order.
        self.live.retain(|key, slot| {
            #[expect(
                clippy::expect_used,
                reason = "the hub counted every live fiber in, and only collect takes a step"
            )]
            let step = slot.take_step().expect("an arrived fiber left its step");
            let parked = matches!(step, Step::Round { .. });
            steps.push((key.clone(), step));
            parked
        });
        // None of them arrives again before its delivery.
        self.hub.reset();
        steps
    }

    /// Resumes parked fiber `key` with its round's `inbox` and the
    /// owner's current fault view. A key that is not live is ignored.
    pub fn deliver(&mut self, key: &K, inbox: Inbox, faults: FaultView) {
        if let Some(slot) = self.live.get(key) {
            slot.deliver((inbox, faults));
        }
    }

    /// Lets go of fiber `key`: parked, it unwinds now; mid-computation,
    /// it unwinds at its next step, which is never counted. Silent either
    /// way.
    pub fn kill(&mut self, key: &K) {
        if let Some(slot) = self.live.remove(key) {
            slot.release();
        }
    }
}

impl<K, O> Drop for Fibers<'_, '_, K, O> {
    fn drop(&mut self) {
        self.live.values().for_each(|slot| slot.release());
    }
}

/// The `Comm` a fiber's body runs against: sends and trace events buffer
/// in its [`StepBuf`]; `next_round` trades them for the owner's delivery.
struct FiberComm<O> {
    n: usize,
    t: usize,
    me: PartyId,
    buf: StepBuf,
    slot: Arc<Slot<O>>,
}

impl<O> Comm for FiberComm<O> {
    fn n(&self) -> usize {
        self.n
    }

    fn t(&self) -> usize {
        self.t
    }

    fn me(&self) -> PartyId {
        self.me
    }

    fn send_bytes(&mut self, to: PartyId, payload: Bytes) {
        self.buf.send_bytes(to, payload);
    }

    fn next_round(&mut self) -> Inbox {
        let delivery = self.slot.arrive(self.buf.round()).and_then(|state| {
            let mut state = (self.slot.delivered)
                .wait_while(state, |state| state.delivery.is_none() && !state.released)
                .unwrap_or_else(PoisonError::into_inner);
            // A delivery made before the release is still this round's.
            state.delivery.take()
        });
        let Some((inbox, faults)) = delivery else {
            release()
        };
        self.buf.resume(faults);
        inbox
    }

    fn push_scope(&mut self, name: &str) {
        self.buf.push_scope(name);
    }

    fn pop_scope(&mut self) {
        self.buf.pop_scope();
    }

    fn silent_parties(&self) -> Vec<PartyId> {
        self.buf.silent_parties()
    }

    fn fault_estimate(&self) -> FaultEstimate {
        self.buf.fault_estimate()
    }

    fn trace_enabled(&self) -> bool {
        self.buf.trace_enabled()
    }

    fn trace(&mut self, event: Event) {
        self.buf.trace(event);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use crate::CommExt;
    use ca_codec::Encode as _;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::{sync_channel, RecvTimeoutError};
    use std::time::Duration;

    /// One fiber panics while its siblings are parked: `collect` hands
    /// back the original payload, and letting go of the set releases the
    /// siblings so the scope joins.
    #[test]
    fn panic_surfaces_original_payload_and_siblings_are_released() {
        let payload = std::thread::scope(|scope| {
            let mut fibers = Fibers::new(scope, 3, 0, false);
            for i in 0..3usize {
                fibers.spawn(i, PartyId(i), FaultView::default(), move |ctx| {
                    ctx.exchange(&1u64);
                    if i == 1 {
                        std::panic::panic_any(41u32);
                    }
                    ctx.exchange(&2u64);
                });
            }
            for (_, step) in fibers.collect() {
                assert!(matches!(step, Step::Round { .. }));
            }
            for i in 0..3 {
                fibers.deliver(&i, Inbox::with_parties(3), FaultView::default());
            }
            let mut steps = fibers.collect();
            match steps.remove(1) {
                (1, Step::Panicked(payload)) => payload,
                _ => panic!("fiber 1 must report its panic"),
            }
        });
        assert_eq!(payload.downcast_ref::<u32>(), Some(&41));
    }

    /// Killing a fiber that is mid-computation discards its late step and
    /// unwinds it without ever invoking the panic hook — the default hook
    /// stays installed and stays quiet.
    #[test]
    fn killed_fiber_unwinds_without_the_panic_hook() {
        static RELEASES_HOOKED: AtomicUsize = AtomicUsize::new(0);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<Released>() {
                RELEASES_HOOKED.fetch_add(1, Ordering::SeqCst);
            } else {
                previous(info);
            }
        }));
        let go = AtomicBool::new(false);
        let reached_boundary = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut fibers = Fibers::<u8, ()>::new(scope, 1, 0, false);
            let (go, reached) = (&go, &reached_boundary);
            fibers.spawn(0, PartyId(0), FaultView::default(), move |ctx| {
                while !go.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                reached.store(true, Ordering::SeqCst);
                ctx.next_round();
                unreachable!("a killed fiber is never resumed");
            });
            fibers.kill(&0);
            go.store(true, Ordering::SeqCst);
        });
        assert!(reached_boundary.load(Ordering::SeqCst));
        assert_eq!(RELEASES_HOOKED.load(Ordering::SeqCst), 0);
    }

    /// Dropping the set with every fiber parked lets the scope join.
    #[test]
    fn dropping_the_set_releases_parked_fibers() {
        let finished = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let mut fibers = Fibers::new(scope, 4, 1, false);
            for i in 0..4usize {
                let finished = &finished;
                fibers.spawn(i, PartyId(i), FaultView::default(), move |ctx| {
                    ctx.next_round();
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            assert_eq!(fibers.collect().len(), 4);
        });
        assert_eq!(finished.load(Ordering::SeqCst), 0, "nobody was resumed");
    }

    const STRESS_FIBERS: usize = 6;

    /// One stress run: six fibers of two to four rounds, each yielding or
    /// sleeping up to 200 µs (drawn) before every round and sending one
    /// message a round. Checks every `collect` for ascending keys and the
    /// expected sends, and every output against what was delivered. Per
    /// the seed, a drawn fiber is killed, or the whole set dropped, right
    /// after a drawn round's delivery, while the fibers compute.
    fn stress_run(seed: u64) {
        let draw =
            |stream: u64| crate::splitmix64(seed ^ stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let rounds = |key: usize| 2 + key as u64 % 3;
        let value = |key: usize, round: u64| 100 * key as u64 + round;
        let dest = |key: usize, round: u64| PartyId((key + round as usize) % STRESS_FIBERS);
        let jitter = |key: usize, round: u64| {
            let d = draw(((key as u64) << 32) | round);
            if d.is_multiple_of(2) {
                (0..d % 8).for_each(|_| std::thread::yield_now());
            } else {
                std::thread::sleep(Duration::from_micros(d % 201));
            }
        };
        let plan = draw(u64::MAX);
        let (mode, cut_round, victim) = (plan % 3, (plan >> 8) % 3, (plan >> 16) as usize % 6);

        std::thread::scope(|scope| {
            let mut fibers = Fibers::new(scope, STRESS_FIBERS, 1, false);
            for key in 0..STRESS_FIBERS {
                fibers.spawn(key, PartyId(key), FaultView::default(), move |ctx| {
                    let mut got = Vec::new();
                    for round in 0..rounds(key) {
                        jitter(key, round);
                        ctx.send(dest(key, round), &value(key, round));
                        got.push(ctx.next_round().decode_each::<u64>());
                    }
                    ctx.send(PartyId(key), &value(key, 99));
                    got
                });
            }
            let sent = |to: PartyId, v: u64| vec![(to, Bytes::from(v.encode_to_vec()))];
            let mut delivered: Vec<Vec<Vec<(PartyId, u64)>>> = vec![Vec::new(); STRESS_FIBERS];
            for round in 0.. {
                let steps = fibers.collect();
                if steps.is_empty() {
                    break;
                }
                let keys: Vec<usize> = steps.iter().map(|(key, _)| *key).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "{seed}: {keys:?}");
                let mut inboxes = BTreeMap::new();
                let mut routed = Vec::new();
                for (key, step) in steps {
                    match step {
                        Step::Round { sends, .. } => {
                            let expected = sent(dest(key, round), value(key, round));
                            assert_eq!(sends, expected, "{seed}: s{key} r{round}");
                            routed.extend(sends.into_iter().map(|(to, b)| (key, to, b)));
                            inboxes.insert(key, Inbox::with_parties(STRESS_FIBERS));
                        }
                        Step::Done { output, sends, .. } => {
                            assert_eq!(round, rounds(key), "{seed}: s{key}");
                            assert_eq!(sends, sent(PartyId(key), value(key, 99)));
                            assert_eq!(output, delivered[key], "{seed}: s{key}");
                        }
                        Step::Panicked(_) => panic!("{seed}: s{key} panicked"),
                    }
                }
                for (from, to, payload) in routed {
                    if let Some(inbox) = inboxes.get_mut(&to.index()) {
                        inbox.push(PartyId(from), payload);
                    }
                }
                for (key, inbox) in inboxes {
                    delivered[key].push(inbox.decode_each::<u64>());
                    fibers.deliver(&key, inbox, FaultView::default());
                }
                if round == cut_round && mode == 1 {
                    fibers.kill(&victim);
                } else if round == cut_round && mode == 2 {
                    return; // drops the set while its fibers compute
                }
            }
        });
    }

    /// Seeded fiber stress over 40 seeds (see [`stress_run`]); a run that
    /// does not join within 30 s has hung.
    #[test]
    fn seeded_jitter_keeps_steps_in_order_and_teardown_joins() {
        for seed in 0..40u64 {
            within_30s(&format!("seed {seed}"), move || stress_run(seed));
        }
    }

    /// Runs `test` on a thread named `label` and fails it if it has not
    /// finished within 30 s, so a miscounted hub fails instead of hanging;
    /// a failure names `label`.
    #[expect(
        clippy::disallowed_methods,
        reason = "a hung test must not hold its watchdog: the thread is left behind on a hang"
    )]
    fn within_30s(label: &str, test: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = sync_channel(1);
        let run = std::thread::Builder::new()
            .name(label.to_owned())
            .spawn(move || {
                test();
                let _ = done_tx.send(());
            })
            .unwrap();
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Err(RecvTimeoutError::Timeout) => panic!("{label} hung"),
            _ => {
                if let Err(payload) = run.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    /// Blocks until `gate` is open.
    fn wait_for(gate: &AtomicBool) {
        while !gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Opens `gate` from a thread of `scope` once `fibers`' owner is in
    /// `collect` waiting for `need` arrivals, so a fiber held at `gate`
    /// arrives only after `collect` has begun.
    fn open_in_collect<'s, K, O>(
        scope: &'s Scope<'s, '_>,
        fibers: &Fibers<'_, '_, K, O>,
        need: usize,
        gate: &'s AtomicBool,
    ) {
        let hub = Arc::clone(&fibers.hub);
        scope.spawn(move || {
            while hub.counts().1 != need {
                std::thread::sleep(Duration::from_millis(1));
            }
            gate.store(true, Ordering::SeqCst);
        });
    }

    fn arrived<K, O>(fibers: &Fibers<'_, '_, K, O>) -> usize {
        fibers.hub.counts().0
    }

    /// Fiber 0 arrives and is killed before `collect`; fiber 1 is still
    /// computing. `collect` must wait for fiber 1 rather than count
    /// fiber 0's discarded step as its arrival.
    #[test]
    fn a_killed_arrival_does_not_end_collect_early() {
        within_30s("a_killed_arrival_does_not_end_collect_early", || {
            let go = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let mut fibers = Fibers::<usize, ()>::new(scope, 2, 0, false);
                let go = &go;
                fibers.spawn(0, PartyId(0), FaultView::default(), |ctx| {
                    ctx.next_round();
                });
                fibers.spawn(1, PartyId(1), FaultView::default(), move |ctx| {
                    wait_for(go);
                    ctx.next_round();
                });
                while arrived(&fibers) < 1 {
                    std::thread::yield_now();
                }
                fibers.kill(&0);
                assert_eq!(arrived(&fibers), 0, "the killed step is uncounted");
                open_in_collect(scope, &fibers, 1, go);
                let steps = fibers.collect();
                assert!(go.load(Ordering::SeqCst), "collect returned early");
                let keys: Vec<usize> = steps.iter().map(|(key, _)| *key).collect();
                assert_eq!(keys, [1]);
            });
        });
    }

    /// Fiber 0 is killed mid-computation and reaches `next_round` after
    /// the next `collect`: it unwinds without being counted, so the
    /// round after still waits for its live sibling.
    #[test]
    fn a_fiber_killed_mid_computation_is_never_counted() {
        within_30s("a_fiber_killed_mid_computation_is_never_counted", || {
            let (late, unwound, go) = (
                AtomicBool::new(false),
                AtomicBool::new(false),
                AtomicBool::new(false),
            );
            std::thread::scope(|scope| {
                let mut fibers = Fibers::<usize, ()>::new(scope, 2, 0, false);
                let (late, unwound, go) = (&late, &unwound, &go);
                fibers.spawn(0, PartyId(0), FaultView::default(), move |ctx| {
                    struct Flag<'a>(&'a AtomicBool);
                    impl Drop for Flag<'_> {
                        fn drop(&mut self) {
                            self.0.store(true, Ordering::SeqCst);
                        }
                    }
                    let _unwound = Flag(unwound);
                    wait_for(late);
                    ctx.next_round();
                });
                fibers.spawn(1, PartyId(1), FaultView::default(), move |ctx| {
                    ctx.next_round();
                    wait_for(go);
                    ctx.next_round();
                });
                fibers.kill(&0);
                let keys: Vec<usize> = fibers.collect().into_iter().map(|(k, _)| k).collect();
                assert_eq!(keys, [1]);
                fibers.deliver(&1, Inbox::with_parties(2), FaultView::default());
                late.store(true, Ordering::SeqCst);
                wait_for(unwound);
                assert_eq!(arrived(&fibers), 0, "a released fiber arrived");
                open_in_collect(scope, &fibers, 1, go);
                let steps = fibers.collect();
                assert!(go.load(Ordering::SeqCst), "collect returned early");
                assert!(matches!(steps.as_slice(), [(1, Step::Round { .. })]));
            });
        });
    }

    /// A fiber spawned between two collects owes the second exactly one
    /// step: `collect` waits for it, takes it beside its sibling's, and
    /// the count starts the next round from zero.
    #[test]
    fn spawn_between_collects_owes_exactly_one_step() {
        within_30s("spawn_between_collects_owes_exactly_one_step", || {
            let go = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let mut fibers = Fibers::<usize, usize>::new(scope, 2, 0, false);
                let go = &go;
                fibers.spawn(0, PartyId(0), FaultView::default(), |ctx| {
                    ctx.next_round();
                    ctx.next_round();
                    0
                });
                assert_eq!(fibers.collect().len(), 1);
                fibers.deliver(&0, Inbox::with_parties(2), FaultView::default());
                fibers.spawn(1, PartyId(1), FaultView::default(), move |ctx| {
                    wait_for(go);
                    ctx.next_round();
                    1
                });
                open_in_collect(scope, &fibers, 2, go);
                let steps = fibers.collect();
                assert!(go.load(Ordering::SeqCst), "collect returned early");
                assert!(matches!(
                    steps.as_slice(),
                    [(0, Step::Round { .. }), (1, Step::Round { .. })]
                ));
                assert_eq!(arrived(&fibers), 0);
                for key in 0..2 {
                    fibers.deliver(&key, Inbox::with_parties(2), FaultView::default());
                }
                let outputs: Vec<_> = (fibers.collect().into_iter())
                    .map(|(key, step)| match step {
                        Step::Done { output, .. } => (key, output),
                        _ => panic!("fiber {key} must be done"),
                    })
                    .collect();
                assert_eq!(outputs, [(0, 0), (1, 1)]);
            });
        });
    }
}

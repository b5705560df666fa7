//! The one way to park a blocking protocol body at a round boundary.
//!
//! Every protocol in this workspace is blocking code over
//! [`Comm::next_round`]. An executor that hosts several such bodies — the
//! simulator its parties, the engine driver its sessions — needs each
//! body suspended at the boundary, its buffered sends taken, and the body
//! resumed with an [`Inbox`]. A *fiber* is that: one scoped OS thread
//! running the body against a private [`Comm`] whose `next_round` hands a
//! [`Step`] to the owner and parks until the owner delivers.
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
//! the lock order slot, then hub. `collect` sets `need` to the live count
//! and sleeps once per round, not once per fiber. One notify suffices: each
//! live fiber owes one arrival per round, so exactly one arrival makes
//! `arrived == need`, and the owner reads the count under the hub lock
//! before it sleeps, so that notify cannot be missed.
//!
//! Teardown is ownership-driven. [`Fibers::kill`] and dropping the
//! [`Fibers`] release the slot (`kill` uncounts a step nobody took), and a
//! released fiber is never counted again: it unwinds with a private payload
//! raised by [`std::panic::resume_unwind`], which does not run the panic
//! hook — so it exits silently and the process-global hook is never
//! touched.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

use bytes::Bytes;
use ca_trace::{Event, ROOT_SCOPE};

use crate::{Comm, FaultEstimate, Inbox, PartyId};

/// What a fiber handed its owner at one [`Fibers::collect`].
pub enum Step<O> {
    /// The body called `next_round` and is parked until
    /// [`Fibers::deliver`].
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

/// The owner's view of transport faults, handed to a fiber at spawn and
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

/// The set's `(arrived, need)` count; `collect` sleeps until they meet.
#[derive(Default)]
struct Hub {
    count: Mutex<(usize, usize)>,
    all_in: Condvar,
}

impl Hub {
    fn lock(&self) -> MutexGuard<'_, (usize, usize)> {
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleeps until `need` fibers have arrived.
    fn wait_for(&self, need: usize) {
        let mut count = self.lock();
        count.1 = need;
        let _all_in = self
            .all_in
            .wait_while(count, |(arrived, need)| arrived < need);
    }
}

impl<O> Slot<O> {
    /// Leaves `step` for the owner and counts it in. Returns the slot
    /// still locked, or `None` (dropping `step`) once released.
    fn arrive(&self, step: Step<O>) -> Option<MutexGuard<'_, SlotState<O>>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.released {
            return None;
        }
        state.step = Some(step);
        let mut count = self.hub.lock();
        count.0 += 1;
        let last = count.0 == count.1;
        drop(count);
        if last {
            self.hub.all_in.notify_one();
        }
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
            self.hub.lock().0 -= 1;
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
            trace_on: self.trace_on,
            pending: Vec::new(),
            scopes: Vec::new(),
            events: Vec::new(),
            faults,
            slot: Arc::clone(&slot),
        };
        self.scope.spawn(move || {
            let step = match panic::catch_unwind(AssertUnwindSafe(|| body(&mut comm))) {
                Ok(output) => Step::Done {
                    output,
                    sends: std::mem::take(&mut comm.pending),
                    events: std::mem::take(&mut comm.events),
                },
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
        *self.hub.lock() = (0, 0);
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
/// locally; `next_round` trades them for the owner's delivery.
struct FiberComm<O> {
    n: usize,
    t: usize,
    me: PartyId,
    trace_on: bool,
    pending: Vec<(PartyId, Bytes)>,
    scopes: Vec<String>,
    events: Vec<Event>,
    faults: FaultView,
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
        assert!(to.0 < self.n, "send to nonexistent {to}");
        self.pending.push((to, payload));
    }

    fn next_round(&mut self) -> Inbox {
        let step = Step::Round {
            sends: std::mem::take(&mut self.pending),
            scope: scope_path(&self.scopes),
            events: std::mem::take(&mut self.events),
        };
        let delivery = self.slot.arrive(step).and_then(|state| {
            let mut state = (self.slot.delivered)
                .wait_while(state, |state| state.delivery.is_none() && !state.released)
                .unwrap_or_else(PoisonError::into_inner);
            // A delivery made before the release is still this round's.
            state.delivery.take()
        });
        let Some((inbox, faults)) = delivery else {
            release()
        };
        self.faults = faults;
        inbox
    }

    fn push_scope(&mut self, name: &str) {
        self.scopes.push(name.to_owned());
        if self.trace_on {
            self.events.push(Event::ScopeEnter {
                name: name.to_owned(),
            });
        }
    }

    fn pop_scope(&mut self) {
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

    fn silent_parties(&self) -> Vec<PartyId> {
        self.faults.silent.clone()
    }

    fn fault_estimate(&self) -> FaultEstimate {
        self.faults.estimate
    }

    fn trace_enabled(&self) -> bool {
        self.trace_on
    }

    fn trace(&mut self, event: Event) {
        if self.trace_on {
            self.events.push(event);
        }
    }
}

#[cfg(test)]
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
            let (done_tx, done_rx) = sync_channel(1);
            let run = std::thread::spawn(move || {
                stress_run(seed);
                let _ = done_tx.send(());
            });
            match done_rx.recv_timeout(Duration::from_secs(30)) {
                Ok(()) => run.join().unwrap(),
                Err(RecvTimeoutError::Timeout) => panic!("seed {seed} hung"),
                Err(RecvTimeoutError::Disconnected) => panic!("seed {seed} failed"),
            }
        }
    }

    /// Runs `test` on its own thread and fails it if it has not finished
    /// within 30 s, as the seeded stress does, so a miscounted hub fails
    /// instead of hanging.
    fn within_30s(test: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = sync_channel(1);
        let run = std::thread::spawn(move || {
            test();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Err(RecvTimeoutError::Timeout) => panic!("hung"),
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
            while hub.lock().1 != need {
                std::thread::sleep(Duration::from_millis(1));
            }
            gate.store(true, Ordering::SeqCst);
        });
    }

    fn arrived<K, O>(fibers: &Fibers<'_, '_, K, O>) -> usize {
        fibers.hub.lock().0
    }

    /// Fiber 0 arrives and is killed before `collect`; fiber 1 is still
    /// computing. `collect` must wait for fiber 1 rather than count
    /// fiber 0's discarded step as its arrival.
    #[test]
    fn a_killed_arrival_does_not_end_collect_early() {
        within_30s(|| {
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
        within_30s(|| {
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
        within_30s(|| {
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

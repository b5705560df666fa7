//! Single-process convenience cluster: `n` TCP parties on localhost.

use std::collections::BTreeMap;
use std::fmt;
use std::net::{SocketAddr, TcpListener as StdTcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ca_async::AsyncProtocol;
use ca_net::{Comm, PartyId};
use ca_trace::JsonlSink;

use crate::party::EstablishOpts;
use crate::stats::RuntimeStats;
use crate::{Clock, FaultPlan, MonotonicClock, RuntimeError, TcpParty};

/// Per-party factory for injectable time sources (index → clock).
type ClockFactory = Arc<dyn Fn(usize) -> Box<dyn Clock> + Send + Sync>;

/// Runs `n` parties over real localhost TCP sockets, each on its own
/// thread, and collects their outputs.
///
/// This is the deployment demo and the simulator-equivalence fixture; for
/// measured experiments use [`ca_net::Sim`]. Crash-tolerance experiments
/// script faults with [`TcpCluster::with_fault_plan`] and read the
/// per-party transport counters from [`TcpCluster::run_report`].
pub struct TcpCluster {
    n: usize,
    delta: Duration,
    trace_dir: Option<PathBuf>,
    opts: EstablishOpts,
    fault_plans: BTreeMap<usize, FaultPlan>,
    clock_factory: Option<ClockFactory>,
}

impl fmt::Debug for TcpCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpCluster")
            .field("n", &self.n)
            .field("delta", &self.delta)
            .field("trace_dir", &self.trace_dir)
            .field("opts", &self.opts)
            .field("fault_plans", &self.fault_plans)
            .field("clock_factory", &self.clock_factory.is_some())
            .finish()
    }
}

/// What [`TcpCluster::run_report`] returns: outputs plus per-party
/// transport accounting, all in party order.
#[derive(Debug)]
pub struct ClusterReport<O> {
    /// Each party's protocol output.
    pub outputs: Vec<O>,
    /// Each party's transport counters at protocol exit.
    pub stats: Vec<RuntimeStats>,
    /// Rounds each party completed (crashed parties keep counting calls,
    /// so these are equal for protocols that call `next_round` in
    /// lock-step).
    pub rounds: Vec<u64>,
}

impl TcpCluster {
    /// A cluster of `n` parties with `Δ = 500 ms`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one party");
        Self {
            n,
            delta: Duration::from_millis(500),
            trace_dir: None,
            opts: EstablishOpts::default(),
            fault_plans: BTreeMap::new(),
            clock_factory: None,
        }
    }

    /// Overrides the synchrony bound `Δ`.
    pub fn with_delta(mut self, delta: Duration) -> Self {
        self.delta = delta;
        self
    }

    /// Overrides establishment deadlines, backoff, and queue bounds.
    pub fn with_establish_opts(mut self, opts: EstablishOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Scripts transport faults for `party` (see [`FaultPlan`]). The
    /// other parties run fault-free.
    pub fn with_fault_plan(mut self, party: usize, plan: FaultPlan) -> Self {
        assert!(party < self.n, "fault plan for nonexistent party {party}");
        self.fault_plans.insert(party, plan);
        self
    }

    /// Gives each party a clock built by `factory` (index → clock)
    /// instead of the default wall clock; chaos tests pass
    /// [`ManualClock`](crate::ManualClock) handles so no code path
    /// depends on real time.
    pub fn with_clock_factory(
        mut self,
        factory: impl Fn(usize) -> Box<dyn Clock> + Send + Sync + 'static,
    ) -> Self {
        self.clock_factory = Some(Arc::new(factory));
        self
    }

    /// Records each party's timeline to `dir/party_<i>.jsonl` (the
    /// directory is created on run). TCP parties do not share a clock, so
    /// per-party files — one self-consistent timeline each — are the
    /// honest representation; use `ca-trace report` on any one of them.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Establishes the clique and runs `party` everywhere, returning
    /// outputs in party order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] if sockets cannot be set up.
    pub fn run<O, F>(self, party: F) -> Result<Vec<O>, RuntimeError>
    where
        O: Send,
        F: Fn(&mut dyn Comm, PartyId) -> O + Send + Sync,
    {
        self.run_report(party).map(|report| report.outputs)
    }

    /// [`TcpCluster::run`] plus per-party transport accounting.
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] if sockets cannot be set up.
    pub fn run_report<O, F>(self, party: F) -> Result<ClusterReport<O>, RuntimeError>
    where
        O: Send,
        F: Fn(&mut dyn Comm, PartyId) -> O + Send + Sync,
    {
        self.run_parties(|comm, id| party(comm, id))
    }

    /// Runs an **event-driven** (asynchronous) protocol on every party:
    /// no round barriers, no Δ — each instance advances as messages
    /// arrive, via [`run_async_party`](crate::run_async_party). `make`
    /// builds party `i`'s protocol instance; [`FaultPlan`]s installed
    /// with [`TcpCluster::with_fault_plan`] apply, reinterpreted per the
    /// async driver's documentation (plan rounds = delivered-message
    /// counts). The configured Δ is irrelevant on this path.
    ///
    /// Returns each party's decision (`None` for parties that crashed
    /// under their plan or hit the driver's fixed 30 s deadline), in
    /// party order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] if sockets cannot be set up.
    pub fn run_async<P, F>(self, make: F) -> Result<Vec<Option<P::Output>>, RuntimeError>
    where
        P: AsyncProtocol,
        P::Output: Send,
        P::Output: std::fmt::Display,
        F: Fn(PartyId) -> P + Send + Sync,
    {
        self.run_parties(|party, id| crate::run_async_party(party, make(id)))
            .map(|report| report.outputs)
    }

    /// Shared plumbing: establishes the clique and runs `party` on every
    /// node with access to the concrete [`TcpParty`] (the sync surface
    /// coerces it to `&mut dyn Comm`; the async driver needs the
    /// event-polling seam underneath).
    fn run_parties<O, F>(self, party: F) -> Result<ClusterReport<O>, RuntimeError>
    where
        O: Send,
        F: Fn(&mut TcpParty, PartyId) -> O + Send + Sync,
    {
        // Reserve n free localhost ports.
        // ca-lint: allow(unbounded-alloc) — capacity is the locally configured party count
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(self.n);
        {
            // Hold the listeners until all ports are chosen, then drop.
            // ca-lint: allow(unbounded-alloc) — capacity is the locally configured party count
            let mut holders = Vec::with_capacity(self.n);
            for _ in 0..self.n {
                let l = StdTcpListener::bind(("127.0.0.1", 0))?;
                addrs.push(l.local_addr()?);
                holders.push(l);
            }
        }

        if let Some(dir) = &self.trace_dir {
            std::fs::create_dir_all(dir)?;
        }

        let delta = self.delta;
        let opts = &self.opts;
        let clock_factory = self.clock_factory.clone();
        std::thread::scope(|scope| {
            // ca-lint: allow(unbounded-alloc) — capacity is the locally configured party count
            let mut handles = Vec::with_capacity(self.n);
            for i in 0..self.n {
                let addrs = addrs.clone();
                let party = &party;
                let trace_dir = self.trace_dir.clone();
                let plan = self.fault_plans.get(&i).cloned();
                let clock_factory = clock_factory.clone();
                handles.push(scope.spawn(
                    move || -> Result<(O, RuntimeStats, u64), RuntimeError> {
                        let clock: Box<dyn Clock> = match &clock_factory {
                            Some(factory) => factory(i),
                            None => Box::new(MonotonicClock::default()),
                        };
                        let mut comm =
                            TcpParty::establish_with(PartyId(i), &addrs, delta, opts, clock)?;
                        if let Some(plan) = plan {
                            comm.set_fault_plan(plan);
                        }
                        if let Some(dir) = trace_dir {
                            let sink = JsonlSink::create(&dir.join(format!("party_{i}.jsonl")))?;
                            comm.set_trace(Arc::new(sink));
                        }
                        let out = party(&mut comm, PartyId(i));
                        Ok((out, comm.stats(), comm.round()))
                    },
                ));
            }
            // Join EVERY party thread before surfacing anything: stopping at
            // the first failure would leak still-running parties past the
            // scope (blocked on each other's sockets) and drop their
            // results silently.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let mut report = ClusterReport {
                outputs: Vec::new(),
                stats: Vec::new(),
                rounds: Vec::new(),
            };
            let mut first_err = None;
            let mut first_panic = None;
            for res in joined {
                match res {
                    Ok(Ok((out, stats, rounds))) => {
                        report.outputs.push(out);
                        report.stats.push(stats);
                        report.rounds.push(rounds);
                    }
                    Ok(Err(e)) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            Ok(report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clock, Frame, ManualClock, TcpParty};
    use bytes::Bytes;
    use ca_net::CommExt;
    use std::io::Write as _;
    use std::net::TcpStream;

    /// A free localhost address for party 0 of a two-party clique whose
    /// party 1 is a raw socket driven by the test.
    fn free_addr() -> SocketAddr {
        let listener = StdTcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.local_addr().unwrap()
    }

    /// Dials `addr` until it is up.
    fn dial(addr: SocketAddr) -> TcpStream {
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return stream,
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// [`dial`], then handshakes as party `from`.
    fn dial_as(addr: SocketAddr, from: u32) -> TcpStream {
        let mut stream = dial(addr);
        Frame::Hello { from }.write_to(&mut stream).unwrap();
        stream
    }

    /// A party driven by a [`ManualClock`] that never ticks still completes
    /// rounds: with no live peers to wait on, `next_round` must not consult
    /// the wall clock at all. This pins the clock-injection seam.
    #[test]
    fn manual_clock_party_runs_rounds_without_wall_time() {
        let addr = free_addr();
        let clock = ManualClock::new();
        let mut comm = TcpParty::establish_with(
            PartyId(0),
            &[addr],
            Duration::from_secs(3600),
            &EstablishOpts::default(),
            Box::new(clock.clone()),
        )
        .unwrap();
        for r in 0..3u64 {
            let inbox = comm.exchange(&r);
            let got: Vec<u64> = inbox
                .decode_each::<u64>()
                .into_iter()
                .map(|(_, v)| v)
                .collect();
            assert_eq!(got, vec![r]);
        }
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn all_to_all_over_tcp() {
        let outputs = TcpCluster::new(4)
            .with_delta(Duration::from_millis(1000))
            .run(|ctx, id| {
                let inbox = ctx.exchange(&(id.index() as u64 + 100));
                let mut vals: Vec<u64> = inbox
                    .decode_each::<u64>()
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect();
                vals.sort_unstable();
                vals
            })
            .unwrap();
        for out in outputs {
            assert_eq!(out, vec![100, 101, 102, 103]);
        }
    }

    #[test]
    fn traced_cluster_writes_per_party_timelines() {
        let dir = std::env::temp_dir().join(format!("ca_cluster_trace_{}", std::process::id()));
        let outputs = TcpCluster::new(3)
            .with_delta(Duration::from_millis(1000))
            .with_trace_dir(&dir)
            .run(|ctx, id| {
                ctx.scoped("hello", |ctx| {
                    ctx.exchange(&(id.index() as u64))
                        .decode_each::<u64>()
                        .len()
                })
            })
            .unwrap();
        assert_eq!(outputs, vec![3, 3, 3]);
        for i in 0..3u64 {
            let path = dir.join(format!("party_{i}.jsonl"));
            let records = ca_trace::read_jsonl(&path).unwrap();
            assert!(
                records.iter().all(|r| r.party == Some(i)),
                "party_{i}.jsonl holds only its own timeline"
            );
            assert!(records.iter().any(
                |r| matches!(&r.event, ca_trace::Event::ScopeEnter { name } if name == "hello")
            ));
            // 2 non-self sends and at least 2 peer delivers in scope.
            assert_eq!(
                records
                    .iter()
                    .filter(|r| r.event.kind() == "send" && r.scope == "hello")
                    .count(),
                2
            );
            assert_eq!(ca_trace::check(&records), vec![]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A panic inside one party propagates with its ORIGINAL payload after
    /// every other thread has been joined — not masked by a generic
    /// "party thread panicked" from an unlucky join order.
    #[test]
    #[should_panic(expected = "party 1 exploded")]
    fn party_panic_surfaces_original_payload_after_joining_all() {
        let _ = TcpCluster::new(3)
            .with_delta(Duration::from_millis(1000))
            .run(|ctx, id| {
                let inbox = ctx.exchange(&(id.index() as u64));
                assert_eq!(inbox.decode_each::<u64>().len(), 3);
                if id.index() == 1 {
                    panic!("party 1 exploded");
                }
                // The other parties finish a round without the panicked
                // peer; Bye/Gone handling keeps them from hanging.
                ctx.exchange(&1u64);
            });
    }

    /// End-to-end version of the frame-length hardening: a raw byzantine
    /// peer completes the handshake, then announces a ~4 GiB frame. The
    /// honest party must drop the peer cleanly (no allocation, no panic)
    /// and keep completing rounds without it.
    #[test]
    fn oversized_length_prefix_drops_peer_cleanly() {
        let addr0 = free_addr();
        let evil = std::thread::spawn(move || {
            // Party 1 dials party 0 and handshakes honestly…
            let mut stream = dial_as(addr0, 1);
            // …then claims a 4 GiB frame body is coming.
            stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
            // Keep the socket open so only the length check can drop us.
            std::thread::sleep(Duration::from_millis(500));
        });

        let mut comm = TcpParty::establish(
            PartyId(0),
            &[addr0, "127.0.0.1:9".parse().unwrap()],
            Duration::from_secs(30),
        )
        .unwrap();
        let inbox = comm.exchange(&7u64);
        // The oversized claim marked the peer gone; nothing was delivered
        // from it and the round still completed promptly (well before the
        // 30 s Δ — the peer is not waited on once dropped).
        assert!(inbox.raw_from(PartyId(1)).is_empty());
        assert_eq!(inbox.decode_from::<u64>(PartyId(0)), Some(7));
        assert_eq!(comm.silent_parties(), vec![PartyId(1)]);
        assert_eq!(comm.stats().peers_gone, 1);
        evil.join().unwrap();
    }

    /// A byzantine peer that tags well-formed frames with far-future rounds
    /// and never ends a round must not grow the early-message buffer
    /// without limit: past `event_queue_depth` buffered frames it is shed,
    /// cut off as a flooder, and the round completes without it.
    #[test]
    fn far_future_flood_is_bounded_and_drops_the_flooder() {
        let addr0 = free_addr();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let flooder = std::thread::spawn(move || {
            let mut stream = dial_as(addr0, 1);
            // More than `depth + 1` frames in all, paced so that the
            // reader's own bounded queue is not what sheds them.
            for round in 1u64 << 40.. {
                let frame = Frame::Msg {
                    round,
                    payload: Bytes::from(vec![0xEE; 64]),
                };
                if frame.write_to(&mut stream).is_err() || done_rx.try_recv().is_ok() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });

        let opts = EstablishOpts {
            event_queue_depth: 8,
            ..EstablishOpts::default()
        };
        let mut comm = TcpParty::establish_with(
            PartyId(0),
            &[addr0, "127.0.0.1:9".parse().unwrap()],
            Duration::from_secs(30),
            &opts,
            Box::new(crate::MonotonicClock::default()),
        )
        .unwrap();
        // No end-of-round marker ever comes, so only the overflow can end
        // this round before the 30 s Δ.
        let inbox = comm.exchange(&7u64);
        assert_eq!(inbox.decode_from::<u64>(PartyId(0)), Some(7));
        assert!(inbox.raw_from(PartyId(1)).is_empty());
        assert_eq!(comm.silent_parties(), vec![PartyId(1)]);
        assert_eq!(comm.fault_estimate().suspected, 1);
        assert!(comm.stats().events_shed >= 1);
        assert_eq!(comm.stats().peers_gone, 1);
        done_tx.send(()).unwrap();
        flooder.join().unwrap();
    }

    /// The cut-off is real. After the overflow the flooder's socket is shut
    /// down — its writes start failing on their own, so its reader thread
    /// no longer competes for the shared event queue — and a well-formed
    /// frame it tags with the *next* round is not delivered, even though an
    /// honest peer keeps that round's wait loop draining events.
    #[test]
    fn cut_off_flooder_is_disconnected_and_never_delivered_again() {
        use ca_codec::Encode as _;
        let addr0 = free_addr();
        let (cut_tx, cut_rx) = std::sync::mpsc::channel::<()>();
        let flooder = std::thread::spawn(move || {
            let mut stream = dial_as(addr0, 1);
            let junk = |round| Frame::Msg {
                round,
                payload: Bytes::from(vec![0xEE; 64]),
            };
            let mut round = 1u64 << 40;
            while cut_rx.try_recv().is_err() && junk(round).write_to(&mut stream).is_ok() {
                round += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            // Cut off by now. Let party 0 drain what is queued, then try
            // to slip a current-round message in.
            std::thread::sleep(Duration::from_millis(100));
            let _ = Frame::Msg {
                round: 2,
                payload: Bytes::from(99u64.encode_to_vec()),
            }
            .write_to(&mut stream);
            // Nobody tells this loop to stop: only the shut-down socket can.
            (0..3000).any(|_| {
                std::thread::sleep(Duration::from_millis(1));
                junk(round).write_to(&mut stream).is_err()
            })
        });
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let honest = std::thread::spawn(move || {
            let mut stream = dial_as(addr0, 2);
            Frame::Eor { round: 1 }.write_to(&mut stream).unwrap();
            go_rx.recv().unwrap();
            // Hold round 2 open well past the flooder's late message.
            std::thread::sleep(Duration::from_millis(300));
            Frame::Eor { round: 2 }.write_to(&mut stream).unwrap();
            stream
        });

        let opts = EstablishOpts {
            event_queue_depth: 8,
            ..EstablishOpts::default()
        };
        let unused: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut comm = TcpParty::establish_with(
            PartyId(0),
            &[addr0, unused, unused],
            Duration::from_secs(30),
            &opts,
            Box::new(crate::MonotonicClock::default()),
        )
        .unwrap();
        comm.exchange(&7u64);
        assert_eq!(comm.silent_parties(), vec![PartyId(1)]);
        cut_tx.send(()).unwrap();
        go_tx.send(()).unwrap();
        let inbox = comm.exchange(&8u64);
        assert!(
            inbox.raw_from(PartyId(1)).is_empty(),
            "a cut-off peer delivered a message"
        );
        assert_eq!(comm.stats().peers_gone, 1);
        assert!(
            flooder.join().unwrap(),
            "the flooder's socket was never shut down"
        );
        drop(honest.join().unwrap());
    }

    #[test]
    fn multi_round_protocol_over_tcp() {
        let outputs = TcpCluster::new(3)
            .with_delta(Duration::from_millis(1000))
            .run(|ctx, id| {
                let mut sum = 0u64;
                for r in 0..5u64 {
                    let inbox = ctx.exchange(&(r * 10 + id.index() as u64));
                    sum += inbox
                        .decode_each::<u64>()
                        .into_iter()
                        .map(|(_, v)| v)
                        .sum::<u64>();
                }
                sum
            })
            .unwrap();
        assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
    }

    /// Establishment against a peer that never comes up must return
    /// `EstablishTimeout` (with the missing peer identified), not spin
    /// forever.
    #[test]
    fn establish_times_out_on_unreachable_peer() {
        // Reserve two ports, release both; nobody listens on either.
        let l0 = StdTcpListener::bind(("127.0.0.1", 0)).unwrap();
        let l1 = StdTcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr0 = l0.local_addr().unwrap();
        let addr1 = l1.local_addr().unwrap();
        drop(l0);
        drop(l1);

        let opts = EstablishOpts {
            deadline: Duration::from_millis(300),
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            ..EstablishOpts::default()
        };
        // Party 1 dials party 0, which never listens.
        match TcpParty::establish_with(
            PartyId(1),
            &[addr0, addr1],
            Duration::from_millis(100),
            &opts,
            Box::new(crate::MonotonicClock::default()),
        ) {
            Err(RuntimeError::EstablishTimeout { missing }) => assert_eq!(missing, vec![0]),
            Err(other) => panic!("expected EstablishTimeout, got {other}"),
            Ok(_) => panic!("establishment against a dead peer succeeded"),
        }
    }

    /// The accept side must reject a hello claiming an index at or below
    /// its own (only higher-indexed parties dial it) and keep the slot
    /// open for the genuine peer.
    #[test]
    fn impersonating_hello_is_rejected_without_consuming_the_slot() {
        let addr0 = free_addr();
        let dial = move |hello_from: u32, delay: Duration| {
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                let _stream = dial_as(addr0, hello_from);
                // Hold the socket open long enough for the accept side to
                // make its decision.
                std::thread::sleep(Duration::from_millis(400));
            })
        };
        // Impersonator claims to be party 0 (the acceptor itself); the
        // honest party 1 arrives a bit later.
        let evil = dial(0, Duration::ZERO);
        let honest = dial(1, Duration::from_millis(100));

        let mut comm = TcpParty::establish(
            PartyId(0),
            &[addr0, "127.0.0.1:9".parse().unwrap()],
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(comm.stats().handshake_rejects, 1);
        // The honest peer's slot was preserved: a round completes with
        // its end-of-round marker... which it never sends (raw socket),
        // so just verify nothing from party 1 was misattributed.
        let inbox = comm.exchange(&5u64);
        assert_eq!(inbox.decode_from::<u64>(PartyId(0)), Some(5));
        evil.join().unwrap();
        honest.join().unwrap();
    }

    /// A stray connection (port scanner, wrong protocol) that sends
    /// garbage must be dropped — not abort establishment — and the real
    /// peer accepted afterwards.
    #[test]
    fn stray_connection_does_not_abort_establishment() {
        let addr0 = free_addr();
        let stray = std::thread::spawn(move || {
            let mut stream = dial(addr0);
            // A length prefix far beyond any hello, followed by junk.
            stream.write_all(&1_000_000u32.to_be_bytes()).unwrap();
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            std::thread::sleep(Duration::from_millis(400));
        });
        let honest = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let _stream = dial_as(addr0, 1);
            std::thread::sleep(Duration::from_millis(400));
        });

        let comm = TcpParty::establish(
            PartyId(0),
            &[addr0, "127.0.0.1:9".parse().unwrap()],
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(comm.stats().handshake_rejects, 1);
        stray.join().unwrap();
        honest.join().unwrap();
    }

    /// Writer-queue overflow sheds the frame, disconnects the slow peer,
    /// and records both — instead of growing the queue without bound.
    #[test]
    fn writer_queue_overflow_disconnects_slow_peer() {
        let addr0 = free_addr();

        // A peer that handshakes then never reads: its TCP window fills,
        // the writer task blocks, and the tiny queue overflows.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let sleeper = std::thread::spawn(move || {
            let _stream = dial_as(addr0, 1);
            // Hold the socket open, reading nothing, until the test ends.
            let _ = done_rx.recv();
        });

        let opts = EstablishOpts {
            writer_queue_frames: 2,
            ..EstablishOpts::default()
        };
        let mut comm = TcpParty::establish_with(
            PartyId(0),
            &[addr0, "127.0.0.1:9".parse().unwrap()],
            Duration::from_millis(50),
            &opts,
            Box::new(crate::MonotonicClock::default()),
        )
        .unwrap();
        // Each round enqueues one Msg + one Eor to the non-reading peer;
        // with the socket buffer eventually full and a 2-frame queue,
        // overflow must hit within a bounded number of rounds.
        let payload = vec![0u8; 256 * 1024];
        let mut overflowed = false;
        for _ in 0..64 {
            comm.send(PartyId(1), &payload);
            let _ = comm.next_round();
            let stats = comm.stats();
            if stats.frames_shed > 0 {
                assert!(stats.overflow_disconnects >= 1);
                assert_eq!(comm.silent_parties(), vec![PartyId(1)]);
                overflowed = true;
                break;
            }
        }
        assert!(
            overflowed,
            "writer queue never overflowed: {:?}",
            comm.stats()
        );
        done_tx.send(()).unwrap();
        sleeper.join().unwrap();
    }
}

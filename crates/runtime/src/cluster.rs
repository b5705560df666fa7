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
    fault_plans: BTreeMap<usize, FaultPlan>,
    clock_factory: Option<ClockFactory>,
}

impl fmt::Debug for TcpCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpCluster")
            .field("n", &self.n)
            .field("delta", &self.delta)
            .field("trace_dir", &self.trace_dir)
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
            fault_plans: BTreeMap::new(),
            clock_factory: None,
        }
    }

    /// Overrides the synchrony bound `Δ`.
    pub fn with_delta(mut self, delta: Duration) -> Self {
        self.delta = delta;
        self
    }

    /// Scripts a crash for `party` (see [`FaultPlan`]). The
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
    /// counts). The configured Δ paces nothing on this path; it only
    /// bounds how long a peer may take to accept a write before it is cut
    /// off.
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
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(self.n);
        {
            // Hold the listeners until all ports are chosen, then drop.
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
        let clock_factory = self.clock_factory.clone();
        std::thread::scope(|scope| {
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
                        let mut comm = TcpParty::establish_with(PartyId(i), &addrs, delta, clock)?;
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

    /// Party 0 of an `n`-party clique at `addr0` (see [`free_addr`]) whose
    /// other parties are raw sockets that dial it.
    fn party0(addr0: SocketAddr, n: usize, delta: Duration) -> TcpParty {
        let mut addrs = vec!["127.0.0.1:9".parse().unwrap(); n];
        addrs[0] = addr0;
        TcpParty::establish(PartyId(0), &addrs, delta).unwrap()
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

    /// Every party hears every other, first in a round in which all of
    /// them write 4 MiB to every peer at once — whatever a socket does not
    /// take goes to a spill thread — and then in five small rounds. Every
    /// party reads its sockets while it waits on the round, so the bulk
    /// round neither deadlocks nor cuts anyone off.
    #[test]
    fn all_to_all_over_tcp() {
        let bulk = |from: usize, to: usize| Bytes::from(vec![(from * 4 + to) as u8; 4 << 20]);
        let report = TcpCluster::new(4)
            .with_delta(Duration::from_secs(5))
            .run_report(|ctx, id| {
                let me = id.index();
                for to in (0..4).filter(|&to| to != me) {
                    ctx.send_bytes(PartyId(to), bulk(me, to));
                }
                let inbox = ctx.next_round();
                let exact = (0..4)
                    .filter(|&from| from != me)
                    .all(|from| inbox.raw_from(PartyId(from)) == [bulk(from, me)]);
                let small: Vec<Vec<u64>> = (0..5u64)
                    .map(|r| {
                        let inbox = ctx.exchange(&(r * 10 + me as u64));
                        let mut vals: Vec<u64> =
                            inbox.decode_each().into_iter().map(|(_, v)| v).collect();
                        vals.sort_unstable();
                        vals
                    })
                    .collect();
                (exact, small)
            })
            .unwrap();
        let small: Vec<Vec<u64>> = (0..5).map(|r| (r * 10..r * 10 + 4).collect()).collect();
        for out in report.outputs {
            assert_eq!(out, (true, small.clone()));
        }
        for stats in &report.stats {
            assert_eq!((stats.peers_gone, stats.frames_shed), (0, 0), "{stats:?}");
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
    /// honest party must drop the peer cleanly (no allocation, no panic),
    /// count it as misbehaving rather than silent, and keep completing
    /// rounds without it.
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

        let mut comm = party0(addr0, 2, Duration::from_secs(30));
        let inbox = comm.exchange(&7u64);
        // The oversized claim marked the peer gone; nothing was delivered
        // from it and the round still completed promptly (well before the
        // 30 s Δ — the peer is not waited on once dropped).
        assert!(inbox.raw_from(PartyId(1)).is_empty());
        assert_eq!(inbox.decode_from::<u64>(PartyId(0)), Some(7));
        assert_eq!(comm.silent_parties(), vec![PartyId(1)]);
        assert_eq!(comm.fault_estimate().suspected, 1);
        assert_eq!(comm.stats().peers_gone, 1);
        evil.join().unwrap();
    }

    /// Cutting a peer off is real at the socket level. A raw peer floods
    /// party 0 with well-formed round frames tagged with rising
    /// far-future rounds, while a quiet raw peer keeps party 0's round
    /// open, so party 0 reads the flood until `Δ`. Past the early-batch
    /// cap the flooder is shed and cut off as suspected. Its socket is
    /// shut down, so its writes start failing on their own, and its reader
    /// thread no longer competes for the shared event queue. (What the
    /// core buffers, sheds and never delivers again is tested in
    /// `liveness`.)
    #[test]
    fn cut_off_flooder_s_socket_is_shut_down() {
        let addr0 = free_addr();
        let flooder = std::thread::spawn(move || {
            let mut stream = dial_as(addr0, 1);
            // Nobody tells this loop to stop: only the shut-down socket can.
            let mut round = 1u64 << 40;
            (0..10_000).any(|_| {
                let mut frames = Vec::new();
                for _ in 0..64 {
                    round += 1;
                    let msgs = vec![Bytes::from(vec![0xEE; 64])];
                    Frame::Round { round, msgs }.write_to(&mut frames).unwrap();
                }
                stream.write_all(&frames).is_err()
            })
        });
        let quiet = std::thread::spawn(move || dial_as(addr0, 2));

        let mut comm = party0(addr0, 3, Duration::from_secs(2));
        let _quiet = quiet.join().unwrap();
        let inbox = comm.exchange(&7u64);
        assert_eq!(inbox.decode_from::<u64>(PartyId(0)), Some(7));
        assert!(inbox.raw_from(PartyId(1)).is_empty());
        assert_eq!(comm.silent_parties(), vec![PartyId(1)]);
        assert_eq!(comm.fault_estimate().suspected, 1);
        assert!(comm.stats().frames_shed >= 1);
        assert_eq!(comm.stats().peers_gone, 1);
        assert!(
            flooder.join().unwrap(),
            "the flooder's socket was never shut down"
        );
    }

    /// A peer that writes half a round frame and then stalls past `Δ`
    /// delays the round by at most one sweep slice: the round ends on `Δ`
    /// without the frame, and the half holds no more than the length its
    /// prefix announced. When the rest arrives the frame is assembled
    /// and, now late, dropped; the next round's frame is delivered on
    /// time.
    #[test]
    fn a_half_written_frame_ends_its_round_on_delta_and_is_assembled_later() {
        use std::time::Instant;
        // Scheduling slack for a loaded machine.
        const SLACK: Duration = Duration::from_millis(50);
        let addr0 = free_addr();
        let delta = Duration::from_millis(200);
        let mut wire = Vec::new();
        let msgs = vec![Bytes::from(vec![0x11; 1000])];
        Frame::Round { round: 1, msgs }.write_to(&mut wire).unwrap();
        let half = wire.len() / 2;
        let (rest_tx, rest_rx) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let mut stream = dial_as(addr0, 1);
            stream.write_all(&wire[..half]).unwrap();
            rest_rx.recv().unwrap();
            stream.write_all(&wire[half..]).unwrap();
            let msgs = vec![Bytes::from_static(b"on time")];
            Frame::Round { round: 2, msgs }
                .write_to(&mut stream)
                .unwrap();
            stream
        });
        let mut comm = party0(addr0, 2, delta);
        let started = Instant::now();
        let inbox = comm.next_round();
        let took = started.elapsed();
        assert!(inbox.raw_from(PartyId(1)).is_empty());
        assert!(
            took >= delta && took < delta + crate::party::SLICE + SLACK,
            "round 1 took {took:?}"
        );
        let body = wire_len_of_half_frame(half);
        assert_eq!(comm.partial_frame(1), Some(body));

        rest_tx.send(()).unwrap();
        let started = Instant::now();
        let inbox = comm.next_round();
        assert!(started.elapsed() < delta, "round 2 waited out Δ");
        assert_eq!(inbox.raw_from(PartyId(1)), [Bytes::from_static(b"on time")]);
        assert_eq!(comm.partial_frame(1), None);
        let stats = comm.stats();
        assert_eq!((stats.peers_gone, stats.frames_shed), (0, 0), "{stats:?}");
        drop(comm);
        drop(peer.join().unwrap());
    }

    /// The body length and the bytes of it in, once the first `half`
    /// bytes of a round frame with one 1000-byte message have arrived.
    fn wire_len_of_half_frame(half: usize) -> (usize, usize) {
        let msgs = vec![Bytes::from(vec![0x11; 1000])];
        let len = Frame::Round { round: 1, msgs }.wire_len() - crate::LENGTH_PREFIX_LEN;
        (len, half - crate::LENGTH_PREFIX_LEN)
    }

    /// Under `run_async_party` the sweep does not block behind a silent
    /// peer: P1 is connected and says nothing, and every message P2 sends
    /// is still delivered within a few sweep slices. P2's first message
    /// finds the party waiting on P1, which would hold it until the
    /// driver's 30 s deadline if the wait were not cut into slices.
    #[test]
    fn a_silent_peer_does_not_delay_async_delivery() {
        use std::sync::Mutex;
        use std::time::Instant;
        const MESSAGES: usize = 9;
        struct Count(Arc<Mutex<Vec<Instant>>>);
        impl AsyncProtocol for Count {
            type Output = usize;
            fn on_start(&mut self) -> Vec<ca_async::Action> {
                Vec::new()
            }
            fn on_message(&mut self, _: PartyId, _: &Bytes) -> Vec<ca_async::Action> {
                self.0.lock().unwrap().push(Instant::now());
                Vec::new()
            }
            fn output(&self) -> Option<usize> {
                let got = self.0.lock().unwrap().len();
                (got == MESSAGES).then_some(got)
            }
        }
        let addr0 = free_addr();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let silent = std::thread::spawn(move || {
            let _stream = dial_as(addr0, 1);
            done_rx.recv().unwrap();
        });
        let sender = std::thread::spawn(move || {
            let mut stream = dial_as(addr0, 2);
            std::thread::sleep(Duration::from_millis(50));
            (1..=MESSAGES as u64)
                .map(|round| {
                    std::thread::sleep(Duration::from_millis(20));
                    let msgs = vec![Bytes::from(vec![round as u8])];
                    let sent = Instant::now();
                    Frame::Round { round, msgs }.write_to(&mut stream).unwrap();
                    sent
                })
                .collect::<Vec<_>>()
        });
        let mut comm = party0(addr0, 3, Duration::from_secs(5));
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let out = crate::run_async_party(&mut comm, Count(Arc::clone(&delivered)));
        assert_eq!(out, Some(MESSAGES));
        let sent = sender.join().unwrap();
        let mut late: Vec<Duration> = (delivered.lock().unwrap().iter())
            .zip(&sent)
            .map(|(at, sent)| at.duration_since(*sent))
            .collect();
        assert!(
            late[0] < Duration::from_millis(50),
            "the first message came {:?} after its send",
            late[0]
        );
        late.sort_unstable();
        let median = late[MESSAGES / 2];
        assert!(
            median < 5 * crate::party::SLICE,
            "median delivery {median:?} after the send: {late:?}"
        );
        done_tx.send(()).unwrap();
        silent.join().unwrap();
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

        // The deadline is measured on the party's clock, which only this
        // test moves: a second per tick, until establishment gives up.
        let clock = ManualClock::new();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let ticker = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                while done_rx.try_recv().is_err() {
                    clock.advance(Duration::from_secs(1));
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        // Party 1 dials party 0, which never listens.
        let result = TcpParty::establish_with(
            PartyId(1),
            &[addr0, addr1],
            Duration::from_millis(100),
            Box::new(clock.clone()),
        );
        done_tx.send(()).unwrap();
        ticker.join().unwrap();
        match result {
            Err(RuntimeError::EstablishTimeout { missing }) => assert_eq!(missing, vec![0]),
            Err(other) => panic!("expected EstablishTimeout, got {other}"),
            Ok(_) => panic!("establishment against a dead peer succeeded"),
        }
        assert!(clock.now() >= Duration::from_secs(10), "{:?}", clock.now());
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

        let mut comm = party0(addr0, 2, Duration::from_secs(30));
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

        let comm = party0(addr0, 2, Duration::from_secs(30));
        assert_eq!(comm.stats().handshake_rejects, 1);
        stray.join().unwrap();
        honest.join().unwrap();
    }

    /// Reads one frame off a raw socket; `None` at EOF.
    fn read_frame(stream: &mut impl std::io::Read) -> Option<Frame> {
        use ca_codec::Decode as _;
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).ok()?;
        let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
        stream.read_exact(&mut body).ok()?;
        Some(Frame::decode_from_slice(&body).unwrap())
    }

    /// A peer that stops reading is cut off by the Δ write timeout: the
    /// frames it was not sent are shed, the peer is disconnected and
    /// suspected, and no round blocks on it: the write that times out
    /// runs on the peer's spill thread.
    #[test]
    fn write_timeout_cuts_off_a_peer_that_stops_reading() {
        let addr0 = free_addr();
        let dialer = std::thread::spawn(move || dial_as(addr0, 1));
        let delta = Duration::from_millis(50);
        let mut comm = party0(addr0, 2, delta);
        // The peer handshakes, then reads nothing while its socket stays
        // open: once the socket buffers are full of party 0's 256 KiB
        // rounds, a batch misses its Δ deadline.
        let _stream = dialer.join().unwrap();
        let payload = vec![0u8; 256 * 1024];
        let started = std::time::Instant::now();
        let mut rounds = 0u32;
        while rounds < 64 && comm.silent_parties().is_empty() {
            comm.send(PartyId(1), &payload);
            let _ = comm.next_round();
            rounds += 1;
        }
        let elapsed = started.elapsed();
        let stats = comm.stats();
        assert!(stats.frames_shed >= 1, "no write ever timed out: {stats:?}");
        assert!(stats.overflow_disconnects >= 1, "{stats:?}");
        assert_eq!(comm.silent_parties(), vec![PartyId(1)]);
        assert_eq!(comm.fault_estimate().suspected, 1);
        // Every round waits Δ for the marker that never comes, and nothing
        // else. 2 s of slack for a loaded machine.
        let bound = delta * rounds + Duration::from_secs(2);
        assert!(
            elapsed < bound,
            "{rounds} rounds took {elapsed:?}, more than {bound:?}"
        );
    }

    /// One peer that stops reading must not delay what an honest peer
    /// receives. Raw P1 never reads; raw P2 does. Both send a round frame
    /// that ends every round up front, so party 0's rounds need not wait,
    /// and party 0 sends P1 1 MiB per round, far more than the socket
    /// buffers hold. In every round, also the one in which P1's buffers
    /// fill, P2 reads party 0's round frame within Δ of the round's start. Once
    /// P1's write has timed out, P1 alone is cut off.
    #[test]
    fn a_peer_that_stops_reading_does_not_delay_the_others() {
        const ROUNDS: usize = 32;
        let addr0 = free_addr();
        let delta = Duration::from_secs(1);
        let all_rounds = || Frame::Round {
            round: 1 << 40,
            msgs: Vec::new(),
        };
        let stuck = std::thread::spawn(move || {
            let mut stream = dial_as(addr0, 1);
            all_rounds().write_to(&mut stream).unwrap();
            stream
        });
        let reader = std::thread::spawn(move || {
            let mut stream = dial_as(addr0, 2);
            all_rounds().write_to(&mut stream).unwrap();
            let mut stream = std::io::BufReader::new(stream);
            let mut markers = Vec::new();
            while let Some(frame) = read_frame(&mut stream) {
                if let Frame::Round { round, .. } = frame {
                    markers.push((round, std::time::Instant::now()));
                }
            }
            markers
        });
        let mut comm = party0(addr0, 3, delta);
        let bulk = Bytes::from(vec![0u8; 1 << 20]);
        let mut starts = Vec::new();
        for round in 0..ROUNDS {
            starts.push(std::time::Instant::now());
            comm.send_bytes(PartyId(1), bulk.clone());
            comm.send(PartyId(2), &round);
            let _ = comm.next_round();
        }
        // The kernel keeps freeing a little buffer space for a while, and
        // each bit of progress restarts the OS write timer; the first
        // hand-off after P1's write times out sees it.
        let mut idle_rounds = 0;
        while comm.silent_parties().is_empty() && idle_rounds < 40 {
            std::thread::sleep(delta / 4);
            let _ = comm.next_round();
            idle_rounds += 1;
        }
        assert_eq!(comm.silent_parties(), vec![PartyId(1)]);
        assert_eq!(comm.stats().overflow_disconnects, 1);
        drop(comm);
        let markers = reader.join().unwrap();
        assert_eq!(markers.len(), ROUNDS + idle_rounds);
        for (i, ((round, at), start)) in markers.iter().zip(&starts).enumerate() {
            assert_eq!(*round, i as u64 + 1);
            let late = at.duration_since(*start);
            assert!(
                late < delta,
                "P2 read marker {round} {late:?} after its round began"
            );
        }
        drop(stuck.join().unwrap());
    }

    /// What a peer reads is exactly what `Frame::write_to` emits: one
    /// round frame with the round's sends in send order; a dropped party
    /// then says `Bye` and closes, a crashed one just closes.
    #[test]
    fn wire_image_is_the_frames_in_order_then_bye_or_bare_eof() {
        // The second payload is larger than the send buffer: it bypasses it.
        let (small, large) = (Bytes::from(vec![0xA5; 100]), Bytes::from(vec![0x5A; 65537]));
        let mut round_one = Vec::new();
        let msgs = vec![small.clone(), large.clone()];
        Frame::Round { round: 1, msgs }
            .write_to(&mut round_one)
            .unwrap();
        let mut with_bye = round_one.clone();
        Frame::Bye.write_to(&mut with_bye).unwrap();

        // Round 1 runs either way; under the plan, round 2 is the crash.
        for (plan, rounds, expected) in [
            (FaultPlan::new(), 1, with_bye),
            (FaultPlan::new().crash_at(2), 2, round_one),
        ] {
            let addr0 = free_addr();
            let peer = std::thread::spawn(move || {
                let mut stream = dial_as(addr0, 1);
                // End party 0's round 1 without waiting out Δ.
                let msgs = Vec::new();
                Frame::Round { round: 1, msgs }
                    .write_to(&mut stream)
                    .unwrap();
                let mut wire = Vec::new();
                std::io::Read::read_to_end(&mut stream, &mut wire).unwrap();
                wire
            });
            let mut comm = party0(addr0, 2, Duration::from_secs(30));
            comm.set_fault_plan(plan);
            comm.send_bytes(PartyId(1), small.clone());
            comm.send_bytes(PartyId(1), large.clone());
            for _ in 0..rounds {
                let _ = comm.next_round();
            }
            drop(comm);
            assert!(peer.join().unwrap() == expected, "wire image differs");
        }
    }

    /// A peer that falls behind still reads every frame in send order.
    /// Raw P1 reads nothing while party 0 sends it 8 MiB, more than the
    /// socket buffers hold, so the rest goes to P1's spill thread; then P1
    /// drains slowly while party 0 keeps sending small rounds, which must
    /// queue behind the spilled bytes rather than overtake them.
    #[test]
    fn a_peer_that_falls_behind_reads_every_frame_in_order() {
        use ca_codec::Encode as _;
        const ROUNDS: u64 = 40;
        let bulk = Bytes::from(vec![0x5A; 8 << 20]);
        let payload = |round: u64| {
            if round == 1 {
                bulk.clone()
            } else {
                Bytes::from(round.encode_to_vec())
            }
        };
        let mut expected = Vec::new();
        for round in 1..=ROUNDS {
            let msgs = vec![payload(round)];
            Frame::Round { round, msgs }
                .write_to(&mut expected)
                .unwrap();
        }
        Frame::Bye.write_to(&mut expected).unwrap();

        let addr0 = free_addr();
        let peer = std::thread::spawn(move || {
            let mut stream = dial_as(addr0, 1);
            let msgs = Vec::new();
            Frame::Round {
                round: 1 << 40,
                msgs,
            }
            .write_to(&mut stream)
            .unwrap();
            std::thread::sleep(Duration::from_millis(50));
            let (mut wire, mut buf) = (Vec::new(), vec![0u8; 64 << 10]);
            loop {
                let k = std::io::Read::read(&mut stream, &mut buf).unwrap();
                if k == 0 {
                    return wire;
                }
                wire.extend_from_slice(&buf[..k]);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let mut comm = party0(addr0, 2, Duration::from_secs(5));
        for round in 1..=ROUNDS {
            comm.send_bytes(PartyId(1), payload(round));
            let _ = comm.next_round();
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = comm.stats();
        drop(comm);
        assert!(peer.join().unwrap() == expected, "wire image differs");
        assert_eq!((stats.frames_shed, stats.peers_gone), (0, 0), "{stats:?}");
    }
}

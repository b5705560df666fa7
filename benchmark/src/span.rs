//! Spans recorded from outside the program: [`SpanComm`] wraps the
//! `&mut dyn Comm` a protocol is handed and implements the public
//! `ca_net::Comm` trait itself, so it sees every `push_scope`/`pop_scope`,
//! `next_round` and `send_bytes` the protocols make. Not one line under
//! `crates/` knows it exists.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use bytes::Bytes;
use convex_agreement::net::{Comm, FaultEstimate, Inbox, PartyId};
use convex_agreement::trace::Event;

use crate::clock::thread_cpu_ns;

/// Name of the span that covers a party's whole closure.
pub const ROOT: &str = "(root)";
/// Name of the leaf span around every `Comm::next_round` call.
pub const NEXT_ROUND: &str = "next_round";

/// One closed span of one thread. Times are nanoseconds since the
/// benchmark's epoch; `cpu_ns` is the processor time the thread consumed
/// between open and close, children included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Trace::names`].
    pub name: u16,
    /// Index of the enclosing span in [`Trace::spans`]; `None` for the root.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
}

/// Everything one thread recorded during one decision.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub decision: u32,
    pub party: u32,
    /// 0 for the party's protocol thread, `1 + s` for its engine session `s`.
    pub track: u32,
    pub names: Vec<String>,
    /// In opening order, so a parent precedes its children.
    pub spans: Vec<Span>,
    /// `next_round` calls.
    pub rounds: u64,
    /// `send_bytes` calls to other parties, and their payload bytes.
    pub sends: u64,
    pub send_bytes: u64,
}

impl Trace {
    /// One JSON object per span, the `trace_<workload>.jsonl` format.
    pub fn write_jsonl(&self, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let mut name = String::new();
            convex_agreement::trace::json_escape(&self.names[s.name as usize], &mut name);
            let _ = writeln!(
                out,
                "{{\"decision\":{},\"party\":{},\"track\":{},\"id\":{id},\"name\":\"{}\",\
                 \"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
                self.decision, self.party, self.track, name, s.start_ns, s.end_ns, s.cpu_ns
            );
        }
    }
}

/// The interposer. Wrap the `ctx` a party closure receives, hand
/// `&mut SpanComm` to the protocol, and call [`SpanComm::finish`] when the
/// protocol returns.
pub struct SpanComm<'a> {
    inner: &'a mut dyn Comm,
    epoch: Instant,
    trace: Trace,
    /// Open spans, innermost last, each with the thread's processor time
    /// at opening.
    open: Vec<(u32, u64)>,
}

impl<'a> SpanComm<'a> {
    pub fn new(inner: &'a mut dyn Comm, epoch: Instant, decision: u32, track: u32) -> Self {
        let party = inner.me().index() as u32;
        let mut comm = Self {
            inner,
            epoch,
            trace: Trace {
                decision,
                party,
                track,
                ..Trace::default()
            },
            open: Vec::new(),
        };
        comm.open_span(ROOT);
        comm
    }

    fn name_id(&mut self, name: &str) -> u16 {
        // A protocol uses a dozen scope names; a scan beats hashing.
        let found = self.trace.names.iter().position(|n| n == name);
        found.unwrap_or_else(|| {
            self.trace.names.push(name.to_owned());
            self.trace.names.len() - 1
        }) as u16
    }

    fn open_span(&mut self, name: &str) {
        let name = self.name_id(name);
        let id = self.trace.spans.len() as u32;
        self.trace.spans.push(Span {
            name,
            parent: self.open.last().map(|(p, _)| *p),
            start_ns: 0,
            end_ns: 0,
            cpu_ns: 0,
        });
        // Stamp last, so the bookkeeping above lands in the parent.
        self.open.push((id, thread_cpu_ns()));
        self.trace.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    fn close_span(&mut self) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let cpu_now = thread_cpu_ns();
        if let Some((id, cpu_at_open)) = self.open.pop() {
            let span = &mut self.trace.spans[id as usize];
            span.end_ns = end_ns;
            span.cpu_ns = cpu_now - cpu_at_open;
        }
    }

    /// Closes the root span (and anything a protocol left open) and
    /// returns the recording.
    pub fn finish(mut self) -> Trace {
        while !self.open.is_empty() {
            self.close_span();
        }
        self.trace
    }
}

impl Comm for SpanComm<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn t(&self) -> usize {
        self.inner.t()
    }

    fn me(&self) -> PartyId {
        self.inner.me()
    }

    fn send_bytes(&mut self, to: PartyId, payload: Bytes) {
        if to != self.inner.me() {
            self.trace.sends += 1;
            self.trace.send_bytes += payload.len() as u64;
        }
        self.inner.send_bytes(to, payload);
    }

    fn next_round(&mut self) -> Inbox {
        self.trace.rounds += 1;
        self.open_span(NEXT_ROUND);
        let inbox = self.inner.next_round();
        self.close_span();
        inbox
    }

    fn push_scope(&mut self, name: &str) {
        self.open_span(name);
        self.inner.push_scope(name);
    }

    fn pop_scope(&mut self) {
        self.inner.pop_scope();
        // Never close the root on a stray pop.
        if self.open.len() > 1 {
            self.close_span();
        }
    }

    fn silent_parties(&self) -> Vec<PartyId> {
        self.inner.silent_parties()
    }

    fn fault_estimate(&self) -> FaultEstimate {
        self.inner.fault_estimate()
    }

    fn trace_enabled(&self) -> bool {
        self.inner.trace_enabled()
    }

    fn trace(&mut self, event: Event) {
        self.inner.trace(event);
    }
}

/// Self time of every span: its own duration minus the part its direct
/// children cover, as `(wall_ns, cpu_ns)` in span order. On one thread
/// spans nest and never overlap, so the self times of a tree add up to its
/// root exactly.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut own: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns, s.cpu_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &mut own[p as usize];
            parent.0 = parent.0.saturating_sub(s.end_ns - s.start_ns);
            parent.1 = parent.1.saturating_sub(s.cpu_ns);
        }
    }
    own
}

/// The per-layer processor-time metric a scope's self time is charged to.
/// Covers every scope string `crates/ba` and `crates/core` push; anything
/// else is kept visible under `other.cpu_ms`.
pub fn scope_metric(scope: &str) -> &'static str {
    match scope {
        "tc" => "ba.tc.cpu_ms",
        "pk" => "ba.pk.cpu_ms",
        "ba+" | "ba+a" => "ba.ba_plus.cpu_ms",
        "lba+" => "ba.lba_plus.cpu_ms",
        // The one-bit BAs `Π_ℤ`/`Π_ℕ` run sit in thin scopes of their own
        // whose self time is the caller's glue.
        "pi_z" | "sign_ba" => "core.pi_z.cpu_ms",
        "pi_n" | "pi_n_a" | "fast_ba" | "path_ba" | "len_est" | "blocksize" => "core.pi_n.cpu_ms",
        "find_prefix" => "core.find_prefix.cpu_ms",
        "flca" | "flcab" => "core.flca.cpu_ms",
        "add_last_bit" | "add_last_block" => "core.add_last.cpu_ms",
        "get_output" => "core.get_output.cpu_ms",
        "high_cost" => "core.high_cost.cpu_ms",
        "engine" => "engine.mux.cpu_ms",
        _ => "other.cpu_ms",
    }
}

/// What carries a workload's rounds; decides which layer `next_round`
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `ca_net::Sim`.
    Sim,
    /// `ca_runtime::TcpCluster`.
    Tcp,
}

/// Per-layer totals over any number of traces. All times in nanoseconds.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Self processor time by metric, over every absorbed trace.
    pub cpu_ns: BTreeMap<&'static str, u64>,
    /// Processor time of every absorbed trace's root: what the protocol
    /// threads consumed in total.
    pub threads_cpu_ns: u64,
    /// On the lead party's protocol thread: wall time inside `next_round`,
    /// and of the root span.
    pub lead_next_round_wall_ns: u64,
    pub lead_root_wall_ns: u64,
    /// Over the lead party's engine sessions: wall time inside the
    /// session's `next_round` (waiting for the engine to turn the round).
    pub lead_session_wait_wall_ns: u64,
    /// `next_round` calls on the lead party's protocol thread, and `lba+`
    /// scopes on it and its sessions.
    pub lead_rounds: u64,
    pub lead_lba_calls: u64,
    /// Sends to other parties over every absorbed protocol thread.
    pub sends: u64,
    pub send_bytes: u64,
}

impl Breakdown {
    /// Adds every thread's recording of one decision. The wall-clock
    /// figures come from the timeline of the party that finished last: the
    /// one the decision waited for, whose root span reaches from the start
    /// of the decision to its end.
    pub fn absorb_decision(&mut self, traces: &[Trace], transport: Transport) {
        let lead = traces
            .iter()
            .filter(|t| t.track == 0)
            .max_by_key(|t| {
                (
                    t.spans.first().map_or(0, |root| root.end_ns),
                    std::cmp::Reverse(t.party),
                )
            })
            .map(|t| t.party);
        for trace in traces {
            self.absorb(trace, Some(trace.party) == lead, transport);
        }
    }

    /// Adds one thread's recording. `lead` marks the party whose timeline
    /// the wall-clock figures are taken from.
    fn absorb(&mut self, trace: &Trace, lead: bool, transport: Transport) {
        let session = trace.track != 0;
        let next_round_metric = match (session, transport) {
            // A session's round is turned by the engine, not the network.
            (true, _) => "engine.mux.cpu_ms",
            (false, Transport::Sim) => "net.next_round.cpu_ms",
            (false, Transport::Tcp) => "runtime.next_round.cpu_ms",
        };
        if !session {
            // A session's sends travel inside the party's envelopes.
            self.sends += trace.sends;
            self.send_bytes += trace.send_bytes;
            if lead {
                self.lead_rounds += trace.rounds;
            }
        }
        for (span, (self_wall, self_cpu)) in trace.spans.iter().zip(self_times(&trace.spans)) {
            let name = trace.names[span.name as usize].as_str();
            let metric = if name == NEXT_ROUND {
                next_round_metric
            } else {
                scope_metric(name)
            };
            *self.cpu_ns.entry(metric).or_default() += self_cpu;
            if span.parent.is_none() {
                self.threads_cpu_ns += span.cpu_ns;
            }
            if !lead {
                continue;
            }
            match (session, name) {
                (false, NEXT_ROUND) => self.lead_next_round_wall_ns += self_wall,
                (true, NEXT_ROUND) => self.lead_session_wait_wall_ns += self_wall,
                (false, ROOT) => self.lead_root_wall_ns += span.end_ns - span.start_ns,
                (_, "lba+") => self.lead_lba_calls += 1,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convex_agreement::net::{CommExt, Sim};

    fn span(name: u16, parent: Option<u32>, start: u64, end: u64, cpu: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            cpu_ns: cpu,
        }
    }

    /// root 0..100 ─ pi_z 5..95 ─┬ next_round 10..30 (the wait)
    ///                            ├ tc 30..80 ─ next_round 40..70
    ///                            └ (pi_z self: the rest)
    fn synthetic() -> Trace {
        Trace {
            names: [ROOT, "pi_z", NEXT_ROUND, "tc"].map(String::from).to_vec(),
            spans: vec![
                span(0, None, 0, 100, 50),
                span(1, Some(0), 5, 95, 46),
                span(2, Some(1), 10, 30, 2),
                span(3, Some(1), 30, 80, 24),
                span(2, Some(3), 40, 70, 4),
            ],
            rounds: 2,
            sends: 3,
            send_bytes: 30,
            ..Trace::default()
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let own = self_times(&synthetic().spans);
        assert_eq!(own, vec![(10, 4), (20, 20), (20, 2), (20, 20), (30, 4)]);
    }

    #[test]
    fn self_times_and_waits_add_up_to_the_root() {
        let trace = synthetic();
        let own = self_times(&trace.spans);
        let (wall, cpu) = own.iter().fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1));
        assert_eq!(wall, 100, "Σ self + wait = root wall");
        assert_eq!(cpu, 50, "Σ self cpu = root cpu");

        let mut b = Breakdown::default();
        b.absorb(&trace, true, Transport::Sim);
        assert_eq!(b.cpu_ns.values().sum::<u64>(), b.threads_cpu_ns);
        assert_eq!(b.lead_root_wall_ns, 100);
        assert_eq!(b.lead_next_round_wall_ns, 50);
        assert_eq!(b.cpu_ns["net.next_round.cpu_ms"], 6);
        assert_eq!(b.cpu_ns["ba.tc.cpu_ms"], 20);
        assert_eq!(b.cpu_ns["core.pi_z.cpu_ms"], 20);
        assert_eq!(b.cpu_ns["other.cpu_ms"], 4, "root self time stays visible");
        assert_eq!((b.lead_rounds, b.sends, b.send_bytes), (2, 3, 30));
    }

    #[test]
    fn transport_and_track_decide_where_next_round_goes() {
        let mut tcp = Breakdown::default();
        tcp.absorb(&synthetic(), false, Transport::Tcp);
        assert_eq!(tcp.cpu_ns["runtime.next_round.cpu_ms"], 6);
        assert_eq!(
            tcp.lead_next_round_wall_ns, 0,
            "not the lead: no wall figures"
        );

        let mut session = synthetic();
        session.track = 1;
        let mut eng = Breakdown::default();
        eng.absorb(&session, true, Transport::Sim);
        assert_eq!(eng.cpu_ns["engine.mux.cpu_ms"], 6);
        assert_eq!(eng.lead_session_wait_wall_ns, 50);
        assert_eq!((eng.lead_rounds, eng.sends, eng.send_bytes), (0, 0, 0));
    }

    #[test]
    fn the_party_that_finishes_last_leads() {
        let early = Trace {
            party: 0,
            ..synthetic()
        };
        let mut late = Trace {
            party: 3,
            ..synthetic()
        };
        late.spans[0].end_ns = 140;
        let mut session_of_late = late.clone();
        session_of_late.track = 5;
        session_of_late.spans[0].end_ns = 999;
        let mut b = Breakdown::default();
        b.absorb_decision(&[early, late, session_of_late], Transport::Sim);
        assert_eq!(
            b.lead_root_wall_ns, 140,
            "party 3 ended last; sessions do not lead"
        );
        assert_eq!(
            b.lead_session_wait_wall_ns, 50,
            "but the leader's sessions count"
        );
        assert_eq!(b.threads_cpu_ns, 150);
    }

    #[test]
    fn every_protocol_scope_maps_to_a_layer() {
        // Every scope string crates/ba and crates/core push.
        let scopes = [
            "tc",
            "pk",
            "ba+",
            "ba+a",
            "lba+",
            "pi_z",
            "pi_n",
            "pi_n_a",
            "fast_ba",
            "sign_ba",
            "path_ba",
            "len_est",
            "blocksize",
            "find_prefix",
            "flca",
            "flcab",
            "add_last_bit",
            "add_last_block",
            "get_output",
            "high_cost",
        ];
        for scope in scopes {
            let metric = scope_metric(scope);
            assert_ne!(metric, "other.cpu_ms", "{scope} has no layer");
            assert!(
                metric.starts_with("ba.") || metric.starts_with("core."),
                "{scope} → {metric}"
            );
        }
        assert_eq!(scope_metric("engine"), "engine.mux.cpu_ms");
    }

    #[test]
    fn unknown_scopes_land_in_other() {
        assert_eq!(scope_metric("brand_new_scope"), "other.cpu_ms");
        assert_eq!(scope_metric(ROOT), "other.cpu_ms");
        let mut trace = synthetic();
        trace.names[3] = "brand_new_scope".to_owned();
        let mut b = Breakdown::default();
        b.absorb(&trace, true, Transport::Sim);
        assert_eq!(b.cpu_ns["other.cpu_ms"], 4 + 20, "charged, not dropped");
        assert_eq!(b.cpu_ns.values().sum::<u64>(), b.threads_cpu_ns);
    }

    #[test]
    fn span_comm_sees_scopes_rounds_and_sends() {
        let epoch = Instant::now();
        let report = Sim::new(4).run(|ctx, _| {
            let mut comm = SpanComm::new(ctx, epoch, 7, 0);
            let heard = comm.scoped("outer", |c| {
                c.scoped("inner", |c| c.exchange(&1u8));
                c.exchange(&2u8).decode_each::<u8>().len()
            });
            (heard, comm.finish())
        });
        assert_eq!(
            report.metrics.rounds, 2,
            "the wrapped transport still meters"
        );
        for (party, out) in report.outputs.iter().enumerate() {
            let (heard, trace) = out.as_ref().unwrap();
            assert_eq!(*heard, 4);
            assert_eq!(
                (trace.decision, trace.party as usize, trace.track),
                (7, party, 0)
            );
            let names: Vec<&str> = trace
                .spans
                .iter()
                .map(|s| trace.names[s.name as usize].as_str())
                .collect();
            assert_eq!(names, [ROOT, "outer", "inner", NEXT_ROUND, NEXT_ROUND]);
            let parents: Vec<Option<u32>> = trace.spans.iter().map(|s| s.parent).collect();
            assert_eq!(parents, [None, Some(0), Some(1), Some(2), Some(1)]);
            assert_eq!((trace.rounds, trace.sends, trace.send_bytes), (2, 6, 6));
            for s in &trace.spans {
                assert!(s.start_ns <= s.end_ns);
            }
            let own = self_times(&trace.spans);
            let root = &trace.spans[0];
            assert_eq!(
                own.iter().map(|s| s.0).sum::<u64>(),
                root.end_ns - root.start_ns
            );
        }
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = String::new();
        synthetic().write_jsonl(&mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        let first = crate::json::Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some(ROOT));
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
        let last = crate::json::Json::parse(lines[4]).unwrap();
        assert_eq!(last.get("parent").unwrap().as_f64(), Some(3.0));
        assert_eq!(last.get("cpu_ns").unwrap().as_f64(), Some(4.0));
    }
}

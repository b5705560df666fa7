//! Aggregate service-level measurements of one engine run.

use ca_trace::Histogram;

/// Counters and histograms one party's engine accumulates over a run.
///
/// Protocol payload (the paper's `BITSℓ`) is metered by the transport;
/// `wire_bits` models the full TCP deployment cost from
/// `ca_runtime::Frame` framing — the quantity the S1 experiment amortizes
/// across sessions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transport rounds the engine consumed.
    pub engine_rounds: u64,
    /// Sessions that ran to decision and were reaped.
    pub sessions_decided: u64,
    /// Envelopes flushed to peers (self-delivery excluded).
    pub envelopes_sent: u64,
    /// Session frames carried by those envelopes.
    pub frames_sent: u64,
    /// Frames per peer envelope — the batching (amortization) profile.
    pub batch_occupancy: Histogram,
    /// Protocol rounds per decided session.
    pub session_rounds: Histogram,
    /// Admission-to-decision latency per decided session, in engine
    /// rounds (time spent waiting for a slot is not counted).
    pub session_latency_rounds: Histogram,
    /// Modeled TCP wire bits this party sent: one `Frame::Round` per peer
    /// per transport round, carrying that round's envelopes to the peer
    /// and doubling as its end-of-round marker, plus the per-run
    /// `Hello`/`Bye` connection setup — everything a real deployment pays.
    pub wire_bits: u64,
    /// Frames dropped by per-sender inbox backpressure.
    pub shed_frames: u64,
    /// Frames addressed to a session this party never admitted.
    pub stray_frames: u64,
    /// Frames addressed to an already-reaped session (the benign
    /// fire-and-forget tail of a decided protocol).
    pub late_frames: u64,
    /// Incoming transport messages that failed to decode as envelopes.
    pub malformed_envelopes: u64,
    /// Peak number of peers the transport reported silent (crashed or
    /// cut off) at any sampled round. A peak, not a sum: merged with
    /// `max` in [`EngineStats::absorb`] so aggregating parties or runs
    /// reports the worst outage seen, which is the number to compare
    /// against the `t < n/3` budget.
    pub peers_gone: u64,
}

impl EngineStats {
    /// Element-wise accumulation: counters add, histograms merge. Used both to aggregate one run
    /// across parties and to accumulate repeated runs in closed-loop
    /// load generation (`engine_rounds` then counts party-rounds).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.engine_rounds += other.engine_rounds;
        self.sessions_decided += other.sessions_decided;
        self.envelopes_sent += other.envelopes_sent;
        self.frames_sent += other.frames_sent;
        self.batch_occupancy.merge(&other.batch_occupancy);
        self.session_rounds.merge(&other.session_rounds);
        self.session_latency_rounds
            .merge(&other.session_latency_rounds);
        self.wire_bits += other.wire_bits;
        self.shed_frames += other.shed_frames;
        self.stray_frames += other.stray_frames;
        self.late_frames += other.late_frames;
        self.malformed_envelopes += other.malformed_envelopes;
        self.peers_gone = self.peers_gone.max(other.peers_gone);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_merges_histograms() {
        let mut a = EngineStats {
            wire_bits: 10,
            ..EngineStats::default()
        };
        a.batch_occupancy.record(4);
        let mut b = EngineStats {
            wire_bits: 5,
            ..EngineStats::default()
        };
        b.batch_occupancy.record(8);
        a.peers_gone = 2;
        b.peers_gone = 1;
        a.absorb(&b);
        assert_eq!(a.wire_bits, 15);
        assert_eq!(a.peers_gone, 2, "peers_gone is a peak, not a sum");
        assert_eq!(a.batch_occupancy.count(), 2);
    }
}

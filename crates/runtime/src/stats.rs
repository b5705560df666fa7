//! Transport-level counters for crash-fault accounting.
//!
//! The protocol model already absorbs crashed peers (they become
//! silent-byzantine), so nothing above the `Comm` seam needs these
//! numbers to stay correct. They exist so deployments and experiments
//! can *see* what the transport absorbed: how many frames were shed to
//! write timeouts and bounded queues, how many peers went silent, how hard
//! establishment had to retry.

use std::sync::atomic::{AtomicU64, Ordering};

/// Point-in-time snapshot of one party's transport counters.
///
/// Obtained from [`TcpParty::stats`](crate::TcpParty::stats); all fields
/// are cumulative since establishment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Frames sent to peers (one per peer per round, plus the control
    /// frames), counted when their write starts.
    pub frames_sent: u64,
    /// Total wire bytes of those frames (length prefix + encoded body).
    pub wire_bytes_sent: u64,
    /// Frames dropped. Outbound, to a peer that stopped reading: the one
    /// that missed its `Δ` write deadline, those queued behind it, and any
    /// its full spill queue refused; each such peer is also disconnected
    /// (see [`RuntimeStats::overflow_disconnects`]). Inbound, the round
    /// batch that overfilled a flooding peer's early buffer, which cuts
    /// that peer off.
    pub frames_shed: u64,
    /// Peers this party stopped listening to (EOF, decode failure, a
    /// write timeout or a flood). Counted once per peer.
    pub peers_gone: u64,
    /// Peers disconnected because a write to them timed out or their
    /// spill queue filled.
    pub overflow_disconnects: u64,
    /// Inbound connections dropped during establishment for a bad
    /// handshake: undecodable hello, out-of-range or impersonated index,
    /// or a duplicate of an already-connected peer.
    pub handshake_rejects: u64,
    /// Failed dial attempts that were retried with backoff during
    /// establishment.
    pub dial_retries: u64,
}

/// Shared mutable counters behind [`RuntimeStats`]: one instance per
/// party, updated from the protocol thread, the spill threads, and
/// establishment.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub frames_sent: AtomicU64,
    pub wire_bytes_sent: AtomicU64,
    pub frames_shed: AtomicU64,
    pub peers_gone: AtomicU64,
    pub overflow_disconnects: AtomicU64,
    pub handshake_rejects: AtomicU64,
    pub dial_retries: AtomicU64,
}

impl StatsInner {
    /// Copies the counters out. Individually atomic, not a consistent
    /// cross-field snapshot — fine for accounting.
    pub fn snapshot(&self) -> RuntimeStats {
        RuntimeStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            wire_bytes_sent: self.wire_bytes_sent.load(Ordering::Relaxed),
            frames_shed: self.frames_shed.load(Ordering::Relaxed),
            peers_gone: self.peers_gone.load(Ordering::Relaxed),
            overflow_disconnects: self.overflow_disconnects.load(Ordering::Relaxed),
            handshake_rejects: self.handshake_rejects.load(Ordering::Relaxed),
            dial_retries: self.dial_retries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let inner = StatsInner::default();
        assert_eq!(inner.snapshot(), RuntimeStats::default());
        inner.frames_sent.fetch_add(3, Ordering::Relaxed);
        inner.wire_bytes_sent.fetch_add(120, Ordering::Relaxed);
        inner.peers_gone.fetch_add(1, Ordering::Relaxed);
        let snap = inner.snapshot();
        assert_eq!(snap.frames_sent, 3);
        assert_eq!(snap.wire_bytes_sent, 120);
        assert_eq!(snap.peers_gone, 1);
        assert_eq!(snap.frames_shed, 0);
    }
}

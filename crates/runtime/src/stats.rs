//! Transport-level counters for crash-fault accounting.
//!
//! The protocol model already absorbs crashed peers (they become
//! silent-byzantine), so nothing above the `Comm` seam needs these
//! numbers to stay correct. They exist so deployments and experiments
//! can *see* what the transport absorbed: how many frames were shed to
//! write timeouts and bounded queues, how many peers went silent, how hard
//! establishment had to retry.

/// One party's transport counters.
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
    /// that missed its `Δ` write deadline or overfilled its write queue,
    /// and those queued behind it; each such peer is also disconnected
    /// (see [`RuntimeStats::overflow_disconnects`]). Also outbound, what a
    /// crash left unwritten. Inbound, the round batch that overfilled a
    /// flooding peer's early buffer, which cuts that peer off.
    pub frames_shed: u64,
    /// Peers this party stopped listening to (EOF, decode failure, a
    /// write timeout or a flood). Counted once per peer.
    pub peers_gone: u64,
    /// Peers disconnected because a write to them missed its `Δ` deadline
    /// or their write queue overfilled.
    pub overflow_disconnects: u64,
    /// Inbound connections dropped during establishment for a bad
    /// handshake: undecodable hello, out-of-range or impersonated index,
    /// or a duplicate of an already-connected peer.
    pub handshake_rejects: u64,
    /// Failed dial attempts that were retried with backoff during
    /// establishment.
    pub dial_retries: u64,
}

//! Synchronous network substrate (paper §2).
//!
//! The paper's model: `n` parties in a fully connected network of
//! authenticated channels; synchronized clocks; every message delivered
//! within a publicly known `Δ` — i.e. computation proceeds in *lock-step
//! rounds*. An adaptive, rushing adversary corrupts up to `t < n/3` parties.
//!
//! This crate implements that model exactly and measurably:
//!
//! * [`Comm`] — the channel abstraction a transport implements and a
//!   blocking protocol body is written against (`send`, `next_round`).
//!   The same protocol code runs on the simulator here and on the TCP
//!   runtime in `ca-runtime`.
//! * [`Ctx`] — the one round context the protocols of `ca-core` and
//!   `ca-ba` are written against, as `async fn`s: live over any
//!   `&mut dyn Comm` (every blocking entry point is [`block_on`] over
//!   one), or hosted by [`Tasks`].
//! * [`Sim`] — the deterministic lock-step executor: one [`fiber`] per
//!   honest party, exact per-scope bit/round accounting, and a rushing
//!   adversary hook that sees the honest messages of round `r` *before*
//!   choosing the corrupted parties' round-`r` messages (and may adaptively
//!   corrupt more parties mid-protocol).
//! * Two hosts of many bodies under one owner, with one contract (spawn,
//!   [`step::Step`]s collected in key order, deliver, kill): [`fiber`]
//!   parks blocking bodies on threads of their own, [`Tasks`] polls
//!   `async` ones on the owner's thread. [`Sim`] and the `ca-engine`
//!   driver are policies over them.
//! * [`Adversary`] / [`RoundView`] — the attacker interface; strategy
//!   implementations live in `ca-adversary`.
//! * [`Metrics`] — the quantities the paper bounds: `BITSℓ(Π)` (bits sent by
//!   honest parties) and `ROUNDSℓ(Π)`, with per-subprotocol breakdowns.
//!
//! # Examples
//!
//! A one-round all-to-all exchange under simulation:
//!
//! ```
//! use ca_net::{Comm, CommExt, Sim};
//!
//! let report = Sim::new(4).run(|ctx: &mut dyn Comm, _id| {
//!     let inbox = ctx.exchange(&7u64); // send 7 to everyone, advance a round
//!     inbox.decode_each::<u64>().len()
//! });
//! assert!(report.outputs.iter().all(|o| o == &Some(4)));
//! assert_eq!(report.metrics.rounds, 1);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(
    test,
    allow(
        clippy::unreachable,
        reason = "unit tests check arms that cannot be reached"
    )
)]

mod adversary;
mod comm;
mod ctx;
mod delay;
pub mod fiber;
mod inbox;
mod metrics;
mod sim;
pub mod step;
mod tasks;

pub use adversary::{Adversary, RoundActions, RoundView, SendSpec, Silent};
// Re-exported so downstream code can name the types that appear in
// `Metrics` and `Sim::with_trace` (and render values for the `CommExt`
// trace helpers) without a separate `ca-trace` import.
pub use ca_trace::{compact_debug, Histogram, TraceSink};
pub use comm::{Comm, CommExt, FaultEstimate};
pub use ctx::{block_on, Ctx};
pub use delay::{splitmix64, EdgeDelays, EdgeRule};
pub use inbox::Inbox;
pub use metrics::{Metrics, ScopeMetrics};
pub use sim::{Corruption, RunReport, Sim};
pub use tasks::Tasks;

use std::fmt;

/// Identity of one of the `n` parties, 0-indexed.
///
/// (The paper indexes parties `P₁ … Pₙ`; this API is 0-based.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartyId(pub usize);

impl PartyId {
    /// The party's index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl ca_codec::Encode for PartyId {
    fn encode(&self, w: &mut ca_codec::Writer) {
        self.0.encode(w);
    }
    fn encoded_len(&self) -> usize {
        ca_codec::Encode::encoded_len(&self.0)
    }
}

impl ca_codec::Decode for PartyId {
    fn decode(r: &mut ca_codec::Reader<'_>) -> Result<Self, ca_codec::CodecError> {
        Ok(PartyId(usize::decode(r)?))
    }
}

/// Maximum tolerable number of corruptions for `n` parties under `t < n/3`.
pub fn max_faults(n: usize) -> usize {
    n.saturating_sub(1) / 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_faults_threshold() {
        assert_eq!(max_faults(1), 0);
        assert_eq!(max_faults(3), 0);
        assert_eq!(max_faults(4), 1);
        assert_eq!(max_faults(6), 1);
        assert_eq!(max_faults(7), 2);
        assert_eq!(max_faults(10), 3);
        for n in 1..100 {
            assert!(3 * max_faults(n) < n);
        }
    }
}

//! Event-driven asynchronous agreement backend.
//!
//! Everything else in this workspace advances in lock-step rounds — the
//! `ca-net` simulator barriers and the Δ-timeout TCP runtime both bake in
//! the synchronous model of the source paper (§2). This crate is the
//! asynchronous counterpart, following "Asynchronous Approximate
//! Agreement with Quadratic Communication" (Erbes–Wattenhofer; see
//! PAPERS.md): protocols are explicit state machines ([`AsyncProtocol`])
//! — message in, actions out — progress is gated on message-arrival
//! **quorums** (`n − t` out of `n`), and no timer or Δ appears anywhere.
//!
//! Building blocks:
//!
//! * [`Rbc`] — Bracha-style reliable broadcast (Init/Echo/Ready, echo
//!   counting per payload), binding byzantine senders to one value per
//!   slot.
//! * [`QuorumTracker`] / [`WitnessGather`] — order-invariant threshold
//!   counting and the (n−t)-witness technique that keeps honest parties'
//!   delivered sets overlapping.
//! * [`AsyncApprox`] — asynchronous approximate agreement over [`ca_bits::Nat`]:
//!   per-round RBC dispersal, witness gather, trimmed-midpoint update.
//! * [`Executor`] — a deterministic single-threaded scheduler over a
//!   seeded priority event queue, producing byte-identical traces across
//!   reruns. Its [`DeliverySchedule`] is [`ca_net::EdgeDelays`], the same
//!   per-edge delay / reorder / drop sampler `Sim::with_delays` uses.
//! * [`run_on_comm`] — hosts any [`AsyncProtocol`] on a round-based
//!   [`ca_net::Comm`] substrate (the simulator, and thereby `ca-engine`
//!   sessions, beside synchronous ones). `ca-runtime` adds the
//!   event-driven TCP driver, `run_async_party`.

mod aaa;
mod comm_driver;
mod executor;
mod protocol;
mod quorum;
mod rbc;

pub use aaa::{rounds_for_spread, AaaMsg, AsyncApprox};
pub use comm_driver::run_on_comm;
pub use executor::{ExecReport, Executor};
pub use protocol::{Action, AsyncProtocol};
pub use quorum::{QuorumTracker, WitnessGather, WitnessStep};
pub use rbc::{Rbc, RbcMsg, RbcOutcome, RbcTag};

/// When (or whether) the executor delivers each message: delay of message
/// `seq` on edge `from → to` in virtual time, `None` for a drop.
pub type DeliverySchedule = ca_net::EdgeDelays;

//! # ca-engine — the multi-tenant agreement service
//!
//! The paper proves per-instance communication optimality; a production
//! deployment runs **many** concurrent CA instances over shared
//! transport, where fixed per-connection and per-round costs amortize
//! across instances. This crate is that service layer:
//!
//! * [`run_engine_party_async`] — one party's engine: N concurrent
//!   sessions, each an `async` body over a session-scoped `ca_net::Ctx`,
//!   polled as a `ca_net::Tasks` task on the party's own thread and
//!   multiplexed over any transport (`Sim` or `TcpParty`) via
//!   session-tagged [`Envelope`]s, with round-batched flushing, bounded
//!   per-session inboxes, a capacity bound on live sessions, and graceful
//!   drain of decided sessions. [`run_engine_party`] is the same driver
//!   for a blocking body over a session-scoped `Comm`, each session a
//!   `ca_net::fiber`.
//! * [`EnvelopeAdversary`] — lifts single-instance `ca-adversary`
//!   strategies to the envelope layer, so multiplexed-vs-isolated
//!   equivalence is testable under every attack.
//! * [`loadgen`] — closed-loop workload driving with per-session
//!   correctness checking and clock-injected timing.
//!
//! A blocking session body is any closure over its session-scoped
//! `Comm`, so an asynchronous-model protocol runs as one through
//! `ca_async::run_on_comm` (round barriers are one legal asynchronous
//! schedule), beside synchronous sessions in the same plan.
//!
//! Session lifecycle: *queued* (ids `0..k` of the [`SessionPlan`]) →
//! *running* (admitted, in id order, once the bounded table has a free
//! slot) → *decided* (body returned) → *reaped* (slot freed, output
//! recorded). Traces nest every session's records
//! under `engine/s<id>/…`, so per-session timelines are recoverable from
//! one multiplexed run.

mod config;
mod driver;
mod envelope;
mod lift;
pub mod loadgen;
mod stats;

pub use config::{EngineConfig, SessionPlan};
pub use driver::{run_engine_party, run_engine_party_async, EngineOutput, ENGINE_SCOPE};
pub use envelope::{Envelope, SessionFrame, SessionId};
pub use lift::EnvelopeAdversary;
pub use loadgen::{LoadProfile, LoadReport};
pub use stats::EngineStats;

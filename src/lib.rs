//! # convex-agreement
//!
//! A from-scratch Rust implementation of **“Communication-Optimal Convex
//! Agreement”** (Ghinea, Liu-Zhang, Wattenhofer; PODC 2024): Convex
//! Agreement on integers at communication `O(ℓn + κ·n²·log²n)` for `ℓ`-bit
//! inputs under `t < n/3` byzantine corruptions in the synchronous,
//! unauthenticated model — plus every substrate the protocol stands on and
//! a measurement harness reproducing each of the paper's claims.
//!
//! ## Crate map
//!
//! * [`core`] — the paper's protocols: `Π_ℤ`, `Π_ℕ`, `FixedLengthCA`(+
//!   blocks), `HighCostCA`, and the broadcast-based baseline.
//! * [`ba`] — the BA stack: phase-king, Turpin–Coan, `Π_BA+`, `Π_ℓBA+`.
//! * [`net`] — the synchronous-model simulator with exact `BITSℓ`/`ROUNDSℓ`
//!   accounting and rushing adaptive adversaries.
//! * [`adversary`] — the byzantine strategy library.
//! * [`trace`] — structured protocol tracing: typed event records, sinks,
//!   invariant checking (`ca-trace check`), timeline reports and diffs.
//! * [`asynchrony`] — the asynchronous kernel: event-driven protocol state
//!   machines (reliable broadcast, witness quorums, Δ-free approximate
//!   agreement) under a deterministic seeded executor.
//! * [`runtime`] — the TCP runtime on `std::net` (same protocol code,
//!   real sockets), including an event-driven driver for async protocols.
//! * [`engine`] — the multi-tenant agreement service: N concurrent CA
//!   sessions per party multiplexed over one transport, with admission
//!   control, backpressure, and a load-generation harness.
//! * [`bits`], [`crypto`], [`erasure`], [`codec`] — value domain, SHA-256 +
//!   Merkle accumulators, Reed–Solomon codes, wire codec.
//!
//! ## Quickstart
//!
//! ```
//! use convex_agreement::bits::Int;
//! use convex_agreement::core::CaProtocol;
//! use convex_agreement::net::{Corruption, PartyId, Sim};
//!
//! let inputs: Vec<Int> = vec![-1005, -1004, -1004, -1003, -1005, 10_000, 10_000]
//!     .into_iter().map(Int::from_i64).collect();
//! let proto = CaProtocol::new();
//! let report = Sim::new(7)
//!     .corrupt(PartyId(5), Corruption::LyingHonest)
//!     .corrupt(PartyId(6), Corruption::LyingHonest)
//!     .run(|ctx, id| proto.run_int(ctx, &inputs[id.index()]));
//! let outputs = report.honest_outputs();
//! assert!(outputs.windows(2).all(|w| w[0] == w[1]));
//! assert!(*outputs[0] <= Int::from_i64(-1003) && *outputs[0] >= Int::from_i64(-1005));
//! ```

pub use ca_adversary as adversary;
// `async` is a keyword, so the asynchronous kernel re-exports under a
// pronounceable alias rather than `r#async`.
pub use ca_async as asynchrony;
pub use ca_ba as ba;
pub use ca_bits as bits;
pub use ca_codec as codec;
pub use ca_core as core;
pub use ca_crypto as crypto;
pub use ca_engine as engine;
pub use ca_erasure as erasure;
pub use ca_net as net;
pub use ca_runtime as runtime;
pub use ca_trace as trace;

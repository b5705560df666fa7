//! Byzantine Agreement substrate (paper §7 and its assumed primitives).
//!
//! The convex-agreement protocols assume "a BA protocol `Π_BA` resilient
//! against `t < n/3` corruptions" and construct on top of it a BA for long
//! messages with two extra properties. This crate provides the whole stack:
//!
//! | paper | here |
//! |---|---|
//! | assumed `Π_BA` (e.g. [12]) | [`BaKind::TurpinCoan`]: a Turpin–Coan-style reduction to binary phase-king BA, `BITSκ = O(κn² + n³)` |
//! | (ablation) | [`BaKind::PhaseKing`]: direct multi-valued phase-king [7], `BITSκ = O(κn³)` |
//! | `Π_BA+` (§7, Theorem 6) | [`ba_plus`]: κ-bit BA with *Intrusion Tolerance* and *Bounded Pre-Agreement* |
//! | `Π_ℓBA+` (§7, Theorem 1) | [`lba_plus`]: the extension protocol — Reed–Solomon dispersal + Merkle accumulators, `O(ℓn + κn²·log n) + BITSκ(Π_BA)` |
//!
//! The two extra properties (paper Definitions 3 and 4):
//!
//! * **Intrusion Tolerance** — honest parties output an honest party's input
//!   or `⊥` (here: `None`).
//! * **Bounded Pre-Agreement** — if the output is `⊥`, fewer than `n − 2t`
//!   honest parties shared an input value.
//!
//! # Examples
//!
//! ```
//! use ca_ba::{lba_plus, BaKind};
//! use ca_net::Sim;
//!
//! // All honest parties hold the same long input → they agree on it.
//! let input: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
//! let report = Sim::new(4).run(|ctx, _id| lba_plus(ctx, &input, BaKind::TurpinCoan));
//! for out in report.honest_outputs() {
//!     assert_eq!(out.as_ref(), Some(&input));
//! }
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod ba_plus;
mod ext;
mod kind;
mod phase_king;
mod turpin_coan;
mod value;

pub use ba_plus::ba_plus;
pub use ext::{lba_plus, lba_plus_async};
pub use kind::BaKind;
pub use phase_king::phase_king;
pub use turpin_coan::turpin_coan;
pub use value::Value;

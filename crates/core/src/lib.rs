//! Communication-optimal Convex Agreement — the paper's contribution.
//!
//! Convex Agreement (CA, Definition 1): `n` parties with integer inputs, up
//! to `t < n/3` byzantine; all honest parties must terminate with the *same*
//! output, and that output must lie **within the range of the honest
//! inputs** (convex validity) — the property plain BA lacks (a byzantine
//! sensor must not be able to drag the agreed temperature to `+100 °C`).
//!
//! The headline result: CA on `ℓ`-bit integers at communication
//! `O(ℓn + κ·n²·log²n)` — optimal in `ℓ` — instead of the `O(ℓn²)` of the
//! classical broadcast-based approach. The key idea is to *never ship whole
//! values around*: binary-search for (a valid value's) longest common
//! prefix via an intrusion-tolerant BA on prefix windows ([`find_prefix`]),
//! then settle the remainder with `O(1)`-bit votes ([`get_output`]).
//!
//! # Protocol stack
//!
//! * [`pi_z`] — `Π_ℤ` (§6): the full protocol for signed integers
//!   (Corollaries 1–2). **This is the API most users want.**
//! * [`pi_n`] — `Π_ℕ` (§5): naturals of unknown length (Theorem 5).
//! * [`fixed_length_ca`] — `FixedLengthCA` (§3, Theorem 2): known `ℓ`,
//!   bit-granular prefix search; optimal for `ℓ ∈ poly(n)`.
//! * [`fixed_length_ca_blocks`] — `FixedLengthCABlocks` (§4, Theorem 4):
//!   block-granular variant for very long inputs (`ℓ ≥ n²`).
//! * [`high_cost_ca`] — `HighCostCA` (Appendix A.4, Theorem 3): the
//!   king-style `O(ℓn³)` protocol, used as a subroutine *and* as an
//!   experiment baseline.
//! * [`broadcast_ca`] — the classical `O(ℓn²)` broadcast-based CA (§1),
//!   implemented as the main experiment baseline.
//!
//! # Examples
//!
//! Seven sensors agree on a temperature despite two byzantine ones
//! (the paper's introduction scenario):
//!
//! ```
//! use ca_bits::Int;
//! use ca_core::CaProtocol;
//! use ca_net::{Corruption, PartyId, Sim};
//!
//! // Honest readings: −10.05 … −10.03 °C in centi-degrees; byzantine
//! // parties 5 and 6 run the protocol with +100.00 °C.
//! let inputs: Vec<Int> = vec![-1005, -1004, -1004, -1003, -1005, 10_000, 10_000]
//!     .into_iter().map(Int::from_i64).collect();
//! let proto = CaProtocol::new();
//! let report = Sim::new(7)
//!     .corrupt(PartyId(5), Corruption::LyingHonest)
//!     .corrupt(PartyId(6), Corruption::LyingHonest)
//!     .run(|ctx, id| proto.run_int(ctx, &inputs[id.index()]));
//!
//! let outputs = report.honest_outputs();
//! assert!(outputs.windows(2).all(|w| w[0] == w[1]));          // Agreement
//! assert!(*outputs[0] >= Int::from_i64(-1005));               // Convex
//! assert!(*outputs[0] <= Int::from_i64(-1003));               //   validity
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

mod adaptive;
mod approx;
mod baseline;
mod convex;
mod find_prefix;
mod fixed_length;
mod fixed_length_blocks;
mod high_cost;
mod pi_n;
mod pi_z;
mod steps;

pub use adaptive::{pi_n_adaptive, pi_n_adaptive_async};
pub use approx::approx_agreement;
pub use baseline::broadcast_ca;
pub use convex::{check_agreement, check_convex_validity, convex_hull};
pub use find_prefix::{find_prefix, find_prefix_blocks, PrefixSearch};
pub use fixed_length::fixed_length_ca;
pub use fixed_length_blocks::fixed_length_ca_blocks;
pub use high_cost::high_cost_ca;
pub use pi_n::{pi_n, pi_n_async};
pub use pi_z::pi_z;
pub use steps::{add_last_bit, add_last_block, get_output};

pub use ca_ba::BaKind;

use ca_bits::{Int, Nat};
use ca_net::Comm;

/// Facade running the protocol with the default `Π_BA`
/// ([`BaKind::TurpinCoan`]); ablations call [`pi_n`] / [`pi_z`] with a
/// [`BaKind`] directly.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaProtocol;

impl CaProtocol {
    /// The protocol facade.
    pub fn new() -> Self {
        Self
    }

    /// Runs `Π_ℤ` (§6) on a signed integer input.
    pub fn run_int(&self, ctx: &mut dyn Comm, input: &Int) -> Int {
        pi_z(ctx, input, BaKind::TurpinCoan)
    }

    /// Runs `Π_ℕ` (§5) on a natural input.
    pub fn run_nat(&self, ctx: &mut dyn Comm, input: &Nat) -> Nat {
        pi_n(ctx, input, BaKind::TurpinCoan)
    }

    /// Runs `Π_ℤ` on a fixed-point decimal (the paper's §1 remark that the
    /// integer domain covers "rational numbers with some arbitrary
    /// pre-defined precision"). All honest parties must use the same,
    /// publicly known scale; convex validity over `Fixed` follows because
    /// scaling is monotone.
    pub fn run_fixed(&self, ctx: &mut dyn Comm, input: &ca_bits::Fixed) -> ca_bits::Fixed {
        let mantissa = pi_z(ctx, input.mantissa(), BaKind::TurpinCoan);
        input.with_mantissa(mantissa)
    }
}

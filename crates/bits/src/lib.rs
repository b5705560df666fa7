//! Value domain for the convex-agreement protocol suite.
//!
//! The paper (§2, "Binary representations") manipulates values `v ∈ ℕ`
//! through their bit representations: `BITSℓ(v)` (the `ℓ`-bit, MSB-first
//! representation), `VAL(bits)` (the inverse), `MINℓ`/`MAXℓ` (the
//! lowest/highest `ℓ`-bit value with a given prefix), and — in §4 — the
//! blocks `BLOCKᵢ(v)`.
//!
//! This crate provides those operations:
//!
//! * [`BitString`] — a packed, arbitrary-length, MSB-first bitstring. This is
//!   the type protocol messages actually carry; prefix logic, padding
//!   (`MINℓ`/`MAXℓ`), and block windows (`block`, `slice`) live here.
//! * [`Nat`] — an arbitrary-precision natural number (`VAL` of a bitstring),
//!   with enough arithmetic for the protocols, the experiment harness, and
//!   human-readable decimal I/O in the examples.
//! * [`Int`] — a signed integer `(−1)^sign · nat`, the input/output domain of
//!   the final protocol `Π_ℤ` (§6).
//!
//! # Examples
//!
//! ```
//! use ca_bits::{BitString, Nat};
//!
//! let v = Nat::from_u64(5); // BITS(5) = 101
//! let bits = v.to_bits_len(8).unwrap(); // BITS₈(5) = 00000101
//! assert_eq!(bits.to_string(), "00000101");
//!
//! let prefix = bits.slice(0, 5); // 00000
//! assert_eq!(prefix.max_extend(8).val(), Nat::from_u64(7)); // MAX₈(00000) = 00000111
//! assert_eq!(prefix.min_extend(8).val(), Nat::from_u64(0)); // MIN₈(00000)
//! ```

mod bitstring;
mod fixed;
mod int;
mod kernel;
mod nat;
#[cfg(test)]
mod oracle;

pub use bitstring::BitString;
pub use fixed::{Fixed, ParseFixedError};
pub use int::{Int, ParseIntError, Sign};
pub use nat::{Nat, ParseNatError};

//! Reed–Solomon erasure coding over `GF(2^16)`.
//!
//! The paper's extension protocol `Π_ℓBA+` (§7) assumes "standard RS codes
//! with parameters `(n, n−t)`": a deterministic `RS.ENCODE(v)` producing `n`
//! codewords of `O(|BITS(v)|/n)` bits each, such that any `n − t` codewords
//! reconstruct `v` (`RS.DECODE`). Corrupted codewords are *detected and
//! discarded* by Merkle witnesses before decoding, so only **erasure**
//! decoding is needed — no error locating.
//!
//! This crate implements the code from scratch:
//!
//! * [`gf`] — the field `GF(2^16)` with full log/antilog tables
//!   (supports up to `2^16 − 1` parties).
//! * [`ReedSolomon`] — systematic polynomial-evaluation encoding and
//!   Lagrange-interpolation erasure decoding.
//!
//! # Examples
//!
//! ```
//! use ca_erasure::ReedSolomon;
//!
//! # fn main() -> Result<(), ca_erasure::RsError> {
//! let rs = ReedSolomon::new(7, 5)?; // n = 7 parties, any 5 shares suffice
//! let shares = rs.encode(b"the quick brown fox");
//! let subset: Vec<_> = shares.iter().cloned().enumerate()
//!     .filter(|(i, _)| *i != 1 && *i != 4) // two shares lost
//!     .collect();
//! assert_eq!(rs.decode(&subset)?, b"the quick brown fox");
//! # Ok(())
//! # }
//! ```

#![cfg_attr(
    test,
    allow(clippy::disallowed_types, reason = "unit tests count distinct values")
)]

pub mod gf;

mod rs;

pub use rs::{ReedSolomon, RsError, Share, ShareRef};

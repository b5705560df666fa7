//! Cryptographic substrate for the convex-agreement protocol suite.
//!
//! The paper (§2) assumes a collision-resistant hash function
//! `Hκ : {0,1}* → {0,1}^κ` and (§7) a collision-free cryptographic
//! accumulator instantiated with Merkle trees. This crate provides both:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4) implemented from scratch and verified
//!   against the NIST test vectors; `κ = 256`.
//! * [`Hash256`] — the `κ`-bit digest type used as `Π_BA+` input values.
//! * [`MerkleTree`] — the accumulator: [`MerkleTree::build`] is the paper's
//!   `MT.BUILD` (returning the root and all witnesses) and
//!   [`MerkleTree::verify`] is `MT.VERIFY`. Witnesses are `O(κ · log n)`
//!   bits, as required by Theorem 1's communication accounting.
//!
//! # Examples
//!
//! ```
//! use ca_crypto::{MerkleTree, sha256};
//!
//! let leaves: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 4]).collect();
//! let tree = MerkleTree::build(&leaves);
//! let witness = tree.witness(2);
//! assert!(MerkleTree::verify(tree.root(), 2, &leaves[2], &witness));
//! assert!(!MerkleTree::verify(tree.root(), 1, &leaves[2], &witness));
//! assert_eq!(sha256(b"abc").to_hex().len(), 64);
//! ```

#![cfg_attr(
    test,
    allow(clippy::disallowed_types, reason = "unit tests count distinct values")
)]

mod digest;
mod merkle;
mod sha2;

pub use digest::Hash256;
pub use merkle::{MerkleTree, Witness};
pub use sha2::{sha256, Sha256};

/// The security parameter κ in bits (digest width of [`sha256`]).
pub const KAPPA_BITS: usize = 256;

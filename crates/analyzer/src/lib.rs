//! The lexer and item parser that fed the workspace analyzer's passes.
//!
//! The passes are gone: wire lengths are a `ca_codec::WireLen` behind
//! clippy's `disallowed_methods`, and the fiber hub's lock is private to
//! its module (DESIGN.md §11). Nothing depends on this crate; it stays
//! only until a later change retires its tests with it (ROADMAP item 15).

pub mod engine;
pub mod lexer;
pub mod parser;

//! `ca-analyzer`: protocol-soundness static analysis for the
//! convex-agreement workspace.
//!
//! Per-line properties (no `unwrap`/`panic!` on a message path, no
//! `HashMap` or wall clock in replayed code, no unbounded channel, no
//! stdout in protocol crates) are clippy lints, configured in the root
//! `Cargo.toml`, `clippy.toml` and the message crates' `#![deny(...)]`
//! line. This crate checks what needs the whole workspace: flows across
//! functions and crates, and lock order. Communication cost is not
//! checked here: every send is metered by its transport, and the exact
//! per-scope bits of every experiment that runs are committed as
//! `BENCH_*.json` artifacts and diffed by `scripts/check.sh`.
//!
//! Two semantic workspace passes ([`passes`]), built on a lightweight item
//! parser ([`parser`]), a workspace symbol table with a call graph
//! ([`symbols`]), and an interprocedural taint engine ([`dataflow`]):
//!
//! - **wire-taint** — attacker-controlled wire input must pass through
//!   a bounds-checked decode or validation before sizing an allocation
//!   or indexing a slice, across function and crate boundaries, or a
//!   single forged frame defeats the paper's `O(ℓn + κ·n²·log²n)`
//!   communication bound by forcing gigabyte allocations.
//! - **concurrency-discipline** — consistent lock ordering, no double
//!   acquisition, no channel operations while holding a lock.
//!
//! Findings are suppressed with `// ca-lint: allow(<rule>)` — a
//! *standalone* pragma (first thing on its line) covers the next line
//! only; a *trailing* pragma covers its own line only — or
//! `//! ca-lint: allow(<rule>)` for a whole file. Each pragma is a
//! reviewed, greppable exception.
//!
//! The implementation is dependency-free: a hand-rolled lexer
//! ([`lexer`]) gives token-level (not regex) matching, so code inside
//! comments, doc examples, and string literals never trips a pass.

pub mod dataflow;
pub mod diagnostics;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod symbols;

pub use diagnostics::Diagnostic;
pub use engine::collect_sources;
pub use passes::{run_semantic, SemanticConfig};
pub use symbols::{SourceFile, SymbolTable};

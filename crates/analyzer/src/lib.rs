//! `ca-analyzer`: protocol-soundness static analysis for the
//! convex-agreement workspace.
//!
//! Per-line properties (no `unwrap`/`panic!` on a message path, no
//! `HashMap` or wall clock in replayed code, no unbounded channel, no
//! stdout in protocol crates) are clippy lints, configured in the root
//! `Cargo.toml`, `clippy.toml` and the message crates' `#![deny(...)]`
//! line. This crate checks what needs the whole workspace: flows across
//! functions and crates, send sites, and lock order.
//!
//! Semantic workspace passes ([`passes`]), built on a lightweight item
//! parser ([`parser`]), a workspace symbol table with a call graph
//! ([`symbols`]), and an interprocedural taint engine ([`dataflow`]):
//!
//! - **wire-taint** — attacker-controlled wire input must pass through
//!   a bounds-checked decode or validation before sizing an allocation
//!   or indexing a slice, across function and crate boundaries, or a
//!   single forged frame defeats the paper's `O(ℓn + κ·n²·log²n)`
//!   communication bound by forcing gigabyte allocations.
//! - **comm-budget** — every transitive send site routes through a
//!   metered helper, is attributable to an annotated round scope, and
//!   matches the committed `analyzer-baseline.json` send-site table.
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
pub use passes::{run_semantic, BudgetTable, SemanticConfig, SemanticOutput, SendSite};
pub use symbols::{SourceFile, SymbolTable};

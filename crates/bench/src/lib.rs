//! Experiment harness for the convex-agreement reproduction.
//!
//! The paper is a theory paper with no measured evaluation; every theorem
//! is reproduced here as a measured experiment (see `DESIGN.md` §3 for the
//! index and `EXPERIMENTS.md` for recorded results):
//!
//! | id | claim | run with |
//! |----|-------|----------|
//! | T1 | Cor. 2 communication vs `O(ℓn²)`/`O(ℓn³)` baselines | `experiments -- t1` |
//! | F1 | optimality threshold `ℓ = Ω(κ·n·log²n)`, crossover | `experiments -- f1` |
//! | F2 | slope in `n` | `experiments -- f2` |
//! | T2 | round complexity `O(n log n)` | `experiments -- t2` |
//! | F3 | per-subprotocol cost decomposition | `experiments -- f3` |
//! | T3 | Thm 1 extension-protocol savings | `experiments -- t3` |
//! | T4 | Def. 1 properties under the adversary matrix | `experiments -- t4` |
//! | F4 | `Π_BA` instantiation ablation | `experiments -- f4` |
//! | F5 | `FindPrefix` iteration/prefix behaviour | `experiments -- f5` |
//! | T5 | substrate throughput (SHA-256, Merkle, RS, `bits`) | `experiments -- p1`, `benchmark/run.sh` probes |
//!
//! Each experiment is a library function driven by the `experiments`
//! binary (`cargo run -p ca-bench --release --bin experiments --
//! <id>|all [--quick]`).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods,
    reason = "the experiment harness reports to the terminal and times itself"
)]

pub mod experiments;
pub mod runner;
pub mod summary;
pub mod table;
pub mod workload;

pub use runner::{run_nat_protocol, run_nat_protocol_traced, Protocol, RunStats};
pub use summary::{BenchSummary, Row, Value};
pub use table::Table;

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
//! | E1 | approximate agreement vs exact CA (beyond the paper) | `experiments -- e1` |
//! | S1 | engine multiplexing amortization (beyond the paper) | `experiments -- s1` |
//! | R1 | crash resilience over TCP (beyond the paper) | `experiments -- r1` |
//! | A1 | fault-adaptive fast path vs worst case | `experiments -- a1` |
//! | AS1 | async executor vs Δ-tuned/mistuned sync hosts | `experiments -- as1` |
//! | P1 | blocked vs scalar RS and Merkle kernel throughput | `experiments -- p1`, `benchmark/run.sh` probes |
//!
//! Each experiment is a library function listed once in
//! [`experiments::EXPERIMENTS`] and returning a [`Report`] of [`Row`]s;
//! its table and its `BENCH_<id>.json` are two renderings of those rows.
//! The `experiments` binary drives them (`cargo run -p ca-bench --release
//! --bin experiments -- <id>…|all [--quick] [--artifacts <dir>]`).

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

pub use runner::{run_nat_protocol, Protocol, RunStats};
pub use summary::{Report, Row, Value};

//! Experiment driver: `cargo run -p ca-bench --release --bin experiments --
//! [t1|f1|f2|t2|f3|t3|t4|f4|f5|e1|s1|r1|a1|as1|p1|all] [--quick]
//! [--artifacts <dir>]`
//!
//! `--artifacts <dir>` makes artifact-aware experiments (currently T1, F3,
//! E1, S1, R1, A1, AS1, and P1) write machine-readable outputs into `<dir>`: a
//! `run.jsonl` event timeline (inspect with `ca-trace report/check/diff`)
//! and a `BENCH_<exp>.json` claim-vs-measured summary.

#![allow(
    clippy::print_stderr,
    reason = "a command-line tool reports on its own streams"
)]

use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut artifacts: Option<PathBuf> = None;
    let mut ids: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {}
            "--artifacts" => match it.next() {
                Some(dir) => artifacts = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--artifacts requires a directory argument");
                    std::process::exit(2);
                }
            },
            a if a.starts_with("--") => {
                eprintln!("unknown flag: {a}");
                eprintln!("usage: experiments [ids…] [--quick] [--artifacts <dir>]");
                std::process::exit(2);
            }
            a => ids.push(a),
        }
    }
    let ids = if ids.is_empty() { vec!["all"] } else { ids };
    for id in ids {
        if !ca_bench::experiments::run_by_name_opts(id, quick, artifacts.as_deref()) {
            eprintln!("unknown experiment id: {id}");
            eprintln!("known: t1 f1 f2 t2 f3 t3 t4 f4 f5 e1 s1 r1 a1 as1 p1 all");
            std::process::exit(2);
        }
    }
}

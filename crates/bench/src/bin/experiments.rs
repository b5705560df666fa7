//! Experiment driver: `cargo run -p ca-bench --release --bin experiments --
//! [<id>…|all] [--quick] [--artifacts <dir>]`, the ids being those of
//! `ca_bench::experiments::EXPERIMENTS`.
//!
//! `--artifacts <dir>` makes every experiment write its report into `<dir>`
//! as a `BENCH_<id>.json` claim-vs-measured summary; F3 also writes a
//! `run.jsonl` event timeline (inspect with `ca-trace report/check/diff`).

#![allow(
    clippy::print_stderr,
    reason = "a command-line tool reports on its own streams"
)]

use std::path::PathBuf;

use ca_bench::experiments::{run_by_name_opts, EXPERIMENTS};

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
        if !run_by_name_opts(id, quick, artifacts.as_deref()) {
            eprintln!("unknown experiment id: {id}");
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!("known: {} all", known.join(" "));
            std::process::exit(2);
        }
    }
}

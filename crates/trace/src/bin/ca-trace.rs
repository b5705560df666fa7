//! `ca-trace` CLI: inspect JSONL traces produced by instrumented runs.
//!
//! ```text
//! ca-trace report <trace.jsonl>        per-scope/per-party/per-round table
//! ca-trace diff   <a.jsonl> <b.jsonl>  first divergent event, or silence
//! ca-trace check  <trace.jsonl>        assert trace invariants
//! ```
//!
//! Exit codes: 0 = ok / identical / clean; 1 = divergence or violations
//! found; 2 = usage or I/O error.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports on its own streams"
)]

use std::path::Path;
use std::process::ExitCode;

use ca_trace::{aggregate, check, first_divergence, read_jsonl, render, Record};

const USAGE: &str = "usage:
  ca-trace report <trace.jsonl>
  ca-trace diff   <a.jsonl> <b.jsonl>
  ca-trace check  <trace.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["report", path] => cmd_report(Path::new(path)),
        ["diff", a, b] => cmd_diff(Path::new(a), Path::new(b)),
        ["check", path] => cmd_check(Path::new(path)),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ca-trace: {msg}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &Path) -> Result<Vec<Record>, String> {
    read_jsonl(path)
}

fn cmd_report(path: &Path) -> Result<ExitCode, String> {
    let records = load(path)?;
    print!("{}", render(&aggregate(&records)));
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let left = load(a)?;
    let right = load(b)?;
    match first_divergence(&left, &right) {
        None => {
            println!(
                "traces identical ({} records): {} == {}",
                left.len(),
                a.display(),
                b.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(d) => {
            println!("{d}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_check(path: &Path) -> Result<ExitCode, String> {
    let records = load(path)?;
    let violations = check(&records);
    if violations.is_empty() {
        println!(
            "{}: {} records, all invariants hold",
            path.display(),
            records.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!(
            "{}: {} violation(s) in {} records",
            path.display(),
            violations.len(),
            records.len()
        );
        Ok(ExitCode::FAILURE)
    }
}

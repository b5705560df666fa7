//! CLI for the protocol-soundness analyzer.
//!
//! ```text
//! ca-analyzer [--root <path>] [--emit human|json]
//! ```
//!
//! Runs the semantic workspace passes (wire-taint,
//! concurrency-discipline) over the workspace at `--root`. `--emit json`
//! is the stable machine-readable output for CI diffing.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage error.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports on its own streams"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use ca_analyzer::{collect_sources, run_semantic, SemanticConfig};

const USAGE: &str = "usage: ca-analyzer [--root <path>] [--emit human|json]";

struct Cli {
    root: PathBuf,
    json: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--root" => cli.root = PathBuf::from(value()?),
            "--emit" => {
                cli.json = match value()?.as_str() {
                    "json" => true,
                    "human" => false,
                    other => return Err(format!("unknown emit mode `{other}`")),
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("ca-analyzer: {msg}");
            return ExitCode::from(2);
        }
    };

    let files = match collect_sources(&cli.root) {
        Ok(files) => files,
        Err(msg) => {
            eprintln!("ca-analyzer: {msg}");
            return ExitCode::from(2);
        }
    };
    let diags = run_semantic(&files, &SemanticConfig::production());

    if cli.json {
        println!("[");
        for (i, d) in diags.iter().enumerate() {
            let comma = if i + 1 == diags.len() { "" } else { "," };
            println!("  {}{comma}", d.render_json());
        }
        println!("]");
    } else {
        for d in &diags {
            println!("{}", d.render_human());
        }
        println!("ca-analyzer: {} finding(s)", diags.len());
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

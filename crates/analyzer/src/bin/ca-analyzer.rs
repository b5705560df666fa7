//! CLI for the protocol-soundness analyzer.
//!
//! ```text
//! ca-analyzer [--root <path>] [--baseline <path>] [--write-baseline <path>]
//!             [--emit human|json]
//! ```
//!
//! Runs the semantic workspace passes (wire-taint, comm-budget,
//! concurrency-discipline) over the workspace at `--root`.
//! `--baseline` diffs the send-site budget table against a committed
//! `analyzer-baseline.json`; `--write-baseline` regenerates it (use
//! `scripts/update-baseline.sh`). `--emit json` is the stable
//! machine-readable output for CI diffing.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage error.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports on its own streams"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use ca_analyzer::{collect_sources, run_semantic, BudgetTable, SemanticConfig};

const USAGE: &str = "usage: ca-analyzer [--root <path>] [--baseline <path>] \
                     [--write-baseline <path>] [--emit human|json]";

struct Cli {
    root: PathBuf,
    json: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        json: false,
        baseline: None,
        write_baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--root" => cli.root = PathBuf::from(value()?),
            "--baseline" => cli.baseline = Some(PathBuf::from(value()?)),
            "--write-baseline" => cli.write_baseline = Some(PathBuf::from(value()?)),
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
    let semantic = run_semantic(&files, &SemanticConfig::production());
    let mut diags = semantic.diags;
    if let Some(path) = &cli.write_baseline {
        if let Err(e) = std::fs::write(path, semantic.budget.to_json()) {
            eprintln!("ca-analyzer: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "ca-analyzer: wrote {} send site(s) to {}",
            semantic.budget.sites.len(),
            path.display()
        );
    }
    if let Some(path) = &cli.baseline {
        match std::fs::read_to_string(path) {
            Ok(body) => {
                diags.extend(semantic.budget.diff_against(&BudgetTable::from_json(&body)));
            }
            Err(e) => {
                eprintln!("ca-analyzer: failed to read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        diags.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
    }

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

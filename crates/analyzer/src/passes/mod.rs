//! Semantic passes: workspace-level analyses built on the symbol table
//! and dataflow engine.
//!
//! | pass | what it enforces |
//! |---|---|
//! | `wire-taint` | attacker-controlled wire input must be decoded or validated before sizing allocations or indexing |
//! | `concurrency-discipline` | consistent lock ordering, no double acquisition, no channel ops while holding a lock |

pub mod concurrency;
pub mod wire_taint;

use crate::diagnostics::Diagnostic;
use crate::symbols::{SourceFile, SymbolTable};

/// Which crates each semantic pass applies to. The production policy is
/// [`SemanticConfig::production`]; fixtures and the self-hosting test
/// override the lists.
#[derive(Debug, Clone)]
pub struct SemanticConfig {
    /// Crates whose code must respect the wire-taint discipline.
    pub taint_crates: Vec<String>,
    /// Crates whose lock usage is checked.
    pub lock_crates: Vec<String>,
}

impl SemanticConfig {
    /// The policy for this workspace: the codec, protocol and runtime
    /// crates.
    #[must_use]
    pub fn production() -> Self {
        let v = |names: &[&str]| names.iter().map(|s| (*s).to_owned()).collect();
        SemanticConfig {
            taint_crates: v(&[
                "ca-codec",
                "ca-core",
                "ca-ba",
                "ca-net",
                "ca-runtime",
                "ca-engine",
            ]),
            lock_crates: v(&["ca-runtime", "ca-engine", "ca-trace"]),
        }
    }

    /// A policy that points every pass at the given crates (used by the
    /// self-hosting test).
    #[must_use]
    pub fn uniform(crates: &[&str]) -> Self {
        let v: Vec<String> = crates.iter().map(|s| (*s).to_owned()).collect();
        SemanticConfig {
            taint_crates: v.clone(),
            lock_crates: v,
        }
    }
}

/// Runs both semantic passes over `files`: the findings,
/// suppression-filtered and sorted.
#[must_use]
pub fn run_semantic(files: &[SourceFile], config: &SemanticConfig) -> Vec<Diagnostic> {
    let table = SymbolTable::build(files);
    let mut diags = Vec::new();
    diags.extend(wire_taint::run(&table, config));
    diags.extend(concurrency::run(&table, config));
    diags.retain(|d| {
        !table
            .suppressions
            .get(&d.file)
            .is_some_and(|s| s.allows(d.rule, d.line))
    });
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diags
}

//! The `wire-taint` pass: a thin policy wrapper over
//! [`crate::dataflow::analyze_taint`].
//!
//! Findings fire only in the configured crates and never in test code;
//! summaries are still computed workspace-wide so taint tracks across
//! crate boundaries (e.g. `ca-core` consuming an `Inbox` from `ca-net`).

use crate::dataflow::analyze_taint;
use crate::diagnostics::Diagnostic;
use crate::passes::SemanticConfig;
use crate::symbols::SymbolTable;

/// Rule name, as shown in diagnostics and accepted by pragmas.
pub const RULE: &str = "wire-taint";

/// Runs the pass.
#[must_use]
pub fn run(table: &SymbolTable, config: &SemanticConfig) -> Vec<Diagnostic> {
    let findings = analyze_taint(table, &|f| {
        !f.is_test && config.taint_crates.contains(&f.crate_name)
    });
    findings
        .into_iter()
        .map(|f| Diagnostic {
            rule: RULE,
            file: f.file,
            line: f.line,
            message: f.message,
        })
        .collect()
}

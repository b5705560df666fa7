//! The `concurrency-discipline` pass: lock-order and lock-vs-channel
//! hygiene for the runtime crates.
//!
//! Three checks, all shaped after the PR 5 shed/disconnect deadlocks:
//!
//! 1. **Lock-order inversion** — if one code path acquires `a` then
//!    `b` while another acquires `b` then `a` (directly or through a
//!    call), the pair is flagged at both sites. Lock identity is the
//!    dotted receiver path (minus `self.`) qualified by crate, which is
//!    exactly as precise as a token-level analysis can be and has no
//!    false negatives for the `self.field.lock()` style the runtime
//!    uses.
//! 2. **Double acquisition** — re-acquiring a lock already held by the
//!    same path self-deadlocks with `std::sync` primitives (including
//!    the `m.lock().x + m.lock().y` temporary-lifetime trap).
//! 3. **Channel ops under a lock** — `send`/`try_send`/`recv` on a
//!    channel while holding a guard couples lock hold time to channel
//!    backpressure; with bounded channels that is a deadlock waiting
//!    for a slow consumer.
//!
//! Guard lifetimes are tracked through `let` bindings (dead at `drop`
//! or when their block closes); guards on temporaries die at the end of
//! the statement.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::pattern_names;
use crate::diagnostics::Diagnostic;
use crate::lexer::TokenKind;
use crate::passes::SemanticConfig;
use crate::symbols::{call_open_paren, match_close, FnInfo, SymbolTable, Tok};

/// Rule name, as shown in diagnostics and accepted by pragmas.
pub const RULE: &str = "concurrency-discipline";

/// Zero-argument methods that acquire a lock.
const ACQUIRERS: &[&str] = &["lock", "read", "write"];

/// Channel operations that must not run under a lock. `send` is only
/// counted with exactly one argument (two-argument `send` is the Comm
/// wire helper, which takes no lock).
const CHANNEL_OPS: &[&str] = &[
    "send",
    "try_send",
    "blocking_send",
    "recv",
    "try_recv",
    "blocking_recv",
];

/// Lock identity: (crate, dotted receiver path). Dynamic receivers
/// (indexing, call results) get an empty path and are excluded from
/// order/double checks but still count as "a lock is held".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LockId {
    crate_name: String,
    path: String,
}

impl LockId {
    fn named(&self) -> bool {
        !self.path.is_empty()
    }
    fn display(&self) -> String {
        format!("{}::{}", self.crate_name, self.path)
    }
}

#[derive(Debug)]
struct Guard {
    lock: LockId,
    var: Option<String>,
    /// Brace depth at binding; the guard dies when depth drops below.
    depth: i64,
    /// Temporary (no binding): dies at the next `;`.
    temp: bool,
}

/// An ordered acquisition: `first` held while `second` is acquired.
#[derive(Debug)]
struct PairSite {
    first: LockId,
    second: LockId,
    file: String,
    line: u32,
    function: String,
}

/// Runs the pass.
#[must_use]
pub fn run(table: &SymbolTable, config: &SemanticConfig) -> Vec<Diagnostic> {
    let in_scope = |f: &FnInfo| !f.is_test && config.lock_crates.contains(&f.crate_name);
    // Transitive lock sets: which locks each fn may acquire, directly
    // or through calls (fixpoint over the call graph).
    let direct: Vec<BTreeSet<LockId>> = table
        .fns
        .iter()
        .map(|f| {
            if in_scope(f) {
                direct_locks(f)
            } else {
                BTreeSet::new()
            }
        })
        .collect();
    let mut trans = direct.clone();
    for _ in 0..12 {
        let mut changed = false;
        for idx in 0..table.fns.len() {
            for &callee in &table.calls[idx] {
                let add: Vec<LockId> = trans[callee]
                    .iter()
                    .filter(|l| !trans[idx].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    trans[idx].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut diags = Vec::new();
    let mut pairs: Vec<PairSite> = Vec::new();
    for (idx, f) in table.fns.iter().enumerate() {
        if in_scope(f) {
            walk_fn(table, idx, &trans, &mut pairs, &mut diags);
        }
    }

    // Global inversion check across all recorded orderings.
    let mut by_pair: BTreeMap<(LockId, LockId), Vec<usize>> = BTreeMap::new();
    for (i, p) in pairs.iter().enumerate() {
        by_pair
            .entry((p.first.clone(), p.second.clone()))
            .or_default()
            .push(i);
    }
    let mut reported: BTreeSet<(LockId, LockId)> = BTreeSet::new();
    for ((a, b), fwd) in &by_pair {
        if a >= b || reported.contains(&(a.clone(), b.clone())) {
            continue;
        }
        let Some(rev) = by_pair.get(&(b.clone(), a.clone())) else {
            continue;
        };
        reported.insert((a.clone(), b.clone()));
        let f = &pairs[fwd[0]];
        let r = &pairs[rev[0]];
        diags.push(Diagnostic {
            rule: RULE,
            file: f.file.clone(),
            line: f.line,
            message: format!(
                "lock-order inversion: `{}` is acquired before `{}` here (in `{}`), but the \
                 opposite order occurs at {}:{} (in `{}`)",
                f.first.display(),
                f.second.display(),
                f.function,
                r.file,
                r.line,
                r.function
            ),
        });
        diags.push(Diagnostic {
            rule: RULE,
            file: r.file.clone(),
            line: r.line,
            message: format!(
                "lock-order inversion: `{}` is acquired before `{}` here (in `{}`), but the \
                 opposite order occurs at {}:{} (in `{}`)",
                r.first.display(),
                r.second.display(),
                r.function,
                f.file,
                f.line,
                f.function
            ),
        });
    }
    diags
}

/// Locks a function acquires directly (for the transitive sets).
fn direct_locks(f: &FnInfo) -> BTreeSet<LockId> {
    let mut out = BTreeSet::new();
    for i in 0..f.body.len() {
        if let Some(lock) = acquisition_at(f, i) {
            if lock.named() {
                out.insert(lock);
            }
        }
    }
    out
}

/// If body token `i` is a lock acquisition (`.lock()` / `.read()` /
/// `.write()` with no arguments), returns the lock identity.
fn acquisition_at(f: &FnInfo, i: usize) -> Option<LockId> {
    let t = &f.body[i];
    if t.kind != TokenKind::Ident || !ACQUIRERS.contains(&t.text.as_str()) {
        return None;
    }
    // Must be a method call: preceded by `.`.
    if i == 0 || f.body[i - 1].text != "." {
        return None;
    }
    let open = call_open_paren(&f.body, i)?;
    if match_close(&f.body, open) != open + 1 {
        return None; // has arguments: io read/write, not a lock
    }
    Some(LockId {
        crate_name: f.crate_name.clone(),
        path: receiver_path(&f.body, i - 1),
    })
}

/// Dotted receiver path ending at the `.` before the method name,
/// e.g. `self.peers.inner.lock()` → `peers.inner`. Empty when the
/// receiver is not a plain path (indexing, call result).
fn receiver_path(body: &[Tok], dot: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot; // points at `.`
    loop {
        if j == 0 {
            break;
        }
        let prev = &body[j - 1];
        if prev.kind == TokenKind::Ident {
            parts.push(&prev.text);
            if j >= 2 && body[j - 2].text == "." {
                j -= 2;
                continue;
            }
        } else if matches!(prev.text.as_str(), ")" | "]") {
            return String::new(); // dynamic receiver
        }
        break;
    }
    parts.reverse();
    if parts.first() == Some(&"self") {
        parts.remove(0);
    }
    parts.join(".")
}

/// Walks one function, tracking held guards; records ordered pairs,
/// double acquisitions, channel ops under locks, and call-through
/// acquisitions via the transitive sets.
fn walk_fn(
    table: &SymbolTable,
    idx: usize,
    trans: &[BTreeSet<LockId>],
    pairs: &mut Vec<PairSite>,
    diags: &mut Vec<Diagnostic>,
) {
    let f = &table.fns[idx];
    let body = &f.body;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i64;
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                stmt_start = i + 1;
            }
            "}" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                stmt_start = i + 1;
            }
            ";" => {
                guards.retain(|g| !g.temp);
                stmt_start = i + 1;
            }
            _ => {}
        }
        if t.kind == TokenKind::Ident {
            // `drop(g)` / `mem::drop(g)` releases a named guard.
            if t.text == "drop" {
                if let Some(open) = call_open_paren(body, i) {
                    let close = match_close(body, open);
                    if close == open + 2 && body[open + 1].kind == TokenKind::Ident {
                        let var = &body[open + 1].text;
                        guards.retain(|g| g.var.as_ref() != Some(var));
                        i = close + 1;
                        continue;
                    }
                }
            }
            if let Some(lock) = acquisition_at(f, i) {
                if lock.named() {
                    for held in &guards {
                        if !held.lock.named() {
                            continue;
                        }
                        if held.lock == lock {
                            diags.push(Diagnostic {
                                rule: RULE,
                                file: f.file.clone(),
                                line: t.line,
                                message: format!(
                                    "lock `{}` acquired in `{}` while already held — \
                                     self-deadlock with std::sync primitives",
                                    lock.display(),
                                    f.qualified
                                ),
                            });
                        } else {
                            pairs.push(PairSite {
                                first: held.lock.clone(),
                                second: lock.clone(),
                                file: f.file.clone(),
                                line: t.line,
                                function: f.qualified.clone(),
                            });
                        }
                    }
                }
                let var = binding_var(body, stmt_start, i);
                guards.push(Guard {
                    lock,
                    temp: var.is_none(),
                    var,
                    depth,
                });
                i += 1;
                continue;
            }
            // Channel op while a guard is live?
            if CHANNEL_OPS.contains(&t.text.as_str())
                && i > 0
                && body[i - 1].text == "."
                && !guards.is_empty()
            {
                if let Some(open) = call_open_paren(body, i) {
                    let args = count_args(body, open);
                    let is_channel = if t.text == "send" { args == 1 } else { true };
                    if is_channel {
                        let held = guards
                            .iter()
                            .map(|g| g.lock.display())
                            .collect::<Vec<_>>()
                            .join(", ");
                        diags.push(Diagnostic {
                            rule: RULE,
                            file: f.file.clone(),
                            line: t.line,
                            message: format!(
                                "channel `{}` in `{}` while holding lock(s) {held}; release \
                                 the guard before touching a (bounded) channel",
                                t.text, f.qualified
                            ),
                        });
                    }
                }
            }
            // A call made while holding guards: everything the callee
            // may lock orders after the held locks.
            if let Some(open) = call_open_paren(body, i) {
                if !guards.is_empty() && !ACQUIRERS.contains(&t.text.as_str()) {
                    for callee in resolved(table, idx, &t.text) {
                        for m in &trans[callee] {
                            for held in &guards {
                                if !held.lock.named() {
                                    continue;
                                }
                                if held.lock == *m {
                                    diags.push(Diagnostic {
                                        rule: RULE,
                                        file: f.file.clone(),
                                        line: t.line,
                                        message: format!(
                                            "call to `{}` in `{}` may re-acquire held lock \
                                             `{}` — self-deadlock with std::sync primitives",
                                            table.fns[callee].qualified,
                                            f.qualified,
                                            m.display()
                                        ),
                                    });
                                } else {
                                    pairs.push(PairSite {
                                        first: held.lock.clone(),
                                        second: m.clone(),
                                        file: f.file.clone(),
                                        line: t.line,
                                        function: f.qualified.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
                let _ = open;
            }
        }
        i += 1;
    }
}

/// Callees of `caller` with the given name. Reuses the call-graph
/// edges so resolution policy (same-crate preference) stays in one
/// place.
fn resolved(table: &SymbolTable, caller: usize, name: &str) -> Vec<usize> {
    table.calls[caller]
        .iter()
        .copied()
        .filter(|&c| table.fns[c].name == name)
        .collect()
}

/// If the statement beginning at `stmt_start` is a `let` binding whose
/// initializer contains the acquisition at `acq`, returns the bound
/// variable.
fn binding_var(body: &[Tok], stmt_start: usize, acq: usize) -> Option<String> {
    let mut s = stmt_start.min(body.len());
    // Allow `if let` / `while let` / `else` prefixes.
    while s < acq {
        match body[s].text.as_str() {
            "if" | "while" | "else" => s += 1,
            _ => break,
        }
    }
    if body.get(s).is_none_or(|t| t.text != "let") {
        return None;
    }
    let mut eq = s + 1;
    let mut d = 0i64;
    while eq < acq {
        match body[eq].text.as_str() {
            "(" | "[" | "<" => d += 1,
            ")" | "]" | ">" => d -= 1,
            "=" if d == 0 => break,
            _ => {}
        }
        eq += 1;
    }
    if eq >= acq {
        return None;
    }
    pattern_names(&body[s + 1..eq]).into_iter().next()
}

/// Top-level argument count of the call at `open`.
fn count_args(body: &[Tok], open: usize) -> usize {
    let close = match_close(body, open);
    if close <= open + 1 {
        return 0;
    }
    let mut depth = 0i64;
    let mut count = 1usize;
    for t in &body[open + 1..close] {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => count += 1,
            _ => {}
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SourceFile;

    fn run_src(src: &str) -> Vec<Diagnostic> {
        let table = SymbolTable::build(&[SourceFile {
            crate_name: "ca-runtime".into(),
            path: "r.rs".into(),
            src: src.into(),
        }]);
        run(
            &table,
            &SemanticConfig {
                taint_crates: vec![],
                lock_crates: vec!["ca-runtime".into()],
            },
        )
    }

    #[test]
    fn inversion_across_functions_flagged() {
        let d = run_src(
            "fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); }\n\
             fn b(&self) { let g = self.y.lock(); let h = self.x.lock(); }",
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("lock-order inversion"));
    }

    #[test]
    fn consistent_order_clean() {
        let d = run_src(
            "fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); }\n\
             fn b(&self) { let g = self.x.lock(); let h = self.y.lock(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn channel_send_under_lock_flagged() {
        let d = run_src("fn a(&self) { let g = self.state.lock(); self.tx.send(msg); }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("channel `send`"));
    }

    #[test]
    fn send_after_drop_clean() {
        let d = run_src("fn a(&self) { let g = self.state.lock(); drop(g); self.tx.send(msg); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn guard_dies_with_block() {
        let d = run_src("fn a(&self) { { let g = self.state.lock(); } self.tx.send(msg); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn double_acquisition_flagged() {
        let d = run_src("fn a(&self) { let g = self.m.lock(); let h = self.m.lock(); }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("already held"));
    }

    #[test]
    fn temporary_guard_trap_flagged() {
        // Both temporaries live to the end of the statement.
        let d = run_src("fn a(&self) { let s = self.m.lock().x + self.m.lock().y; }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn temporary_dies_at_statement_end() {
        let d = run_src("fn a(&self) { self.m.lock().x; self.tx.send(y); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn transitive_inversion_through_call() {
        let d = run_src(
            "fn outer(&self) { let g = self.a.lock(); self.inner(); }\n\
             fn inner(&self) { let g = self.b.lock(); }\n\
             fn other(&self) { let g = self.b.lock(); let h = self.a.lock(); }",
        );
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let d = run_src("fn a(&self, f: &mut F) { f.read(buf); self.tx.send(x); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn two_arg_send_is_wire_not_channel() {
        let d = run_src("fn a(&self, ctx: &mut C) { let g = self.m.lock(); ctx.send(to, msg); }");
        assert!(d.is_empty(), "{d:?}");
    }
}

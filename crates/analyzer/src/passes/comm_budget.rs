//! The `comm-budget` pass: static accounting of every wire send site.
//!
//! The paper's headline claim is a communication bound, so every
//! transitive send/broadcast in the protocol crates must (a) route
//! through a metered helper — one whose bytes land in `Metrics` — and
//! (b) be attributable to an annotated round scope, so the static table
//! of send sites × scopes can be diffed against the committed
//! `analyzer-baseline.json`. A new or moved send site fails the gate
//! until the baseline (and the claim-vs-measured bench docs) are
//! updated together via `scripts/update-baseline.sh`.
//!
//! Annotations:
//!
//! - `// ca-budget: metered` above a fn — declares a metered send
//!   helper (the `CommExt` wrappers). When no file in the workspace
//!   declares one, the builtin helper set `send` / `send_all` /
//!   `exchange` applies (keeps fixtures self-contained).
//! - `// ca-budget: scope(<name>)` above a fn — declares a round-scope
//!   root when the scope is pushed through a constant instead of a
//!   string literal. Literal `.scoped("…")` / `.push_scope("…")` calls
//!   are detected automatically.
//! - `// ca-budget: raw-send(<reason>)` on (or directly above) a line —
//!   permits a direct `send_bytes` call, e.g. the engine's envelope
//!   batcher which meters at a coarser grain.

use std::collections::{BTreeMap, BTreeSet};

use crate::diagnostics::{json_str, Diagnostic};
use crate::lexer::TokenKind;
use crate::passes::SemanticConfig;
use crate::symbols::{call_open_paren, match_close, raw_send_reason, SymbolTable};

/// Rule name, as shown in diagnostics and accepted by pragmas.
pub const RULE: &str = "comm-budget";

/// Helper names assumed metered when nothing is annotated.
const BUILTIN_HELPERS: &[&str] = &["send", "send_all", "exchange"];

/// Scope recorded for sites that no round scope reaches (always
/// accompanied by a diagnostic, so it never lands in a clean baseline).
const UNSCOPED: &str = "(unscoped)";

/// One audited send site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SendSite {
    /// Owning crate.
    pub crate_name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Qualified function containing the call.
    pub function: String,
    /// Helper the site routes through (`send`, `send_all`, `exchange`,
    /// or `send_bytes` for pragma'd raw sites).
    pub helper: String,
    /// Round scope the site is attributed to.
    pub scope: String,
    /// Site order within the function (stable under unrelated edits,
    /// unlike a line number).
    pub ordinal: u32,
    /// 1-indexed line in the current scan — informational only: excluded
    /// from the diff key and not persisted, so it is 0 for a site read
    /// from a baseline.
    pub line: u32,
}

impl SendSite {
    /// The identity used for baseline diffing. Deliberately excludes
    /// the line so that unrelated edits above a site don't drift the
    /// baseline.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}",
            self.crate_name, self.file, self.function, self.helper, self.scope, self.ordinal
        )
    }
}

/// The static send-site table: what `--write-baseline` persists and
/// `--baseline` diffs against.
#[derive(Debug, Default, Clone)]
pub struct BudgetTable {
    /// Sites, sorted by key.
    pub sites: Vec<SendSite>,
}

impl BudgetTable {
    /// Deterministic JSON rendering (one site per line, sorted), of the
    /// diff key's fields only: moving a site to another line leaves it
    /// unchanged.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"sites\": [\n");
        for (i, s) in self.sites.iter().enumerate() {
            let sep = if i + 1 == self.sites.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"crate\":{},\"file\":{},\"function\":{},\"helper\":{},\"scope\":{},\"ordinal\":{}}}{sep}\n",
                json_str(&s.crate_name),
                json_str(&s.file),
                json_str(&s.function),
                json_str(&s.helper),
                json_str(&s.scope),
                s.ordinal,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the JSON produced by [`BudgetTable::to_json`]. Tolerant
    /// of reformatting: any object containing the expected fields
    /// counts; malformed entries are skipped rather than fatal.
    #[must_use]
    pub fn from_json(src: &str) -> Self {
        let mut sites = Vec::new();
        for obj in src.split('{').skip(1) {
            let Some(crate_name) = field_str(obj, "crate") else {
                continue;
            };
            let (Some(file), Some(function), Some(helper), Some(scope)) = (
                field_str(obj, "file"),
                field_str(obj, "function"),
                field_str(obj, "helper"),
                field_str(obj, "scope"),
            ) else {
                continue;
            };
            sites.push(SendSite {
                crate_name,
                file,
                function,
                helper,
                scope,
                ordinal: field_u32(obj, "ordinal").unwrap_or(0),
                line: 0,
            });
        }
        sites.sort();
        BudgetTable { sites }
    }

    /// Diffs `self` (current) against `baseline`, producing one error
    /// per added and per vanished site.
    #[must_use]
    pub fn diff_against(&self, baseline: &BudgetTable) -> Vec<Diagnostic> {
        let ours: BTreeMap<String, &SendSite> = self.sites.iter().map(|s| (s.key(), s)).collect();
        let theirs: BTreeMap<String, &SendSite> =
            baseline.sites.iter().map(|s| (s.key(), s)).collect();
        let mut out = Vec::new();
        for (key, site) in &ours {
            if !theirs.contains_key(key) {
                out.push(Diagnostic {
                    rule: RULE,
                    file: site.file.clone(),
                    line: site.line,
                    message: format!(
                        "send site not in analyzer-baseline.json (scope `{}`, helper `{}`, \
                         in `{}`); if the communication-cost change is intended, update the \
                         bench docs and run scripts/update-baseline.sh",
                        site.scope, site.helper, site.function
                    ),
                });
            }
        }
        for (key, site) in &theirs {
            if !ours.contains_key(key) {
                out.push(Diagnostic {
                    rule: RULE,
                    file: site.file.clone(),
                    line: site.line,
                    message: format!(
                        "baselined send site vanished (scope `{}`, helper `{}`, in `{}`); \
                         run scripts/update-baseline.sh to acknowledge the removal",
                        site.scope, site.helper, site.function
                    ),
                });
            }
        }
        out
    }
}

fn field_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let idx = obj.find(&pat)? + pat.len();
    let rest = obj[idx..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn field_u32(obj: &str, key: &str) -> Option<u32> {
    let pat = format!("\"{key}\":");
    let idx = obj.find(&pat)? + pat.len();
    let digits: String = obj[idx..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Runs the pass: returns (diagnostics, send-site table).
#[must_use]
pub fn run(table: &SymbolTable, config: &SemanticConfig) -> (Vec<Diagnostic>, BudgetTable) {
    let helpers = helper_names(table);
    let root_scopes = scope_roots(table);
    // Per root fn, BFS distance to every fn it reaches (for
    // nearest-root scope attribution).
    let mut reach: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    for &root in root_scopes.keys() {
        reach.insert(root, distances_from(table, root));
    }

    let mut diags = Vec::new();
    let mut sites = Vec::new();
    for (idx, f) in table.fns.iter().enumerate() {
        if f.is_test || !config.budget_crates.contains(&f.crate_name) {
            continue;
        }
        // Trait plumbing: implementations *of* the wire primitives are
        // the metering boundary, not senders themselves.
        if f.name == "send_bytes" || f.name == "next_round" || f.metered {
            continue;
        }
        let mut ordinal = 0u32;
        for (ti, t) in f.body.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let Some(open) = call_open_paren(&f.body, ti) else {
                continue;
            };
            let name = t.text.as_str();
            let is_raw = name == "send_bytes";
            let is_helper =
                helpers.contains(name) && (name != "send" || arg_count(&f.body, open) >= 2);
            if !is_raw && !is_helper {
                continue;
            }
            let line = t.line;
            let helper = if is_raw {
                let pragmas = table
                    .raw_send_pragmas
                    .get(&f.file)
                    .map_or(&[][..], Vec::as_slice);
                if raw_send_reason(pragmas, line).is_none() {
                    diags.push(Diagnostic {
                        rule: RULE,
                        file: f.file.clone(),
                        line,
                        message: format!(
                            "raw `send_bytes` call in `{}` bypasses the metered helpers; \
                             route it through CommExt or justify it with \
                             `// ca-budget: raw-send(<reason>)`",
                            f.qualified
                        ),
                    });
                    continue;
                }
                "send_bytes".to_owned()
            } else {
                name.to_owned()
            };
            let scope = resolve_scope(table, idx, ti, &root_scopes, &reach);
            if scope.is_none() {
                diags.push(Diagnostic {
                    rule: RULE,
                    file: f.file.clone(),
                    line,
                    message: format!(
                        "send site in `{}` is not reachable from any annotated round scope; \
                         wrap the protocol in `.scoped(\"…\", …)` or annotate the entry \
                         point with `// ca-budget: scope(<name>)`",
                        f.qualified
                    ),
                });
            }
            sites.push(SendSite {
                crate_name: f.crate_name.clone(),
                file: f.file.clone(),
                function: f.qualified.clone(),
                helper,
                scope: scope.unwrap_or_else(|| UNSCOPED.to_owned()),
                ordinal,
                line,
            });
            ordinal += 1;
        }
    }
    sites.sort();
    (diags, BudgetTable { sites })
}

/// The metered-helper name set: annotated fns, or the builtin set when
/// the workspace declares none.
fn helper_names(table: &SymbolTable) -> BTreeSet<String> {
    let annotated: BTreeSet<String> = table
        .fns
        .iter()
        .filter(|f| f.metered)
        .map(|f| f.name.clone())
        .collect();
    if annotated.is_empty() {
        BUILTIN_HELPERS.iter().map(|s| (*s).to_owned()).collect()
    } else {
        annotated
    }
}

/// Round-scope roots: fn index → scope names it establishes (from
/// literals and annotations).
fn scope_roots(table: &SymbolTable) -> BTreeMap<usize, BTreeSet<String>> {
    let mut roots: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (idx, f) in table.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for (_, name) in &f.scope_literals {
            roots.entry(idx).or_default().insert(name.clone());
        }
        if let Some(s) = &f.scope_ann {
            roots.entry(idx).or_default().insert(s.clone());
        }
    }
    roots
}

/// BFS distance from `root` to every fn (`u32::MAX` = unreachable).
fn distances_from(table: &SymbolTable, root: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; table.fns.len()];
    if root >= dist.len() {
        return dist;
    }
    dist[root] = 0;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(f) = queue.pop_front() {
        for &c in &table.calls[f] {
            if dist[c] == u32::MAX {
                dist[c] = dist[f].saturating_add(1);
                queue.push_back(c);
            }
        }
    }
    dist
}

/// Scope for the send site at body token `ti` of fn `idx`:
/// 1. nearest preceding `.scoped("…")` literal in the same body,
/// 2. the fn's own `scope(<name>)` annotation,
/// 3. the *nearest* root (by call-graph distance) that reaches this fn,
///    tie-broken lexicographically for determinism.
fn resolve_scope(
    table: &SymbolTable,
    idx: usize,
    ti: usize,
    roots: &BTreeMap<usize, BTreeSet<String>>,
    reach: &BTreeMap<usize, Vec<u32>>,
) -> Option<String> {
    let f = &table.fns[idx];
    if let Some((_, name)) = f
        .scope_literals
        .iter()
        .filter(|(pos, _)| *pos < ti)
        .max_by_key(|(pos, _)| *pos)
    {
        return Some(name.clone());
    }
    if let Some(s) = &f.scope_ann {
        return Some(s.clone());
    }
    let mut best: Option<(u32, String)> = None;
    for (root, names) in roots {
        let d = reach.get(root).map_or(u32::MAX, |dist| dist[idx]);
        if d == u32::MAX {
            continue;
        }
        for n in names {
            if best
                .as_ref()
                .is_none_or(|(bd, bn)| d < *bd || (d == *bd && n < bn))
            {
                best = Some((d, n.clone()));
            }
        }
    }
    best.map(|(_, n)| n)
}

/// Top-level argument count of the call whose paren is at `open`.
fn arg_count(body: &[crate::symbols::Tok], open: usize) -> usize {
    let close = match_close(body, open);
    if close <= open + 1 {
        return 0;
    }
    let mut depth = 0i64;
    let mut count = 1usize;
    for t in &body[open + 1..close] {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
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

    fn run_src(src: &str) -> (Vec<Diagnostic>, BudgetTable) {
        let table = SymbolTable::build(&[SourceFile {
            crate_name: "ca-core".into(),
            path: "p.rs".into(),
            src: src.into(),
        }]);
        run(
            &table,
            &SemanticConfig {
                taint_crates: vec![],
                budget_crates: vec!["ca-core".into()],
                lock_crates: vec![],
            },
        )
    }

    #[test]
    fn scoped_helper_send_is_recorded_clean() {
        let (diags, budget) =
            run_src("fn pi(ctx: &mut C) { ctx.scoped(\"pi_n\", |ctx| { ctx.send_all(m); }) }");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(budget.sites.len(), 1);
        assert_eq!(budget.sites[0].scope, "pi_n");
        assert_eq!(budget.sites[0].helper, "send_all");
    }

    #[test]
    fn raw_send_bytes_flagged() {
        let (diags, _) =
            run_src("fn pi(ctx: &mut C) { ctx.scoped(\"s\", |c| { c.send_bytes(to, b); }) }");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("raw `send_bytes`"));
    }

    #[test]
    fn raw_send_bytes_with_pragma_ok() {
        let (diags, budget) = run_src(
            "fn pi(ctx: &mut C) { ctx.scoped(\"s\", |c| {\n// ca-budget: raw-send(batched envelope)\nc.send_bytes(to, b); }) }",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(budget.sites[0].helper, "send_bytes");
    }

    #[test]
    fn unscoped_send_flagged() {
        let (diags, budget) = run_src("fn lone(ctx: &mut C) { ctx.send_all(m); }");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .message
            .contains("not reachable from any annotated round scope"));
        assert_eq!(budget.sites[0].scope, "(unscoped)");
    }

    #[test]
    fn scope_inherited_through_call_graph() {
        let (diags, budget) = run_src(
            "fn top(ctx: &mut C) { ctx.scoped(\"lba+\", |c| { body(c) }) }\nfn body(ctx: &mut C) { ctx.send(to, m); }",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(budget.sites[0].scope, "lba+");
        assert_eq!(budget.sites[0].helper, "send");
    }

    #[test]
    fn one_arg_send_is_a_channel_not_wire() {
        let (diags, budget) = run_src("fn pump(tx: &Sender<u8>) { tx.send(1); }");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(budget.sites.is_empty());
    }

    #[test]
    fn scope_annotation_used_when_pushed_via_const() {
        let (diags, budget) = run_src(
            "// ca-budget: scope(engine)\nfn run(ctx: &mut C) { ctx.push_scope(NAME); ctx.send_all(m); }",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(budget.sites[0].scope, "engine");
    }

    #[test]
    fn json_round_trips() {
        let (_, budget) = run_src(
            "fn pi(ctx: &mut C) { ctx.scoped(\"pi_n\", |c| { c.send_all(a); c.send(to, b); }) }",
        );
        let parsed = BudgetTable::from_json(&budget.to_json());
        let keys = |t: &BudgetTable| t.sites.iter().map(SendSite::key).collect::<Vec<_>>();
        assert_eq!(keys(&parsed), keys(&budget));
        assert!(budget.diff_against(&parsed).is_empty());
    }

    /// A send site moved down a line writes the same baseline, byte for
    /// byte: the line is not part of it.
    #[test]
    fn moving_a_site_down_a_line_leaves_the_baseline_unchanged() {
        let src = "fn pi(ctx: &mut C) {\n    ctx.scoped(\"a\", |c| { c.send_all(m); })\n}";
        let (_, before) = run_src(src);
        let (_, after) = run_src(&src.replacen('\n', "\n\n", 1));
        assert_eq!(after.sites[0].line, before.sites[0].line + 1);
        assert_eq!(after.to_json(), before.to_json());
    }

    #[test]
    fn baseline_drift_both_directions() {
        let (_, old) = run_src("fn pi(ctx: &mut C) { ctx.scoped(\"a\", |c| { c.send_all(m); }) }");
        let (_, new) = run_src(
            "fn pi(ctx: &mut C) { ctx.scoped(\"a\", |c| { c.send_all(m); c.send_all(n); }) }",
        );
        let added = new.diff_against(&old);
        assert_eq!(added.len(), 1);
        assert!(added[0].message.contains("not in analyzer-baseline.json"));
        let removed = old.diff_against(&new);
        assert_eq!(removed.len(), 1);
        assert!(removed[0].message.contains("vanished"));
        // Read back from a baseline, a site has no line; the finding
        // names its file and function instead.
        let gone = old.diff_against(&BudgetTable::from_json(&new.to_json()));
        assert_eq!(gone[0].line, 0);
        assert!(gone[0]
            .render_human()
            .starts_with(&format!("{}: error", gone[0].file)));
        assert!(gone[0].message.contains(&new.sites[1].function));
    }

    #[test]
    fn annotated_helpers_replace_builtins() {
        let table = SymbolTable::build(&[SourceFile {
            crate_name: "ca-core".into(),
            path: "p.rs".into(),
            src: "// ca-budget: metered\nfn blast(ctx: &mut C) { }\nfn pi(ctx: &mut C) { ctx.scoped(\"s\", |c| { blast(c); c.send_all(m); }) }".into(),
        }]);
        let (_, budget) = run(
            &table,
            &SemanticConfig {
                taint_crates: vec![],
                budget_crates: vec!["ca-core".into()],
                lock_crates: vec![],
            },
        );
        // With `blast` annotated, the builtin set is replaced: only the
        // blast call counts as a send site.
        assert_eq!(budget.sites.len(), 1, "{:?}", budget.sites);
        assert_eq!(budget.sites[0].helper, "blast");
    }
}

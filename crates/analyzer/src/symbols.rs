//! Workspace symbol table and call graph.
//!
//! Built from the per-file [`crate::parser`] items: every function body
//! is re-tokenized into an owned token vector so the dataflow passes can
//! walk it repeatedly without holding borrows on file contents, and a
//! name-resolved call graph connects the functions. Resolution is
//! intentionally *over-approximate* (a method call resolves to every
//! workspace method with that name): reachability-style checks stay
//! sound in the direction that matters — "unreachable from any round
//! scope" is only reported when no resolution could reach the site.

use std::collections::{BTreeMap, BTreeSet};

use crate::diagnostics::Suppressions;
use crate::engine::{is_test_path, mask_cfg_test};
use crate::lexer::{lex, TokenKind};
use crate::parser::{parse_items, StructDecl};

/// One source file handed to the semantic analyzer.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Owning package name (e.g. `ca-core`).
    pub crate_name: String,
    /// Workspace-relative path (diagnostics).
    pub path: String,
    /// Full source text.
    pub src: String,
}

/// An owned token inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token kind (comments are dropped at build time).
    pub kind: TokenKind,
    /// Token text.
    pub text: String,
    /// 1-indexed source line.
    pub line: u32,
}

/// One function in the workspace, with everything the passes need.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Owning package.
    pub crate_name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Bare name.
    pub name: String,
    /// `crate::Type::name` or `crate::name` — stable display id.
    pub qualified: String,
    /// Parameter names (positional; destructured params are absent).
    pub params: Vec<String>,
    /// Body tokens, comments stripped.
    pub body: Vec<Tok>,
    /// Test code: `#[cfg(test)]` module or tests/benches/examples path.
    pub is_test: bool,
    /// Declared a metered send helper (`// ca-budget: metered`).
    pub metered: bool,
    /// Declared a round-scope root (`// ca-budget: scope(name)`).
    pub scope_ann: Option<String>,
    /// String literals passed to `.scoped(` / `.push_scope(` in this
    /// body, with the body-token index of the literal.
    pub scope_literals: Vec<(usize, String)>,
}

/// The workspace-wide symbol table plus call graph.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every function, in (file, source order).
    pub fns: Vec<FnInfo>,
    /// Struct inventory (per file).
    pub structs: Vec<(String, StructDecl)>,
    /// `calls[f]` = indices of functions `f` may call (sorted, deduped).
    pub calls: Vec<Vec<usize>>,
    /// Reverse edges of [`SymbolTable::calls`].
    pub callers: Vec<Vec<usize>>,
    /// Suppression pragmas per file path.
    pub suppressions: BTreeMap<String, Suppressions>,
    /// `// ca-budget: raw-send(reason)` line pragmas per file path:
    /// (pragma line, standalone, reason).
    pub raw_send_pragmas: BTreeMap<String, Vec<(u32, bool, String)>>,
    by_bare: BTreeMap<String, Vec<usize>>,
}

/// Rust keywords and control-flow words that look like calls (`if (`,
/// `match (`) but never are.
const NOT_CALLS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "impl", "dyn", "where", "use", "pub", "mod", "struct",
    "enum", "trait", "type", "const", "static", "unsafe", "async", "await", "yield", "box",
];

impl SymbolTable {
    /// Builds the table from `files`. Deterministic: files are processed
    /// in the order given (the engine sorts paths), and every map is a
    /// `BTreeMap`.
    #[must_use]
    pub fn build(files: &[SourceFile]) -> Self {
        let mut table = SymbolTable::default();
        for file in files {
            let tokens = lex(&file.src);
            let masked = mask_cfg_test(&tokens);
            table
                .suppressions
                .insert(file.path.clone(), Suppressions::collect(&tokens));
            let raws = collect_raw_send_pragmas(&tokens);
            if !raws.is_empty() {
                table.raw_send_pragmas.insert(file.path.clone(), raws);
            }
            let items = parse_items(&tokens, &masked);
            for s in items.structs {
                table.structs.push((file.path.clone(), s));
            }
            let file_is_test = is_test_path(&file.path);
            for f in items.fns {
                let body: Vec<Tok> = tokens[f.body.0..f.body.1.min(tokens.len())]
                    .iter()
                    .filter(|t| !t.is_comment())
                    .map(|t| Tok {
                        kind: t.kind,
                        text: t.text.to_owned(),
                        line: t.line,
                    })
                    .collect();
                let scope_literals = find_scope_literals(&body);
                let qualified = match &f.self_ty {
                    Some(ty) => format!("{}::{}::{}", file.crate_name, ty, f.name),
                    None => format!("{}::{}", file.crate_name, f.name),
                };
                let metered = f.annotations.iter().any(|a| a == "metered");
                let scope_ann = f.annotations.iter().find_map(|a| {
                    a.strip_prefix("scope(")
                        .and_then(|r| r.strip_suffix(')'))
                        .map(str::to_owned)
                });
                table.fns.push(FnInfo {
                    crate_name: file.crate_name.clone(),
                    file: file.path.clone(),
                    line: f.line,
                    name: f.name.clone(),
                    qualified,
                    params: f.params,
                    body,
                    is_test: file_is_test || f.in_cfg_test,
                    metered,
                    scope_ann,
                    scope_literals,
                });
            }
        }
        for (idx, f) in table.fns.iter().enumerate() {
            table.by_bare.entry(f.name.clone()).or_default().push(idx);
        }
        table.build_call_graph();
        table
    }

    /// All function indices with the given bare name.
    #[must_use]
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_bare.get(name).map_or(&[], Vec::as_slice)
    }

    fn build_call_graph(&mut self) {
        let mut calls: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (idx, f) in self.fns.iter().enumerate() {
            let mut out = BTreeSet::new();
            for name in called_names(&f.body) {
                let candidates = self.fns_named(&name);
                // Prefer same-crate targets for bare calls; methods (and
                // cross-crate calls) resolve to every candidate.
                let same_crate: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| self.fns[c].crate_name == f.crate_name)
                    .collect();
                let chosen: &[usize] = if same_crate.is_empty() {
                    candidates
                } else {
                    &same_crate
                };
                for &c in chosen {
                    if c != idx {
                        out.insert(c);
                    }
                }
            }
            calls[idx] = out.into_iter().collect();
        }
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (caller, callees) in calls.iter().enumerate() {
            for &callee in callees {
                callers[callee].push(caller);
            }
        }
        self.calls = calls;
        self.callers = callers;
    }
}

/// Bare names of everything `body` may call: `name(…)`, `name::<T>(…)`,
/// and `.name(…)` method calls.
fn called_names(body: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident || NOT_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        if call_open_paren(body, i).is_some() {
            names.insert(t.text.clone());
        }
    }
    names
}

/// If the ident at `i` is used as a call (`name(` or `name::<T>(`),
/// returns the index of the opening paren.
#[must_use]
pub fn call_open_paren(body: &[Tok], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if body.get(j).is_some_and(|t| t.text == ":")
        && body.get(j + 1).is_some_and(|t| t.text == ":")
        && body.get(j + 2).is_some_and(|t| t.text == "<")
    {
        // Turbofish: skip the balanced angles.
        let mut depth = 0i64;
        j += 2;
        while j < body.len() {
            match body[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                "(" | ")" | "{" | "}" | ";" => return None,
                _ => {}
            }
            j += 1;
        }
    }
    body.get(j).filter(|t| t.text == "(").map(|_| j)
}

/// Matching close paren for the open paren at `open` in body-token
/// space (counts all bracket kinds so nested closures stay balanced).
#[must_use]
pub fn match_close(body: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let (open_text, close_text) = match body.get(open).map(|t| t.text.as_str()) {
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        Some("{") => ("{", "}"),
        _ => return open,
    };
    for (j, t) in body.iter().enumerate().skip(open) {
        if t.text == open_text {
            depth += 1;
        } else if t.text == close_text {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    body.len().saturating_sub(1)
}

/// `.scoped("name"` / `.push_scope("name"` literals, with positions.
fn find_scope_literals(body: &[Tok]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident || (t.text != "scoped" && t.text != "push_scope") {
            continue;
        }
        let Some(open) = call_open_paren(body, i) else {
            continue;
        };
        if let Some(lit) = body.get(open + 1).filter(|l| l.kind == TokenKind::Literal) {
            let name = lit.text.trim_matches('"');
            if !name.is_empty() {
                out.push((open + 1, name.to_owned()));
            }
        }
    }
    out
}

/// `// ca-budget: raw-send(reason)` pragmas: `(line, standalone, reason)`.
/// Standalone pragmas cover the next line; trailing pragmas their own.
fn collect_raw_send_pragmas(tokens: &[crate::lexer::Token<'_>]) -> Vec<(u32, bool, String)> {
    let mut out = Vec::new();
    let mut last_code_line = 0u32;
    for t in tokens {
        if !t.is_comment() {
            last_code_line = t.line;
            continue;
        }
        let Some(idx) = t.text.find("ca-budget:") else {
            continue;
        };
        let rest = t.text[idx + "ca-budget:".len()..].trim_start();
        let Some(inner) = rest.strip_prefix("raw-send(") else {
            continue;
        };
        let Some(close) = inner.find(')') else {
            continue;
        };
        let reason = inner[..close].trim().to_owned();
        if !reason.is_empty() {
            out.push((t.line, last_code_line != t.line, reason));
        }
    }
    out
}

/// Whether a raw-send pragma in `pragmas` covers `line`.
#[must_use]
pub fn raw_send_reason(pragmas: &[(u32, bool, String)], line: u32) -> Option<&str> {
    pragmas
        .iter()
        .find(|(l, standalone, _)| {
            if *standalone {
                l.saturating_add(1) == line
            } else {
                *l == line
            }
        })
        .map(|(_, _, r)| r.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(srcs: &[(&str, &str, &str)]) -> Vec<SourceFile> {
        srcs.iter()
            .map(|(krate, path, src)| SourceFile {
                crate_name: (*krate).to_owned(),
                path: (*path).to_owned(),
                src: (*src).to_owned(),
            })
            .collect()
    }

    #[test]
    fn call_graph_resolves_same_crate_first() {
        let table = SymbolTable::build(&files(&[
            (
                "ca-a",
                "a.rs",
                "pub fn top() { helper(); }\nfn helper() {}\n",
            ),
            ("ca-b", "b.rs", "fn helper() {}\n"),
        ]));
        let top = table.fns_named("top")[0];
        let callees: Vec<&str> = table.calls[top]
            .iter()
            .map(|&c| table.fns[c].qualified.as_str())
            .collect();
        assert_eq!(callees, vec!["ca-a::helper"]);
    }

    #[test]
    fn method_calls_resolve_cross_crate() {
        let table = SymbolTable::build(&files(&[
            ("ca-a", "a.rs", "fn top(x: &X) { x.helper(); }\n"),
            ("ca-b", "b.rs", "impl X { pub fn helper(&self) {} }\n"),
        ]));
        let top = table.fns_named("top")[0];
        assert_eq!(table.calls[top].len(), 1);
        assert_eq!(table.fns[table.calls[top][0]].qualified, "ca-b::X::helper");
    }

    #[test]
    fn scope_literals_found() {
        let table = SymbolTable::build(&files(&[(
            "ca-core",
            "p.rs",
            "fn pi(ctx: &mut dyn Comm) { ctx.scoped(\"pi_n\", |ctx| { go(ctx) }) }\n",
        )]));
        assert_eq!(table.fns[0].scope_literals.len(), 1);
        assert_eq!(table.fns[0].scope_literals[0].1, "pi_n");
    }

    #[test]
    fn reachability() {
        let table = SymbolTable::build(&files(&[(
            "ca-a",
            "a.rs",
            "fn root() { mid() }\nfn mid() { leaf() }\nfn leaf() {}\nfn island() {}\n",
        )]));
        // The passes walk these edges: root → mid → leaf, nothing → island.
        let id = |name: &str| table.fns_named(name)[0];
        assert_eq!(table.calls[id("root")], vec![id("mid")]);
        assert_eq!(table.calls[id("mid")], vec![id("leaf")]);
        assert_eq!(table.callers[id("leaf")], vec![id("mid")]);
        assert!(table.callers[id("island")].is_empty());
    }

    #[test]
    fn raw_send_pragma_lines() {
        let toks = lex("// ca-budget: raw-send(batching)\nx.send_bytes(a, b);\ny.send_bytes(a, b); // ca-budget: raw-send(tail)\n");
        let pragmas = collect_raw_send_pragmas(&toks);
        assert_eq!(raw_send_reason(&pragmas, 2), Some("batching"));
        assert_eq!(raw_send_reason(&pragmas, 3), Some("tail"));
        assert_eq!(raw_send_reason(&pragmas, 1), None);
        assert_eq!(raw_send_reason(&pragmas, 4), None);
    }

    #[test]
    fn turbofish_call_detection() {
        let table = SymbolTable::build(&files(&[(
            "ca-a",
            "a.rs",
            "fn top(i: &Inbox) { i.decode_each::<u64>(); }\nfn decode_each() {}\n",
        )]));
        let top = table.fns_named("top")[0];
        assert_eq!(table.calls[top].len(), 1);
    }

    #[test]
    fn annotations_surface() {
        let table = SymbolTable::build(&files(&[(
            "ca-net",
            "comm.rs",
            "// ca-budget: metered\nfn send_all() {}\n// ca-budget: scope(engine)\nfn run_engine() {}\n",
        )]));
        assert!(table.fns[0].metered);
        assert_eq!(table.fns[1].scope_ann.as_deref(), Some("engine"));
    }
}

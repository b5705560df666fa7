//! Workspace symbol table and call graph.
//!
//! Built from the per-file [`crate::parser`] items: every function body
//! is re-tokenized into an owned token vector so the dataflow passes can
//! walk it repeatedly without holding borrows on file contents, and a
//! name-resolved call graph connects the functions. Resolution is
//! intentionally *over-approximate* (a method call resolves to every
//! workspace method with that name), so an interprocedural summary
//! never misses a callee the code could reach.

use std::collections::{BTreeMap, BTreeSet};

use crate::diagnostics::Suppressions;
use crate::engine::{is_test_path, mask_cfg_test};
use crate::lexer::{lex, TokenKind};
use crate::parser::parse_fns;

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
}

/// The workspace-wide symbol table plus call graph.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every function, in (file, source order).
    pub fns: Vec<FnInfo>,
    /// `calls[f]` = indices of functions `f` may call (sorted, deduped).
    pub calls: Vec<Vec<usize>>,
    /// Suppression pragmas per file path.
    pub suppressions: BTreeMap<String, Suppressions>,
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
            let file_is_test = is_test_path(&file.path);
            for f in parse_fns(&tokens, &masked) {
                let body: Vec<Tok> = tokens[f.body.0..f.body.1.min(tokens.len())]
                    .iter()
                    .filter(|t| !t.is_comment())
                    .map(|t| Tok {
                        kind: t.kind,
                        text: t.text.to_owned(),
                        line: t.line,
                    })
                    .collect();
                let qualified = match &f.self_ty {
                    Some(ty) => format!("{}::{}::{}", file.crate_name, ty, f.name),
                    None => format!("{}::{}", file.crate_name, f.name),
                };
                table.fns.push(FnInfo {
                    crate_name: file.crate_name.clone(),
                    file: file.path.clone(),
                    line: f.line,
                    name: f.name.clone(),
                    qualified,
                    params: f.params,
                    body,
                    is_test: file_is_test || f.in_cfg_test,
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
        self.calls = calls;
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
        assert!(table.calls[id("leaf")].is_empty());
        assert!(table.calls.iter().all(|c| !c.contains(&id("island"))));
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
}

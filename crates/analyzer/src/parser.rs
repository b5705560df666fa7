//! A lightweight Rust *item* parser over the token stream: just enough
//! structure (fn / impl) for workspace-level semantic analysis.
//!
//! This is deliberately not a grammar-complete parser. It recovers the
//! item skeleton — function names, owning `impl` types, parameter names,
//! and body token ranges — by brace matching over the lexer's output,
//! and it must never panic or loop forever, whatever bytes it is fed
//! (the proptest suite fuzzes it with arbitrary input). Anything it
//! cannot make sense of it skips; the passes built on top are
//! deny-by-default only for the shapes the parser *does* recognize, so
//! parser conservatism translates to analysis conservatism, never to
//! crashes or false certainty.

use crate::lexer::{Token, TokenKind};

/// A parsed `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDecl {
    /// Bare function name (`pi_n`, `send_bytes`, …).
    pub name: String,
    /// `impl` self type owning the method, if any (`TcpParty`, …).
    pub self_ty: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Parameter names recoverable from the signature (`self` and
    /// destructuring patterns are skipped).
    pub params: Vec<String>,
    /// Token index range `[start, end)` of the body, *including* the
    /// outer braces. Empty for bodyless declarations.
    pub body: (usize, usize),
    /// Whether the item sits inside a `#[cfg(test)]` module.
    pub in_cfg_test: bool,
}

/// Parses `tokens` (with the `#[cfg(test)]` mask from
/// [`crate::engine::mask_cfg_test`]) into its functions (including
/// methods and nested fns), in source order.
#[must_use]
pub fn parse_fns(tokens: &[Token<'_>], masked: &[bool]) -> Vec<FnDecl> {
    let mut fns = Vec::new();
    // Impl block spans: (body_start, body_end, self_ty).
    let impls = collect_impl_spans(tokens);

    let mut i = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        if tok.kind != TokenKind::Ident || tok.text != "fn" {
            i += 1;
            continue;
        }
        if let Some((decl, next)) = parse_fn(tokens, masked, &impls, i) {
            fns.push(decl);
            // Continue *inside* the signature so nested fns are found
            // too; bodies overlap their parent on purpose.
            i = next;
        } else {
            i += 1;
        }
    }
    fns
}

/// Index of the next non-comment token after `i`.
fn next_code_idx(tokens: &[Token<'_>], i: usize) -> Option<usize> {
    (i + 1..tokens.len()).find(|&j| !tokens[j].is_comment())
}

/// Parses one `fn` at token index `i` (the `fn` keyword). Returns the
/// declaration and the index to resume scanning from (just past the
/// signature, so nested items are still visited).
fn parse_fn(
    tokens: &[Token<'_>],
    masked: &[bool],
    impls: &[(usize, usize, String)],
    i: usize,
) -> Option<(FnDecl, usize)> {
    let name_idx = next_code_idx(tokens, i)?;
    let name_tok = &tokens[name_idx];
    if name_tok.kind != TokenKind::Ident {
        return None; // `fn(` pointer type, malformed input, …
    }

    // Optional generics, then the parameter list.
    let mut j = next_code_idx(tokens, name_idx)?;
    if tokens[j].text == "<" {
        j = skip_angles(tokens, j)?;
    }
    if tokens[j].text != "(" {
        return None;
    }
    let params_end = match_delim(tokens, j, "(", ")")?;
    let params = collect_params(tokens, j, params_end);

    // Scan forward for the body `{` (or `;` for a bodyless item).
    let mut k = params_end + 1;
    let mut body = (0usize, 0usize);
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_comment() {
            k += 1;
            continue;
        }
        match t.text {
            ";" => break,
            "{" => {
                let close = match_delim(tokens, k, "{", "}").unwrap_or(tokens.len() - 1);
                body = (k, close + 1);
                break;
            }
            // Skip over generic bounds in return types / where clauses.
            "<" => k = skip_angles(tokens, k).unwrap_or(k + 1),
            _ => k += 1,
        }
    }

    let self_ty = impls
        .iter()
        .rfind(|(start, end, _)| i >= *start && i < *end)
        .map(|(_, _, ty)| ty.clone());

    Some((
        FnDecl {
            name: name_tok.text.to_owned(),
            self_ty,
            line: tokens[i].line,
            params,
            body,
            in_cfg_test: masked.get(i).copied().unwrap_or(false),
        },
        params_end + 1,
    ))
}

/// Matches `open` at index `from` to its closing `close`, counting only
/// those two delimiter texts. Returns the close index.
fn match_delim(tokens: &[Token<'_>], from: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(from) {
        if t.is_comment() {
            continue;
        }
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Skips a balanced `< … >` run starting at `from` (which must be `<`).
/// Returns the index just past the matching `>`; bails out (returning
/// `None`) if the angles never balance — malformed input.
fn skip_angles(tokens: &[Token<'_>], from: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(from) {
        if t.is_comment() {
            continue;
        }
        match t.text {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return next_code_idx(tokens, j);
                }
            }
            // Angles never span these in a signature; treat as malformed.
            "{" | "}" | ";" => return None,
            _ => {}
        }
    }
    None
}

/// Parameter names: idents directly before a `:` at paren depth 1,
/// themselves preceded by `(`, `,`, or `mut`. Destructuring patterns
/// yield no name (conservative).
fn collect_params(tokens: &[Token<'_>], open: usize, close: usize) -> Vec<String> {
    let mut params = Vec::new();
    let mut depth = 0i64;
    let mut prev2: Option<&Token<'_>> = None; // token before `prev`
    let mut prev: Option<&Token<'_>> = None;
    for t in tokens[open..=close.min(tokens.len() - 1)].iter() {
        if t.is_comment() {
            continue;
        }
        match t.text {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ":" if depth == 1 => {
                if let (Some(name), Some(before)) = (prev, prev2) {
                    let anchored = matches!(before.text, "(" | "," | "mut");
                    if anchored && name.kind == TokenKind::Ident && name.text != "self" {
                        params.push(name.text.to_owned());
                    }
                }
            }
            _ => {}
        }
        prev2 = prev;
        prev = Some(t);
    }
    params
}

/// Finds every `impl … { … }` block: `(body_start, body_end, self_ty)`
/// token index ranges (end exclusive), innermost last for nested impls.
fn collect_impl_spans(tokens: &[Token<'_>]) -> Vec<(usize, usize, String)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind != TokenKind::Ident || tokens[i].text != "impl" {
            i += 1;
            continue;
        }
        // Header runs to the opening `{` (no braces can appear in it).
        let mut header_end = None;
        let mut j = i + 1;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_comment() {
                j += 1;
                continue;
            }
            match t.text {
                "{" => {
                    header_end = Some(j);
                    break;
                }
                ";" | "}" => break, // `impl Trait` in a type position, or malformed
                _ => j += 1,
            }
        }
        let Some(open) = header_end else {
            i += 1;
            continue;
        };
        if let Some(ty) = impl_self_ty(tokens, i + 1, open) {
            let close = match_delim(tokens, open, "{", "}").unwrap_or(tokens.len() - 1);
            spans.push((open, close + 1, ty));
        }
        i = open + 1;
    }
    spans
}

/// Self type of an impl header (tokens in `(from, to)` exclusive):
/// the first type ident after `for` if present (`impl Tr for Ty`),
/// otherwise the first type ident after the optional generics.
fn impl_self_ty(tokens: &[Token<'_>], from: usize, to: usize) -> Option<String> {
    let code: Vec<&Token<'_>> = tokens[from..to]
        .iter()
        .filter(|t| !t.is_comment())
        .collect();
    // Generic parameters directly after `impl`.
    let mut idx = 0usize;
    if code.first().is_some_and(|t| t.text == "<") {
        let mut depth = 0i64;
        while idx < code.len() {
            match code[idx].text {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        idx += 1;
                        break;
                    }
                }
                _ => {}
            }
            idx += 1;
        }
    }
    // `for` at angle depth 0 splits trait from self type.
    let mut depth = 0i64;
    let mut for_pos = None;
    for (k, t) in code.iter().enumerate().skip(idx) {
        match t.text {
            "<" => depth += 1,
            ">" => depth -= 1,
            "for" if depth == 0 => {
                for_pos = Some(k);
                break;
            }
            "where" if depth == 0 => break,
            _ => {}
        }
    }
    let start = for_pos.map_or(idx, |k| k + 1);
    code[start..]
        .iter()
        .find(|t| {
            t.kind == TokenKind::Ident && !matches!(t.text, "dyn" | "mut" | "const" | "where")
        })
        .map(|t| t.text.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::mask_cfg_test;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnDecl> {
        let tokens = lex(src);
        let masked = mask_cfg_test(&tokens);
        parse_fns(&tokens, &masked)
    }

    #[test]
    fn free_fn_with_params() {
        let fns = parse("pub fn run(ctx: &mut dyn Comm, v_in: &Nat) -> Nat { body() }\n");
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.name, "run");
        assert_eq!(f.params, vec!["ctx", "v_in"]);
        assert!(f.self_ty.is_none());
        assert!(f.body.1 > f.body.0);
    }

    #[test]
    fn impl_methods_get_self_ty() {
        let fns = parse(
            "struct Foo;\nimpl Foo { fn a(&self) {} }\nimpl Comm for Foo { fn b(&mut self, x: u64) {} }\n",
        );
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].self_ty.as_deref(), Some("Foo"));
        assert_eq!(fns[1].self_ty.as_deref(), Some("Foo"));
        assert_eq!(fns[1].params, vec!["x"]);
    }

    #[test]
    fn generic_impl_and_references() {
        let fns = parse(
            "impl<'a, T: Clone> Comm for SilentAfter<'a, T> { fn n(&self) -> usize { 0 } }\n",
        );
        assert_eq!(fns[0].self_ty.as_deref(), Some("SilentAfter"));
    }

    #[test]
    fn bodyless_trait_fn_skipped_body() {
        let fns = parse("trait T { fn sig(&self); fn with_body(&self) { x() } }\n");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].body, (0, 0));
        assert!(fns[1].body.1 > fns[1].body.0);
    }

    #[test]
    fn nested_fn_found() {
        let fns = parse("fn outer() { fn inner(q: u8) {} inner(1); }\n");
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn cfg_test_mark() {
        let fns = parse("fn real() {}\n#[cfg(test)]\nmod t { fn helper() {} }\n");
        assert!(!fns[0].in_cfg_test);
        assert!(fns[1].in_cfg_test);
    }

    #[test]
    fn fn_pointer_type_not_an_item() {
        let fns = parse("type Cb = fn(usize) -> bool;\nfn real() {}\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn malformed_input_is_survivable() {
        for src in [
            "fn",
            "fn {",
            "impl {",
            "fn f(",
            "fn f() {",
            "impl < for {}",
            "fn <",
        ] {
            let _ = parse(src); // must not panic
        }
    }

    #[test]
    fn generic_fn_signature() {
        let fns =
            parse("fn lba_plus<V: Value>(ctx: &mut dyn Comm, input: &V) -> Option<V> { x }\n");
        assert_eq!(fns[0].name, "lba_plus");
        assert_eq!(fns[0].params, vec!["ctx", "input"]);
    }
}

//! Interprocedural taint dataflow over the workspace symbol table.
//!
//! Taint models *attacker-controlled wire input*: anything read off a
//! `Comm` receive path or decoded from raw frame bytes is tainted until
//! it passes through a bounds-checked `ca-codec` decode or an explicit
//! validation. A tainted value reaching an allocation size, a slice
//! index, or a length computation is exactly the byzantine-input shape
//! that lets a malicious party drive memory use or panics, so those are
//! the sinks.
//!
//! The engine is deliberately a *token-level abstract interpretation*,
//! not a full type checker:
//!
//! - Each function gets a summary (`returns wire taint`, `param i flows
//!   to return`, `param i flows to a sink`) computed to a fixpoint.
//! - Within a body, taint is a per-variable bitmask — bit 0 is wire
//!   taint, bits 1.. are the function's own parameters — propagated
//!   through `let` / `for … in` / `if let` / `while let` bindings
//!   (including inside closures and nested blocks) and postfix call
//!   chains. A sanitizer call resets the chain
//!   (`inbox.decode_each::<M>()` is clean even though `inbox` is
//!   tainted), and a sanitizer taking a bare variable as argument
//!   cleanses that variable (the `validate_frame_len(len)?` pattern).
//! - Known approximations: variable scoping is flat per function, a
//!   block's value is the union of everything inside it (so `match`
//!   propagates taint without per-arm precision), and a function whose
//!   trailing expression is a control-flow block is not credited with
//!   returning taint. These trade corner-case recall for precision and
//!   are pinned down by the fixtures.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::symbols::{call_open_paren, match_close, FnInfo, SymbolTable, Tok};

/// Calls whose *result* is attacker-controlled wire data.
pub const TAINT_SOURCES: &[&str] = &[
    "next_round",
    "exchange",
    "raw_from",
    "from_be_bytes",
    "from_le_bytes",
    "from_ne_bytes",
    "get_varint",
];

/// Calls whose result is safe: bounds-checked decodes, explicit
/// validation, and clamping/length operations.
pub const TAINT_SANITIZERS: &[&str] = &[
    "decode_from_slice",
    "decode_from_bytes",
    "decode_from",
    "decode_each",
    "validate_frame_len",
    "validate_hello_len",
    "min",
    "clamp",
    "len",
    "party_count",
    "senders",
    "get_raw",
    "get_shared",
    "get_bytes",
    "get_u8",
    "get_seq_len",
    "is_empty",
    "remaining",
];

/// Calls whose first argument is a size/length sink.
pub const TAINT_SINKS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];

const WIRE: u64 = 1;
const MAX_PARAMS: usize = 62;
const MAX_WALK_DEPTH: usize = 64;
const MAX_FIXPOINT_ITERS: usize = 12;

/// Per-function dataflow summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Function returns wire-tainted data unconditionally.
    pub returns_wire: bool,
    /// `param_to_return[i]`: taint on param `i` flows to the return.
    pub param_to_return: Vec<bool>,
    /// `param_to_sink[i]`: taint on param `i` reaches a sink inside.
    pub param_to_sink: Vec<bool>,
}

/// One taint violation, pass-agnostic (the pass wraps it in a rule).
#[derive(Debug, Clone)]
pub struct TaintFinding {
    /// File of the sink.
    pub file: String,
    /// 1-indexed line of the sink.
    pub line: u32,
    /// Explanation including the flow.
    pub message: String,
}

/// Runs the interprocedural taint analysis. Summaries are computed for
/// every function in `table`; findings are emitted only for functions
/// accepted by `emit_for` (callers filter to the crates under policy
/// and skip test code).
#[must_use]
pub fn analyze_taint(table: &SymbolTable, emit_for: &dyn Fn(&FnInfo) -> bool) -> Vec<TaintFinding> {
    let mut summaries: Vec<FnSummary> = table
        .fns
        .iter()
        .map(|f| FnSummary {
            returns_wire: false,
            param_to_return: vec![false; f.params.len()],
            param_to_sink: vec![false; f.params.len()],
        })
        .collect();
    for _ in 0..MAX_FIXPOINT_ITERS {
        let mut changed = false;
        for idx in 0..table.fns.len() {
            let mut walker = BodyWalker::new(table, &summaries, idx, false);
            walker.run();
            let next = walker.into_summary();
            if next != summaries[idx] {
                summaries[idx] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut findings = Vec::new();
    for (idx, f) in table.fns.iter().enumerate() {
        if !emit_for(f) {
            continue;
        }
        let mut walker = BodyWalker::new(table, &summaries, idx, true);
        walker.run();
        findings.extend(walker.findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    findings
}

/// Words that bind nothing in a `let`/`for` pattern.
const PATTERN_NOISE: &[&str] = &["mut", "ref", "box", "_"];

struct BodyWalker<'a> {
    table: &'a SymbolTable,
    summaries: &'a [FnSummary],
    fn_idx: usize,
    emit: bool,
    env: BTreeMap<String, u64>,
    ret_mask: u64,
    param_sink: u64,
    findings: Vec<TaintFinding>,
}

impl<'a> BodyWalker<'a> {
    fn new(table: &'a SymbolTable, summaries: &'a [FnSummary], fn_idx: usize, emit: bool) -> Self {
        let f = &table.fns[fn_idx];
        let mut env = BTreeMap::new();
        for (i, p) in f.params.iter().enumerate().take(MAX_PARAMS) {
            env.insert(p.clone(), 1u64 << (i + 1));
        }
        BodyWalker {
            table,
            summaries,
            fn_idx,
            emit,
            env,
            ret_mask: 0,
            param_sink: 0,
            findings: Vec::new(),
        }
    }

    fn body(&self) -> &'a [Tok] {
        &self.table.fns[self.fn_idx].body
    }

    fn into_summary(self) -> FnSummary {
        let f = &self.table.fns[self.fn_idx];
        FnSummary {
            returns_wire: self.ret_mask & WIRE != 0,
            param_to_return: (0..f.params.len())
                .map(|i| i < MAX_PARAMS && self.ret_mask & (1u64 << (i + 1)) != 0)
                .collect(),
            param_to_sink: (0..f.params.len())
                .map(|i| i < MAX_PARAMS && self.param_sink & (1u64 << (i + 1)) != 0)
                .collect(),
        }
    }

    fn run(&mut self) {
        let body = self.body();
        if body.len() < 2 {
            return;
        }
        // Strip the outer braces so top-level statements sit at depth 0.
        let (lo, hi) = if body[0].text == "{" && body[body.len() - 1].text == "}" {
            (1, body.len() - 1)
        } else {
            (0, body.len())
        };
        self.walk(lo, hi, 0);
        // Trailing expression: credit its taint to the return, unless it
        // is a control-flow block (documented precision trade-off).
        if let Some((tlo, thi)) = trailing_expr(body, lo, hi) {
            let first = &body[tlo];
            let control = matches!(
                first.text.as_str(),
                "if" | "match" | "for" | "while" | "loop"
            );
            if !(first.kind == TokenKind::Ident && control) {
                // Env is already populated; sink findings are deduped.
                let m = self.walk(tlo, thi, 0);
                self.ret_mask |= m;
            }
        }
    }

    /// Walks `body[lo..hi]` as a statement-and-expression soup: handles
    /// `let`/`for`/`if let`/`while let`/`return` bindings, evaluates
    /// postfix chains, emits sink findings, and returns the union taint
    /// mask of the range (over-approximate block value).
    fn walk(&mut self, lo: usize, hi: usize, depth: usize) -> u64 {
        if depth > MAX_WALK_DEPTH {
            return 0;
        }
        let hi = hi.min(self.body().len());
        let mut acc = 0u64;
        let mut chain = 0u64;
        let mut i = lo;
        while i < hi {
            let t = &self.body()[i];
            match t.kind {
                TokenKind::Ident => match t.text.as_str() {
                    "let" => {
                        acc |= chain;
                        chain = 0;
                        let (mask, next) = self.handle_let(i, hi, depth);
                        acc |= mask;
                        i = next;
                        continue;
                    }
                    "for" => {
                        acc |= chain;
                        chain = 0;
                        i = self.handle_for(i, hi, depth);
                        continue;
                    }
                    "if" | "while" if self.peek_is(i + 1, "let") => {
                        acc |= chain;
                        chain = 0;
                        let (mask, next) = self.handle_let(i + 1, hi, depth);
                        acc |= mask;
                        i = next;
                        continue;
                    }
                    "return" => {
                        acc |= chain;
                        chain = 0;
                        let end = scan_to_semi(self.body(), i + 1, hi);
                        let m = self.walk(i + 1, end, depth + 1);
                        self.ret_mask |= m;
                        i = end + 1;
                        continue;
                    }
                    _ => {
                        if t.text == "vec" && self.peek_is(i + 1, "!") && self.peek_is(i + 2, "[") {
                            i = self.handle_vec_macro(i + 2, depth);
                            continue;
                        }
                        if let Some(open) = call_open_paren(self.body(), i) {
                            let close = match_close(self.body(), open);
                            chain = self.eval_call(i, open, close, chain, depth);
                            i = close + 1;
                            continue;
                        }
                        if let Some(&m) = self.env.get(&t.text) {
                            chain |= m;
                        }
                    }
                },
                TokenKind::Punct => match t.text.as_str() {
                    "." | "?" => {}
                    "(" | "{" => {
                        let close = match_close(self.body(), i);
                        let inner = self.walk(i + 1, close, depth + 1);
                        if t.text == "(" {
                            chain |= inner;
                        } else {
                            // Block value: union of contents.
                            acc |= chain;
                            chain = inner;
                        }
                        i = close + 1;
                        continue;
                    }
                    "[" => {
                        let postfix = i > lo
                            && (matches!(
                                self.body()[i - 1].kind,
                                TokenKind::Ident | TokenKind::Number
                            ) || matches!(self.body()[i - 1].text.as_str(), ")" | "]"));
                        let close = match_close(self.body(), i);
                        let inner = self.walk(i + 1, close, depth + 1);
                        if postfix {
                            self.sink(inner, self.body()[i].line, "slice index");
                        } else {
                            acc |= chain;
                            chain = inner;
                        }
                        i = close + 1;
                        continue;
                    }
                    _ => {
                        acc |= chain;
                        chain = 0;
                    }
                },
                _ => {
                    acc |= chain;
                    chain = 0;
                }
            }
            i += 1;
        }
        acc | chain
    }

    fn peek_is(&self, i: usize, text: &str) -> bool {
        self.body().get(i).is_some_and(|t| t.text == text)
    }

    /// `let PAT = EXPR ;` (also reached from `if let` / `while let`).
    /// Returns `(mask of the initializer, index to resume from)`.
    fn handle_let(&mut self, let_idx: usize, hi: usize, depth: usize) -> (u64, usize) {
        let body = self.body();
        let Some(eq) = find_eq(body, let_idx + 1, hi) else {
            return (0, let_idx + 1);
        };
        let names = pattern_names(&body[let_idx + 1..eq]);
        let end = init_expr_end(body, eq + 1, hi);
        let mask = self.walk(eq + 1, end, depth + 1);
        for n in names {
            *self.env.entry(n).or_insert(0) |= mask;
        }
        (mask, end)
    }

    /// `for PAT in EXPR {` — the pattern binds element taint of EXPR.
    /// Returns the index of the loop-body `{` (the walk loop then
    /// descends into it).
    fn handle_for(&mut self, for_idx: usize, hi: usize, depth: usize) -> usize {
        let body = self.body();
        let mut j = for_idx + 1;
        let mut d = 0i64;
        while j < hi {
            match body[j].text.as_str() {
                "(" | "[" => d += 1,
                ")" | "]" => d -= 1,
                "in" if d == 0 && body[j].kind == TokenKind::Ident => break,
                "{" | ";" => return for_idx + 1,
                _ => {}
            }
            j += 1;
        }
        if j >= hi {
            return for_idx + 1;
        }
        let names = pattern_names(&body[for_idx + 1..j]);
        let end = init_expr_end(body, j + 1, hi);
        let mask = self.walk(j + 1, end, depth + 1);
        for n in names {
            *self.env.entry(n).or_insert(0) |= mask;
        }
        end
    }

    /// A call `name(args)` / `name::<T>(args)` at `name_idx`; returns
    /// the new chain mask.
    fn eval_call(
        &mut self,
        name_idx: usize,
        open: usize,
        close: usize,
        chain: u64,
        depth: usize,
    ) -> u64 {
        let name = self.body()[name_idx].text.clone();
        let line = self.body()[name_idx].line;
        let args = split_args(self.body(), open, close);
        let arg_masks: Vec<u64> = args
            .iter()
            .map(|&(alo, ahi)| self.walk(alo, ahi, depth + 1))
            .collect();
        if TAINT_SANITIZERS.contains(&name.as_str()) {
            // A sanitizer cleanses a bare variable it validates, so the
            // `validate_frame_len(len)?; vec![0u8; len]` pattern passes.
            for &(alo, ahi) in &args {
                if ahi == alo + 1 && self.body()[alo].kind == TokenKind::Ident {
                    let var = self.body()[alo].text.clone();
                    self.env.remove(&var);
                }
            }
            return 0;
        }
        if TAINT_SOURCES.contains(&name.as_str()) {
            return chain | WIRE;
        }
        if TAINT_SINKS.contains(&name.as_str()) {
            if let Some(&m) = arg_masks.first() {
                self.sink(m, line, &format!("`{name}` size argument"));
            }
            return 0;
        }
        // Workspace functions: use summaries; unknown calls propagate
        // the union of receiver and argument taint.
        let candidates = self.table.fns_named(&name);
        if candidates.is_empty() {
            return chain | arg_masks.iter().fold(0, |a, &m| a | m);
        }
        let mut result = 0u64;
        for &c in candidates {
            let s = &self.summaries[c];
            if s.returns_wire {
                result |= WIRE;
            }
            for (i, &m) in arg_masks.iter().enumerate() {
                if s.param_to_return.get(i).copied().unwrap_or(false) {
                    result |= m;
                }
                if s.param_to_sink.get(i).copied().unwrap_or(false) {
                    self.sink(
                        m,
                        line,
                        &format!("argument {i} of `{name}` (reaches a sink inside it)"),
                    );
                }
            }
        }
        result
    }

    /// `vec![elem; len]` starting at the `[`; checks the repeat length.
    fn handle_vec_macro(&mut self, open: usize, depth: usize) -> usize {
        let close = match_close(self.body(), open);
        let mut semi = None;
        let mut d = 0i64;
        for j in open + 1..close {
            match self.body()[j].text.as_str() {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => d -= 1,
                ";" if d == 0 => {
                    semi = Some(j);
                    break;
                }
                _ => {}
            }
        }
        if let Some(s) = semi {
            self.walk(open + 1, s, depth + 1);
            let m = self.walk(s + 1, close, depth + 1);
            self.sink(m, self.body()[open].line, "`vec![…; len]` repeat length");
        } else {
            self.walk(open + 1, close, depth + 1);
        }
        close + 1
    }

    /// Records a sink hit: wire taint is a finding; parameter taint is
    /// folded into this function's summary for callers to check.
    fn sink(&mut self, mask: u64, line: u32, what: &str) {
        self.param_sink |= mask & !WIRE;
        if self.emit && mask & WIRE != 0 {
            let f = &self.table.fns[self.fn_idx];
            self.findings.push(TaintFinding {
                file: f.file.clone(),
                line,
                message: format!(
                    "wire-tainted value flows into {what} in `{}`; pass it through a \
                     bounds-checked ca-codec decode or validate/clamp it first",
                    f.qualified
                ),
            });
        }
    }
}

/// Lowercase-leading idents in a binding pattern (skips constructors
/// like `Some`, types after `:`, and pattern noise words).
pub(crate) fn pattern_names(pat: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    let mut after_colon = false;
    for t in pat {
        match t.kind {
            TokenKind::Punct => {
                if t.text == ":" {
                    after_colon = true;
                } else if matches!(t.text.as_str(), "," | "(" | ")" | "|") {
                    after_colon = false;
                }
            }
            TokenKind::Ident if !after_colon => {
                let first = t.text.chars().next().unwrap_or('_');
                if first.is_ascii_lowercase()
                    && !PATTERN_NOISE.contains(&t.text.as_str())
                    && !names.contains(&t.text)
                {
                    names.push(t.text.clone());
                }
            }
            _ => {}
        }
    }
    names
}

/// First `=` in `body[from..hi]` at bracket depth 0 that is an
/// assignment (not `==`, `<=`, `>=`, `!=`, `=>`, or a compound op).
fn find_eq(body: &[Tok], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = from;
    while j < hi.min(body.len()) {
        match body[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | "}" | ";" => return None,
            "=" if depth == 0 => {
                let prev_ok = j == from
                    || !matches!(
                        body[j - 1].text.as_str(),
                        "=" | "<" | ">" | "!" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
                    );
                let next_ok = body
                    .get(j + 1)
                    .is_none_or(|n| n.text != "=" && n.text != ">");
                if prev_ok && next_ok {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// End of an initializer expression starting at `from`: the first `;`
/// at full bracket depth 0, or a `{` at depth 0 that is *preceded by a
/// plain token* (the body of `if let` / `while let` / `for`). Block
/// expressions (`{`, `match x {`, closures inside parens) are crossed
/// because they either start the expression or sit at depth > 0.
fn init_expr_end(body: &[Tok], from: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    let mut j = from;
    while j < hi.min(body.len()) {
        match body[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            "{" => {
                // `match x {` / `S {` continue the expression; a `{`
                // right after the scrutinee of `if let`/`while let`
                // also lands here — treat a first-token `{` as part of
                // the expression, otherwise stop only when the previous
                // token can END an expression (ident/literal/`)`/`]`),
                // i.e. the `{` opens a statement body.
                let struct_like = j == from
                    || matches!(body[j - 1].text.as_str(), "=" | "match" | "," | "(" | "[");
                if struct_like || depth > 0 {
                    depth += 1;
                } else {
                    return j;
                }
            }
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    hi.min(body.len())
}

/// Next `;` at bracket depth 0 in `body[from..hi]` (or `hi`).
fn scan_to_semi(body: &[Tok], from: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    let mut j = from;
    while j < hi.min(body.len()) {
        match body[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    hi.min(body.len())
}

/// Trailing expression of the brace-stripped body range `[lo, hi)`:
/// everything after the last `;` or top-level block statement. A block
/// statement (`if … { … }`, `for … { … }`, a bare `{ … }`) needs no `;`:
/// its closing brace ends it unless an `else` continues it.
fn trailing_expr(body: &[Tok], lo: usize, hi: usize) -> Option<(usize, usize)> {
    let hi = hi.min(body.len());
    let mut depth = 0i64;
    let mut start = lo;
    for j in lo..hi {
        match body[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                let block_statement = matches!(
                    body[start].text.as_str(),
                    "if" | "match" | "for" | "while" | "loop" | "unsafe" | "{"
                );
                let continued = body.get(j + 1).is_some_and(|t| t.text == "else");
                if depth == 0 && block_statement && !continued {
                    start = j + 1;
                }
            }
            ";" if depth == 0 => start = j + 1,
            _ => {}
        }
    }
    (start < hi && depth == 0).then_some((start, hi))
}

/// Splits the arguments of a call (`open`/`close` are the parens) at
/// top-level commas, returning half-open token ranges.
fn split_args(body: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    if close <= open + 1 {
        return out;
    }
    let mut depth = 0i64;
    let mut start = open + 1;
    let hi = close.min(body.len());
    for (j, t) in body.iter().enumerate().take(hi).skip(open + 1) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::{SourceFile, SymbolTable};

    fn run(src: &str) -> Vec<TaintFinding> {
        let table = SymbolTable::build(&[SourceFile {
            crate_name: "ca-core".into(),
            path: "t.rs".into(),
            src: src.into(),
        }]);
        analyze_taint(&table, &|f| !f.is_test)
    }

    #[test]
    fn tainted_with_capacity_flagged() {
        let f = run("fn go(ctx: &mut C) { let inbox = ctx.next_round(); let n = inbox.count; let v = Vec::with_capacity(n); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("with_capacity"));
    }

    #[test]
    fn decode_sanitizes() {
        let f = run("fn go(ctx: &mut C) { let inbox = ctx.next_round(); for m in inbox.decode_each::<u64>() { use_it(m); } }\nfn use_it(_m: u64) {}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn validate_statement_cleanses_variable() {
        let f = run("fn go() { let len = u32::from_be_bytes(b); validate_frame_len(len); let v = vec![0u8; len]; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unvalidated_vec_repeat_flagged() {
        let f = run("fn go() { let len = u32::from_be_bytes(b); let v = vec![0u8; len]; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("repeat length"));
    }

    #[test]
    fn interprocedural_param_to_sink() {
        let f = run("fn top(ctx: &mut C) { let inbox = ctx.next_round(); alloc(inbox.n); }\nfn alloc(n: usize) { let v = Vec::with_capacity(n); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("alloc"));
    }

    #[test]
    fn interprocedural_returned_taint() {
        let f = run("fn top() { let n = read_len(); let v = Vec::with_capacity(n); }\nfn read_len() -> usize { let x = u32::from_be_bytes(b); x }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    /// A block statement ends the statement before the tail; an `else`
    /// keeps an `if` chain one control-flow tail, which stays uncredited.
    #[test]
    fn tail_after_a_block_statement_is_credited_and_an_else_chain_is_not() {
        let top = "fn top() { let n = read_len(); let v = Vec::with_capacity(n); }\n";
        let after_if =
            "fn read_len() -> usize { let x = u32::from_be_bytes(b); if x > 9 { log(); } x }";
        assert_eq!(run(&format!("{top}{after_if}")).len(), 1);
        let chain =
            "fn read_len() -> usize { let x = u32::from_be_bytes(b); if x > 9 { 9 } else { x } }";
        assert_eq!(run(&format!("{top}{chain}")).len(), 0);
    }

    #[test]
    fn tainted_slice_index_flagged() {
        let f = run("fn go(buf: &[u8]) { let i = u32::from_be_bytes(b); let x = buf[i]; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("slice index"));
    }

    #[test]
    fn min_clamp_expression_sanitizes() {
        let f = run(
            "fn go() { let n = u32::from_be_bytes(b); let v = Vec::with_capacity(n.min(64)); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn clean_code_clean() {
        let f = run("fn go(n: usize) { let v = Vec::with_capacity(n); let w = vec![0u8; 16]; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn for_loop_binding_propagates() {
        let f = run("fn go(ctx: &mut C) { let inbox = ctx.next_round(); for raw in inbox.raw_from(p) { let v = Vec::with_capacity(raw.field); } }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn closure_body_bindings_tracked() {
        // The pi_n shape: the protocol body lives inside a closure
        // passed to `scoped`.
        let f = run("fn go(ctx: &mut C) { ctx.scoped(\"s\", |ctx| { let inbox = ctx.next_round(); let v = Vec::with_capacity(inbox.n); }) }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let f = run("#[cfg(test)]\nmod tests {\n fn go() { let n = u32::from_be_bytes(b); let v = Vec::with_capacity(n); }\n}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn deterministic_across_runs() {
        let src = "fn a(ctx: &mut C) { let i = ctx.next_round(); s(i.n); }\nfn s(n: usize) { let v = Vec::with_capacity(n); }";
        let f1: Vec<String> = run(src).into_iter().map(|f| f.message).collect();
        let f2: Vec<String> = run(src).into_iter().map(|f| f.message).collect();
        assert_eq!(f1, f2);
        assert!(!f1.is_empty());
    }
}

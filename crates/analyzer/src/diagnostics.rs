//! Diagnostics: rendering (human and JSON), and the
//! `// ca-lint: allow(<rule>)` suppression pragma.

use crate::lexer::{Token, TokenKind};

/// One finding at a file:line location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule that produced the finding (e.g. `wire-taint`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line, or 0 for a finding with no line (a baselined send
    /// site that vanished).
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// `file:line: error [rule] message` — the human format (`file:`
    /// alone when there is no line).
    #[must_use]
    pub fn render_human(&self) -> String {
        let at = match self.line {
            0 => self.file.clone(),
            line => format!("{}:{line}", self.file),
        };
        format!("{at}: error [{}] {}", self.rule, self.message)
    }

    /// One JSON object (used by `--emit json`).
    #[must_use]
    pub fn render_json(&self) -> String {
        format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_str(&self.file),
            self.line,
            json_str(self.rule),
            json_str(&self.message)
        )
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Suppressions parsed from `// ca-lint: allow(rule, …)` comments.
///
/// Placement determines exactly one target line — a pragma never covers
/// two lines:
///
/// - **Standalone** (the comment is the first thing on its line):
///   suppresses findings on the *next* line only, so it sits above the
///   code it justifies.
/// - **Trailing** (code precedes the comment on the same line):
///   suppresses findings on *its own* line only.
///
/// A `//! ca-lint: allow(rule)` inner doc comment suppresses the rule
/// for the whole file.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// (rule, target line) pairs that are suppressed.
    line_allows: Vec<(String, u32)>,
    /// Rules suppressed for the entire file.
    file_allows: Vec<String>,
}

impl Suppressions {
    /// Scans the token stream for pragmas.
    #[must_use]
    pub fn collect(tokens: &[Token<'_>]) -> Self {
        let mut out = Self::default();
        let mut last_code_line = 0u32;
        for tok in tokens {
            if tok.kind != TokenKind::LineComment && tok.kind != TokenKind::BlockComment {
                last_code_line = tok.line;
                continue;
            }
            let Some(rules) = parse_pragma(tok.text) else {
                continue;
            };
            let file_wide = tok.text.starts_with("//!");
            // Trailing pragmas share a line with code; standalone ones
            // lead their line and apply to the following line instead.
            let target = if last_code_line == tok.line {
                tok.line
            } else {
                tok.line.saturating_add(1)
            };
            for rule in rules {
                if file_wide {
                    out.file_allows.push(rule);
                } else {
                    out.line_allows.push((rule, target));
                }
            }
        }
        out
    }

    /// Whether a finding of `rule` on `line` is suppressed.
    #[must_use]
    pub fn allows(&self, rule: &str, line: u32) -> bool {
        self.file_allows.iter().any(|r| r == rule)
            || self
                .line_allows
                .iter()
                .any(|(r, l)| r == rule && *l == line)
    }
}

/// Parses `ca-lint: allow(a, b)` out of a comment, returning the rule
/// names, or `None` if the comment is not a pragma.
fn parse_pragma(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("ca-lint:")?;
    let rest = comment[idx + "ca-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let rules: Vec<String> = inner[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn standalone_pragma_suppresses_next_line_only() {
        let src =
            "// ca-lint: allow(wire-taint) — len checked above\nlet x = Vec::with_capacity(len);\n";
        let sup = Suppressions::collect(&lex(src));
        assert!(!sup.allows("wire-taint", 1));
        assert!(sup.allows("wire-taint", 2));
        assert!(!sup.allows("wire-taint", 3));
        assert!(!sup.allows("concurrency-discipline", 2));
    }

    #[test]
    fn trailing_pragma_suppresses_its_own_line_only() {
        let src = "let a = 0;\nlet x = v.unwrap(); // ca-lint: allow(wire-taint) — invariant\nlet y = w.unwrap();\n";
        let sup = Suppressions::collect(&lex(src));
        assert!(sup.allows("wire-taint", 2));
        assert!(!sup.allows("wire-taint", 3));
    }

    #[test]
    fn pragma_never_leaks_two_lines_down() {
        // Regression: the old semantics accepted L or L+1 for every
        // pragma, letting a trailing pragma leak to the line below it.
        let src = "let x = v.unwrap(); // ca-lint: allow(wire-taint)\nlet y = w.unwrap();\nlet z = u.unwrap();\n";
        let sup = Suppressions::collect(&lex(src));
        assert!(sup.allows("wire-taint", 1));
        assert!(!sup.allows("wire-taint", 2));
        assert!(!sup.allows("wire-taint", 3));
    }

    #[test]
    fn file_level_pragma() {
        let src =
            "//! ca-lint: allow(concurrency-discipline) — this file owns one lock\nfn f() {}\n";
        let sup = Suppressions::collect(&lex(src));
        assert!(sup.allows("concurrency-discipline", 999));
    }

    #[test]
    fn multi_rule_pragma() {
        let src = "// ca-lint: allow(wire-taint, concurrency-discipline)\nx\n";
        let sup = Suppressions::collect(&lex(src));
        assert!(sup.allows("wire-taint", 2));
        assert!(sup.allows("concurrency-discipline", 2));
    }

    #[test]
    fn non_pragma_comments_ignored() {
        let sup = Suppressions::collect(&lex("// ordinary comment\n"));
        assert!(!sup.allows("wire-taint", 1));
    }

    #[test]
    fn json_rendering_escapes() {
        let d = Diagnostic {
            rule: "wire-taint",
            file: "a\"b.rs".into(),
            line: 3,
            message: "msg".into(),
        };
        assert!(d.render_json().contains("a\\\"b.rs"));
        assert!(d.render_human().contains("error [wire-taint]"));
    }
}

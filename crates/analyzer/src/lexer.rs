//! A hand-rolled Rust lexer: just enough fidelity for line-accurate
//! static analysis.
//!
//! The lexer understands comments (line, block, nested block, doc),
//! string-ish literals (`"…"`, `r#"…"#`, `b"…"`, `'c'`), lifetimes vs.
//! char literals, raw identifiers, and numeric literals. Everything else
//! is a one-character punctuation token. That is sufficient to make the
//! analyzer's passes immune to the classic false-positive sources: code
//! mentioned inside comments, doc examples, and string literals.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// Lifetime such as `'a` (not a char literal).
    Lifetime,
    /// Integer or float literal, including suffixes.
    Number,
    /// String, raw string, byte string, byte, or char literal.
    Literal,
    /// `//…` comment (including `///` and `//!` doc comments).
    LineComment,
    /// `/* … */` comment (nesting handled).
    BlockComment,
    /// Any other single character (`{`, `(`, `!`, `#`, …).
    Punct,
}

/// One token with its 1-indexed source line.
#[derive(Debug, Clone)]
pub struct Token<'src> {
    /// Token kind.
    pub kind: TokenKind,
    /// Exact source text of the token.
    pub text: &'src str,
    /// 1-indexed line on which the token starts.
    pub line: u32,
}

impl Token<'_> {
    /// Whether this token is trivia (a comment).
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Lexes `src` into tokens. Never fails: unterminated constructs are
/// closed at end of input, which is the right behavior for an analyzer
/// that must not panic on malformed input.
#[must_use]
pub fn lex(src: &str) -> Vec<Token<'_>> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
    line: u32,
    out: Vec<Token<'src>>,
}

impl<'src> Lexer<'src> {
    fn run(mut self) -> Vec<Token<'src>> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let line = self.line;
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => {
                    self.consume_line_comment();
                    self.push(TokenKind::LineComment, start, line);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.consume_block_comment();
                    self.push(TokenKind::BlockComment, start, line);
                }
                b'r' | b'b' if self.is_raw_string_start() => {
                    self.consume_raw_string();
                    self.push(TokenKind::Literal, start, line);
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.pos += 1;
                    self.consume_quoted(b'"');
                    self.push(TokenKind::Literal, start, line);
                }
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.pos += 1;
                    self.consume_quoted(b'\'');
                    self.push(TokenKind::Literal, start, line);
                }
                b'"' => {
                    self.consume_quoted(b'"');
                    self.push(TokenKind::Literal, start, line);
                }
                b'\'' => {
                    if self.is_lifetime() {
                        self.pos += 1;
                        self.consume_ident_body();
                        self.push(TokenKind::Lifetime, start, line);
                    } else {
                        self.consume_quoted(b'\'');
                        self.push(TokenKind::Literal, start, line);
                    }
                }
                _ if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 => {
                    // `r#ident` raw identifiers arrive here via the `r`.
                    if b == b'r' && self.peek(1) == Some(b'#') && self.ident_at(self.pos + 2) {
                        self.pos += 2;
                    }
                    self.consume_ident_body();
                    self.push(TokenKind::Ident, start, line);
                }
                _ if b.is_ascii_digit() => {
                    self.consume_number();
                    self.push(TokenKind::Number, start, line);
                }
                _ => {
                    self.pos += 1;
                    self.push(TokenKind::Punct, start, line);
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn ident_at(&self, pos: usize) -> bool {
        self.bytes
            .get(pos)
            .is_some_and(|&b| b == b'_' || b.is_ascii_alphabetic() || b >= 0x80)
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        self.out.push(Token {
            kind,
            text: &self.src[start..self.pos],
            line,
        });
    }

    fn consume_line_comment(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    fn consume_block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1u32;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.bytes[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.bytes[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                if self.bytes[self.pos] == b'\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
        }
    }

    /// `r"`, `r#"`, `br"`, `br#"` … (any number of `#`).
    fn is_raw_string_start(&self) -> bool {
        let mut i = self.pos;
        if self.bytes[i] == b'b' {
            i += 1;
        }
        if self.bytes.get(i) != Some(&b'r') {
            return false;
        }
        i += 1;
        while self.bytes.get(i) == Some(&b'#') {
            i += 1;
        }
        self.bytes.get(i) == Some(&b'"')
    }

    fn consume_raw_string(&mut self) {
        if self.bytes[self.pos] == b'b' {
            self.pos += 1;
        }
        self.pos += 1; // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'"') => {
                    let mut i = self.pos + 1;
                    let mut seen = 0usize;
                    while seen < hashes && self.bytes.get(i) == Some(&b'#') {
                        seen += 1;
                        i += 1;
                    }
                    self.pos = if seen == hashes { i } else { self.pos + 1 };
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn consume_quoted(&mut self, quote: u8) {
        self.pos += 1; // opening quote
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.pos += 2,
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if b == quote => {
                    self.pos += 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// `'` starts a lifetime when followed by an identifier that is not
    /// immediately closed by another `'` (which would be a char literal
    /// like `'a'`).
    fn is_lifetime(&self) -> bool {
        if !self.ident_at(self.pos + 1) {
            return false;
        }
        let mut i = self.pos + 1;
        while self
            .bytes
            .get(i)
            .is_some_and(|&b| b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80)
        {
            i += 1;
        }
        self.bytes.get(i) != Some(&b'\'')
    }

    fn consume_ident_body(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80)
        {
            self.pos += 1;
        }
    }

    /// Numbers: digits plus `.`, `_`, exponent chars, and type suffixes.
    /// Deliberately loose — the analyzer only needs token boundaries.
    fn consume_number(&mut self) {
        while let Some(b) = self.peek(0) {
            let cont = b.is_ascii_alphanumeric()
                || b == b'_'
                || (b == b'.' && self.peek(1).is_some_and(|n| n.is_ascii_digit()));
            if !cont {
                break;
            }
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let x = a.unwrap();");
        assert!(toks.contains(&(TokenKind::Ident, "unwrap")));
        assert!(toks.contains(&(TokenKind::Punct, ";")));
    }

    #[test]
    fn comments_are_trivia_not_code() {
        let toks = lex("// x.unwrap()\nlet y = 1; /* panic!() */");
        let code_idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(code_idents, vec!["let", "y"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = lex("let s = \"x.unwrap()\";");
        assert!(!toks.iter().any(|t| t.text == "unwrap"));
        let toks = lex("let b = b\"panic!()\";");
        assert!(!toks.iter().any(|t| t.text == "panic"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = "let s = r#\"quote \" inside\"#; end";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.text == "end"));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Literal));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'b'; }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "'b'"));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn multiline_block_comment_advances_lines() {
        let toks = lex("/* line1\nline2 */ after");
        let after = toks.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 2);
    }

    #[test]
    fn escaped_quote_in_char() {
        let toks = lex(r"let q = '\''; let l = 1;");
        assert!(toks.iter().any(|t| t.text == "l"));
    }

    #[test]
    fn unterminated_string_does_not_hang() {
        let toks = lex("let s = \"unterminated");
        assert!(!toks.is_empty());
    }

    #[test]
    fn raw_idents() {
        let toks = lex("let r#type = 1;");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "r#type"));
    }
}

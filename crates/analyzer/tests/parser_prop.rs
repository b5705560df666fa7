//! Robustness properties for the front end: the lexer, the
//! `#[cfg(test)]` mask and the item parser must never panic on arbitrary
//! input, and must be deterministic — the same bytes always produce the
//! same functions. Code is mid-edit more often than not, so "malformed
//! input" is the common case, not the edge case.

use ca_analyzer::engine::mask_cfg_test;
use ca_analyzer::lexer::lex;
use ca_analyzer::parser::{parse_fns, FnDecl};
use proptest::prelude::*;

/// Tokens that stress the parser's bracket matching, annotation
/// scanning, and statement boundaries when shuffled into soup.
const SOUP: &[&str] = &[
    "fn",
    "impl",
    "struct",
    "pub",
    "let",
    "mut",
    "if",
    "else",
    "match",
    "for",
    "in",
    "while",
    "loop",
    "return",
    "move",
    "unsafe",
    "where",
    "self",
    "Self",
    "dyn",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "<",
    ">",
    "::",
    ":",
    ";",
    ",",
    ".",
    "=",
    "=>",
    "->",
    "&",
    "&mut",
    "?",
    "#",
    "!",
    "'a",
    "..",
    "...",
    "0",
    "1",
    "0xff",
    "\"lit\"",
    "\"",
    "'",
    "//",
    "/*",
    "*/",
    "///",
    "//!",
    "// ca-lint: allow(wire-taint)",
    "ctx",
    "send",
    "send_all",
    "send_bytes",
    "exchange",
    "next_round",
    "scoped",
    "lock",
    "read",
    "write",
    "drop",
    "with_capacity",
    "vec",
    "from_be_bytes",
    "decode_from_slice",
    "x",
    "y",
    "foo",
    "Vec",
    "u32",
];

fn parse(src: &str) -> Vec<FnDecl> {
    let tokens = lex(src);
    let masked = mask_cfg_test(&tokens);
    parse_fns(&tokens, &masked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (lossily decoded to UTF-8) never panic the
    /// lexer → mask → parser stack, and two runs over the same bytes
    /// agree exactly.
    #[test]
    fn byte_fuzz_never_panics_and_is_deterministic(
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let src = String::from_utf8_lossy(&data).into_owned();
        prop_assert_eq!(parse(&src), parse(&src));
    }

    /// Rust-shaped token soup — unbalanced brackets, stray pragmas,
    /// half-open strings and comments — never panics and stays
    /// deterministic. This hits the item parser's recovery paths far
    /// harder than raw bytes do.
    #[test]
    fn token_soup_never_panics_and_is_deterministic(
        picks in proptest::collection::vec(0..SOUP.len(), 0..128),
        newlines in proptest::collection::vec(any::<bool>(), 0..128),
    ) {
        let mut src = String::new();
        for (i, &p) in picks.iter().enumerate() {
            src.push_str(SOUP[p]);
            src.push(if newlines.get(i).copied().unwrap_or(false) { '\n' } else { ' ' });
        }
        prop_assert_eq!(parse(&src), parse(&src));
    }

    /// A fn item buried in hostile surroundings is still found, and the
    /// prefix/suffix garbage never changes whether it parses.
    #[test]
    fn embedded_item_survives_garbage(
        prefix in proptest::collection::vec(0..SOUP.len(), 0..32),
        suffix in proptest::collection::vec(0..SOUP.len(), 0..32),
    ) {
        let mut src = String::new();
        for &p in &prefix {
            // A lone quote or `/*` opens a region whose end the static
            // recovery text below cannot guarantee; everything else is
            // bounded (line comments end at the recovery newline).
            if matches!(SOUP[p], "\"" | "'" | "/*") {
                continue;
            }
            src.push_str(SOUP[p]);
            src.push(' ');
        }
        // Close anything the garbage opened (the prefix holds at most 32
        // tokens, so 33 of each closer guarantees balance), then start
        // clean.
        src.push('\n');
        for _ in 0..33 {
            src.push_str(") ] } ");
        }
        src.push('\n');
        src.push_str("pub fn anchor_fn_for_prop(x: usize) -> usize { x + 1 }\n");
        for &p in &suffix {
            src.push_str(SOUP[p]);
            src.push(' ');
        }
        let fns = parse(&src);
        prop_assert!(
            fns.iter().any(|f| f.name == "anchor_fn_for_prop"),
            "anchor fn lost among {} parsed fns",
            fns.len()
        );
    }
}

//! Source classification: masks `#[cfg(test)]` modules for the parser,
//! tells test paths from the rest, and reads a manifest's package name.

use crate::lexer::{Token, TokenKind};

/// Marks tokens inside `#[cfg(test)] mod … { … }` blocks, so the
/// parser can tell unit tests from the code they test.
#[must_use]
pub fn mask_cfg_test(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut masked = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut c = 0usize;
    while c < code.len() {
        if !is_cfg_test_attr(tokens, &code, c) {
            c += 1;
            continue;
        }
        // `#[cfg(test)]` spans 6 significant tokens: # [ cfg ( test ) ].
        let after_attr = c + 7;
        // Skip any further attributes, then expect `mod name {`.
        let mut m = after_attr;
        while m < code.len() && tokens[code[m]].text == "#" {
            // Skip a balanced `#[ … ]`.
            m += 1;
            if m < code.len() && tokens[code[m]].text == "[" {
                let mut depth = 0i32;
                while m < code.len() {
                    match tokens[code[m]].text {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                m += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
            }
        }
        let is_mod = m < code.len()
            && tokens[code[m]].text == "mod"
            && code
                .get(m + 1)
                .is_some_and(|&i| tokens[i].kind == TokenKind::Ident)
            && code.get(m + 2).is_some_and(|&i| tokens[i].text == "{");
        if !is_mod {
            c += 1;
            continue;
        }
        // Mask from the attribute through the matching close brace.
        let open = m + 2;
        let mut depth = 0i32;
        let mut end = open;
        while end < code.len() {
            match tokens[code[end]].text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        for &ti in &code[c..=end.min(code.len() - 1)] {
            masked[ti] = true;
        }
        c = end + 1;
    }
    masked
}

fn is_cfg_test_attr(tokens: &[Token<'_>], code: &[usize], c: usize) -> bool {
    let texts: Vec<&str> = code[c..].iter().take(7).map(|&i| tokens[i].text).collect();
    texts == ["#", "[", "cfg", "(", "test", ")", "]"]
}

/// Whether a workspace-relative path is test/bench/example code.
#[must_use]
pub fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Extracts `name = "…"` from the `[package]` section of a manifest.
pub fn parse_package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_owned());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn b() { y.unwrap(); }\n}\nfn c() { z.unwrap(); }\n";
        let tokens = lex(src);
        let masked = mask_cfg_test(&tokens);
        let unwraps: Vec<bool> = tokens
            .iter()
            .zip(&masked)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![false, true, false]);
    }

    #[test]
    fn cfg_test_with_extra_attribute() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn b() { y.unwrap(); } }\n";
        let tokens = lex(src);
        let masked = mask_cfg_test(&tokens);
        let idx = tokens.iter().position(|t| t.text == "unwrap").unwrap();
        assert!(masked[idx]);
    }

    #[test]
    fn cfg_test_fn_attribute_does_not_mask_rest_of_file() {
        // `#[cfg(test)]` on a non-mod item: nothing is masked, and the
        // scan continues past it.
        let src = "#[cfg(test)]\nfn helper() {}\nfn real() { x.unwrap(); }\n";
        let tokens = lex(src);
        let masked = mask_cfg_test(&tokens);
        let idx = tokens.iter().position(|t| t.text == "unwrap").unwrap();
        assert!(!masked[idx]);
    }

    #[test]
    fn test_paths_classified() {
        assert!(is_test_path("crates/codec/tests/prop.rs"));
        assert!(is_test_path("crates/bench/benches/t5.rs"));
        assert!(!is_test_path("crates/codec/src/lib.rs"));
    }

    #[test]
    fn package_name_parsing() {
        let manifest = "[package]\nname = \"ca-codec\"\nversion = \"0.1.0\"\n\n[dependencies]\nname = \"decoy\"\n";
        assert_eq!(parse_package_name(manifest).as_deref(), Some("ca-codec"));
    }
}

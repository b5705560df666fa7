#!/usr/bin/env bash
# The lint canary: compiles scripts/lint-canary.rs as a crate outside the
# workspace under the real lint configuration — the root Cargo.toml's
# [workspace.lints.*] tables, ca-codec's crate-root `#![deny(...)]` line,
# and the root clippy.toml, which clippy finds by walking up — and fails
# unless clippy reports exactly the lints on its `// expect:` lines.
#
# Usage: scripts/lint-canary.sh
set -euo pipefail
cd "$(dirname "$0")/.."

crate=target/lint-canary
rm -rf "$crate"
mkdir -p "$crate/src"
{
    printf '[package]\nname = "lint-canary"\nversion = "0.0.0"\nedition = "2021"\n'
    printf '[lints]\nworkspace = true\n[workspace]\n'
    awk '/^\[/ { keep = /^\[workspace\.lints\./ } keep' Cargo.toml
} >"$crate/Cargo.toml"
sed -n '/^#!\[deny(/,/)\]$/p' crates/codec/src/lib.rs | cat - scripts/lint-canary.rs >"$crate/src/lib.rs"

# One line per lint reported; a disallowed_* lint also names the path.
found="$(cargo clippy --offline --quiet --manifest-path "$crate/Cargo.toml" \
    --message-format=json 2>/dev/null \
    | sed -nE 's/.*"message":"([^"]*)","spans".*"code":\{"code":"([^"]*)".*/\2 \1/p' \
    | sed -E 's/^(clippy::disallowed_[a-z]+) [^`]*`([^`]*)`.*/\1 \2/; t; s/ .*//' \
    | sort -u)" || true
expected="$(sed -n 's|^// expect: ||p' scripts/lint-canary.rs | sort -u)"
if [[ "$found" != "$expected" ]]; then
    echo "lint canary: clippy did not report exactly the expected lints (< expected, > found)"
    diff <(echo "$expected") <(echo "$found") || true
    exit 1
fi
echo "lint canary: all $(wc -l <<<"$expected") expected lints fire"

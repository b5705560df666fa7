#!/usr/bin/env bash
# Regenerates analyzer-baseline.json — the committed table of every wire
# send site (crate × function × helper × round scope) that check.sh
# stage 9 diffs against.
#
# Run this when a send site is intentionally added, removed, or moved to
# a different scope, and commit the result TOGETHER with the protocol
# change and an updated cost justification in EXPERIMENTS.md: the whole
# point of the gate is that communication-cost changes are reviewed, not
# silent.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --offline -q -p ca-analyzer -- --write-baseline analyzer-baseline.json
git --no-pager diff --stat -- analyzer-baseline.json || true
echo "update-baseline.sh: wrote analyzer-baseline.json (review the diff before committing)"

#!/usr/bin/env bash
# One command: build the benchmark, run every workload in a process of its
# own (untraced for the end-to-end numbers, then traced for the per-layer
# ones, then the probes), check every output, print every metric as
# `workload metric value unit`, and write benchmark/out/results.json.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--runs K] [--smoke | --traced]
#
# Exits non-zero if any decision failed its check.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ca-benchmark" all "$@"

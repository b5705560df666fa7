#!/usr/bin/env bash
# Workspace quality gate, in escalating strictness:
#
#   1. rustfmt       — formatting drift
#   2. clippy        — Rust lints plus the protocol-soundness ones, warnings
#                      denied: no panic/unwrap/indexing/truncating cast on
#                      a message path, no HashMap or wall clock in replayed
#                      code, no unbounded channel, no stdout/stderr in
#                      protocol crates, no unsafe (root Cargo.toml
#                      [workspace.lints], clippy.toml, and the message
#                      crates' `#![deny(...)]` line; DESIGN.md §6)
#   3. lint canary   — scripts/lint-canary.sh: a crate outside the workspace
#                      with one violation per lint, checked under that same
#                      configuration, must report exactly the expected lints,
#                      so a lint dropped from the configuration fails here
#   4. cargo test    — unit + property + integration tests, whole workspace,
#                      under a 30-minute bound so a hang fails the stage.
#                      Every test binary runs here and only here (the
#                      NullSink guard, TCP chaos, fast-path conformance and
#                      async chaos suites included); the smoke stages below
#                      gate artifacts, not tests.
#   5. trace smoke   — a real traced experiment run must produce artifacts
#                      that pass `ca-trace check`. The seven --quick
#                      experiments behind stages 5–8 and 10 run here, once;
#                      T1, F3, E1, A1 and AS1 are exact units only (bits,
#                      rounds, virtual time), so their fresh BENCH files
#                      must equal the ones committed at the repo root — a
#                      changed number without the artifact updated in the
#                      same commit fails the gate. These per-scope bits are
#                      the communication-cost gate: a new, moved or dropped
#                      send in any protocol an experiment runs (pi_n, pi_z,
#                      pi_n_adaptive, broadcast_ca, high_cost_ca,
#                      approx_agreement, the engine) changes one of them
#   6. engine smoke  — the multi-tenant service: the S1 throughput
#                      experiment's fresh BENCH artifact must equal the one
#                      committed at the repo root on every line but its
#                      wall-clock "sessions_per_sec" ones, and the
#                      closed-loop load generator must sustain real load
#   7. chaos smoke   — crash-fault tolerance of the TCP runtime: the R1
#                      resilience experiment runs a crash over real sockets,
#                      and its BENCH artifact must show every run agreeing
#                      inside the input hull, the fault-free run losing no
#                      peer and shedding nothing, and the crashed run
#                      losing exactly its one crashed peer
#   8. adaptive smoke — the fault-adaptive fast path: the A1 sweep must
#                      emit its BENCH artifact with the fast path beating
#                      the worst-case protocol at f = 0
#   9. deep analysis  — the two semantic workspace passes (wire-taint,
#                      concurrency-discipline) over the whole workspace;
#                      any tainted allocation, lock inversion or channel
#                      operation under a lock fails the gate
#  10. async smoke    — the event-driven backend: the AS1 experiment must
#                      emit its BENCH artifact with the async path beating
#                      the Δ-mistuned sync baselines
#  11. kernel smoke   — the flattened hot path: the P1 scaling grid (built
#                      in release; throughput gates are meaningless at -O0)
#                      must emit its BENCH artifact with the blocked RS
#                      kernels differentially equal to the scalar oracle
#                      and ≥ 2× faster on the grid's largest cell
#  12. benchmark      — `benchmark/` is a workspace of its own that stages 2
#                      and 4 never compile: build it in release against
#                      this tree and run every BENCHMARK.json workload for
#                      one second each: `sim_small`, `sim_bulk` (Pi_Z at
#                      256 KiB inputs, the `ca-bits` value path),
#                      `lba_bulk` (all honest, one input: every party
#                      holds the agreed root and recognises its own
#                      codewords, so nothing is hashed or decoded),
#                      `lba_bulk_crash` (t silent parties: the first t
#                      data shares never arrive and recognised parity
#                      codewords stand in, so it does not decode
#                      either), `tcp_small` (seven parties over loopback
#                      TCP) and `engine_mux` (the multi-tenant engine and
#                      its wire model), so that a library signature change
#                      or a wrong decision on either transport fails here
#                      and not in a later benchmark run (result line must
#                      say `"correct":true`; no timing gate). One more,
#                      traced `tcp_small` run must report
#                      `runtime.frames_shed` and `runtime.peers_gone` 0:
#                      a fault-free loopback cluster whose inbound path
#                      sheds a frame or loses a peer fails here
#
# Everything runs offline: the three external crates left (bytes, rand,
# proptest) are vendored under shims/; threads, channels and sockets are std.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/12] cargo fmt --check"
cargo fmt --all -- --check

echo "==> [2/12] cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> [3/12] lint canary"
scripts/lint-canary.sh

echo "==> [4/12] cargo test (workspace)"
# A deadlock shows up as a run that never ends, so the run is bounded at
# 30 minutes, several times its duration on a 2-vCPU box (≈ 3.5 min after
# an incremental build). `timeout` exits 124 when the bound expires.
status=0
timeout 1800 cargo test --workspace --offline -q || status=$?
if [ "$status" -eq 124 ]; then
    echo "stage 4 (cargo test) timed out after 1800 s: a test hangs"
fi
[ "$status" -eq 0 ] || exit "$status"

echo "==> [5/12] trace smoke (artifacts + invariants)"
artifacts="$(mktemp -d)"
trap 'rm -rf "$artifacts"' EXIT
# Fails unless the fresh exact-unit artifact equals the committed one.
same_as_committed() {
    diff -u "$1" "$artifacts/$1" \
        || { echo "$1: exact metrics differ from the committed artifact"; exit 1; }
}
cargo run --offline -q -p ca-bench --bin experiments -- t1 e1 f3 s1 r1 a1 as1 --quick \
    --artifacts "$artifacts" >/dev/null
test -s "$artifacts/run.jsonl"      || { echo "missing run.jsonl"; exit 1; }
for exact in BENCH_t1.json BENCH_f3.json BENCH_e1.json; do
    test -s "$artifacts/$exact" || { echo "missing $exact"; exit 1; }
    same_as_committed "$exact"
done
cargo run --offline -q -p ca-trace --bin ca-trace -- check "$artifacts/run.jsonl"
cargo run --offline -q -p ca-trace --bin ca-trace -- report "$artifacts/run.jsonl" >/dev/null

echo "==> [6/12] engine smoke (S1 artifact + closed-loop load)"
test -s "$artifacts/BENCH_s1.json"  || { echo "missing BENCH_s1.json"; exit 1; }
# S1's exact part: every line but the wall-clock sessions/s.
diff -u <(grep -v '"sessions_per_sec"' BENCH_s1.json) \
    <(grep -v '"sessions_per_sec"' "$artifacts/BENCH_s1.json") \
    || { echo "BENCH_s1.json: exact metrics differ from the committed artifact"; exit 1; }
cargo run --offline -q -p ca-engine --example closed_loop -- 2 >/dev/null

echo "==> [7/12] chaos smoke (R1 artifact content)"
test -s "$artifacts/BENCH_r1.json"  || { echo "missing BENCH_r1.json"; exit 1; }
# One "key": value per line; each run's fields follow its crashed_parties.
awk -F': *' '
    /"crashed_parties"/ { crashed = $2 + 0; rows++ }
    /"(agreement|validity)": false/ { print "BENCH_r1.json: " crashed " crashed:" $0; bad = 1 }
    /"frames_shed"/ { shed[crashed] = $2 + 0 }
    /"peers_gone"/ { gone[crashed] = $2 + 0 }
    END {
        if (rows != 2 || !(0 in gone) || !(1 in gone)) { print "BENCH_r1.json: expected a 0- and a 1-crashed run"; bad = 1 }
        if (gone[0] != 0 || shed[0] != 0) { print "BENCH_r1.json: the fault-free run lost " gone[0] " peers and shed " shed[0] " frames"; bad = 1 }
        if (gone[1] != 1) { print "BENCH_r1.json: the crashed run lost " gone[1] " peers, not 1"; bad = 1 }
        exit bad
    }' "$artifacts/BENCH_r1.json"

echo "==> [8/12] adaptive smoke (A1 fast-path gate)"
test -s "$artifacts/BENCH_a1.json"  || { echo "missing BENCH_a1.json"; exit 1; }
same_as_committed BENCH_a1.json
grep -q '"f0_beats_worst_case": true' "$artifacts/BENCH_a1.json" \
    || { echo "BENCH_a1.json: fast path did not beat the worst case at f = 0"; exit 1; }

echo "==> [9/12] deep semantic analysis (offline)"
cargo run --offline -q -p ca-analyzer
cargo run --offline -q -p ca-analyzer -- --emit json >/dev/null   # JSON emitter stays parseable for CI

echo "==> [10/12] async smoke (AS1 artifact gate)"
test -s "$artifacts/BENCH_as1.json" || { echo "missing BENCH_as1.json"; exit 1; }
same_as_committed BENCH_as1.json
grep -q '"as1_async_wins": true' "$artifacts/BENCH_as1.json" \
    || { echo "BENCH_as1.json: async did not beat the mistuned sync baselines"; exit 1; }

echo "==> [11/12] kernel smoke (P1 blocked-vs-scalar gate, release build)"
cargo run --offline -q --release -p ca-bench --bin experiments -- p1 --quick --artifacts "$artifacts" >/dev/null
test -s "$artifacts/BENCH_p1.json" || { echo "missing BENCH_p1.json"; exit 1; }
grep -q '"differential_equal": false' "$artifacts/BENCH_p1.json" \
    && { echo "BENCH_p1.json: blocked and scalar kernels disagreed"; exit 1; }
grep -q '"p1_blocked_beats_scalar": true' "$artifacts/BENCH_p1.json" \
    || { echo "BENCH_p1.json: blocked kernels did not beat the scalar oracle 2x"; exit 1; }

echo "==> [12/12] benchmark package (release build + six short workloads + traced tcp_small)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# One-run mode exits 0 even when a decision is wrong; its last line says
# whether every decision was correct.
for workload in sim_small sim_bulk lba_bulk lba_bulk_crash tcp_small engine_mux; do
    result="$(cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    grep -q '"correct":true' <<<"$result" \
        || { echo "benchmark $workload: a decision was wrong: $result"; exit 1; }
done
result="$(cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload tcp_small --seed 1 --seconds 1 --trace 1 --skip-probes | tail -n 1)"
grep -q '"correct":true' <<<"$result" \
    || { echo "benchmark tcp_small (traced): a decision was wrong: $result"; exit 1; }
for counter in frames_shed peers_gone; do
    grep -q "\"runtime.$counter\":{\"unit\":\"count\",\"value\":0}" <<<"$result" \
        || { echo "benchmark tcp_small (traced): runtime.$counter is not 0: $result"; exit 1; }
done

echo "check.sh: all gates passed"

//! Fixture tests for the semantic workspace passes: for each pass, at
//! least one fixture that MUST fail the gate (the deny-by-default
//! direction — an unmetered send, a tainted allocation, a lock
//! inversion) and one that must stay clean, plus determinism, baseline
//! drift, suppression, and the self-hosting smoke test.
//!
//! Fixtures are in-memory [`SourceFile`]s: each one is the smallest
//! program that exhibits (or deliberately avoids) the property under
//! test.

use std::path::Path;

use ca_analyzer::{
    collect_sources, run_semantic, BudgetTable, SemanticConfig, SemanticOutput, SourceFile,
};

fn file(crate_name: &str, path: &str, src: &str) -> SourceFile {
    SourceFile {
        crate_name: crate_name.to_owned(),
        path: path.to_owned(),
        src: src.to_owned(),
    }
}

/// Runs one fixture file under a config that points every pass at its
/// crate.
fn run_one(crate_name: &str, src: &str) -> SemanticOutput {
    run_semantic(
        &[file(crate_name, "fixture.rs", src)],
        &SemanticConfig::uniform(&[crate_name]),
    )
}

/// Runs a fixture with only the named pass crates enabled, so fixtures
/// for one pass can't trip another.
fn run_pass(pass: &str, src: &str) -> SemanticOutput {
    let mut config = SemanticConfig::uniform(&[]);
    match pass {
        "taint" => config.taint_crates = vec!["ca-fix".to_owned()],
        "budget" => config.budget_crates = vec!["ca-fix".to_owned()],
        "locks" => config.lock_crates = vec!["ca-fix".to_owned()],
        other => panic!("unknown pass {other}"),
    }
    run_semantic(&[file("ca-fix", "fixture.rs", src)], &config)
}

fn messages(out: &SemanticOutput) -> Vec<String> {
    out.diags
        .iter()
        .map(|d| format!("{}:{} [{}] {}", d.file, d.line, d.rule, d.message))
        .collect()
}

// ── wire-taint ──────────────────────────────────────────────────────

#[test]
fn taint_wire_length_into_with_capacity_is_an_error() {
    let out = run_pass(
        "taint",
        "fn handle(buf: [u8; 4]) -> Vec<u8> {\n\
         let len = u32::from_be_bytes(buf) as usize;\n\
         Vec::with_capacity(len)\n\
         }\n",
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("wire-taint"), "{msgs:?}");
}

#[test]
fn taint_validated_length_is_clean() {
    let out = run_pass(
        "taint",
        "fn handle(buf: [u8; 4]) -> Vec<u8> {\n\
         let len = validate_frame_len(u32::from_be_bytes(buf)).unwrap();\n\
         Vec::with_capacity(len)\n\
         }\n",
    );
    assert!(out.diags.is_empty(), "{:?}", messages(&out));
}

#[test]
fn taint_crosses_function_boundaries() {
    let out = run_pass(
        "taint",
        "fn claimed_len(buf: [u8; 4]) -> usize { u32::from_be_bytes(buf) as usize }\n\
         fn consume(buf: [u8; 4]) -> Vec<u8> {\n\
         let n = claimed_len(buf);\n\
         Vec::with_capacity(n)\n\
         }\n",
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("wire-taint"), "{msgs:?}");
}

#[test]
fn taint_wire_index_into_slice_is_an_error() {
    let out = run_pass(
        "taint",
        "fn pick(ctx: &mut dyn Comm, data: &[u8]) -> u8 {\n\
         let inbox = ctx.next_round();\n\
         let i = inbox.raw_from(0) as usize;\n\
         data[i]\n\
         }\n",
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("wire-taint"), "{msgs:?}");
}

#[test]
fn taint_vec_repeat_macro_is_an_error() {
    let out = run_pass(
        "taint",
        "fn alloc(buf: [u8; 4]) -> Vec<u8> {\n\
         let n = u32::from_be_bytes(buf) as usize;\n\
         vec![0u8; n]\n\
         }\n",
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("wire-taint"), "{msgs:?}");
}

#[test]
fn taint_decoded_inbox_is_clean() {
    let out = run_pass(
        "taint",
        "fn round(ctx: &mut dyn Comm) -> Vec<u64> {\n\
         let inbox = ctx.exchange(&0u64);\n\
         let vals = inbox.decode_each::<u64>();\n\
         let mut out = Vec::with_capacity(vals.len());\n\
         for v in vals { out.push(v); }\n\
         out\n\
         }\n",
    );
    assert!(out.diags.is_empty(), "{:?}", messages(&out));
}

#[test]
fn taint_covers_the_codec_in_production() {
    let out = run_semantic(
        &[file(
            "ca-codec",
            "crates/codec/src/seq.rs",
            "fn decode_seq(r: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {\n\
             let mut out = Vec::with_capacity(r.get_varint()? as usize);\n\
             Ok(out)\n\
             }\n",
        )],
        &SemanticConfig::production(),
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("seq.rs:2 [wire-taint]"), "{msgs:?}");
}

// ── comm-budget ─────────────────────────────────────────────────────

#[test]
fn budget_unmetered_raw_send_fails_the_gate() {
    let out = run_pass(
        "budget",
        "fn pi(ctx: &mut dyn Comm) {\n\
         ctx.scoped(\"pi_n\", |c| { c.send_bytes(to, payload); })\n\
         }\n",
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("comm-budget"), "{msgs:?}");
    assert!(msgs[0].contains("raw `send_bytes`"), "{msgs:?}");
}

#[test]
fn budget_metered_scoped_send_is_clean_and_tabled() {
    let out = run_pass(
        "budget",
        "fn pi(ctx: &mut dyn Comm) {\n\
         ctx.scoped(\"pi_n\", |c| { c.send_all(&msg); })\n\
         }\n",
    );
    assert!(out.diags.is_empty(), "{:?}", messages(&out));
    assert_eq!(out.budget.sites.len(), 1);
    assert_eq!(out.budget.sites[0].scope, "pi_n");
    assert_eq!(out.budget.sites[0].helper, "send_all");
}

#[test]
fn budget_unscoped_send_fails_the_gate() {
    let out = run_pass(
        "budget",
        "fn lone(ctx: &mut dyn Comm) { ctx.send_all(&m); }\n",
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(
        msgs[0].contains("not reachable from any annotated round scope"),
        "{msgs:?}"
    );
}

#[test]
fn budget_baseline_drift_is_detected_both_ways() {
    let before = run_pass(
        "budget",
        "fn pi(ctx: &mut dyn Comm) { ctx.scoped(\"s\", |c| { c.send_all(&m); }) }\n",
    );
    let after = run_pass(
        "budget",
        "fn pi(ctx: &mut dyn Comm) { ctx.scoped(\"s\", |c| { c.send_all(&m); c.exchange(&m); }) }\n",
    );
    let drift = after.budget.diff_against(&before.budget);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert!(drift[0].message.contains("not in analyzer-baseline.json"));
    let reverse = before.budget.diff_against(&after.budget);
    assert_eq!(reverse.len(), 1, "{reverse:?}");
    assert!(reverse[0].message.contains("vanished"));
}

#[test]
fn budget_json_round_trips_and_is_stable() {
    let out = run_pass(
        "budget",
        "fn pi(ctx: &mut dyn Comm) { ctx.scoped(\"s\", |c| { c.send(to, &m); c.send_all(&m); }) }\n",
    );
    let json = out.budget.to_json();
    let parsed = BudgetTable::from_json(&json);
    let keys = |t: &BudgetTable| t.sites.iter().map(|s| s.key()).collect::<Vec<_>>();
    assert_eq!(keys(&parsed), keys(&out.budget));
    assert_eq!(
        parsed.to_json(),
        json,
        "emit → parse → emit must be a fixed point"
    );
    assert!(out.budget.diff_against(&parsed).is_empty());
}

// ── concurrency-discipline ──────────────────────────────────────────

#[test]
fn locks_inversion_fails_the_gate_at_both_sites() {
    let out = run_pass(
        "locks",
        "impl S {\n\
         fn a(&self) { let g1 = self.inbox.lock(); let g2 = self.stats.lock(); }\n\
         fn b(&self) { let g2 = self.stats.lock(); let g1 = self.inbox.lock(); }\n\
         }\n",
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 2, "{msgs:?}");
    assert!(
        msgs.iter().all(|m| m.contains("concurrency-discipline")),
        "{msgs:?}"
    );
    assert!(msgs.iter().all(|m| m.contains("order")), "{msgs:?}");
}

#[test]
fn locks_consistent_order_is_clean() {
    let out = run_pass(
        "locks",
        "impl S {\n\
         fn a(&self) { let g1 = self.inbox.lock(); let g2 = self.stats.lock(); }\n\
         fn b(&self) { let g1 = self.inbox.lock(); let g2 = self.stats.lock(); }\n\
         }\n",
    );
    assert!(out.diags.is_empty(), "{:?}", messages(&out));
}

#[test]
fn locks_channel_send_under_lock_fails_the_gate() {
    let out = run_pass(
        "locks",
        "impl S {\n\
         fn pump(&self, tx: &Sender<u8>) { let g = self.state.lock(); tx.send(1); }\n\
         }\n",
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("concurrency-discipline"), "{msgs:?}");
}

#[test]
fn locks_double_acquisition_flagged_and_drop_releases() {
    let double = run_pass(
        "locks",
        "impl S { fn d(&self) { let a = self.m.lock(); let b = self.m.lock(); } }\n",
    );
    assert_eq!(double.diags.len(), 1, "{:?}", messages(&double));

    let released = run_pass(
        "locks",
        "impl S { fn d(&self) { let a = self.m.lock(); drop(a); let b = self.m.lock(); } }\n",
    );
    assert!(released.diags.is_empty(), "{:?}", messages(&released));
}

// ── cross-cutting ───────────────────────────────────────────────────

#[test]
fn standalone_pragma_suppresses_a_semantic_finding() {
    let out = run_pass(
        "taint",
        "fn handle(buf: [u8; 4]) -> Vec<u8> {\n\
         let len = u32::from_be_bytes(buf) as usize;\n\
         // ca-lint: allow(wire-taint)\n\
         Vec::with_capacity(len)\n\
         }\n",
    );
    assert!(out.diags.is_empty(), "{:?}", messages(&out));
}

#[test]
fn semantic_run_is_deterministic_across_invocations() {
    let files = [
        file(
            "ca-core",
            "a.rs",
            "fn pi(ctx: &mut dyn Comm) { ctx.scoped(\"pi_n\", |c| { c.send_all(&m); body(c); }) }\n\
             fn body(ctx: &mut dyn Comm) { ctx.send(to, &m); ctx.send_bytes(to, raw); }\n",
        ),
        file(
            "ca-core",
            "b.rs",
            "fn handle(buf: [u8; 4]) -> Vec<u8> {\n\
             let n = u32::from_be_bytes(buf) as usize;\n\
             vec![0u8; n]\n\
             }\n\
             impl S {\n\
             fn a(&self) { let g1 = self.x.lock(); let g2 = self.y.lock(); }\n\
             fn b(&self) { let g2 = self.y.lock(); let g1 = self.x.lock(); }\n\
             }\n",
        ),
    ];
    let config = SemanticConfig::uniform(&["ca-core"]);
    let first = run_semantic(&files, &config);
    let second = run_semantic(&files, &config);
    assert!(!first.diags.is_empty(), "fixture should produce findings");
    assert_eq!(messages(&first), messages(&second));
    assert_eq!(first.budget.to_json(), second.budget.to_json());
}

#[test]
fn mixed_fixture_reports_all_three_passes() {
    let out = run_one(
        "ca-core",
        "fn pi(ctx: &mut dyn Comm) { ctx.send_bytes(to, raw); }\n\
         fn alloc(buf: [u8; 4]) -> Vec<u8> { vec![0u8; u32::from_be_bytes(buf) as usize] }\n\
         impl S {\n\
         fn a(&self) { let g1 = self.x.lock(); let g2 = self.y.lock(); }\n\
         fn b(&self) { let g2 = self.y.lock(); let g1 = self.x.lock(); }\n\
         }\n",
    );
    let rules: std::collections::BTreeSet<&str> = out.diags.iter().map(|d| d.rule).collect();
    assert!(rules.contains("wire-taint"), "{:?}", messages(&out));
    assert!(rules.contains("comm-budget"), "{:?}", messages(&out));
    assert!(
        rules.contains("concurrency-discipline"),
        "{:?}",
        messages(&out)
    );
}

/// Self-hosting: the analyzer's own code must pass its own semantic
/// passes with zero findings — it allocates from trusted file sizes,
/// sends nothing, and holds no locks.
#[test]
fn analyzer_is_clean_under_its_own_semantic_passes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = collect_sources(&root).expect("workspace readable");
    let own: Vec<SourceFile> = sources
        .into_iter()
        .filter(|s| s.path.starts_with("crates/analyzer/"))
        .collect();
    assert!(
        !own.is_empty(),
        "self-hosting fixture found no analyzer sources"
    );
    let out = run_semantic(&own, &SemanticConfig::uniform(&["ca-analyzer"]));
    assert!(
        out.diags.is_empty(),
        "analyzer flags its own code: {:?}",
        messages(&out)
    );
}

//! Fixture tests for the semantic workspace passes: for each pass, at
//! least one fixture that MUST fail the gate (the deny-by-default
//! direction — a tainted allocation, a lock inversion) and one that
//! must stay clean, plus determinism, suppression, and the self-hosting
//! smoke test.
//!
//! Fixtures are in-memory [`SourceFile`]s: each one is the smallest
//! program that exhibits (or deliberately avoids) the property under
//! test.

use std::path::Path;

use ca_analyzer::{collect_sources, run_semantic, Diagnostic, SemanticConfig, SourceFile};

fn file(crate_name: &str, path: &str, src: &str) -> SourceFile {
    SourceFile {
        crate_name: crate_name.to_owned(),
        path: path.to_owned(),
        src: src.to_owned(),
    }
}

/// Runs one fixture file under a config that points every pass at its
/// crate.
fn run_one(crate_name: &str, src: &str) -> Vec<Diagnostic> {
    run_semantic(
        &[file(crate_name, "fixture.rs", src)],
        &SemanticConfig::uniform(&[crate_name]),
    )
}

/// Runs a fixture with only the named pass crates enabled, so fixtures
/// for one pass can't trip another.
fn run_pass(pass: &str, src: &str) -> Vec<Diagnostic> {
    let mut config = SemanticConfig::uniform(&[]);
    match pass {
        "taint" => config.taint_crates = vec!["ca-fix".to_owned()],
        "locks" => config.lock_crates = vec!["ca-fix".to_owned()],
        other => panic!("unknown pass {other}"),
    }
    run_semantic(&[file("ca-fix", "fixture.rs", src)], &config)
}

fn messages(out: &[Diagnostic]) -> Vec<String> {
    out.iter()
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
    assert!(out.is_empty(), "{:?}", messages(&out));
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

/// A mutation only this pass catches (EXPERIMENTS.md M1): `read_hello`
/// sizing its buffer from the claimed length without
/// `validate_hello_len`. Every `ca-runtime` test passes under it.
#[test]
fn taint_unvalidated_hello_length_is_an_error() {
    let read_hello = |claimed: &str| {
        run_pass(
            "taint",
            &format!(
                "fn read_hello(stream: &mut TcpStream) -> Option<usize> {{\n\
                 let mut len_buf = [0u8; 4];\n\
                 stream.read_exact(&mut len_buf).ok()?;\n\
                 let len = {claimed};\n\
                 let mut body = vec![0u8; len];\n\
                 stream.read_exact(&mut body).ok()?;\n\
                 Some(body.len())\n\
                 }}\n"
            ),
        )
    };
    let raw = read_hello("u32::from_be_bytes(len_buf) as usize");
    let msgs = messages(&raw);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("fixture.rs:5 [wire-taint]"), "{msgs:?}");
    let checked = read_hello("validate_hello_len(u32::from_be_bytes(len_buf)).ok()?");
    assert!(checked.is_empty(), "{:?}", messages(&checked));
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
    assert!(out.is_empty(), "{:?}", messages(&out));
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

/// `get_seq_len` fails above `MAX_DECODE_CAPACITY`, so its count may size
/// an allocation although its body reads a varint; a bare `get_varint`
/// may not.
#[test]
fn taint_seq_len_is_a_sanitizer_and_varint_is_not() {
    let decode_seq = |read: &str| {
        run_semantic(
            &[file(
                "ca-codec",
                "crates/codec/src/seq.rs",
                &format!(
                    "impl Reader<'_> {{\n\
                     fn get_seq_len(&mut self) -> Result<usize, CodecError> {{\n\
                     let len = self.get_varint()? as usize;\n\
                     if len > MAX_DECODE_CAPACITY {{\n\
                     return Err(CodecError::CapacityExceeded {{ requested: len, limit: MAX_DECODE_CAPACITY }});\n\
                     }}\n\
                     Ok(len)\n\
                     }}\n\
                     }}\n\
                     fn decode_seq(r: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {{\n\
                     let len = {read};\n\
                     Ok(Vec::with_capacity(len))\n\
                     }}\n"
                ),
            )],
            &SemanticConfig::production(),
        )
    };
    let out = decode_seq("r.get_seq_len()?");
    assert!(out.is_empty(), "{:?}", messages(&out));
    let msgs = messages(&decode_seq("r.get_varint()? as usize"));
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("seq.rs:12 [wire-taint]"), "{msgs:?}");
}

/// A trailing `Ok(len)` after an `if` block statement returns the wire
/// count: a length reader that is not a sanitizer passes its taint on,
/// although no early `return` mentions `len`.
#[test]
fn taint_returns_through_a_trailing_expression_after_an_if_block() {
    let out = run_semantic(
        &[file(
            "ca-codec",
            "crates/codec/src/capped.rs",
            "impl Reader<'_> {\n\
             fn get_capped_len(&mut self) -> Result<usize, CodecError> {\n\
             let len = self.get_varint()? as usize;\n\
             if len > MAX_DECODE_CAPACITY {\n\
             return Err(CodecError::Capacity);\n\
             }\n\
             Ok(len)\n\
             }\n\
             }\n\
             fn decode_seq(r: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {\n\
             let len = r.get_capped_len()?;\n\
             Ok(Vec::with_capacity(len))\n\
             }\n",
        )],
        &SemanticConfig::production(),
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("capped.rs:12 [wire-taint]"), "{msgs:?}");
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
    assert!(out.is_empty(), "{:?}", messages(&out));
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

/// A mutation only this pass catches deterministically (EXPERIMENTS.md
/// M1): the TCP reader sending its event while it holds its peer's
/// `Inflow` lock. Under it the `ca-runtime` tests pass or, now and then,
/// hang.
#[test]
fn locks_reader_event_sent_under_inflow_lock_fails_the_gate() {
    let out = run_pass(
        "locks",
        "fn reader_loop(inflow: &Inflow, event_tx: &SyncSender<Event>, ev: Event) {\n\
         let held = inflow.lock();\n\
         let sent = event_tx.send(ev).is_ok();\n\
         drop(held);\n\
         }\n",
    );
    let msgs = messages(&out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(
        msgs[0].contains("fixture.rs:3 [concurrency-discipline]"),
        "{msgs:?}"
    );
}

#[test]
fn locks_double_acquisition_flagged_and_drop_releases() {
    let double = run_pass(
        "locks",
        "impl S { fn d(&self) { let a = self.m.lock(); let b = self.m.lock(); } }\n",
    );
    assert_eq!(double.len(), 1, "{:?}", messages(&double));

    let released = run_pass(
        "locks",
        "impl S { fn d(&self) { let a = self.m.lock(); drop(a); let b = self.m.lock(); } }\n",
    );
    assert!(released.is_empty(), "{:?}", messages(&released));
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
    assert!(out.is_empty(), "{:?}", messages(&out));
}

#[test]
fn semantic_run_is_deterministic_across_invocations() {
    let files = [
        file(
            "ca-core",
            "a.rs",
            "fn pick(ctx: &mut dyn Comm, data: &[u8]) -> u8 {\n\
             let i = ctx.next_round().raw_from(0) as usize;\n\
             data[i]\n\
             }\n",
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
    assert!(!first.is_empty(), "fixture should produce findings");
    assert_eq!(messages(&first), messages(&second));
}

#[test]
fn mixed_fixture_reports_both_passes() {
    let out = run_one(
        "ca-core",
        "fn alloc(buf: [u8; 4]) -> Vec<u8> { vec![0u8; u32::from_be_bytes(buf) as usize] }\n\
         impl S {\n\
         fn a(&self) { let g1 = self.x.lock(); let g2 = self.y.lock(); }\n\
         fn b(&self) { let g2 = self.y.lock(); let g1 = self.x.lock(); }\n\
         }\n",
    );
    let rules: std::collections::BTreeSet<&str> = out.iter().map(|d| d.rule).collect();
    assert!(rules.contains("wire-taint"), "{:?}", messages(&out));
    assert!(
        rules.contains("concurrency-discipline"),
        "{:?}",
        messages(&out)
    );
}

/// Self-hosting: the analyzer's own code must pass its own semantic
/// passes with zero findings — it allocates from trusted file sizes
/// and holds no locks.
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
        out.is_empty(),
        "analyzer flags its own code: {:?}",
        messages(&out)
    );
}

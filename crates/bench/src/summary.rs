//! Machine-readable run artifacts: `BENCH_<exp>.json` summaries putting
//! the paper's claimed bounds next to the measured run.
//!
//! The paper claims `BITSℓ(Π_ℕ) = O(ℓn + κ·n²·log²n)` (Cor. 2, with
//! `κ = 256` for SHA-256 accumulators) and `ROUNDSℓ = O(n log n)`. The
//! summary evaluates both reference shapes **with constant 1** — the
//! `measured/claim` ratios are therefore order-of-magnitude indicators
//! (a stable, O(1) ratio across configs is the reproduction claim), not
//! pass/fail thresholds. Everything else is measured: per-scope bit/round
//! breakdowns and log₂-bucket histogram quantiles straight from
//! [`ca_net::Metrics`].
//!
//! Every experiment states a measurement once, as a [`Row`] — a label plus
//! ordered `key → `[`Value`] fields. Its [`Report`] serialises the rows and
//! [`crate::table::render`] prints them, each cell through [`Row::cell`].
//! The JSON is hand-rolled (the workspace builds offline with no serde);
//! numbers are emitted as JSON numbers, ratios with three decimals.

use std::path::Path;

use ca_net::Histogram;
use ca_trace::json_escape;

use crate::runner::RunStats;

/// Security parameter used in the claimed bound: SHA-256 digests.
pub const KAPPA: u64 = 256;

/// `⌈log₂ n⌉`, clamped to ≥ 1 so the reference shape never degenerates
/// to 0 for tiny `n`.
fn log2_ceil(n: u64) -> u64 {
    if n <= 2 {
        1
    } else {
        u64::from((n - 1).ilog2()) + 1
    }
}

/// The claimed communication shape `ℓ·n + κ·n²·⌈log₂ n⌉²`, constant 1.
#[must_use]
pub fn claim_bits(n: usize, ell: usize) -> u64 {
    let (n, ell) = (n as u64, ell as u64);
    let lg = log2_ceil(n);
    ell * n + KAPPA * n * n * lg * lg
}

/// The claimed round shape `n·⌈log₂ n⌉`, constant 1.
#[must_use]
pub fn claim_rounds(n: usize) -> u64 {
    let n = n as u64;
    n * log2_ceil(n)
}

/// One field value of a [`Row`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count, emitted as a JSON integer.
    Int(u64),
    /// A real number printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// `true` / `false`.
    Bool(bool),
    /// A string (JSON-escaped on output).
    Str(String),
    /// JSON `null`; `-` in a table.
    Null,
    /// A nested object, rendered on one line.
    Obj(Vec<(&'static str, Value)>),
    /// An array, one element per line.
    List(Vec<Value>),
}

impl Value {
    /// `measured / claim` with three decimals, `null` when the claim is 0.
    #[must_use]
    pub fn ratio(measured: u64, claim: u64) -> Self {
        if claim == 0 {
            Value::Null
        } else {
            Value::Fixed(measured as f64 / claim as f64, 3)
        }
    }

    /// Appends the JSON rendering; `indent` is the column a
    /// [`Value::List`]'s closing bracket sits at.
    fn write_json(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Str(s) => {
                out.push('"');
                json_escape(s, out);
                out.push('"');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { " " } else { ", " });
                    out.push_str(&format!("\"{key}\": "));
                    value.write_json(out, indent);
                }
                out.push_str(" }");
            }
            Value::List(items) if items.is_empty() => out.push_str("[]"),
            Value::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&" ".repeat(indent + 2));
                    item.write_json(out, indent + 2);
                }
                out.push_str(&format!("\n{}]", " ".repeat(indent)));
            }
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Fixed(v, decimals) => out.push_str(&format!("{v:.decimals$}")),
            Value::Bool(v) => out.push_str(&v.to_string()),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

/// One histogram as an object with count/min/mean/max and the
/// conservative log₂-bucket quantiles p50/p90/p99.
impl From<&Histogram> for Value {
    fn from(h: &Histogram) -> Self {
        Value::Obj(vec![
            ("count", h.count().into()),
            ("min", h.min().into()),
            ("mean", h.mean().into()),
            ("max", h.max().into()),
            ("p50", h.quantile_permille(500).into()),
            ("p90", h.quantile_permille(900).into()),
            ("p99", h.quantile_permille(990).into()),
        ])
    }
}

/// One measured configuration: ordered `key → value` fields, the first
/// being its human-readable `"label"`. The one row type of every
/// experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    fields: Vec<(&'static str, Value)>,
}

impl Row {
    /// A row holding only its `label`.
    #[must_use]
    pub fn new(label: &str) -> Self {
        Self {
            fields: vec![("label", label.into())],
        }
    }

    /// Appends field `key`.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The table cell for `key`: the value as the JSON prints it, except
    /// counts grouped by `_` (`1_234`), strings unquoted and `null` as
    /// `-`. A dotted key reaches into an object field
    /// (`measured.honest_bits`, `batch_occupancy.p50`).
    ///
    /// # Panics
    ///
    /// Panics if the row has no such field — a typo in the experiment.
    #[must_use]
    pub fn cell(&self, key: &str) -> String {
        let value = lookup(&self.fields, key).unwrap_or_else(|| panic!("row has no field {key:?}"));
        match value {
            Value::Str(s) => s.clone(),
            Value::Null => "-".to_owned(),
            Value::Int(v) => {
                let mut cell = v.to_string();
                let mut at = cell.len();
                while at > 3 {
                    at -= 3;
                    cell.insert(at, '_');
                }
                cell
            }
            other => {
                let mut cell = String::new();
                other.write_json(&mut cell, 0);
                cell
            }
        }
    }

    /// Appends the row as a JSON object, one field per line.
    fn write_json(&self, out: &mut String) {
        out.push_str("    {");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("      \"{key}\": "));
            value.write_json(out, 6);
        }
        out.push_str("\n    }");
    }
}

/// The value at `key` in `fields`, a dotted key descending into
/// [`Value::Obj`] fields.
fn lookup<'a>(fields: &'a [(&'static str, Value)], key: &str) -> Option<&'a Value> {
    let (head, rest) = key
        .split_once('.')
        .map_or((key, None), |(h, r)| (h, Some(r)));
    let (_, value) = fields.iter().find(|(k, _)| *k == head)?;
    match (rest, value) {
        (None, value) => Some(value),
        (Some(rest), Value::Obj(inner)) => lookup(inner, rest),
        (Some(_), _) => None,
    }
}

/// The claim-vs-measured row of one protocol run: the paper's reference
/// shapes next to the measured bits and rounds, their ratios, and the
/// per-scope breakdown with message-size histograms.
#[must_use]
pub fn run_row(label: &str, stats: &RunStats) -> Row {
    let cb = claim_bits(stats.n, stats.ell);
    let cr = claim_rounds(stats.n);
    let m = &stats.metrics;
    let scopes = m
        .per_scope
        .iter()
        .map(|(path, scope)| {
            let mut fields = vec![
                ("scope", path.as_str().into()),
                ("honest_bits", scope.honest_bits.into()),
                ("honest_msgs", scope.honest_msgs.into()),
                ("rounds", scope.rounds.into()),
            ];
            if let Some(h) = m.scope_msg_bytes.get(path) {
                fields.push(("msg_bytes", h.into()));
            }
            Value::Obj(fields)
        })
        .collect();
    Row::new(label)
        .with("protocol", stats.protocol)
        .with("n", stats.n)
        .with("t", stats.t)
        .with("ell", stats.ell)
        .with("attack", stats.attack)
        .with("agreement", stats.agreement)
        .with("validity", stats.validity)
        .with(
            "claim",
            Value::Obj(vec![
                ("bits", cb.into()),
                ("rounds", cr.into()),
                ("kappa", KAPPA.into()),
            ]),
        )
        .with(
            "measured",
            Value::Obj(vec![
                ("honest_bits", m.honest_bits.into()),
                ("honest_msgs", m.honest_msgs.into()),
                ("rounds", m.rounds.into()),
                ("adversary_bits", m.adversary_bits.into()),
            ]),
        )
        .with(
            "ratio",
            Value::Obj(vec![
                ("bits", Value::ratio(m.honest_bits, cb)),
                ("rounds", Value::ratio(m.rounds, cr)),
            ]),
        )
        .with("msg_bytes", &m.msg_bytes)
        .with("round_bits", &m.round_bits)
        .with("scopes", Value::List(scopes))
}

/// Corollary 2's claim line: the shapes of [`claim_bits`] and
/// [`claim_rounds`].
pub const COR2_CLAIM: &str =
    "BITS = l*n + kappa*n^2*ceil(log2 n)^2; ROUNDS = n*ceil(log2 n); constant 1";

/// What one experiment measured, as `BENCH_<exp>.json` holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The claim the rows are measured against.
    pub claim: &'static str,
    /// Top-level boolean verdicts (e.g. `"f0_beats_worst_case"`), emitted
    /// right after the claim line so gating tooling can grep for
    /// `"<name>": true`.
    pub flags: Vec<(&'static str, bool)>,
    /// The measured rows, in order.
    pub rows: Vec<Row>,
}

impl Report {
    /// A report of `rows` against `claim`, with no flags.
    #[must_use]
    pub fn new(claim: &'static str, rows: Vec<Row>) -> Self {
        Self {
            claim,
            flags: Vec::new(),
            rows,
        }
    }

    /// Renders the whole `BENCH_<experiment>.json` document.
    #[must_use]
    pub fn to_json(&self, experiment: &str) -> String {
        let mut json = format!("{{\n  \"experiment\": \"{experiment}\",\n  \"claim\": ");
        Value::from(self.claim).write_json(&mut json, 2);
        json.push_str(",\n");
        for (name, value) in &self.flags {
            json.push_str(&format!("  \"{name}\": {value},\n"));
        }
        json.push_str("  \"runs\": [");
        for (i, row) in self.rows.iter().enumerate() {
            json.push_str(if i == 0 { "\n" } else { ",\n" });
            row.write_json(&mut json);
        }
        json.push_str(if self.rows.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        json
    }

    /// With `artifacts` set, writes `<dir>/BENCH_<experiment>.json`
    /// (creating `<dir>` if needed) and reports the path, or the failure,
    /// on stderr.
    pub fn write(&self, experiment: &str, artifacts: Option<&Path>) {
        let Some(dir) = artifacts else { return };
        let path = dir.join(format!("BENCH_{experiment}.json"));
        let json = self.to_json(experiment);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => eprintln!("[{experiment} artifacts: {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write BENCH_{experiment}.json: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_nat_protocol, Protocol};
    use crate::workload::clustered_nats;
    use ca_adversary::Attack;
    use ca_ba::BaKind;

    #[test]
    fn claim_shapes_are_monotone() {
        assert!(claim_bits(7, 1 << 14) > claim_bits(7, 1 << 10));
        assert!(claim_bits(10, 256) > claim_bits(4, 256));
        assert_eq!(claim_rounds(2), 2);
        assert!(claim_rounds(8) == 24 && claim_rounds(9) == 36);
    }

    /// One row holding every value kind renders, key for key, the
    /// fragments the per-experiment writers used to format by hand.
    #[test]
    fn row_renders_every_value_kind() {
        let mut h = Histogram::new();
        for v in [1, 1, 102] {
            h.record(v);
        }
        let row = Row::new("tab\there \"ℓ\"")
            .with("kind", "async")
            .with("n", 7usize)
            .with("delta", Value::Null)
            .with("agreement", true)
            .with("sessions_per_sec", Value::Fixed(1234.56, 1))
            .with(
                "ratio",
                Value::Obj(vec![
                    ("bits", Value::ratio(390_288, 113_008)),
                    ("rounds", Value::ratio(192, 0)),
                ]),
            )
            .with("msg_bytes", &h)
            .with(
                "scopes",
                Value::List(vec![Value::Obj(vec![("scope", "a/b".into())])]),
            )
            .with("none", Value::List(Vec::new()));
        let json = Report::new(COR2_CLAIM, vec![row.clone()]).to_json("demo");
        for fragment in [
            "\"label\": \"tab\\there \\\"ℓ\\\"\"",
            "\"kind\": \"async\"",
            "\"n\": 7",
            "\"delta\": null",
            "\"agreement\": true",
            "\"sessions_per_sec\": 1234.6",
            "\"ratio\": { \"bits\": 3.454, \"rounds\": null }",
            "\"msg_bytes\": { \"count\": 3, \"min\": 1, \"mean\": 34, \"max\": 102, \
             \"p50\": 1, \"p90\": 102, \"p99\": 102 }",
            "\"scopes\": [\n        { \"scope\": \"a/b\" }\n      ]",
            "\"none\": []",
        ] {
            assert!(json.contains(fragment), "missing {fragment} in:\n{json}");
        }
        // The same values as table cells.
        assert_eq!(row.cell("label"), "tab\there \"ℓ\"");
        assert_eq!(row.cell("kind"), "async");
        assert_eq!(row.cell("delta"), "-");
        assert_eq!(row.cell("sessions_per_sec"), "1234.6");
        assert_eq!(row.cell("agreement"), "true");
        assert_eq!(row.cell("ratio.bits"), "3.454");
        assert_eq!(row.cell("ratio.rounds"), "-");
        assert_eq!(row.cell("msg_bytes.max"), "102");
    }

    #[test]
    fn summary_json_is_well_formed_and_complete() {
        let inputs = clustered_nats(9, 4, 64, 8);
        let stats = run_nat_protocol(
            Protocol::PiN(BaKind::TurpinCoan),
            &inputs,
            Attack::none(),
            None,
        );
        let json = Report::new(COR2_CLAIM, vec![run_row("short", &stats)]).to_json("demo");
        // Structural sanity without a JSON parser: balanced braces/brackets
        // and the fields downstream tooling keys on.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"experiment\": \"demo\"",
            "\"label\": \"short\"",
            "\"claim\"",
            "\"measured\"",
            "\"ratio\"",
            "\"p50\"",
            "\"p99\"",
            "\"scopes\"",
            // Sends are attributed to the innermost scope, so the regime
            // BA surfaces as a descendant of pi_n/path_ba.
            "\"scope\": \"pi_n/path_ba",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(json.contains(&format!("\"honest_bits\": {}", stats.metrics.honest_bits)));
    }

    #[test]
    fn write_creates_bench_file() {
        let dir = std::env::temp_dir().join(format!("ca-bench-sum-{}", std::process::id()));
        Report::new(COR2_CLAIM, vec![Row::new("x")]).write("f3", Some(&dir));
        let text = std::fs::read_to_string(dir.join("BENCH_f3.json")).unwrap();
        assert!(text.contains("\"experiment\": \"f3\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_summary_renders() {
        let json = Report::new(COR2_CLAIM, Vec::new()).to_json("void");
        assert!(json.contains("\"runs\": []"));
    }

    #[test]
    fn flags_render_at_top_level() {
        let report = Report {
            claim: COR2_CLAIM,
            flags: vec![
                ("f0_beats_worst_case", true),
                ("p1_blocked_beats_scalar", false),
            ],
            rows: vec![Row::new("x")],
        };
        let json = report.to_json("a1");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains(&format!(
            "\"claim\": \"{COR2_CLAIM}\",\n  \"f0_beats_worst_case\": true,\n  \
             \"p1_blocked_beats_scalar\": false,\n  \"runs\": ["
        )));
    }
}

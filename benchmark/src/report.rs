//! From raw measurements to named metrics, and their two renderings: the
//! `workload metric value unit` lines people read and the one-line JSON
//! result the acceptance driver reads.

use std::collections::BTreeMap;

use crate::clock::peak_rss_mib;
use crate::gen::POOL;
use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END, PROBE_LAYERS, TRACED_LAYERS};
use crate::stats::{median, median_pass, percentile, tail_is_supported};
use crate::workloads::{Traced, Untraced};

/// One reported number. `note` is for people only.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// Every end-to-end metric of an untraced run, in table order.
pub fn end_to_end_values(run: &Untraced) -> Result<Vec<Value>, String> {
    let steps = run.step_ms.len();
    let per_pass = (POOL as u64 * run.decisions_per_step) as f64;
    let (Some(pass_ms), Some(pass_cpu_ms)) = (
        median_pass(&run.period_ms, POOL),
        median_pass(&run.period_cpu_ms, POOL),
    ) else {
        return Err("fewer than one pool pass was timed".to_owned());
    };
    if run.setups_s.is_empty() {
        return Err("no set-up was timed".to_owned());
    }
    let passes = steps + 1 - POOL;
    let values = [
        (
            median(&run.setups_s),
            format!("median of {} set-ups", run.setups_s.len()),
        ),
        (
            1e3 * per_pass / pass_ms,
            format!("median of the {passes} pool passes in {steps} steps"),
        ),
        (percentile(&run.step_ms, 0.50), format!("n={steps}")),
        (
            pass_cpu_ms / per_pass,
            format!("median of {passes} pool passes"),
        ),
        (
            run.wire_bytes_per_decision,
            "mean over the first pool pass".to_owned(),
        ),
        (
            run.rounds_per_decision,
            "mean over the first pool pass".to_owned(),
        ),
        (peak_rss_mib()?, "VmHWM".to_owned()),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, note))| Value {
            name: m.name,
            value,
            unit: m.unit,
            note,
        })
        .collect())
}

/// What a run prints besides the contract's metrics: the tail latency,
/// which this box cannot hold steady enough to gate on (README, "Known
/// limits"), and the share of decisions that failed their check.
pub fn informational_values(run: &Untraced) -> Vec<Value> {
    let steps = run.step_ms.len();
    let p90_note = if tail_is_supported(steps, 0.90) {
        format!("n={steps}")
    } else {
        format!("n={steps}, fewer than the 100 timings a p90 needs: a high sample, not a tail")
    };
    vec![
        Value {
            name: "decision_latency_p90_ms",
            value: if steps == 0 {
                0.0
            } else {
                percentile(&run.step_ms, 0.90)
            },
            unit: "ms",
            note: p90_note,
        },
        Value {
            name: "failed_fraction",
            value: run.failed as f64 / run.attempted.max(1) as f64,
            unit: "ratio",
            note: format!("{} of {}", run.failed, run.attempted),
        },
    ]
}

/// Every traced per-layer metric, in table order. Processor time is per
/// decision over all protocol threads; wall time is per step on the lead
/// party's timeline.
pub fn traced_values(run: &Traced) -> Vec<Value> {
    let l = &run.layers;
    let steps = run.steps.max(1) as f64;
    let decisions = run.decisions.max(1) as f64;
    let ms = |ns: u64, per: f64| ns as f64 / 1e6 / per;
    let cpu_ms = |metric: &str| ms(l.cpu_ns.get(metric).copied().unwrap_or(0), decisions);
    let spans: usize = run.first_decision.iter().map(|t| t.spans.len()).sum();
    let per_decision_in_first_step = (run.decisions / run.steps.max(1)).max(1) as f64;
    let tcp = run.runtime.is_some();
    // Transport rounds are `net` over Sim and `runtime` over TCP.
    let (net_wall, runtime_wall) = if tcp {
        (0, l.lead_next_round_wall_ns)
    } else {
        (l.lead_next_round_wall_ns, 0)
    };
    let runtime = run.runtime.as_ref();
    // What the process burns outside the protocol threads is the Sim
    // executor (and thread start-up) or, over TCP, the socket tasks.
    let outside_ns = run.process_cpu_ns.saturating_sub(l.threads_cpu_ns);
    let (executor_ns, io_ns) = if tcp {
        (0, outside_ns)
    } else {
        (outside_ns, 0)
    };
    let engine = run.engine.as_ref();
    let sessions_of_lead = if engine.is_some() { decisions } else { 1.0 };

    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for m in &TRACED_LAYERS {
        if m.name.ends_with(".cpu_ms") {
            by_name.insert(m.name, cpu_ms(m.name));
        }
    }
    by_name.extend([
        ("net.next_round.wall_ms", ms(net_wall, steps)),
        ("net.executor.cpu_ms", ms(executor_ns, decisions)),
        ("net.rounds", l.lead_rounds as f64 / steps),
        ("net.sends", l.sends as f64 / decisions),
        ("net.send_bytes", l.send_bytes as f64 / decisions),
        ("ba.lba_plus.calls", l.lead_lba_calls as f64 / decisions),
        (
            "core.bits_vs_bound_ratio",
            8.0 * l.send_bytes as f64 / decisions / run.bit_bound.max(1.0),
        ),
        ("runtime.next_round.wall_ms", ms(runtime_wall, steps)),
        ("runtime.io.cpu_ms", ms(io_ns, decisions)),
        (
            "runtime.frames_per_decision",
            runtime.map_or(0.0, |r| r.frames_per_decision),
        ),
        (
            "runtime.frames_shed",
            runtime.map_or(0.0, |r| r.frames_shed as f64),
        ),
        (
            "runtime.peers_gone",
            runtime.map_or(0.0, |r| r.peers_gone as f64),
        ),
        (
            "runtime.establish_ms",
            runtime.map_or(0.0, |r| r.establish_ms),
        ),
        (
            "engine.session_wait.wall_ms",
            ms(l.lead_session_wait_wall_ns, sessions_of_lead),
        ),
        (
            "engine.batch_occupancy_p50",
            engine.map_or(0.0, |e| e.batch_occupancy.quantile_permille(500) as f64),
        ),
        (
            "engine.shed_frames",
            engine.map_or(0.0, |e| e.shed_frames as f64),
        ),
        (
            "engine.malformed_envelopes",
            engine.map_or(0.0, |e| e.malformed_envelopes as f64),
        ),
        ("layers.decision_wall_ms", ms(run.wall_ns, steps)),
        (
            "layers.covered_pct",
            100.0 * l.lead_root_wall_ns as f64 / run.wall_ns.max(1) as f64,
        ),
        ("layers.cpu_sum_ms", ms(run.process_cpu_ns, decisions)),
        (
            "trace.overhead_pct",
            100.0 * (run.traced_like_reference_ms / run.reference_ms - 1.0),
        ),
        (
            "trace.spans_per_decision",
            spans as f64 / per_decision_in_first_step,
        ),
    ]);
    TRACED_LAYERS
        .iter()
        .map(|m| Value {
            name: m.name,
            value: by_name[m.name],
            unit: m.unit,
            note: String::new(),
        })
        .collect()
}

/// Probe results as values, in table order.
pub fn probe_values(probes: &[(&'static str, f64)]) -> Vec<Value> {
    PROBE_LAYERS
        .iter()
        .zip(probes)
        .map(|(m, (name, value))| {
            assert_eq!(m.name, *name, "probe order drifted from the metric table");
            Value {
                name: m.name,
                value: *value,
                unit: m.unit,
                note: String::new(),
            }
        })
        .collect()
}

/// `workload metric value unit  # note`, one line per value.
pub fn print_lines(workload: &str, values: &[Value]) {
    for v in values {
        let note = if v.note.is_empty() {
            String::new()
        } else {
            format!("  # {}", v.note)
        };
        println!(
            "{workload} {} {} {}{note}",
            v.name,
            fmt_value(v.value),
            v.unit
        );
    }
}

/// Enough digits to tell runs apart, few enough to read.
pub fn fmt_value(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value}")
    } else if value.abs() >= 100.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.4}")
    }
}

/// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(attempted: u64, failed: u64, values: &[Value]) -> Json {
    let metrics = values
        .iter()
        .map(|v| {
            let entry = Json::obj([
                ("value", Json::Num(v.value)),
                ("unit", Json::Str(v.unit.to_owned())),
            ]);
            (v.name.to_owned(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
pub fn manifest(run_seconds: u32) -> String {
    let text = |s: &str| Json::Str(s.to_owned());
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = crate::metrics::WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let layers = per_layer().map(|m| {
        Json::obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ])
    });
    // One row a line: the file is read by people too.
    let section = |key: &str, rows: Vec<Json>| {
        let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
        format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"))
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n{},\n{},\n{}\n}}\n",
        Json::Arr(command.map(text).to_vec()).render(),
        section("workloads", workloads.collect()),
        section("end_to_end", end_to_end.collect()),
        section("per_layer", layers.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Breakdown;

    fn untraced() -> Untraced {
        Untraced {
            setups_s: vec![0.9, 0.5, 0.6],
            step_ms: (1..=20).map(f64::from).collect(),
            // Every pool pass takes 800 ms and 1280 ms of processor time,
            // but for the passes the one stalled step falls into.
            period_ms: (0..20)
                .map(|i| if i == 1 { 900.0 } else { 100.0 })
                .collect(),
            period_cpu_ms: vec![160.0; 20],
            decisions_per_step: 64,
            attempted: 1280,
            failed: 0,
            wire_bytes_per_decision: 1234.5,
            rounds_per_decision: 273.0,
        }
    }

    #[test]
    fn end_to_end_values_follow_their_definitions() {
        let values = end_to_end_values(&untraced()).unwrap();
        let get = |name: &str| values.iter().find(|v| v.name == name).unwrap().value;
        assert_eq!(values.len(), END_TO_END.len());
        assert_eq!(get("setup_s"), 0.6);
        assert_eq!(get("decisions_per_s"), 640.0);
        assert_eq!(get("decision_latency_p50_ms"), 10.0);
        assert_eq!(get("cpu_ms_per_decision"), 2.5);
        assert_eq!(get("wire_bytes_per_decision"), 1234.5);
        assert_eq!(get("rounds_per_decision"), 273.0);
        assert!(get("peak_rss_mb") > 0.0);
        let extra = informational_values(&untraced());
        assert_eq!(
            (extra[0].name, extra[0].value),
            ("decision_latency_p90_ms", 18.0)
        );
        assert!(
            extra[0].note.contains("fewer than"),
            "20 timings cannot carry a p90"
        );
        assert_eq!((extra[1].name, extra[1].value), ("failed_fraction", 0.0));
        assert!(end_to_end_values(&Untraced::default()).is_err());
    }

    #[test]
    fn traced_cpu_metrics_sum_to_the_process() {
        let mut layers = Breakdown::default();
        layers.cpu_ns.insert("ba.tc.cpu_ms", 6_000_000);
        layers.cpu_ns.insert("net.next_round.cpu_ms", 3_000_000);
        layers.cpu_ns.insert("other.cpu_ms", 1_000_000);
        layers.threads_cpu_ns = 10_000_000;
        layers.lead_root_wall_ns = 19_000_000;
        layers.lead_next_round_wall_ns = 16_000_000;
        let run = Traced {
            layers,
            steps: 2,
            decisions: 2,
            wall_ns: 20_000_000,
            process_cpu_ns: 12_000_000,
            reference_ms: 24.0,
            traced_like_reference_ms: 30.0,
            bit_bound: 1000.0,
            ..Traced::default()
        };
        let values = traced_values(&run);
        assert_eq!(values.len(), TRACED_LAYERS.len());
        let get = |name: &str| values.iter().find(|v| v.name == name).unwrap().value;
        assert_eq!(get("ba.tc.cpu_ms"), 3.0);
        assert_eq!(get("net.executor.cpu_ms"), 1.0);
        assert_eq!(get("net.next_round.wall_ms"), 8.0);
        assert_eq!(get("runtime.next_round.wall_ms"), 0.0);
        assert_eq!(get("layers.covered_pct"), 95.0);
        assert_eq!(get("trace.overhead_pct"), 25.0);
        let cpu_sum: f64 = values
            .iter()
            .filter(|v| v.name.ends_with(".cpu_ms"))
            .map(|v| v.value)
            .sum();
        assert_eq!(cpu_sum, get("layers.cpu_sum_ms"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values = end_to_end_values(&untraced()).unwrap();
        let line = result_json(1280, 0, &values).render();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            result_json(3, 1, &values).get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn manifest_is_valid_json_within_limits() {
        let text = manifest(15);
        assert!(text.len() < 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(doc.get("workloads").unwrap().as_arr().unwrap().len(), 6);
    }
}

//! `compare A.json B.json`: B against A, per workload and end-to-end
//! metric, each difference next to the bound it is held to.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side disagree among themselves by more than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `candidate` is than `reference`, as a share of
/// `reference`; negative when it is better.
pub fn worsening(metric: &EndToEnd, reference: f64, candidate: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => candidate - reference,
        Better::Higher => reference - candidate,
    };
    if reference == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / reference.abs()
    }
}

/// Judges one metric from the values of both sides' runs.
pub fn judge(
    metric: &EndToEnd,
    reference: &[f64],
    candidate: &[f64],
    same_seed: bool,
) -> (f64, Option<f64>, Verdict) {
    let worse_by = worsening(metric, median(reference), median(candidate));
    if metric.exact_per_seed && same_seed {
        let identical = reference
            .iter()
            .chain(candidate)
            .all(|v| *v == reference[0]);
        let verdict = if identical {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
        return (worse_by, Some(0.0), verdict);
    }
    let spread = [quartile_spread(reference), quartile_spread(candidate)]
        .into_iter()
        .flatten()
        .reduce(f64::max);
    let verdict = if spread.is_some_and(|s| s > metric.bound) {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

fn values_of(results: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn failed_of(results: &Json, workload: &str) -> f64 {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Prints the table; `Ok(true)` when nothing is worse.
pub fn run(reference_path: &str, candidate_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (reference, candidate) = (load(reference_path)?, load(candidate_path)?);
    let seed = |r: &Json| r.get("seed").and_then(Json::as_f64);
    let same_seed = seed(&reference).is_some() && seed(&reference) == seed(&candidate);
    println!(
        "{:<15} {:<26} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "reference", "candidate", "worse by", "bound", "spread"
    );
    let mut all_ok = true;
    for workload in crate::workloads::NAMES {
        for metric in &END_TO_END {
            let (Some(a), Some(b)) = (
                values_of(&reference, workload, metric.name),
                values_of(&candidate, workload, metric.name),
            ) else {
                println!("{workload:<15} {:<26} missing on one side", metric.name);
                all_ok = false;
                continue;
            };
            if a.is_empty() || b.is_empty() {
                println!("{workload:<15} {:<26} no runs on one side", metric.name);
                all_ok = false;
                continue;
            }
            let (worse_by, spread, verdict) = judge(metric, &a, &b, same_seed);
            all_ok &= verdict != Verdict::Worse;
            let bound = if metric.exact_per_seed && same_seed {
                0.0
            } else {
                metric.bound
            };
            println!(
                "{workload:<15} {:<26} {:>12} {:>12} {:>+8.2}% {:>6.1}% {:>7}  {}",
                metric.name,
                crate::report::fmt_value(median(&a)),
                crate::report::fmt_value(median(&b)),
                100.0 * worse_by,
                100.0 * bound,
                spread.map_or("n/a".to_owned(), |s| format!("{:.1}%", 100.0 * s)),
                verdict.as_str()
            );
        }
        let failed = failed_of(&candidate, workload);
        if failed > 0.0 {
            println!("{workload:<15} failed decisions: {failed}  worse");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn direction_follows_the_metric() {
        let latency = end_to_end("decision_latency_p50_ms").unwrap();
        let rate = end_to_end("decisions_per_s").unwrap();
        assert!((worsening(latency, 100.0, 108.0) - 0.08).abs() < 1e-12);
        assert!((worsening(rate, 100.0, 92.0) - 0.08).abs() < 1e-12);
        assert!(worsening(rate, 100.0, 120.0) < 0.0, "faster is not worse");
    }

    #[test]
    fn verdicts() {
        let latency = end_to_end("decision_latency_p50_ms").unwrap();
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.4).collect();
        let slightly: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(latency, &steady, &slightly, false).2, Verdict::Ok);
        assert_eq!(judge(latency, &steady, &slower, false).2, Verdict::Worse);
        assert_eq!(
            judge(latency, &steady, &noisy, false).2,
            Verdict::Unresolved
        );
        // A single run has no spread: the difference alone decides.
        assert_eq!(judge(latency, &[100.0], &[130.0], false).2, Verdict::Worse);
        assert_eq!(judge(latency, &[100.0], &[104.0], false).1, None);
    }

    #[test]
    fn exact_metrics_must_repeat_on_one_seed() {
        let wire = end_to_end("wire_bytes_per_decision").unwrap();
        assert_eq!(
            judge(wire, &[5000.0, 5000.0], &[5000.0], true).2,
            Verdict::Ok
        );
        assert_eq!(
            judge(wire, &[5000.0, 5000.0], &[5001.0], true).2,
            Verdict::Worse
        );
        // Across seeds the inputs differ, and only the bound applies.
        assert_eq!(judge(wire, &[5000.0], &[5001.0], false).2, Verdict::Ok);
    }
}

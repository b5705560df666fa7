//! The decision benchmark of the convex-agreement stack. See README.md.
//!
//! ```text
//! ca-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! ca-benchmark all [--seed N] [--seconds S] [--runs K] [--smoke | --traced]
//! ca-benchmark probe
//! ca-benchmark compare REFERENCE.json CANDIDATE.json
//! ca-benchmark manifest                                        prints BENCHMARK.json
//! ```

mod clock;
mod compare;
mod gen;
mod json;
mod metrics;
mod probe;
mod report;
mod span;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use workloads::Config;

/// `run_seconds` of `BENCHMARK.json`, and what `all` passes on.
const RUN_SECONDS: u32 = 12;
/// Least time each probe repeats for: on its own, and inside a traced run
/// (where six workloads each pay for all of them).
const PROBE_BUDGET: Duration = Duration::from_millis(300);
const PROBE_BUDGET_IN_RUN: Duration = Duration::from_millis(100);
/// Where `all` leaves `results.json` and the trace files.
const OUT_DIR: &str = "benchmark/out";

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("probe") => {
            let values = report::probe_values(&probe::run_all(PROBE_BUDGET));
            report::print_lines("probe", &values);
            println!("{}", report::result_json(1, 0, &values).render());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [reference, candidate] => compare::run(reference, candidate),
            _ => Err("usage: compare REFERENCE.json CANDIDATE.json".to_owned()),
        },
        Some("manifest") => {
            print!("{}", report::manifest(RUN_SECONDS));
            Ok(true)
        }
        _ => one_run(&args, epoch),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ca-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare `--flag`s.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = if switches.contains(&name) {
                "1".to_owned()
            } else {
                it.next()
                    .ok_or_else(|| format!("`{arg}` needs a value"))?
                    .clone()
            };
            map.insert(name.to_owned(), value);
        }
        Ok(Self(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad value `{raw}` for --{name}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// One workload, one process: the mode the acceptance driver calls.
fn one_run(args: &[String], epoch: Instant) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke", "skip-probes"])?;
    let workload: String = flags.get("workload", String::new())?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?} (or use `all`, `probe`, `compare`, `manifest`)",
            workloads::NAMES
        ));
    }
    let cfg = Config {
        seed: flags.get("seed", 1)?,
        seconds: flags.get("seconds", f64::from(RUN_SECONDS))?,
        smoke: flags.has("smoke"),
        epoch,
    };
    let traced = match flags.get("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let (attempted, failed, values) = if traced {
        let run = workloads::run_traced(&workload, &cfg).expect("name checked above");
        let mut values = report::traced_values(&run);
        if !flags.has("skip-probes") {
            values.extend(report::probe_values(&probe::run_all(PROBE_BUDGET_IN_RUN)));
        }
        if let Some(dir) = flags.0.get("out") {
            write_trace(Path::new(dir), &workload, &run.first_decision)?;
        }
        report::print_lines(&workload, &values);
        (run.attempted, run.failed, values)
    } else {
        let run = workloads::run_untraced(&workload, &cfg).expect("name checked above");
        if workload == "tcp_small" {
            println!("{workload} note: no delay is injected and Δ never fires; latency is processor and loopback syscall time only");
        }
        let values = report::end_to_end_values(&run)?;
        report::print_lines(&workload, &values);
        report::print_lines(&workload, &report::informational_values(&run));
        (run.attempted, run.failed, values)
    };
    println!(
        "{}",
        report::result_json(attempted, failed, &values).render()
    );
    // The result line says whether the run was correct; `all` acts on it.
    Ok(true)
}

fn write_trace(dir: &Path, workload: &str, traces: &[span::Trace]) -> Result<(), String> {
    let mut text = String::new();
    for trace in traces {
        trace.write_jsonl(&mut text);
    }
    let path = dir.join(format!("trace_{workload}.jsonl"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, each in a process of its own, then `results.json`.
fn all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke", "traced"])?;
    let seed: u64 = flags.get("seed", 1)?;
    let seconds: f64 = flags.get("seconds", f64::from(RUN_SECONDS))?;
    let runs: usize = flags.get("runs", 1)?;
    let out_dir = PathBuf::from(flags.get("out", OUT_DIR.to_owned())?);
    let (smoke, traced_only) = (flags.has("smoke"), flags.has("traced"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let common = |workload: &str, trace: &str| {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--trace", trace]);
        cmd.args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
        cmd
    };

    let mut all_ok = true;
    let mut workloads_json = BTreeMap::new();
    for workload in workloads::NAMES {
        let mut sections = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        if !traced_only {
            let mut results = Vec::new();
            for _ in 0..runs {
                let mut cmd = common(workload, "0");
                if smoke {
                    cmd.arg("--smoke");
                }
                results.push(run_child(cmd)?);
            }
            for r in &results {
                attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
                failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            }
            sections.insert("end_to_end".to_owned(), gather(&results));
        }
        if !smoke {
            let mut cmd = common(workload, "1");
            cmd.args(["--skip-probes", "--out"]).arg(&out_dir);
            let result = run_child(cmd)?;
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            sections.insert("per_layer".to_owned(), gather(&[result]));
        }
        all_ok &= failed == 0.0;
        sections.insert("attempted".to_owned(), Json::Num(attempted));
        sections.insert("failed".to_owned(), Json::Num(failed));
        workloads_json.insert(workload.to_owned(), Json::Obj(sections));
    }

    let mut doc = BTreeMap::from([
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("smoke".to_owned(), Json::Bool(smoke)),
        ("nproc".to_owned(), Json::Num(nproc() as f64)),
        ("workloads".to_owned(), Json::Obj(workloads_json)),
    ]);
    if !smoke {
        let mut cmd = Command::new(&exe);
        cmd.arg("probe");
        doc.insert("probe".to_owned(), gather(&[run_child(cmd)?]));
    }
    let path = out_dir.join("results.json");
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(doc).render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {} ({} cores)", path.display(), nproc());
    Ok(all_ok)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs a child to completion, echoes its report lines and parses its
/// JSON result line.
fn run_child(mut cmd: Command) -> Result<Json, String> {
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{cmd:?} ended with {}", output.status));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let (lines, last) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or("the child printed no result line")?;
    println!("{lines}");
    Json::parse(last).map_err(|e| format!("bad result line: {e}"))
}

/// `{metric: {unit, values: [one per run]}}` from the runs' result lines.
fn gather(results: &[Json]) -> Json {
    let mut by_metric: BTreeMap<String, (String, Vec<Json>)> = BTreeMap::new();
    for result in results {
        let Some(metrics) = result.get("metrics").and_then(Json::as_obj) else {
            continue;
        };
        for (name, entry) in metrics {
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            let slot = by_metric
                .entry(name.clone())
                .or_insert_with(|| (unit.to_owned(), Vec::new()));
            slot.1.extend(entry.get("value").cloned());
        }
    }
    Json::Obj(
        by_metric
            .into_iter()
            .map(|(name, (unit, values))| {
                let entry = Json::obj([("unit", Json::Str(unit)), ("values", Json::Arr(values))]);
                (name, entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let flags = Flags::parse(
            &strings(&["--seed", "7", "--smoke", "--seconds", "2.5"]),
            &["smoke"],
        )
        .unwrap();
        assert_eq!(flags.get("seed", 1u64), Ok(7));
        assert_eq!(flags.get("seconds", 0.0), Ok(2.5));
        assert_eq!(flags.get("runs", 3usize), Ok(3));
        assert!(flags.has("smoke") && !flags.has("traced"));
        assert!(flags.get::<u64>("seconds", 0).is_err());
        assert!(Flags::parse(&strings(&["--seed"]), &[]).is_err());
        assert!(Flags::parse(&strings(&["seed", "1"]), &[]).is_err());
    }

    #[test]
    fn gather_collects_one_value_per_run() {
        let run = |v: f64| {
            Json::parse(&format!(
                r#"{{"correct":true,"attempted":3,"failed":0,"metrics":{{"setup_s":{{"value":{v},"unit":"s"}}}}}}"#
            ))
            .unwrap()
        };
        let gathered = gather(&[run(0.5), run(0.75)]);
        let setup = gathered.get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            setup.get("values").unwrap().as_arr().unwrap(),
            [Json::Num(0.5), Json::Num(0.75)]
        );
    }

    #[test]
    fn an_unknown_workload_is_a_usage_error() {
        let err = one_run(&strings(&["--workload", "nope"]), Instant::now()).unwrap_err();
        assert!(err.contains("sim_small"));
        assert!(one_run(
            &strings(&["--workload", "sim_small", "--trace", "2"]),
            Instant::now()
        )
        .is_err());
    }
}

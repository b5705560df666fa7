//! Closed-loop load generation demo: run multiplexed CA deployments
//! back to back for N seconds (default 2) and print the service summary.
//!
//! ```text
//! cargo run -p ca-engine --example closed_loop -- 2
//! ```

#![allow(clippy::print_stdout, reason = "an example prints what it shows")]

use std::time::Duration;

use ca_engine::loadgen::{run_closed_loop_for, LoadProfile};
use ca_runtime::MonotonicClock;

fn main() {
    let secs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);

    let profile = LoadProfile::closed(4, 8, 64);
    let clock = MonotonicClock::default();
    let report = run_closed_loop_for(&profile, Duration::from_secs(secs), &clock);

    println!("closed-loop loadgen: {secs}s budget");
    println!("  runs               {}", report.runs);
    println!(
        "  sessions           {} decided / {} submitted",
        report.sessions_decided, report.sessions_submitted
    );
    println!(
        "  sessions/sec       {:.1}",
        report.sessions_per_sec().unwrap_or(0.0)
    );
    println!(
        "  correctness        agreement={} validity={}",
        report.agreement, report.validity
    );
    println!(
        "  latency (rounds)   p50={} p99={}",
        report.stats.session_latency_rounds.quantile_permille(500),
        report.stats.session_latency_rounds.quantile_permille(990)
    );
    println!(
        "  batch occupancy    mean={} max={}",
        report.stats.batch_occupancy.mean(),
        report.stats.batch_occupancy.max()
    );
    println!(
        "  payload bits       {} total, {} per session",
        report.payload_bits,
        report.payload_bits / report.sessions_decided.max(1)
    );
    println!(
        "  wire bits (model)  {} total, {} per session",
        report.stats.wire_bits,
        report.stats.wire_bits / report.sessions_decided.max(1)
    );
    assert!(report.agreement && report.validity, "correctness violated");
}

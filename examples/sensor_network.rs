//! The paper's motivating scenario (§1): a cooling-room sensor network.
//!
//! Correct sensors measure between −10.05 °C and −10.03 °C; byzantine
//! sensors report +100 °C. Plain Byzantine Agreement only guarantees a
//! common output — when honest inputs differ even slightly, the adversary
//! can steer the result. Convex Agreement pins the output inside the
//! honest measurement range.
//!
//! Run with: `cargo run --release --example sensor_network`

#![allow(clippy::print_stdout, reason = "an example prints what it shows")]

use convex_agreement::ba::{turpin_coan, BaKind};
use convex_agreement::bits::Int;
use convex_agreement::core::{check_convex_validity, pi_z};
use convex_agreement::net::{Corruption, PartyId, Sim};

/// Centi-degrees Celsius, so −10.05 °C = −1005.
fn celsius(centi: i64) -> String {
    format!("{:.2} °C", centi as f64 / 100.0)
}

fn main() {
    let n = 7;
    let t = 2;
    // Honest readings −10.05 … −10.03 °C; byzantine sensors claim +100 °C.
    let readings: Vec<i64> = vec![-1005, -1004, -1003, -1005, -1004, 10_000, 10_000];
    let inputs: Vec<Int> = readings.iter().map(|&v| Int::from_i64(v)).collect();

    println!("cooling-room sensors: n = {n}, t = {t}");
    for (i, r) in readings.iter().enumerate() {
        let tag = if i >= n - t { "BYZANTINE" } else { "honest" };
        println!("  sensor {i}: {:>10}  [{tag}]", celsius(*r));
    }
    println!();

    let build = || {
        Sim::new(n)
            .corrupt(PartyId(5), Corruption::LyingHonest)
            .corrupt(PartyId(6), Corruption::LyingHonest)
    };

    // --- Plain BA: agreement, but on what? ---
    let ba_report = build().run(|ctx, id| turpin_coan(ctx, inputs[id.index()].clone()));
    let ba_out = (*ba_report.honest_outputs()[0]).clone();
    let ba_centi = ba_out.to_i128().unwrap_or_default();
    println!(
        "plain Byzantine Agreement output: {}",
        celsius(ba_centi as i64)
    );
    let honest_inputs = &inputs[..n - t];
    println!(
        "  within honest range? {}",
        check_convex_validity(&[ba_out], honest_inputs)
    );

    // --- Convex Agreement: output must reflect honest measurements. ---
    let ca_report = build().run(|ctx, id| pi_z(ctx, &inputs[id.index()], BaKind::TurpinCoan));
    let ca_out = (*ca_report.honest_outputs()[0]).clone();
    let ca_centi = ca_out.to_i128().unwrap() as i64;
    println!();
    println!("Convex Agreement output:          {}", celsius(ca_centi));
    println!(
        "  within honest range? {}",
        check_convex_validity(&[ca_out], honest_inputs)
    );
    println!();
    println!(
        "CA cost: {} rounds, {} honest bits",
        ca_report.metrics.rounds, ca_report.metrics.honest_bits
    );
}

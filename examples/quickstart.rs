//! Quickstart: seven parties (two byzantine) agree on a signed integer.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::print_stdout, reason = "an example prints what it shows")]

use convex_agreement::adversary::{Attack, AttackKind, LieKind};
use convex_agreement::bits::Int;
use convex_agreement::core::{check_agreement, check_convex_validity, CaProtocol};
use convex_agreement::net::Sim;

fn main() {
    let n = 7;
    let t = 2; // < n/3

    // Honest inputs cluster around −1000; the two corrupted parties run the
    // protocol honestly but lie about their inputs, claiming 10^15.
    let mut inputs: Vec<Int> = vec![-1002, -998, -1000, -1001, -999]
        .into_iter()
        .map(Int::from_i64)
        .collect();
    inputs.push(Int::from_i64(1_000_000_000_000_000));
    inputs.push(Int::from_i64(1_000_000_000_000_000));

    let attack = Attack::new(AttackKind::Lying(LieKind::ExtremeHigh));
    let proto = CaProtocol::new();

    println!("convex-agreement quickstart: n = {n}, t = {t}");
    println!("honest inputs: {:?}", &inputs[..n - t]);
    println!("lying inputs:  {:?}", &inputs[n - t..]);
    println!();

    let sim = attack.install(Sim::new(n), n, t);
    let report = sim.run(|ctx, id| proto.run_int(ctx, &inputs[id.index()]));

    let outputs: Vec<Int> = report.honest_outputs().into_iter().cloned().collect();
    let honest_inputs = &inputs[..n - t];

    println!("agreed output: {}", outputs[0]);
    println!(
        "agreement: {}   convex validity: {}",
        check_agreement(&outputs),
        check_convex_validity(&outputs, honest_inputs),
    );
    println!();
    println!(
        "cost: {} rounds, {} bits sent by honest parties",
        report.metrics.rounds, report.metrics.honest_bits
    );
    println!();
    println!("per-subprotocol breakdown:");
    print!("{}", report.metrics);
}

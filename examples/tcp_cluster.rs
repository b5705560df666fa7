//! Deployment demo: the very same `Π_ℤ` protocol code, running over real
//! localhost TCP sockets with Δ-timeout round synchronization instead of
//! the lock-step simulator.
//!
//! Run with: `cargo run --release --example tcp_cluster`

#![allow(
    clippy::print_stdout,
    clippy::disallowed_methods,
    reason = "an example prints what it shows, with its wall time"
)]

use std::time::{Duration, Instant};

use convex_agreement::ba::BaKind;
use convex_agreement::bits::Int;
use convex_agreement::core::{check_agreement, check_convex_validity, pi_z};
use convex_agreement::runtime::TcpCluster;

fn main() {
    let n = 4;
    let inputs: Vec<Int> = vec![100, 104, 96, 101]
        .into_iter()
        .map(Int::from_i64)
        .collect();

    println!("TCP cluster demo: {n} parties over 127.0.0.1, Δ = 500 ms");
    println!("inputs: {inputs:?}");

    let started = Instant::now();
    let outputs = TcpCluster::new(n)
        .with_delta(Duration::from_millis(500))
        .run(|ctx, id| pi_z(ctx, &inputs[id.index()], BaKind::TurpinCoan))
        .expect("cluster setup");
    let elapsed = started.elapsed();

    println!("outputs: {outputs:?}");
    println!(
        "agreement: {}   convex validity: {}",
        check_agreement(&outputs),
        check_convex_validity(&outputs, &inputs)
    );
    println!("wall-clock: {elapsed:.2?}");
}

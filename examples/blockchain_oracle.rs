//! A decentralized price-oracle committee (one of the CA applications the
//! paper cites [5, 14]): `n` oracles observe an asset price with small
//! jitter, a byzantine coalition tries to drag the reported price both
//! ways, and the committee must publish one price inside the honest band.
//!
//! This example also exercises the *long-input* machinery: the committee
//! additionally agrees on a high-precision (2048-bit) cumulative index
//! value, which routes `Π_ℕ` through the block-granular path (§4).
//!
//! Run with: `cargo run --release --example blockchain_oracle`

#![allow(clippy::print_stdout, reason = "an example prints what it shows")]

use convex_agreement::adversary::{Attack, AttackKind, LieKind};
use convex_agreement::bits::{Int, Nat};
use convex_agreement::core::{check_agreement, check_convex_validity, CaProtocol};
use convex_agreement::net::Sim;

fn main() {
    let n = 10;
    let t = 3;
    let proto = CaProtocol::new();

    // --- Part 1: spot price (short inputs) ---------------------------------
    // Honest oracles observe 4 213 507 ± jitter (price in 1e-2 cents).
    let mut prices: Vec<Int> = vec![
        4_213_507i64,
        4_213_509,
        4_213_502,
        4_213_511,
        4_213_505,
        4_213_508,
        4_213_506,
    ]
    .into_iter()
    .map(Int::from_i64)
    .collect();
    // The coalition splits: two drag up, one drags down.
    prices.push(Int::from_i64(9_999_999));
    prices.push(Int::from_i64(1));
    prices.push(Int::from_i64(9_999_999));

    let attack = Attack::new(AttackKind::Lying(LieKind::Split));
    let sim = attack.install(Sim::new(n), n, t);
    let report = sim.run(|ctx, id| proto.run_int(ctx, &prices[id.index()]));
    let outputs: Vec<Int> = report.honest_outputs().into_iter().cloned().collect();
    let honest = &prices[..n - t];

    println!("oracle committee: n = {n}, t = {t}");
    println!(
        "honest price band: [{}, {}]",
        honest.iter().min().unwrap(),
        honest.iter().max().unwrap()
    );
    println!("published price:   {}", outputs[0]);
    println!(
        "agreement: {}   convex validity: {}",
        check_agreement(&outputs),
        check_convex_validity(&outputs, honest)
    );
    println!(
        "cost: {} rounds, {} honest bits\n",
        report.metrics.rounds, report.metrics.honest_bits
    );

    // --- Part 2: high-precision cumulative index (long inputs) -------------
    // 2048-bit values: n² = 100 < 2048 engages FixedLengthCABlocks.
    let base = Nat::pow2(2047);
    let indices: Vec<Nat> = (0..n as u64)
        .map(|i| base.add(&Nat::from_u64(i * 1_000_003)))
        .collect();
    let report = Sim::new(n).run(|ctx, id| proto.run_nat(ctx, &indices[id.index()]));
    let outputs: Vec<Nat> = report.honest_outputs().into_iter().cloned().collect();

    println!("high-precision index (ℓ = 2048 bits, long-input path):");
    println!("agreed index bit-length: {}", outputs[0].bit_len());
    println!(
        "agreement: {}   convex validity: {}",
        check_agreement(&outputs),
        check_convex_validity(&outputs, &indices)
    );
    println!(
        "cost: {} rounds, {} honest bits",
        report.metrics.rounds, report.metrics.honest_bits
    );
    println!("\nper-subprotocol breakdown:");
    print!("{}", report.metrics);
}

//! Probes: single-threaded direct calls into public functions, at the
//! shapes the workloads use them in. They price a layer in isolation, so
//! that a traced share ("lba+ self is 70 % of the decision") can be turned
//! into a prediction ("encode at 2× saves this many milliseconds").

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use convex_agreement::asynchrony::{rounds_for_spread, AsyncApprox, DeliverySchedule, Executor};
use convex_agreement::ba::BaKind;
use convex_agreement::bits::{BitString, Nat};
use convex_agreement::codec::{Decode, Encode};
use convex_agreement::core::pi_z;
use convex_agreement::crypto::{sha256, MerkleTree};
use convex_agreement::erasure::{ReedSolomon, Share, ShareRef};
use convex_agreement::net::{CommExt, PartyId, Sim};
use convex_agreement::runtime::TcpCluster;
use convex_agreement::trace::{RingBufferSink, TraceSink};

use crate::gen::{int_pool, SplitMix, POOL};

/// The payload `lba_bulk` agrees on, and a party's input in `sim_bulk`.
const LBA_BYTES: usize = 1 << 20;
const BULK_BYTES: usize = 1 << 18;

/// Seconds per call of `f`, repeated until `budget` is spent.
fn time_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // first call pays page faults and lazy tables
    let started = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || started.elapsed() < budget {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() / f64::from(calls)
}

/// Megabytes (10⁶ bytes) of `bytes` processed per second by `f`.
fn mb_per_s(budget: Duration, bytes: usize, f: impl FnMut()) -> f64 {
    bytes as f64 / 1e6 / time_per_call(budget, f)
}

/// Runs every probe, each for at least `budget`, and returns
/// `(metric, value)` in the order of [`crate::metrics::PROBE_LAYERS`].
pub fn run_all(budget: Duration) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    erasure_and_crypto(budget, &mut out);
    codec_and_bits(budget, &mut out);
    rounds(budget, &mut out);
    out
}

fn erasure_and_crypto(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = SplitMix::new(0xE2E1);
    let payload = rng.bytes(LBA_BYTES);
    let (n, k) = (31, 21);
    out.push((
        "erasure.new_us.n31",
        1e6 * time_per_call(budget, || {
            black_box(ReedSolomon::new(black_box(n), k).expect("valid (n, k)"));
        }),
    ));
    let rs = ReedSolomon::new(n, k).expect("valid (n, k)");
    out.push((
        "erasure.encode_mbps.n31",
        mb_per_s(budget, payload.len(), || {
            black_box(rs.encode(black_box(&payload)));
        }),
    ));
    let rs16 = ReedSolomon::new(16, 11).expect("valid (n, k)");
    let small = &payload[..BULK_BYTES];
    out.push((
        "erasure.encode_mbps.n16",
        mb_per_s(budget, small.len(), || {
            black_box(rs16.encode(black_box(small)));
        }),
    ));

    let shares = rs.encode(&payload);
    let indexed: Vec<(usize, Share)> = shares.iter().cloned().enumerate().collect();
    // All honest: the k data shares are there and decode copies them.
    let systematic = &indexed[..k];
    assert!(rs.decode(systematic).is_ok_and(|p| p == payload));
    out.push((
        "erasure.decode_systematic_mbps.n31",
        mb_per_s(budget, payload.len(), || {
            black_box(rs.decode(black_box(systematic)).expect("k shares decode"));
        }),
    ));
    // Parties 0..t silent: the first t data shares must be reconstructed.
    let survivors = &indexed[n - k..];
    assert!(rs.decode(survivors).is_ok_and(|p| p == payload));
    out.push((
        "erasure.decode_reconstruct_mbps.n31",
        mb_per_s(budget, payload.len(), || {
            black_box(rs.decode(black_box(survivors)).expect("k shares decode"));
        }),
    ));

    let leaves: Vec<Vec<u8>> = shares.iter().map(Encode::encode_to_vec).collect();
    let leaf_bytes: usize = leaves.iter().map(Vec::len).sum();
    out.push((
        "crypto.sha256_mbps",
        mb_per_s(budget, leaves[0].len(), || {
            black_box(sha256(black_box(&leaves[0])));
        }),
    ));
    out.push((
        "crypto.merkle_build_mbps.n31",
        mb_per_s(budget, leaf_bytes, || {
            black_box(MerkleTree::build(black_box(&leaves)));
        }),
    ));
    let tree = MerkleTree::build(&leaves);
    let (root, witness) = (tree.root(), tree.witness(n / 2));
    assert!(MerkleTree::verify(root, n / 2, &leaves[n / 2], &witness));
    out.push((
        "crypto.merkle_verify_us.n31",
        1e6 * time_per_call(budget, || {
            black_box(MerkleTree::verify(
                root,
                n / 2,
                black_box(&leaves[n / 2]),
                &witness,
            ));
        }),
    ));

    let encoded = &leaves[0];
    out.push((
        "codec.share_encode_mbps",
        mb_per_s(budget, encoded.len(), || {
            black_box(black_box(&shares[0]).encode_to_vec());
        }),
    ));
    out.push((
        "codec.share_decode_ref_mbps",
        mb_per_s(budget, encoded.len(), || {
            let view = ShareRef::decode_from_slice(black_box(encoded)).expect("own encoding");
            black_box(view.to_share());
        }),
    ));
}

fn codec_and_bits(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = SplitMix::new(0xB175);
    let len = 8 * BULK_BYTES;
    let mut a = BitString::from_packed(&rng.bytes(BULK_BYTES), len);
    a.set(0, true);
    // Equal up to the last byte: `cmp_val` has to walk the whole value.
    let mut b = a.clone();
    b.set(len - 1, !a.get(len - 1));
    let nat = a.val();

    out.push((
        "codec.bitstring_roundtrip_mbps",
        mb_per_s(budget, BULK_BYTES, || {
            let wire = black_box(&a).encode_to_vec();
            black_box(BitString::decode_from_slice(&wire).expect("own encoding"));
        }),
    ));
    // Off byte boundaries at both ends, like a prefix window.
    out.push((
        "bits.slice_mbps",
        mb_per_s(budget, BULK_BYTES, || {
            black_box(black_box(&a).slice(3, len - 5));
        }),
    ));
    let head = a.slice(0, 3);
    out.push((
        "bits.extend_from_mbps",
        mb_per_s(budget, BULK_BYTES, || {
            let mut grown = head.clone();
            grown.extend_from(black_box(&b));
            black_box(grown);
        }),
    ));
    out.push((
        "bits.cmp_val_mbps",
        mb_per_s(budget, BULK_BYTES, || {
            black_box(black_box(&a).cmp_val(black_box(&b)));
        }),
    ));
    out.push((
        "bits.nat_to_bits_mbps",
        mb_per_s(budget, BULK_BYTES, || {
            black_box(
                black_box(&nat)
                    .to_bits_len(len)
                    .expect("fits its own length"),
            );
        }),
    ));
    out.push((
        "bits.val_mbps",
        mb_per_s(budget, BULK_BYTES, || {
            black_box(black_box(&a).val());
        }),
    ));
}

fn rounds(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    // Empty exchanges: what a round costs when the protocol does nothing.
    const ROUNDS: u32 = 500;
    let exchange_loop = |ctx: &mut dyn convex_agreement::net::Comm| {
        for _ in 0..ROUNDS {
            black_box(ctx.exchange(&()));
        }
    };
    let per_sim_run = time_per_call(budget, || {
        let report = Sim::new(16).run(|ctx, _| exchange_loop(ctx));
        assert_eq!(report.metrics.rounds, u64::from(ROUNDS));
    });
    out.push((
        "net.sim_round_us.n16",
        1e6 * per_sim_run / f64::from(ROUNDS),
    ));

    // Timed inside the cluster, on party 0, so establishment is left out.
    let started = Instant::now();
    let mut per_round = Vec::new();
    while per_round.is_empty() || started.elapsed() < budget {
        let outputs = TcpCluster::new(7)
            .with_delta(Duration::from_secs(5))
            .run(|ctx, _| {
                let started = Instant::now();
                exchange_loop(ctx);
                started.elapsed().as_secs_f64() / f64::from(ROUNDS)
            })
            .expect("loopback cluster");
        per_round.push(outputs[0]);
    }
    out.push((
        "runtime.tcp_round_us.n7",
        1e6 * crate::stats::median(&per_round),
    ));

    let per_tc = time_per_call(budget, || {
        let report =
            Sim::new(16).run(|ctx, id| BaKind::TurpinCoan.run_bit(ctx, id.index() % 2 == 0));
        assert!(convex_agreement::core::check_agreement(
            &report.honest_outputs()
        ));
    });
    out.push(("ba.tc_bit_ms.n16", 1e3 * per_tc));

    let (n, t) = (4, 1);
    let inputs = [1_000u64, 1_400, 1_800, 2_024];
    let aaa_rounds = rounds_for_spread(&Nat::from_u64(1_024));
    let per_aaa = time_per_call(budget, || {
        let parties = (0..n)
            .map(|i| AsyncApprox::new(n, t, PartyId(i), Nat::from_u64(inputs[i]), aaa_rounds))
            .collect();
        let report = Executor::new(parties, DeliverySchedule::uniform(7, 10, 5)).run();
        assert_eq!(report.surviving_outputs().len(), n, "every party decides");
    });
    out.push(("async.aaa_decide_ms.n4", 1e3 * per_aaa));

    // One pass over a `sim_small` pool with the ring sink recording every
    // event against one without a sink.
    let pool = int_pool(1, "sim_small", 16, 256, 64);
    let pass = |sink: Option<Arc<dyn TraceSink>>| {
        let started = Instant::now();
        for inputs in pool.iter().take(POOL / 2) {
            let sim = match &sink {
                Some(sink) => Sim::new(16).with_trace(Arc::clone(sink)),
                None => Sim::new(16),
            };
            black_box(sim.run(|ctx, id| pi_z(ctx, &inputs[id.index()], BaKind::default())));
        }
        started.elapsed().as_secs_f64()
    };
    pass(None);
    let bare = pass(None);
    let ring: Arc<dyn TraceSink> = Arc::new(RingBufferSink::new(1 << 16));
    let recorded = pass(Some(ring));
    out.push((
        "trace.ring_sink_overhead_pct",
        100.0 * (recorded / bare - 1.0),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PROBE_LAYERS;

    #[test]
    fn probes_report_every_probe_metric_in_order() {
        let got = run_all(Duration::from_millis(1));
        let names: Vec<&str> = got.iter().map(|(name, _)| *name).collect();
        let expected: Vec<&str> = PROBE_LAYERS.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        for (name, value) in got {
            // The overhead can come out negative on a noisy box; every
            // rate and time is a positive finite number.
            assert!(value.is_finite(), "{name} = {value}");
            assert!(
                name == "trace.ring_sink_overhead_pct" || value > 0.0,
                "{name} = {value}"
            );
        }
    }
}

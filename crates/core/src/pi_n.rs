//! `Π_ℕ` (§5, Theorem 5): the final CA protocol for naturals of *unknown*
//! length.
//!
//! Combines the two fixed-length protocols and removes the public-`ℓ`
//! assumption:
//!
//! 1. One binary BA decides the regime: "short" (`|BITS(v)| ≤ n²`) or
//!    "long".
//! 2. **Short path**: parties agree on an estimate `ℓ_EST = 2^i` by testing
//!    powers of two with binary BA (`O(log n)` of them), clamp over-long
//!    inputs to `2^{ℓ_EST} − 1` (valid because some honest party fits), and
//!    run `FixedLengthCA`.
//! 3. **Long path**: parties agree on a common block size with one
//!    `HighCostCA` on the (short) numbers `⌈|BITS(v)|/n²⌉`, set
//!    `ℓ_EST = BLOCKSIZE′·n²`, clamp, and run `FixedLengthCABlocks`.
//!
//! Costs (Theorem 5): `BITSℓ(Π_ℕ) = O(ℓn + κ·n²·log²n) + O(log n)·BITSκ(Π_BA)`,
//! `ROUNDSℓ = O(n) + O(log n)·ROUNDSκ(Π_BA)`.
//!
//! ## Deviation note
//!
//! The paper clamps on `|BITS(v_IN)| ≥ ℓ_EST` in the long path (line 10)
//! but on `>` in the short path (line 6); clamping a value of length
//! *exactly* `ℓ_EST` is unnecessary for the `v < 2^ℓ` precondition and can
//! violate convex validity (it would *raise* an in-range value to
//! `2^{ℓ_EST}−1`), so we use strict `>` in both paths, matching the proof
//! text ("if an honest party's input value is **longer than** ℓ_EST bits").

use ca_ba::BaKind;
use ca_bits::{BitString, Nat};
use ca_net::{block_on, Comm, Ctx};

use crate::fixed_length::fixed_length_ca_async;
use crate::fixed_length_blocks::fixed_length_ca_blocks_async;
use crate::high_cost::high_cost_ca_async;

/// Runs `Π_ℕ` on an arbitrary-size natural input.
///
/// Guarantees (Theorem 5, `t < n/3`): Termination, Agreement, Convex
/// Validity.
///
/// # Examples
///
/// ```
/// use ca_bits::Nat;
/// use ca_core::{pi_n, BaKind};
/// use ca_net::Sim;
///
/// let inputs = [100u64, 90, 95, 98].map(Nat::from_u64);
/// let report = Sim::new(4).run(|ctx, id| pi_n(ctx, &inputs[id.index()], BaKind::TurpinCoan));
/// let outs = report.honest_outputs();
/// assert!(outs.windows(2).all(|w| w[0] == w[1]));
/// assert!(*outs[0] >= Nat::from_u64(90) && *outs[0] <= Nat::from_u64(100));
/// ```
pub fn pi_n(ctx: &mut dyn Comm, v_in: &Nat, ba: BaKind) -> Nat {
    block_on(pi_n_async(&mut Ctx::live(ctx), v_in, ba))
}

/// [`pi_n`] as an `async fn` over a [`Ctx`].
pub async fn pi_n_async(ctx: &mut Ctx<'_>, v_in: &Nat, ba: BaKind) -> Nat {
    ctx.scoped("pi_n", async |ctx| {
        ctx.trace_input(|| v_in.to_string());
        let out = pi_n_body(ctx, v_in, ba).await;
        ctx.trace_decide(|| out.to_string());
        out
    })
    .await
}

/// `Π_ℕ` proper, inside the `pi_n` scope (split out so the input/decide
/// trace events bracket every return path; also the worst-case fallback
/// of [`crate::pi_n_adaptive`], which brackets it with its own events).
pub(crate) async fn pi_n_body(ctx: &mut Ctx<'_>, v_in: &Nat, ba: BaKind) -> Nat {
    let n = ctx.n();
    let n2 = n * n;

    // Line 1: decide the regime.
    let long = ctx
        .scoped("path_ba", async |ctx| {
            ba.run_bit_async(ctx, v_in.bit_len() > n2).await
        })
        .await;

    if !long {
        // --- Short path ---
        // Some honest party is short, so the all-ones n²-bit value is
        // ≥ it and ≤ any longer honest value: clamping stays valid.
        let mut v = if v_in.bit_len() > n2 {
            Nat::all_ones(n2)
        } else {
            v_in.clone()
        };
        // Lines 4–7: estimate ℓ by scanning powers of two.
        let max_i = usize::max(1, n2.next_power_of_two().trailing_zeros() as usize);
        for i in 0..=max_i {
            let ell = 1usize << i;
            let fits = ctx
                .scoped("len_est", async |ctx| {
                    ba.run_bit_async(ctx, v.bit_len() > ell).await
                })
                .await;
            if !fits {
                // Agreed: some honest party fits in 2^i bits.
                if v.bit_len() > ell {
                    v = Nat::all_ones(ell);
                }
                #[expect(clippy::expect_used, reason = "v was clamped to ℓ bits two lines up")]
                let bits = v.to_bits_len(ell).expect("clamped to ℓ bits");
                return fixed_length_ca_async(ctx, ell, &bits, ba).await.val();
            }
        }
        // Unreachable: at i with 2^i ≥ n² every honest party fits, so
        // Validity forces the loop to stop. Deterministic fallback:
        let ell = 1usize << max_i;
        if v.bit_len() > ell {
            v = Nat::all_ones(ell);
        }
        #[expect(clippy::expect_used, reason = "v was clamped to ℓ bits two lines up")]
        let bits = v.to_bits_len(ell).expect("clamped");
        fixed_length_ca_async(ctx, ell, &bits, ba).await.val()
    } else {
        // --- Long path ---
        // Lines 9–10: agree on a block size within the honest range.
        let blocksize = v_in.bit_len().div_ceil(n2) as u64;
        let blocksize = ctx
            .scoped("blocksize", async |ctx| {
                high_cost_ca_async(ctx, blocksize, |_| true).await
            })
            .await;
        if blocksize == 0 {
            // ⌈ℓ_min/n²⌉ = 0 ⇒ some honest party holds 0; 0 is valid.
            return Nat::zero();
        }
        let ell_est = (blocksize as usize) * n2;
        let v = if v_in.bit_len() > ell_est {
            Nat::all_ones(ell_est)
        } else {
            v_in.clone()
        };
        #[expect(
            clippy::expect_used,
            reason = "v was clamped to ℓ_EST bits two lines up"
        )]
        let bits: BitString = v.to_bits_len(ell_est).expect("clamped to ℓ_EST bits");
        fixed_length_ca_blocks_async(ctx, ell_est, &bits, ba)
            .await
            .val()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test fixtures sized by literals and party counts"
)]
mod tests {
    use super::*;
    use ca_adversary::{Attack, LieKind};
    use ca_net::Sim;

    fn assert_ca(outs: &[Nat], honest: &[Nat]) {
        assert!(!outs.is_empty());
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement");
        let lo = honest.iter().min().unwrap();
        let hi = honest.iter().max().unwrap();
        assert!(
            outs[0] >= *lo && outs[0] <= *hi,
            "convex validity: {:?} ∉ [{:?}, {:?}]",
            outs[0],
            lo,
            hi
        );
    }

    fn run_pi_n(n: usize, inputs: Vec<Nat>, attack: Attack) -> Vec<Nat> {
        let t = ca_net::max_faults(n);
        let sim = attack.install(Sim::new(n), n, t);
        sim.run(move |ctx, id| pi_n(ctx, &inputs[id.index()], BaKind::TurpinCoan))
            .honest_outputs()
            .into_iter()
            .cloned()
            .collect()
    }

    #[test]
    fn short_identical() {
        let outs = run_pi_n(4, vec![Nat::from_u64(12345); 4], Attack::none());
        assert!(outs.iter().all(|v| *v == Nat::from_u64(12345)));
    }

    #[test]
    fn short_mixed() {
        let inputs: Vec<Nat> = [5u64, 900, 42, 77]
            .iter()
            .map(|&v| Nat::from_u64(v))
            .collect();
        let outs = run_pi_n(4, inputs.clone(), Attack::none());
        assert_ca(&outs, &inputs);
    }

    #[test]
    fn includes_zero() {
        let inputs: Vec<Nat> = [0u64, 3, 1, 2].iter().map(|&v| Nat::from_u64(v)).collect();
        let outs = run_pi_n(4, inputs.clone(), Attack::none());
        assert_ca(&outs, &inputs);
    }

    #[test]
    fn all_zero() {
        let outs = run_pi_n(4, vec![Nat::zero(); 4], Attack::none());
        assert!(outs.iter().all(Nat::is_zero));
    }

    #[test]
    fn long_path_engages_for_big_values() {
        let n = 4; // n² = 16 < 200 bits
        let inputs: Vec<Nat> = (0..n as u64)
            .map(|i| Nat::pow2(200).add(&Nat::from_u64(i * 12345)))
            .collect();
        let outs = run_pi_n(n, inputs.clone(), Attack::none());
        assert_ca(&outs, &inputs);
    }

    #[test]
    fn mixed_regimes() {
        // Some honest parties short, some long: either path must stay convex.
        let n = 4;
        let inputs: Vec<Nat> = vec![
            Nat::from_u64(7),
            Nat::pow2(300),
            Nat::from_u64(9),
            Nat::pow2(299),
        ];
        let outs = run_pi_n(n, inputs.clone(), Attack::none());
        assert_ca(&outs, &inputs);
    }

    #[test]
    fn traced_run_checks_clean_and_brackets_io() {
        use std::sync::Arc;
        let inputs: Vec<Nat> = [5u64, 900, 42, 77]
            .iter()
            .map(|&v| Nat::from_u64(v))
            .collect();
        let sink = Arc::new(ca_trace::RingBufferSink::new(2_000_000));
        let expected = inputs.clone();
        let report = Sim::new(4)
            .with_trace(Arc::clone(&sink) as Arc<dyn ca_trace::TraceSink>)
            .run(move |ctx, id| pi_n(ctx, &inputs[id.index()], BaKind::TurpinCoan));
        let outs: Vec<Nat> = report.honest_outputs().into_iter().cloned().collect();
        assert_ca(&outs, &expected);

        let records = sink.records();
        assert_eq!(
            sink.total_seen() as usize,
            records.len(),
            "ring must not have wrapped, or the checks below are partial"
        );
        assert_eq!(ca_trace::check(&records), vec![]);
        for p in 0..4u64 {
            let input = records
                .iter()
                .find(|r| {
                    r.party == Some(p)
                        && r.scope == "pi_n"
                        && matches!(&r.event, ca_trace::Event::Input { .. })
                })
                .expect("every party traces its pi_n input");
            if let ca_trace::Event::Input { value } = &input.event {
                assert_eq!(*value, expected[p as usize].to_string());
            }
            let decide = records
                .iter()
                .find(|r| {
                    r.party == Some(p)
                        && r.scope == "pi_n"
                        && matches!(&r.event, ca_trace::Event::Decide { .. })
                })
                .expect("every party traces its pi_n decision");
            if let ca_trace::Event::Decide { value } = &decide.event {
                assert_eq!(*value, outs[p as usize].to_string());
            }
        }
        // Subprotocol decisions surface under nested scope paths.
        assert!(records.iter().any(
            |r| r.scope.ends_with("/pk") && matches!(&r.event, ca_trace::Event::Decide { .. })
        ));
    }

    #[test]
    fn lying_extremes_suite() {
        let n = 7;
        let t = 2;
        for attack in Attack::standard_suite(17) {
            let mut inputs: Vec<Nat> = (0..n as u64)
                .map(|i| Nat::from_u64(1_000_000 + i))
                .collect();
            if attack.is_lying() {
                for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
                    inputs[p.index()] = match attack.lie_for(idx).unwrap() {
                        LieKind::ExtremeHigh => Nat::pow2(5000), // force long-path lie
                        LieKind::ExtremeLow => Nat::zero(),
                        LieKind::Split => unreachable!(),
                    };
                }
            }
            let honest: Vec<Nat> = match attack.kind {
                ca_adversary::AttackKind::None | ca_adversary::AttackKind::Adaptive => {
                    inputs.clone()
                }
                _ => inputs[..n - t].to_vec(),
            };
            let outs = run_pi_n(n, inputs.clone(), attack);
            assert_ca(&outs, &honest);
        }
    }
}

//! `Π_ℤ` (§6, Corollaries 1–2): the full protocol for signed integers.
//!
//! One binary BA fixes the output sign; parties whose sign disagrees reset
//! their magnitude to 0 (always valid: the agreed sign was held by some
//! honest party, so 0 lies between that party's value and the resetting
//! party's value); then `Π_ℕ` on magnitudes.

use ca_ba::BaKind;
use ca_bits::{Int, Nat, Sign};
use ca_net::{block_on, Comm, Ctx};

use crate::pi_n_async;

/// Runs `Π_ℤ` on a signed integer input.
///
/// Guarantees (Corollary 1, `t < n/3`): Termination, Agreement, Convex
/// Validity over `ℤ`. With the default `Π_BA` this realizes Corollary 2:
/// `BITSℓ(Π_ℤ) = O(ℓn + κ·n²·log²n)`, `ROUNDSℓ(Π_ℤ) = O(n log n)`.
pub fn pi_z(ctx: &mut dyn Comm, input: &Int, ba: BaKind) -> Int {
    block_on(pi_z_async(&mut Ctx::live(ctx), input, ba))
}

/// [`pi_z`] as an `async fn` over a [`Ctx`].
pub(crate) async fn pi_z_async(ctx: &mut Ctx<'_>, input: &Int, ba: BaKind) -> Int {
    ctx.scoped("pi_z", async |ctx| {
        ctx.trace_input(|| input.to_string());
        let sign_out = ctx
            .scoped("sign_ba", async |ctx| {
                ba.run_bit_async(ctx, input.sign().as_bit()).await
            })
            .await;
        let sign_out = Sign::from_bit(sign_out);
        let magnitude = if sign_out == input.sign() {
            input.magnitude().clone()
        } else {
            Nat::zero()
        };
        let mag_out = pi_n_async(ctx, &magnitude, ba).await;
        let out = Int::from_parts(sign_out, mag_out);
        ctx.trace_decide(|| out.to_string());
        out
    })
    .await
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

    fn assert_ca(outs: &[Int], honest: &[Int]) {
        assert!(!outs.is_empty());
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement");
        let lo = honest.iter().min().unwrap();
        let hi = honest.iter().max().unwrap();
        assert!(
            outs[0] >= *lo && outs[0] <= *hi,
            "convex validity: {} ∉ [{lo}, {hi}]",
            outs[0]
        );
    }

    fn run_pi_z(n: usize, inputs: Vec<Int>, attack: Attack) -> Vec<Int> {
        let t = ca_net::max_faults(n);
        let sim = attack.install(Sim::new(n), n, t);
        sim.run(move |ctx, id| pi_z(ctx, &inputs[id.index()], BaKind::TurpinCoan))
            .honest_outputs()
            .into_iter()
            .cloned()
            .collect()
    }

    #[test]
    fn negative_identical() {
        let outs = run_pi_z(4, vec![Int::from_i64(-42); 4], Attack::none());
        assert!(outs.iter().all(|v| *v == Int::from_i64(-42)));
    }

    #[test]
    fn mixed_signs_stay_convex() {
        let inputs: Vec<Int> = [-5i64, 3, -1, 2]
            .iter()
            .map(|&v| Int::from_i64(v))
            .collect();
        let outs = run_pi_z(4, inputs.clone(), Attack::none());
        assert_ca(&outs, &inputs);
    }

    #[test]
    fn all_negative() {
        let inputs: Vec<Int> = [-100i64, -90, -95, -99, -91, -97, -93]
            .iter()
            .map(|&v| Int::from_i64(v))
            .collect();
        let outs = run_pi_z(7, inputs.clone(), Attack::none());
        assert_ca(&outs, &inputs);
    }

    #[test]
    fn sensor_scenario_from_the_introduction() {
        // Honest sensors read −10.05…−10.03 °C; byzantine ones claim +100 °C.
        let n = 7;
        let t = 2;
        let inputs: Vec<Int> = vec![-1005i64, -1004, -1004, -1003, -1005, 10_000, 10_000]
            .into_iter()
            .map(Int::from_i64)
            .collect();
        let attack = Attack::new(ca_adversary::AttackKind::Lying(LieKind::ExtremeHigh));
        let sim = attack.install(Sim::new(n), n, t);
        let report = sim.run(|ctx, id| pi_z(ctx, &inputs[id.index()], BaKind::TurpinCoan));
        let outs: Vec<Int> = report.honest_outputs().into_iter().cloned().collect();
        assert_ca(&outs, &inputs[..5]);
    }

    #[test]
    fn attack_matrix() {
        let n = 7;
        let t = 2;
        for attack in Attack::standard_suite(23) {
            let mut inputs: Vec<Int> = (0..n as i64).map(|i| Int::from_i64(-1000 - i)).collect();
            if attack.is_lying() {
                for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
                    inputs[p.index()] = match attack.lie_for(idx).unwrap() {
                        LieKind::ExtremeHigh => Int::from_i64(i64::MAX),
                        LieKind::ExtremeLow => Int::from_i64(i64::MIN),
                        LieKind::Split => unreachable!(),
                    };
                }
            }
            let honest: Vec<Int> = match attack.kind {
                ca_adversary::AttackKind::None | ca_adversary::AttackKind::Adaptive => {
                    inputs.clone()
                }
                _ => inputs[..n - t].to_vec(),
            };
            let outs = run_pi_z(n, inputs.clone(), attack);
            assert_ca(&outs, &honest);
        }
    }
}

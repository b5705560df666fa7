//! `FixedLengthCA` (§3, Theorem 2): CA for `ℓ`-bit naturals with `ℓ`
//! publicly known.

use ca_ba::BaKind;
use ca_bits::BitString;
use ca_net::{block_on, Comm, Ctx};

use crate::find_prefix::find_prefix_async;
use crate::steps::{add_last_bit_async, get_output_async};

/// Runs `FixedLengthCA(ℓ, v)`.
///
/// `v_in` must be the `ℓ`-bit representation of this party's value; the
/// caller (`Π_ℕ`) guarantees all honest parties use the same `ℓ` and valid
/// values.
///
/// Guarantees (Theorem 2, `t < n/3`): Termination, Agreement, Convex
/// Validity. Costs: `BITSℓ = O(ℓn + κ·n²·log n·log ℓ) + O(log ℓ)·BITSκ(Π_BA)`
/// and `ROUNDSℓ = O(log ℓ)·ROUNDSκ(Π_BA)`.
///
/// # Examples
///
/// ```
/// use ca_bits::Nat;
/// use ca_core::{fixed_length_ca, BaKind};
/// use ca_net::Sim;
///
/// let ell = 8;
/// let inputs = [200u64, 210, 205, 202];
/// let report = Sim::new(4).run(|ctx, id| {
///     let bits = Nat::from_u64(inputs[id.index()]).to_bits_len(ell).unwrap();
///     fixed_length_ca(ctx, ell, &bits, BaKind::TurpinCoan)
/// });
/// let outs = report.honest_outputs();
/// assert!(outs.windows(2).all(|w| w[0] == w[1]));
/// let v = outs[0].val();
/// assert!(v >= Nat::from_u64(200) && v <= Nat::from_u64(210));
/// ```
///
/// # Panics
///
/// Panics if `v_in.len() != ell` or `ell == 0`.
pub fn fixed_length_ca(ctx: &mut dyn Comm, ell: usize, v_in: &BitString, ba: BaKind) -> BitString {
    block_on(fixed_length_ca_async(&mut Ctx::live(ctx), ell, v_in, ba))
}

/// [`fixed_length_ca`] as an `async fn` over a [`Ctx`].
pub(crate) async fn fixed_length_ca_async(
    ctx: &mut Ctx<'_>,
    ell: usize,
    v_in: &BitString,
    ba: BaKind,
) -> BitString {
    ctx.scoped("flca", async |ctx| {
        // Step 1: agree on a valid prefix (and pick up the v, v⊥ witnesses).
        let search = find_prefix_async(ctx, ell, v_in, ba).await;
        if search.prefix.len() == ell {
            // All honest parties hold the same valid value.
            return search.v;
        }
        // Step 2: extend the prefix by one more bit, keeping it valid.
        let prefix = add_last_bit_async(ctx, ell, &search.v, &search.prefix, ba).await;
        // Step 3: the t+1 dissenting honest parties vote the output down to
        // MINℓ(PREFIX*) or up to MAXℓ(PREFIX*).
        get_output_async(ctx, ell, &search.v_bot, &prefix, ba).await
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
    use ca_adversary::{Attack, AttackKind, LieKind};
    use ca_bits::Nat;
    use ca_net::Sim;

    fn run_flca(n: usize, ell: usize, vals: Vec<u64>, attack: Attack) -> Vec<Nat> {
        let t = ca_net::max_faults(n);
        let sim = attack.install(Sim::new(n), n, t);
        let report = sim.run(move |ctx, id| {
            let v = Nat::from_u64(vals[id.index()]).to_bits_len(ell).unwrap();
            fixed_length_ca(ctx, ell, &v, BaKind::TurpinCoan)
        });
        report
            .honest_outputs()
            .into_iter()
            .map(|b| b.val())
            .collect()
    }

    fn assert_ca(outs: &[Nat], honest: &[u64]) {
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement");
        let lo = Nat::from_u64(*honest.iter().min().unwrap());
        let hi = Nat::from_u64(*honest.iter().max().unwrap());
        assert!(
            outs[0] >= lo && outs[0] <= hi,
            "convex validity: {:?} ∉ [{lo:?}, {hi:?}]",
            outs[0]
        );
    }

    #[test]
    fn identical_inputs() {
        let outs = run_flca(4, 12, vec![777; 4], Attack::none());
        assert!(outs.iter().all(|v| *v == Nat::from_u64(777)));
    }

    #[test]
    fn mixed_inputs_honest() {
        let vals = vec![100, 120, 130, 141, 108, 99, 150];
        let outs = run_flca(7, 8, vals.clone(), Attack::none());
        assert_ca(&outs, &vals);
    }

    #[test]
    fn full_attack_matrix_small() {
        let n = 7;
        let t = 2;
        for attack in Attack::standard_suite(42) {
            let mut vals = vec![1000u64, 1010, 1005, 1003, 1008, 1002, 1007];
            if attack.is_lying() {
                for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
                    vals[p.index()] = match attack.lie_for(idx).unwrap() {
                        LieKind::ExtremeHigh => 0xFFFF,
                        LieKind::ExtremeLow => 0,
                        LieKind::Split => unreachable!("lie_for resolves split"),
                    };
                }
            }
            let honest: Vec<u64> = match attack.kind {
                AttackKind::None | AttackKind::Adaptive => vals.clone(),
                _ => vals[..n - t].to_vec(),
            };
            let outs = run_flca(n, 16, vals, attack);
            assert_ca(&outs, &honest);
        }
    }

    #[test]
    fn one_bit_values() {
        let outs = run_flca(4, 1, vec![0, 1, 1, 0], Attack::none());
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        assert!(outs[0] <= Nat::one());
    }
}

//! `FixedLengthCABlocks` (§4, Theorem 4): CA for very long `ℓ`-bit naturals
//! (`ℓ` a known multiple of `n²`).
//!
//! Identical skeleton to [`crate::fixed_length_ca`], but the prefix search
//! moves in blocks of `ℓ/n²` bits (so `O(log n)` instead of `O(log ℓ)`
//! iterations) and the final one-unit extension is a whole block, settled
//! by one `HighCostCA` run on `ℓ/n²`-bit inputs (cheap: `O(ℓ/n² · n³) =
//! O(ℓn)` bits).

use ca_ba::BaKind;
use ca_bits::BitString;
use ca_net::{block_on, Comm, Ctx};

use crate::find_prefix::find_prefix_blocks_async;
use crate::steps::{add_last_block_async, get_output_async};

/// Runs `FixedLengthCABlocks(ℓ, v)`.
///
/// `v_in` must be the `ℓ`-bit representation of this party's value, with
/// `ℓ` a positive multiple of `n²` shared by all honest parties.
///
/// Guarantees (Theorem 4, `t < n/3`): Termination, Agreement, Convex
/// Validity. Costs: `BITSℓ = O(ℓn + κ·n²·log²n) + O(log n)·BITSκ(Π_BA)`,
/// `ROUNDSℓ = O(n) + O(log n)·ROUNDSκ(Π_BA)`.
///
/// # Panics
///
/// Panics if `ell` is not a positive multiple of `n²` or
/// `v_in.len() != ell`.
pub fn fixed_length_ca_blocks(
    ctx: &mut dyn Comm,
    ell: usize,
    v_in: &BitString,
    ba: BaKind,
) -> BitString {
    block_on(fixed_length_ca_blocks_async(
        &mut Ctx::live(ctx),
        ell,
        v_in,
        ba,
    ))
}

/// [`fixed_length_ca_blocks`] as an `async fn` over a [`Ctx`].
pub(crate) async fn fixed_length_ca_blocks_async(
    ctx: &mut Ctx<'_>,
    ell: usize,
    v_in: &BitString,
    ba: BaKind,
) -> BitString {
    let n2 = ctx.n() * ctx.n();
    assert!(
        ell > 0 && ell.is_multiple_of(n2),
        "ℓ = {ell} must be a positive multiple of n² = {n2}"
    );
    let block_len = ell / n2;
    ctx.scoped("flcab", async |ctx| {
        let search = find_prefix_blocks_async(ctx, ell, v_in, ba).await;
        if search.prefix.len() == ell {
            return search.v;
        }
        let prefix = add_last_block_async(ctx, ell, block_len, &search.v, &search.prefix, ba).await;
        get_output_async(ctx, ell, &search.v_bot, &prefix, ba).await
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_adversary::Attack;
    use ca_bits::Nat;
    use ca_net::Sim;

    fn assert_ca(outs: &[Nat], honest: &[Nat]) {
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement");
        let lo = honest.iter().min().unwrap();
        let hi = honest.iter().max().unwrap();
        assert!(outs[0] >= *lo && outs[0] <= *hi, "convex validity");
    }

    #[test]
    fn long_values_agree_convexly() {
        let n = 4;
        let ell = n * n * 64; // 1024 bits
                              // Large values sharing a long prefix then diverging.
        let base = Nat::pow2(900);
        let inputs: Vec<Nat> = (0..n as u64)
            .map(|i| base.add(&Nat::from_u64(i * 1_000_000)))
            .collect();
        let report = Sim::new(n).run(|ctx, id| {
            let bits = inputs[id.index()].to_bits_len(ell).unwrap();
            fixed_length_ca_blocks(ctx, ell, &bits, BaKind::TurpinCoan)
        });
        let outs: Vec<Nat> = report
            .honest_outputs()
            .into_iter()
            .map(|b| b.val())
            .collect();
        assert_ca(&outs, &inputs);
    }

    #[test]
    fn identical_long_values() {
        let n = 4;
        let ell = n * n * 16;
        let v = Nat::all_ones(200);
        let report = Sim::new(n).run(|ctx, id| {
            let _ = id;
            let bits = v.to_bits_len(ell).unwrap();
            fixed_length_ca_blocks(ctx, ell, &bits, BaKind::TurpinCoan)
        });
        for out in report.honest_outputs() {
            assert_eq!(out.val(), v);
        }
    }

    #[test]
    fn attack_matrix_on_blocks() {
        let n = 4;
        let t = 1;
        let ell = n * n * 8;
        for attack in Attack::standard_suite(9) {
            let mut inputs: Vec<Nat> = (0..n as u64)
                .map(|i| Nat::pow2(100).add(&Nat::from_u64(i)))
                .collect();
            if attack.is_lying() {
                for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
                    let _ = idx;
                    inputs[p.index()] = Nat::all_ones(ell); // extreme high
                }
            }
            let honest: Vec<Nat> = match attack.kind {
                ca_adversary::AttackKind::None | ca_adversary::AttackKind::Adaptive => {
                    inputs.clone()
                }
                _ => inputs[..n - t].to_vec(),
            };
            let sim = attack.install(Sim::new(n), n, t);
            let report = sim.run(|ctx, id| {
                let bits = inputs[id.index()].to_bits_len(ell).unwrap();
                fixed_length_ca_blocks(ctx, ell, &bits, BaKind::TurpinCoan)
            });
            let outs: Vec<Nat> = report
                .honest_outputs()
                .into_iter()
                .map(|b| b.val())
                .collect();
            assert_ca(&outs, &honest);
        }
    }
}

//! The classical broadcast-based CA baseline (§1): "each party sends its
//! input value via BC … afterwards, the parties decide on a common output
//! by applying a deterministic function to the values received."
//!
//! This is the `O(ℓn²)` approach the paper improves upon, implemented as
//! the main comparison baseline (experiments T1, F1, F2). Broadcast is
//! realized per sender as *send + intrusion-tolerant BA on the received
//! value* (an unauthenticated `t < n/3` broadcast), reusing the extension
//! machinery so the per-instance cost is `O(ℓn + poly(n, κ))` — i.e. the
//! *strongest reasonable* baseline; a naive value-flooding broadcast would
//! be `O(ℓn³)` and only flatter the paper's protocol.
//!
//! The deterministic decision function: sort the `n` agreed values, drop
//! the `t` lowest and `t` highest, output the median of the rest — with
//! `≥ n − t ≥ 2t + 1` non-`⊥` entries this is always inside the honest
//! range.
//!
//! Note on rounds: the `n` broadcast instances run *sequentially* here
//! (`O(n·log n · n)` rounds). Running them in parallel would take `O(n)`
//! rounds at identical communication; this crate does not, because the
//! experiments compare `BITSℓ`, where sequencing is immaterial. T2 reports
//! measured rounds with this caveat.

use ca_ba::{lba_plus_async, BaKind, Value};
use ca_net::{block_on, Comm, Ctx, PartyId};

/// Runs broadcast-based CA on `input`.
///
/// Guarantees (`t < n/3`): Termination, Agreement, Convex Validity w.r.t.
/// the `Ord` on `V`.
///
/// # Examples
///
/// ```
/// use ca_core::{broadcast_ca, BaKind};
/// use ca_net::Sim;
///
/// let inputs = [5u64, 9, 7, 6];
/// let report =
///     Sim::new(4).run(|ctx, id| broadcast_ca(ctx, inputs[id.index()], BaKind::TurpinCoan));
/// let outs = report.honest_outputs();
/// assert!(outs.windows(2).all(|w| w[0] == w[1]));
/// assert!((5..=9).contains(outs[0]));
/// ```
pub fn broadcast_ca<V: Value>(ctx: &mut dyn Comm, input: V, ba: BaKind) -> V {
    block_on(broadcast_ca_async(&mut Ctx::live(ctx), input, ba))
}

/// [`broadcast_ca`] as an `async fn` over a [`Ctx`].
pub(crate) async fn broadcast_ca_async<V: Value>(ctx: &mut Ctx<'_>, input: V, ba: BaKind) -> V {
    ctx.scoped("broadcast_ca", async |ctx| {
        let n = ctx.n();
        let t = ctx.t();
        #[expect(clippy::disallowed_methods, reason = "one value per party")]
        let mut agreed: Vec<V> = Vec::with_capacity(n);

        for sender in 0..n {
            // Distribution round for this sender.
            if ctx.me().index() == sender {
                ctx.send_all(&input);
            }
            let inbox = ctx.next_round().await;
            let received: Option<V> = inbox.decode_from::<V>(PartyId(sender));
            // Agreement on what the sender said (⊥ if it equivocated enough).
            if let Some(Some(v)) = lba_plus_async(ctx, &received, ba).await {
                agreed.push(v);
            }
        }

        // Deterministic decision: trimmed median.
        agreed.sort();
        if agreed.len() > 2 * t {
            let trimmed = &agreed[t..agreed.len() - t];
            trimmed[trimmed.len() / 2].clone()
        } else {
            // Unreachable with n − t honest broadcasts succeeding.
            V::default()
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_adversary::{Attack, LieKind};
    use ca_net::Sim;

    fn assert_ca(outs: &[u64], honest: &[u64]) {
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement");
        let lo = honest.iter().min().unwrap();
        let hi = honest.iter().max().unwrap();
        assert!(
            outs[0] >= *lo && outs[0] <= *hi,
            "convex validity: {} ∉ [{lo}, {hi}]",
            outs[0]
        );
    }

    #[test]
    fn honest_run() {
        let inputs = [10u64, 30, 20, 25];
        let report =
            Sim::new(4).run(|ctx, id| broadcast_ca(ctx, inputs[id.index()], BaKind::TurpinCoan));
        let outs: Vec<u64> = report.honest_outputs().into_iter().copied().collect();
        assert_ca(&outs, &inputs);
    }

    #[test]
    fn attack_matrix() {
        let n = 4;
        let t = 1;
        for attack in Attack::standard_suite(5) {
            let mut inputs = vec![100u64, 110, 105, 102];
            if attack.is_lying() {
                for (idx, p) in attack.corrupted_parties(n, t).iter().enumerate() {
                    inputs[p.index()] = match attack.lie_for(idx).unwrap() {
                        LieKind::ExtremeHigh => u64::MAX,
                        LieKind::ExtremeLow => 0,
                        LieKind::Split => unreachable!(),
                    };
                }
            }
            let honest: Vec<u64> = match attack.kind {
                ca_adversary::AttackKind::None | ca_adversary::AttackKind::Adaptive => {
                    inputs.clone()
                }
                _ => inputs[..n - t].to_vec(),
            };
            let report = attack
                .install(Sim::new(n), n, t)
                .run(|ctx, id| broadcast_ca(ctx, inputs[id.index()], BaKind::TurpinCoan));
            let outs: Vec<u64> = report.honest_outputs().into_iter().copied().collect();
            assert_ca(&outs, &honest);
        }
    }
}

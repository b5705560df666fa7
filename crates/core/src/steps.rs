//! `AddLastBit` (§3, Lemma 2), `AddLastBlock` (§4, Lemma 5) and
//! `GetOutput` (§3, Lemma 3): turning the agreed prefix into an output.

use ca_ba::BaKind;
use ca_bits::BitString;
use ca_net::{block_on, Comm, Ctx};

use crate::high_cost::high_cost_ca_async;

/// `AddLastBit(ℓ, v, PREFIX*)`: extends the agreed prefix by one bit that is
/// still some valid value's prefix — simply binary BA over everyone's next
/// bit (Validity picks an honest, hence valid, extension when all agree;
/// Intrusion-free Agreement suffices otherwise because *both* extensions
/// occur among honest values... more precisely the BA output bit was some
/// honest party's next bit, whose value `v` is valid and has `PREFIX*‖B*`
/// as prefix).
///
/// Costs: `BITS₁(Π_BA)`, `ROUNDS₁(Π_BA)`.
///
/// # Panics
///
/// Panics unless `prefix.len() < ell` and `prefix` prefixes `v`.
pub fn add_last_bit(
    ctx: &mut dyn Comm,
    ell: usize,
    v: &BitString,
    prefix: &BitString,
    ba: BaKind,
) -> BitString {
    block_on(add_last_bit_async(&mut Ctx::live(ctx), ell, v, prefix, ba))
}

/// [`add_last_bit`] as an `async fn` over a [`Ctx`].
pub(crate) async fn add_last_bit_async(
    ctx: &mut Ctx<'_>,
    ell: usize,
    v: &BitString,
    prefix: &BitString,
    ba: BaKind,
) -> BitString {
    assert!(prefix.len() < ell, "prefix already ℓ bits");
    assert!(prefix.is_prefix_of(v), "own value must extend the prefix");
    ctx.scoped("add_last_bit", async |ctx| {
        let my_bit = v.get(prefix.len());
        let b_star = ba.run_bit_async(ctx, my_bit).await;
        let mut out = prefix.clone();
        out.push(b_star);
        out
    })
    .await
}

/// `AddLastBlock(ℓ, v, PREFIX*)`: the block-granular analogue — extends the
/// prefix by one whole block via the high-communication-cost CA
/// (`HighCostCA` on the parties' next blocks; any block in the honest
/// blocks' range keeps the prefix valid, Lemma 5).
///
/// Costs: `O(ℓ·n)` bits (one `HighCostCA` on `ℓ/n²`-bit inputs), `O(n)`
/// rounds.
///
/// # Panics
///
/// Panics unless `block_len` divides the remaining suffix geometry
/// (`prefix.len()` must be a multiple of `block_len < ell`).
pub fn add_last_block(
    ctx: &mut dyn Comm,
    ell: usize,
    block_len: usize,
    v: &BitString,
    prefix: &BitString,
    ba: BaKind,
) -> BitString {
    block_on(add_last_block_async(
        &mut Ctx::live(ctx),
        ell,
        block_len,
        v,
        prefix,
        ba,
    ))
}

/// [`add_last_block`] as an `async fn` over a [`Ctx`].
pub(crate) async fn add_last_block_async(
    ctx: &mut Ctx<'_>,
    ell: usize,
    block_len: usize,
    v: &BitString,
    prefix: &BitString,
    ba: BaKind,
) -> BitString {
    assert!(
        block_len > 0 && ell.is_multiple_of(block_len),
        "bad block geometry"
    );
    assert!(
        prefix.len().is_multiple_of(block_len),
        "prefix must be whole blocks"
    );
    assert!(prefix.len() < ell, "prefix already ℓ bits");
    assert!(prefix.is_prefix_of(v), "own value must extend the prefix");
    let _ = ba;
    ctx.scoped("add_last_block", async |ctx| {
        let i_star = prefix.len() / block_len;
        let my_block = v.block(i_star, block_len);
        // Paper remark: honest parties ignore values outside the domain —
        // here, bitstrings that are not exactly one block long.
        let block =
            high_cost_ca_async(ctx, my_block, move |b: &BitString| b.len() == block_len).await;
        prefix.concat(&block)
    })
    .await
}

/// `GetOutput(ℓ, v⊥, PREFIX*)`: the final step. Precondition (established
/// by the search + extension steps): `PREFIX*` is a valid value's prefix
/// and `≥ t+1` honest parties hold `v⊥` **not** extending it. Each such
/// party announces with one bit whether its `v⊥` lies below `MINℓ(PREFIX*)`
/// or above `MAXℓ(PREFIX*)`; the majority bit of the announcements is
/// honest-backed, and one binary BA fixes the choice.
///
/// Costs: `O(n²) + BITS₁(Π_BA)` bits, `O(1) + ROUNDS₁(Π_BA)` rounds.
///
/// # Examples
///
/// ```
/// use ca_bits::{BitString, Nat};
/// use ca_core::{get_output, BaKind};
/// use ca_net::Sim;
///
/// // PREFIX* = "10"; two parties hold v⊥ below its range, two inside.
/// let prefix = BitString::parse_binary("10").unwrap();
/// let v_bots = [1u64, 2, 0b1001_0000, 0b1010_0000];
/// let report = Sim::new(4).run(|ctx, id| {
///     let vb = Nat::from_u64(v_bots[id.index()]).to_bits_len(8).unwrap();
///     get_output(ctx, 8, &vb, &prefix, BaKind::TurpinCoan)
/// });
/// // All output MIN₈("10") = 1000_0000.
/// assert!(report.honest_outputs().iter().all(|o| o.val() == Nat::from_u64(0b1000_0000)));
/// ```
pub fn get_output(
    ctx: &mut dyn Comm,
    ell: usize,
    v_bot: &BitString,
    prefix: &BitString,
    ba: BaKind,
) -> BitString {
    block_on(get_output_async(
        &mut Ctx::live(ctx),
        ell,
        v_bot,
        prefix,
        ba,
    ))
}

/// [`get_output`] as an `async fn` over a [`Ctx`].
pub(crate) async fn get_output_async(
    ctx: &mut Ctx<'_>,
    ell: usize,
    v_bot: &BitString,
    prefix: &BitString,
    ba: BaKind,
) -> BitString {
    ctx.scoped("get_output", async |ctx| {
        let k = v_bot.common_prefix_len(prefix);
        if k < prefix.len() {
            // B = 0 ⇔ v⊥ < MINℓ(PREFIX*): v⊥ leaves PREFIX* at bit k, and
            // its bit there says on which side of PREFIX*'s range it lies.
            ctx.send_all(&v_bot.get(k));
        }
        let inbox = ctx.next_round().await;
        let bits: Vec<bool> = inbox
            .decode_each::<bool>()
            .into_iter()
            .map(|(_, b)| b)
            .collect();
        let m = bits.len();
        let ones = bits.iter().filter(|b| **b).count();
        // CHOICE := a bit received from ≥ ⌈m/2⌉ parties (Lemma 3 shows any
        // such bit was sent by an honest party; on an exact tie both
        // qualify and either is safe — pick 0 deterministically).
        let choice = 2 * ones > m;
        ctx.trace_note("get_output", || format!("announced={m} choice={choice}"));
        let agreed = ba.run_bit_async(ctx, choice).await;
        if agreed {
            prefix.max_extend(ell)
        } else {
            prefix.min_extend(ell)
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bits::Nat;
    use ca_net::Sim;

    #[test]
    fn add_last_bit_agrees_and_extends() {
        let ell = 8;
        // Shared prefix "1010"; next bits differ.
        let vals = [0b1010_0111u64, 0b1010_1000, 0b1010_0001, 0b1010_1111];
        let prefix = BitString::parse_binary("1010").unwrap();
        let report = Sim::new(4).run(|ctx, id| {
            let v = Nat::from_u64(vals[id.index()]).to_bits_len(ell).unwrap();
            add_last_bit(ctx, ell, &v, &prefix, BaKind::TurpinCoan)
        });
        let outs = report.honest_outputs();
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(outs[0].len(), 5);
        assert!(prefix.is_prefix_of(outs[0]));
        // The added bit is some honest party's bit-4 (both 0 and 1 occur).
    }

    #[test]
    fn get_output_picks_a_valid_side() {
        let ell = 8;
        let prefix = BitString::parse_binary("10").unwrap();
        // t+1 = 2 parties hold v⊥ below the prefix range; rest inside.
        let v_bots = [
            0b0000_0001u64, // below MIN(10……) = 128
            0b0000_0010,
            0b1001_0000, // wait—this has prefix "10"; inside
            0b1010_0000,
        ];
        let report = Sim::new(4).run(|ctx, id| {
            let vb = Nat::from_u64(v_bots[id.index()]).to_bits_len(ell).unwrap();
            get_output(ctx, ell, &vb, &prefix, BaKind::TurpinCoan)
        });
        let outs = report.honest_outputs();
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        // Announcing parties all said "below" ⇒ MIN₈("10") = 1000_0000.
        assert_eq!(outs[0].val(), Nat::from_u64(0b1000_0000));
    }

    #[test]
    fn get_output_unaligned_prefix_below_above_and_silent() {
        // ℓ = 45 with a 13-bit PREFIX*: nothing sits on a byte boundary.
        // Party 0 lies below PREFIX*'s range and announces 0, parties 1–2
        // lie above and announce 1, party 3 extends PREFIX* and stays
        // silent. Two of three announcements say "above" ⇒ MAXℓ; a fourth
        // announcement, or a flipped one, would tip the vote to MINℓ.
        let ell = 45;
        let prefix = BitString::parse_binary("1011001110001").unwrap();
        let below = BitString::parse_binary("1011001101111").unwrap();
        let above = BitString::parse_binary("1011001110010").unwrap();
        let v_bots = [
            below.max_extend(ell),
            above.min_extend(ell),
            above.max_extend(ell),
            prefix
                .concat(&BitString::parse_binary("01").unwrap())
                .min_extend(ell),
        ];
        let report = Sim::new(4)
            .run(|ctx, id| get_output(ctx, ell, &v_bots[id.index()], &prefix, BaKind::TurpinCoan));
        for out in report.honest_outputs() {
            assert_eq!(*out, prefix.max_extend(ell));
        }

        // All three announcers below ⇒ MINℓ.
        let v_bots = [
            below.max_extend(ell),
            below.min_extend(ell),
            BitString::repeat(false, ell),
            prefix.max_extend(ell),
        ];
        let report = Sim::new(4)
            .run(|ctx, id| get_output(ctx, ell, &v_bots[id.index()], &prefix, BaKind::TurpinCoan));
        for out in report.honest_outputs() {
            assert_eq!(*out, prefix.min_extend(ell));
        }
    }

    #[test]
    fn get_output_above_side() {
        let ell = 8;
        let prefix = BitString::parse_binary("01").unwrap();
        let v_bots = [0b1100_0000u64, 0b1110_0000, 0b0101_0000, 0b0110_0000];
        let report = Sim::new(4).run(|ctx, id| {
            let vb = Nat::from_u64(v_bots[id.index()]).to_bits_len(ell).unwrap();
            get_output(ctx, ell, &vb, &prefix, BaKind::TurpinCoan)
        });
        // MAX₈("01") = 0111_1111.
        for out in report.honest_outputs() {
            assert_eq!(out.val(), Nat::from_u64(0b0111_1111));
        }
    }
}

//! `FindPrefix` (§3, Lemma 1) and `FindPrefixBlocks` (§4, Lemma 4):
//! byzantine binary search for a valid value's prefix.
//!
//! The central insight of the paper: the longest common prefix of values in
//! the honest inputs' *range* reveals enough structure to agree on a valid
//! value without ever shipping whole values all-to-all. Each search step
//! runs the intrusion-tolerant `Π_ℓBA+` on a window of the parties' current
//! values:
//!
//! * a **non-`⊥`** outcome is some honest party's window (Intrusion
//!   Tolerance), so the grown prefix stays a valid value's prefix — parties
//!   whose value disagrees snap to `MINℓ`/`MAXℓ` of the new prefix (valid
//!   by Remark 2) and the search continues to the right;
//! * a **`⊥`** outcome certifies (Bounded Pre-Agreement) that for *any*
//!   window value, `≥ t+1` honest parties disagree with it — exactly the
//!   precondition `GetOutput` later needs — and the search continues to
//!   the left.

use ca_ba::{lba_plus_async, BaKind};
use ca_bits::BitString;
use ca_net::{block_on, Comm, Ctx};

/// Outcome of a prefix search (`FindPrefix` / `FindPrefixBlocks`).
///
/// Invariants established by Lemma 1 (resp. Lemma 4), given honest parties
/// entered with valid `ℓ`-bit values:
///
/// * all honest parties hold the same `prefix` (`PREFIX*`);
/// * `v` is a valid `ℓ`-bit value and `prefix` is a prefix of it;
/// * for any extension of `prefix` by one unit (bit resp. block), at least
///   `t + 1` honest parties hold `v_bot` values **not** having that
///   extension as a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSearch {
    /// The agreed prefix `PREFIX*` (a multiple of the search granularity).
    pub prefix: BitString,
    /// This party's valid `ℓ`-bit value with prefix `PREFIX*`.
    pub v: BitString,
    /// This party's valid `ℓ`-bit witness value for the `⊥` branches.
    pub v_bot: BitString,
    /// Number of search iterations executed (measured for experiment F5).
    pub iterations: usize,
}

/// `FindPrefix(ℓ, v)`: bit-granular search (§3).
///
/// `v_in` must be an `ℓ`-bit representation of this party's (valid) value.
///
/// Costs (Lemma 1): `O(log ℓ)` iterations, each one `Π_ℓBA+` call on a
/// window of half the previous length.
///
/// # Examples
///
/// ```
/// use ca_bits::Nat;
/// use ca_core::{find_prefix, BaKind};
/// use ca_net::Sim;
///
/// let ell = 8;
/// let inputs = [0b1010_0001u64, 0b1010_0110, 0b1010_1100];
/// let report = Sim::new(3).run(|ctx, id| {
///     let bits = Nat::from_u64(inputs[id.index()]).to_bits_len(ell).unwrap();
///     find_prefix(ctx, ell, &bits, BaKind::TurpinCoan)
/// });
/// let outs = report.honest_outputs();
/// // Everyone agrees on PREFIX*, at least as long as the honest LCP "1010".
/// assert!(outs.windows(2).all(|w| w[0].prefix == w[1].prefix));
/// assert!(outs[0].prefix.len() >= 4);
/// ```
///
/// # Panics
///
/// Panics if `v_in.len() != ell` or `ell == 0`.
pub fn find_prefix(ctx: &mut dyn Comm, ell: usize, v_in: &BitString, ba: BaKind) -> PrefixSearch {
    block_on(find_prefix_async(&mut Ctx::live(ctx), ell, v_in, ba))
}

/// [`find_prefix`] as an `async fn` over a [`Ctx`].
pub(crate) async fn find_prefix_async(
    ctx: &mut Ctx<'_>,
    ell: usize,
    v_in: &BitString,
    ba: BaKind,
) -> PrefixSearch {
    search(ctx, ell, 1, v_in, ba).await
}

/// `FindPrefixBlocks(ℓ, v)`: block-granular search (§4) over `n²` blocks of
/// `ℓ/n²` bits.
///
/// Reduces the iteration count from `O(log ℓ)` to `O(log n)` for very long
/// inputs (Lemma 4).
///
/// # Panics
///
/// Panics if `ell` is not a positive multiple of `n²` or
/// `v_in.len() != ell`.
pub fn find_prefix_blocks(
    ctx: &mut dyn Comm,
    ell: usize,
    v_in: &BitString,
    ba: BaKind,
) -> PrefixSearch {
    block_on(find_prefix_blocks_async(&mut Ctx::live(ctx), ell, v_in, ba))
}

/// [`find_prefix_blocks`] as an `async fn` over a [`Ctx`].
pub(crate) async fn find_prefix_blocks_async(
    ctx: &mut Ctx<'_>,
    ell: usize,
    v_in: &BitString,
    ba: BaKind,
) -> PrefixSearch {
    let n2 = ctx.n() * ctx.n();
    assert!(
        ell > 0 && ell.is_multiple_of(n2),
        "ℓ = {ell} must be a positive multiple of n² = {n2}"
    );
    search(ctx, ell, ell / n2, v_in, ba).await
}

/// Shared binary-search engine; `unit` is the granularity in bits
/// (1 for `FindPrefix`, `ℓ/n²` for `FindPrefixBlocks`).
async fn search(
    ctx: &mut Ctx<'_>,
    ell: usize,
    unit: usize,
    v_in: &BitString,
    ba: BaKind,
) -> PrefixSearch {
    assert!(ell > 0, "ℓ must be positive");
    assert_eq!(v_in.len(), ell, "input must be an ℓ-bit representation");
    let units = ell / unit;

    ctx.scoped("find_prefix", async |ctx| {
        // Half-open unit window [lo, hi); PREFIX* always holds lo units.
        let mut lo = 0usize;
        let mut hi = units;
        let mut v = v_in.clone();
        let mut v_bot = v_in.clone();
        let mut prefix = BitString::empty();
        let mut iterations = 0;

        while lo < hi {
            iterations += 1;
            // The paper's window is units LEFT..MID inclusive,
            // MID = ⌊(LEFT+RIGHT)/2⌋; 0-indexed that is [lo, mid] with
            // mid = ⌊(lo+hi)/2⌋, i.e. bits [lo·unit, (mid+1)·unit).
            let mid = (lo + hi) / 2;
            let window = v.slice(lo * unit, (mid + 1) * unit);

            match lba_plus_async(ctx, &window, ba).await {
                Some(agreed) if agreed.len() == window.len() => {
                    // Agreement on an honest window: extend the prefix and
                    // realign values that disagree (Remark 2 keeps them
                    // valid). PREFIX* already prefixes v, so the two
                    // windows alone order v against the new PREFIX*.
                    prefix.extend_from(&agreed);
                    match window.cmp_val(&agreed) {
                        std::cmp::Ordering::Less => v = prefix.min_extend(ell),
                        std::cmp::Ordering::Greater => v = prefix.max_extend(ell),
                        std::cmp::Ordering::Equal => {}
                    }
                    lo = mid + 1;
                }
                _ => {
                    // ⊥ (or, defensively, a malformed length — impossible
                    // for honest inputs, and agreed-upon either way):
                    // Bounded Pre-Agreement certifies dissent on this
                    // window; remember the current value as the witness.
                    v_bot = v.clone();
                    hi = mid;
                }
            }
        }

        debug_assert_eq!(prefix.len(), lo * unit);
        debug_assert!(prefix.is_prefix_of(&v));
        ctx.trace_note("prefix_search", || {
            format!("iters={iterations} prefix_len={}", prefix.len())
        });
        PrefixSearch {
            prefix,
            v,
            v_bot,
            iterations,
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bits::Nat;
    use ca_net::{RunReport, Sim};

    fn inputs_to_bits(ell: usize, vals: &[u64]) -> Vec<BitString> {
        vals.iter()
            .map(|&v| Nat::from_u64(v).to_bits_len(ell).unwrap())
            .collect()
    }

    fn run(n: usize, ell: usize, vals: &[u64]) -> RunReport<PrefixSearch> {
        let bits = inputs_to_bits(ell, vals);
        Sim::new(n).run(move |ctx, id| find_prefix(ctx, ell, &bits[id.index()], BaKind::TurpinCoan))
    }

    #[test]
    fn identical_inputs_yield_full_prefix() {
        let report = run(4, 16, &[0xBEEF, 0xBEEF, 0xBEEF, 0xBEEF]);
        for out in report.honest_outputs() {
            assert_eq!(out.prefix.len(), 16);
            assert_eq!(out.prefix.val(), Nat::from_u64(0xBEEF));
            assert_eq!(out.v, out.prefix);
        }
    }

    #[test]
    fn lemma1_invariants_on_mixed_inputs() {
        let vals = [100, 120, 130, 140];
        let ell = 8;
        let report = run(4, ell, &vals);
        let outs = report.honest_outputs();
        // (i) same prefix for everyone.
        assert!(outs.windows(2).all(|w| w[0].prefix == w[1].prefix));
        for out in &outs {
            // (ii) prefix prefixes v, and v is a valid ℓ-bit value.
            assert!(out.prefix.is_prefix_of(&out.v));
            assert_eq!(out.v.len(), ell);
            let v = out.v.val();
            assert!(v >= Nat::from_u64(100) && v <= Nat::from_u64(140), "{v:?}");
            // v_bot is valid too.
            let vb = out.v_bot.val();
            assert!(
                vb >= Nat::from_u64(100) && vb <= Nat::from_u64(140),
                "{vb:?}"
            );
        }
        // The common prefix of 100..140 (01100100..10001100) is empty;
        // the agreed prefix must still be SOME valid value's prefix:
        let p = &outs[0].prefix;
        if p.len() < ell {
            let lo = p.min_extend(ell).val();
            let hi = p.max_extend(ell).val();
            assert!(hi >= Nat::from_u64(100) && lo <= Nat::from_u64(140));
        }
    }

    #[test]
    fn prefix_at_least_honest_lcp() {
        // Honest inputs share a 9-bit prefix; the agreed prefix must be at
        // least as long (the search can only stop where honest parties
        // genuinely dissent).
        let vals = [0b1011_0110_1000u64, 0b1011_0110_1011, 0b1011_0110_1101];
        let ell = 12;
        let report = run(3, ell, &vals);
        for out in report.honest_outputs() {
            assert!(out.prefix.len() >= 9, "prefix {} too short", out.prefix);
        }
    }

    #[test]
    fn iteration_count_is_logarithmic() {
        for ell in [8usize, 64, 256] {
            let vals = [1, 2, 3, 5];
            let report = run(4, ell, &vals);
            for out in report.honest_outputs() {
                assert!(
                    out.iterations <= ell.ilog2() as usize + 2,
                    "ℓ = {ell}: {} iterations",
                    out.iterations
                );
            }
        }
    }

    #[test]
    fn blocks_variant_matches_granularity() {
        let n = 3;
        let n2 = n * n;
        let ell = n2 * 4; // blocks of 4 bits
        let vals = [77, 88, 99];
        let bits = inputs_to_bits(ell, &vals);
        let report = Sim::new(n).run(move |ctx, id| {
            find_prefix_blocks(ctx, ell, &bits[id.index()], BaKind::TurpinCoan)
        });
        let outs = report.honest_outputs();
        assert!(outs.windows(2).all(|w| w[0].prefix == w[1].prefix));
        for out in outs {
            assert_eq!(out.prefix.len() % 4, 0, "prefix must be whole blocks");
            assert!(out.prefix.is_prefix_of(&out.v));
            // O(log n²) iterations.
            assert!(out.iterations <= (n2.ilog2() as usize) + 2);
        }
    }

    #[test]
    fn unaligned_blocks_snap_below_above_and_stay() {
        // n = 4, ℓ = 16·5: five-bit blocks, so no window edge but the first
        // sits on a byte boundary. Parties 0–2 share their first nine blocks
        // and part ways in the tenth; party 3 leaves them in block 2, once
        // from below and once from above. The first window (blocks 0..9)
        // finds its quorum among parties 0–2, who keep their values
        // (`Equal`), while party 3 snaps to MINℓ (`Less`) or MAXℓ
        // (`Greater`) of it; every later window ends in ⊥.
        let (n, ell, unit) = (4, 80, 5);
        let shared = "10110".repeat(9);
        let tails = ["00001", "01010", "11100"];
        let honest: Vec<BitString> = tails
            .iter()
            .map(|tail| BitString::parse_binary(&format!("{shared}{tail}")).unwrap())
            .map(|head| head.min_extend(ell))
            .collect();
        let prefix = BitString::parse_binary(&shared).unwrap();
        for (block2, snapped) in [
            ("10101", prefix.min_extend(ell)),
            ("10111", prefix.max_extend(ell)),
        ] {
            let mut outlier = honest[0].to_string();
            outlier.replace_range(2 * unit..3 * unit, block2);
            let mut inputs = honest.clone();
            inputs.push(BitString::parse_binary(&outlier).unwrap());
            let run_inputs = inputs.clone();
            let report = Sim::new(n).run(move |ctx, id| {
                find_prefix_blocks(ctx, ell, &run_inputs[id.index()], BaKind::TurpinCoan)
            });
            let outs = report.honest_outputs();
            assert_eq!(outs.len(), n);
            for (id, out) in outs.iter().enumerate() {
                let v = if id < 3 { &inputs[id] } else { &snapped };
                let want = PrefixSearch {
                    prefix: prefix.clone(),
                    v: v.clone(),
                    v_bot: v.clone(),
                    iterations: 4,
                };
                assert_eq!(**out, want, "party {id}, outlier block {block2}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn wrong_length_input_rejected() {
        let bits = BitString::repeat(false, 7);
        Sim::new(3).run(move |ctx, _| find_prefix(ctx, 8, &bits, BaKind::TurpinCoan));
    }
}

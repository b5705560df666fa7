//! The bit-at-a-time reference the word-parallel code is tested against.
//!
//! Everything here goes through the single-bit public API (`get`, `set`,
//! `push`, `Nat::bit`) and nothing else, so it shares no code with
//! [`crate::kernel`]: a disagreement is a kernel bug.

use std::cmp::Ordering;

use crate::{BitString, Nat};

pub(crate) fn slice(s: &BitString, start: usize, end: usize) -> BitString {
    let mut out = BitString::new();
    for i in start..end {
        out.push(s.get(i));
    }
    out
}

pub(crate) fn concat(a: &BitString, b: &BitString) -> BitString {
    let mut out = slice(a, 0, a.len());
    for i in 0..b.len() {
        out.push(b.get(i));
    }
    out
}

pub(crate) fn max_extend(s: &BitString, ell: usize) -> BitString {
    let mut out = slice(s, 0, s.len());
    for _ in s.len()..ell {
        out.push(true);
    }
    out
}

pub(crate) fn leading_zeros(s: &BitString) -> usize {
    (0..s.len()).take_while(|&i| !s.get(i)).count()
}

pub(crate) fn cmp_val(a: &BitString, b: &BitString) -> Ordering {
    let (a0, b0) = (leading_zeros(a), leading_zeros(b));
    let (a_eff, b_eff) = (a.len() - a0, b.len() - b0);
    a_eff.cmp(&b_eff).then_with(|| {
        (0..a_eff)
            .map(|i| a.get(a0 + i).cmp(&b.get(b0 + i)))
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    })
}

pub(crate) fn common_prefix_len(a: &BitString, b: &BitString) -> usize {
    (0..a.len().min(b.len()))
        .take_while(|&i| a.get(i) == b.get(i))
        .count()
}

/// `VAL(bits)` by Horner's rule, one bit per step.
pub(crate) fn val(bits: &BitString) -> Nat {
    (0..bits.len()).fold(Nat::zero(), |acc, i| {
        acc.mul_u32(2).add(&Nat::from_u64(u64::from(bits.get(i))))
    })
}

/// `BITSℓ(v)`, one `Nat::bit` probe per bit; `v` must fit.
pub(crate) fn to_bits_len(v: &Nat, ell: usize) -> BitString {
    let mut out = BitString::repeat(false, ell);
    for j in 0..v.bit_len() {
        out.set(ell - 1 - j, v.bit(j));
    }
    out
}

/// Differential tests: the word-parallel code against the functions above.
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bits of backing store each case draws from.
    const POOL_BITS: usize = 8 * 520;

    /// A length in `0..=max`: every other draw sits on or next to a byte,
    /// limb or word boundary, the rest fall anywhere.
    fn edgy(pick: u64, max: usize) -> usize {
        const EDGES: [usize; 27] = [
            0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 71, 72, 73, 127, 128, 129, 191, 192, 193, 255,
            256, 257, 1023, 1024, 1025, 4095,
        ];
        let pick = pick as usize;
        if pick.is_multiple_of(2) {
            EDGES[(pick / 2) % EDGES.len()].min(max)
        } else {
            (pick / 2) % (max + 1)
        }
    }

    /// A window of the pool whose start and length are both `edgy`, cut out
    /// bit by bit so that the operand itself owes nothing to the kernel.
    fn operand(pool: &[u8], start: u64, len: u64) -> BitString {
        let pool = BitString::from_packed(pool, POOL_BITS);
        let start = edgy(start, POOL_BITS);
        slice(&pool, start, start + edgy(len, POOL_BITS - start))
    }

    fn pool() -> proptest::collection::VecStrategy<proptest::arbitrary::Any<u8>> {
        proptest::collection::vec(any::<u8>(), POOL_BITS / 8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_slice_matches_oracle(
            pool in pool(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        ) {
            let s = operand(&pool, a, b);
            let start = edgy(c, s.len());
            let end = start + edgy(d, s.len() - start);
            prop_assert_eq!(s.slice(start, end), slice(&s, start, end));
        }

        #[test]
        fn prop_concat_and_extend_from_match_oracle(
            pool in pool(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        ) {
            let (head, tail) = (operand(&pool, a, b), operand(&pool, c, d));
            let want = concat(&head, &tail);
            prop_assert_eq!(head.concat(&tail), want.clone());
            let mut grown = head;
            grown.extend_from(&tail);
            prop_assert_eq!(grown, want);
        }

        #[test]
        fn prop_max_extend_matches_oracle(
            pool in pool(), a in any::<u64>(), b in any::<u64>(), extra in any::<u64>(),
        ) {
            let s = operand(&pool, a, b);
            let ell = s.len() + edgy(extra, 300);
            prop_assert_eq!(s.max_extend(ell), max_extend(&s, ell));
        }

        #[test]
        fn prop_from_bits_matches_pushes(pool in pool(), a in any::<u64>(), b in any::<u64>()) {
            let s = operand(&pool, a, b);
            prop_assert_eq!(BitString::from_bits(s.iter()), s.clone());
            prop_assert_eq!(BitString::parse_binary(&s.to_string()), Some(s));
        }

        #[test]
        fn prop_cmp_val_matches_oracle_and_nat_order(
            pool in pool(), a in any::<u64>(), b in any::<u64>(),
            pad_a in 0usize..70, pad_b in 0usize..70, flip in any::<u64>(),
        ) {
            // Two paddings of one value (so the two sides start at different
            // bit offsets mod 8), one of them with at most one bit changed.
            let core = operand(&pool, a, b);
            let x = BitString::repeat(false, pad_a).concat(&core);
            let mut y = BitString::repeat(false, pad_b).concat(&core);
            let flip = edgy(flip, core.len());
            if flip < core.len() {
                y.set(pad_b + flip, !core.get(flip));
            }
            prop_assert_eq!(x.cmp_val(&y), cmp_val(&x, &y));
            prop_assert_eq!(y.cmp_val(&x), cmp_val(&y, &x));
            prop_assert_eq!(x.cmp_val(&y), x.val().cmp(&y.val()));
        }

        #[test]
        fn prop_common_prefix_len_matches_oracle(
            pool in pool(), a in any::<u64>(), b in any::<u64>(), cut in any::<u64>(), flip in any::<u64>(),
        ) {
            let x = operand(&pool, a, b);
            let mut y = slice(&x, 0, edgy(cut, x.len()));
            let flip = edgy(flip, y.len());
            if flip < y.len() {
                y.set(flip, !y.get(flip));
            }
            prop_assert_eq!(x.common_prefix_len(&y), common_prefix_len(&x, &y));
            prop_assert_eq!(y.common_prefix_len(&x), common_prefix_len(&x, &y));
            prop_assert_eq!(y.is_prefix_of(&x), common_prefix_len(&x, &y) == y.len());
        }

        #[test]
        fn prop_nat_round_trip_matches_oracle(
            pool in pool(), a in any::<u64>(), b in any::<u64>(), pad in any::<u64>(),
        ) {
            // `edgy` lengths: ℓ off the byte and limb boundaries as often as on.
            let bits = operand(&pool, a, b);
            let v = bits.val();
            prop_assert_eq!(&v, &val(&bits));
            prop_assert_eq!(v.to_bits_len(bits.len()), Some(bits.clone()));
            let ell = v.bit_len() + edgy(pad, 100);
            prop_assert_eq!(v.to_bits_len(ell), Some(to_bits_len(&v, ell)));
            prop_assert_eq!(v.to_bits_min(), to_bits_len(&v, v.bit_len()));
            if v.bit_len() > 0 {
                prop_assert_eq!(v.to_bits_len(v.bit_len() - 1), None);
            }
        }
    }

    /// The benchmark's bulk size, off every boundary: too long for the
    /// oracle's loops, so sampled positions are checked against `get`.
    #[test]
    fn bulk_value_sampled_against_get() {
        let ell: usize = (1 << 21) + 3;
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..ell.div_ceil(8))
            .map(|_| {
                word = word.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                (word >> 56) as u8
            })
            .collect();
        let v = BitString::from_packed(&bytes, ell);
        let samples = |len: usize| (0..len).step_by(997).chain(len.saturating_sub(70)..len);

        let (start, end) = (5, ell - 6);
        let window = v.slice(start, end);
        assert_eq!(window.len(), end - start);
        assert!(samples(window.len()).all(|i| window.get(i) == v.get(start + i)));

        let mut grown = v.slice(0, start);
        grown.extend_from(&window);
        assert_eq!(grown, v.prefix(end));
        assert!(samples(end).all(|i| grown.get(i) == v.get(i)));
        // The same value under three more bits of padding: a shifted compare.
        let padded = BitString::repeat(false, 3).concat(&window);
        assert_eq!(padded.cmp_val(&window), Ordering::Equal);

        let hi = window.max_extend(ell);
        assert!(window.is_prefix_of(&hi));
        assert!(samples(ell - window.len()).all(|i| hi.get(window.len() + i)));

        let n = v.val();
        assert!(samples(ell).all(|j| n.bit(j) == v.get(ell - 1 - j)));
        assert_eq!(n.to_bits_len(ell), Some(v.clone()));
        let mut next = v.clone();
        next.set(ell - 1, !v.get(ell - 1));
        assert_eq!(v.cmp_val(&next), v.get(ell - 1).cmp(&next.get(ell - 1)));
        assert_eq!(v.common_prefix_len(&next), ell - 1);
    }
}

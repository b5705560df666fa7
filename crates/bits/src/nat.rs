//! Arbitrary-precision natural numbers.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use ca_codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::BitString;

/// An arbitrary-precision natural number: the `VAL` of a bitstring (paper §2).
///
/// Internally a little-endian sequence of `u32` limbs with no trailing zero
/// limbs (so representations are canonical and `Eq` is structural).
///
/// The arithmetic surface is deliberately small — exactly what the protocols,
/// tests and examples need: comparison, addition/subtraction, small-factor
/// multiplication/division (for decimal I/O), and bit-level conversions to
/// and from [`BitString`].
///
/// # Examples
///
/// ```
/// use ca_bits::Nat;
///
/// let v: Nat = "340282366920938463463374607431768211456".parse().unwrap(); // 2^128
/// assert_eq!(v.bit_len(), 129);
/// assert_eq!(v.to_string(), "340282366920938463463374607431768211456");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Nat {
    /// Little-endian limbs; invariant: no trailing zeros.
    limbs: Vec<u32>,
}

/// Error returned when parsing a decimal [`Nat`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNatError {
    pub(crate) offending: char,
}

impl fmt::Display for ParseNatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid digit {:?} in natural number", self.offending)
    }
}

impl Error for ParseNatError {}

impl Nat {
    /// Zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// One.
    pub fn one() -> Self {
        Self::from_u64(1)
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut n = Nat {
            limbs: vec![v as u32, (v >> 32) as u32],
        };
        n.normalize();
        n
    }

    /// From a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let mut n = Nat {
            limbs: (0..4).map(|i| (v >> (32 * i)) as u32).collect(),
        };
        n.normalize();
        n
    }

    /// `2^k − 1`: the all-ones value of `k` bits (`Π_ℕ` lines 3, 7, 10 clamp
    /// over-long inputs to this).
    pub fn all_ones(k: usize) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "the caller's bit count, in limbs"
        )]
        let mut limbs = vec![u32::MAX; k / 32];
        if !k.is_multiple_of(32) {
            limbs.push((1 << (k % 32)) - 1);
        }
        Nat { limbs }
    }

    /// `2^k`.
    pub fn pow2(k: usize) -> Self {
        #[expect(clippy::disallowed_methods, reason = "the caller's exponent, in limbs")]
        let mut limbs = vec![0u32; k / 32 + 1];
        limbs[k / 32] = 1 << (k % 32);
        let mut n = Nat { limbs };
        n.normalize();
        n
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `|BITS(v)|` (paper §2): number of bits in the minimal representation;
    /// zero has length 0.
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 32 * (self.limbs.len() - 1) + (32 - top.leading_zeros() as usize),
        }
    }

    /// The `i`-th bit counted from the least-significant end.
    pub fn bit(&self, i: usize) -> bool {
        self.limbs
            .get(i / 32)
            .is_some_and(|&limb| limb & (1 << (i % 32)) != 0)
    }

    /// `VAL(bits)` (paper §2).
    pub fn from_bits(bits: &BitString) -> Self {
        // Read as one big-endian integer, the packed bytes are the value
        // times 2^pad (pad = the unused low bits of the last byte): four
        // bytes make one limb of that integer, and shifting `pad` bits down
        // from each limb into its lower neighbour leaves VAL's limbs.
        let bytes = bits.as_bytes();
        let pad = 8 * bytes.len() - bits.len();
        let (top, body) = bytes.split_at(bytes.len() % 4);
        let top = top.iter().fold(0u32, |acc, &b| acc << 8 | u32::from(b));
        let body = body
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]));
        #[expect(clippy::disallowed_methods, reason = "the caller's bytes, in limbs")]
        let mut limbs = vec![0u32; body.len() + 1];
        let mut upper = 0u32;
        for (limb, word) in limbs.iter_mut().rev().zip(std::iter::once(top).chain(body)) {
            *limb = ((u64::from(upper) << 32 | u64::from(word)) >> pad) as u32;
            upper = word;
        }
        let mut n = Nat { limbs };
        n.normalize();
        n
    }

    /// `BITSℓ(v)` (paper §2): the `ℓ`-bit representation, `None` if
    /// `v ≥ 2^ℓ`.
    pub fn to_bits_len(&self, ell: usize) -> Option<BitString> {
        if self.bit_len() > ell {
            return None;
        }
        // The inverse of `from_bits`: the packed bytes spell VAL · 2^pad, so
        // each limb goes out shifted left by `pad`, carrying its top bits
        // into the next one, four bytes at a time from the back.
        #[expect(
            clippy::disallowed_methods,
            reason = "the caller's target length, in bytes"
        )]
        let mut bytes = vec![0u8; ell.div_ceil(8)];
        let pad = 8 * bytes.len() - ell;
        let mut limbs = self.limbs.iter();
        let mut carry = 0u64;
        let mut next_word = || {
            let word = (u64::from(limbs.next().copied().unwrap_or(0)) << pad) | carry;
            carry = word >> 32;
            (word as u32).to_be_bytes()
        };
        let top_len = bytes.len() % 4;
        let (top, body) = bytes.split_at_mut(top_len);
        for chunk in body.rchunks_exact_mut(4) {
            chunk.copy_from_slice(&next_word());
        }
        // `self` fits in ℓ bits, so the bytes cut off here are zero.
        top.copy_from_slice(&next_word()[4 - top.len()..]);
        Some(BitString::from_vec(bytes, ell))
    }

    /// `BITS(v)` (paper §2): the minimal representation (no leading zeros);
    /// zero maps to the empty bitstring.
    pub fn to_bits_min(&self) -> BitString {
        self.to_bits_len(self.bit_len())
            .expect("bit_len-sized representation always exists")
    }

    /// Value as `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.bit_len() > 128 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, &limb) in self.limbs.iter().enumerate() {
            v |= u128::from(limb) << (32 * i);
        }
        Some(v)
    }

    /// Value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        self.to_u128().and_then(|v| u64::try_from(v).ok())
    }

    /// `self + other`.
    pub fn add(&self, other: &Nat) -> Nat {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the longer operand's limbs plus a carry"
        )]
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let sum = u64::from(limb) + u64::from(short.get(i).copied().unwrap_or(0)) + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        let mut n = Nat { limbs: out };
        n.normalize();
        n
    }

    /// `self − other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &Nat) -> Option<Nat> {
        if self < other {
            return None;
        }
        #[expect(clippy::disallowed_methods, reason = "the minuend's own limb count")]
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let diff = i64::from(self.limbs[i])
                - i64::from(other.limbs.get(i).copied().unwrap_or(0))
                - borrow;
            if diff < 0 {
                out.push((diff + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(diff as u32);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        let mut n = Nat { limbs: out };
        n.normalize();
        Some(n)
    }

    /// `self * m` for a small factor.
    pub fn mul_u32(&self, m: u32) -> Nat {
        #[expect(
            clippy::disallowed_methods,
            reason = "the value's own limbs plus a carry"
        )]
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for &limb in &self.limbs {
            let prod = u64::from(limb) * u64::from(m) + carry;
            out.push(prod as u32);
            carry = prod >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        let mut n = Nat { limbs: out };
        n.normalize();
        n
    }

    /// `(self / d, self % d)` for a small divisor.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem_u32(&self, d: u32) -> (Nat, u32) {
        assert!(d != 0, "division by zero");
        #[expect(clippy::disallowed_methods, reason = "the dividend's own limb count")]
        let mut out = vec![0u32; self.limbs.len()];
        let mut rem = 0u64;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | u64::from(self.limbs[i]);
            out[i] = (cur / u64::from(d)) as u32;
            rem = cur % u64::from(d);
        }
        let mut q = Nat { limbs: out };
        q.normalize();
        (q, rem as u32)
    }

    /// Midpoint `⌊(self + other) / 2⌋` — handy for convex-validity checks.
    pub fn midpoint(&self, other: &Nat) -> Nat {
        self.add(other).div_rem_u32(2).0
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Nat {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl From<u64> for Nat {
    fn from(v: u64) -> Self {
        Nat::from_u64(v)
    }
}

impl From<u128> for Nat {
    fn from(v: u128) -> Self {
        Nat::from_u128(v)
    }
}

impl FromStr for Nat {
    type Err = ParseNatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut acc = Nat::zero();
        let mut any = false;
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(10).ok_or(ParseNatError { offending: c })?;
            acc = acc.mul_u32(10).add(&Nat::from_u64(u64::from(d)));
            any = true;
        }
        if !any {
            return Err(ParseNatError { offending: ' ' });
        }
        Ok(acc)
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Peel 9 decimal digits at a time.
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u32(1_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = chunks.pop().map(|c| c.to_string()).unwrap_or_default();
        while let Some(c) = chunks.pop() {
            s.push_str(&format!("{c:09}"));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bit_len() <= 128 {
            write!(f, "Nat({self})")
        } else {
            write!(f, "Nat({} bits)", self.bit_len())
        }
    }
}

impl Encode for Nat {
    fn encode(&self, w: &mut Writer) {
        self.to_bits_min().encode(w);
    }

    fn encoded_len(&self) -> usize {
        let bits = self.bit_len();
        Writer::varint_len(bits as u64) + bits.div_ceil(8)
    }
}

impl Decode for Nat {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bits = BitString::decode(r)?;
        if bits.leading_zeros() > 0 {
            return Err(CodecError::Invalid("non-minimal Nat encoding"));
        }
        Ok(bits.val())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_len_matches_paper_definition() {
        // BITS(v) = B1..Bk with 2^(k-1) <= v < 2^k.
        for v in 1u64..200 {
            let n = Nat::from_u64(v);
            let k = n.bit_len();
            assert!(1u64 << (k - 1) <= v && v < 1u64 << k, "v = {v}");
        }
        assert_eq!(Nat::zero().bit_len(), 0);
    }

    #[test]
    fn bits_round_trip_small() {
        for v in 0u64..300 {
            let n = Nat::from_u64(v);
            assert_eq!(n.to_bits_min().val(), n);
            assert_eq!(n.to_bits_len(16).unwrap().val(), n);
        }
    }

    #[test]
    fn to_bits_len_rejects_overflow() {
        assert!(Nat::from_u64(8).to_bits_len(3).is_none());
        assert!(Nat::from_u64(7).to_bits_len(3).is_some());
    }

    #[test]
    fn all_ones_and_pow2() {
        assert_eq!(Nat::all_ones(5), Nat::from_u64(31));
        assert_eq!(Nat::pow2(5), Nat::from_u64(32));
        assert_eq!(Nat::all_ones(0), Nat::zero());
        assert_eq!(Nat::pow2(0), Nat::one());
        assert_eq!(Nat::all_ones(40).add(&Nat::one()), Nat::pow2(40));
    }

    #[test]
    fn all_ones_and_encoded_len_at_limb_boundaries() {
        for k in [0usize, 1, 31, 32, 33, 64, 65, 1 << 21] {
            let ones = Nat::all_ones(k);
            assert_eq!(ones.bit_len(), k);
            // What the bit-by-bit constructor built: k set bits, i.e. 2^k − 1.
            assert_eq!(Some(&ones), Nat::pow2(k).checked_sub(&Nat::one()).as_ref());
            assert_eq!(ones, BitString::repeat(true, k).val());
            for v in [ones, Nat::pow2(k)] {
                assert_eq!(v.encoded_len(), v.to_bits_min().encoded_len(), "k = {k}");
                assert_eq!(v.encoded_len(), v.encode_to_vec().len(), "k = {k}");
            }
        }
    }

    #[test]
    fn decimal_round_trip() {
        for text in [
            "0",
            "1",
            "999999999",
            "1000000000",
            "123456789012345678901234567890",
        ] {
            let n: Nat = text.parse().unwrap();
            assert_eq!(n.to_string(), text);
        }
        assert!("12x".parse::<Nat>().is_err());
        assert!("".parse::<Nat>().is_err());
    }

    #[test]
    fn arithmetic_basics() {
        let a = Nat::from_u64(u64::MAX);
        let b = Nat::from_u64(1);
        assert_eq!(a.add(&b).to_u128(), Some(u128::from(u64::MAX) + 1));
        assert_eq!(a.add(&b).checked_sub(&b), Some(a.clone()));
        assert_eq!(b.checked_sub(&a), None);
        assert_eq!(a.mul_u32(0), Nat::zero());
        let (q, r) = Nat::from_u64(1000).div_rem_u32(7);
        assert_eq!((q.to_u64().unwrap(), r), (142, 6));
    }

    #[test]
    fn midpoint_is_within_range() {
        let a = Nat::from_u64(10);
        let b = Nat::from_u64(21);
        let m = a.midpoint(&b);
        assert_eq!(m, Nat::from_u64(15));
    }

    proptest! {
        #[test]
        fn prop_u128_round_trip(v in any::<u128>()) {
            prop_assert_eq!(Nat::from_u128(v).to_u128(), Some(v));
        }

        #[test]
        fn prop_cmp_matches_u128(a in any::<u128>(), b in any::<u128>()) {
            prop_assert_eq!(Nat::from_u128(a).cmp(&Nat::from_u128(b)), a.cmp(&b));
        }

        #[test]
        fn prop_add_sub_round_trip(a in 0..u128::MAX / 2, b in 0..u128::MAX / 2) {
            let (na, nb) = (Nat::from_u128(a), Nat::from_u128(b));
            prop_assert_eq!(na.add(&nb).checked_sub(&nb), Some(na));
            prop_assert_eq!(Nat::from_u128(a).add(&nb).to_u128(), Some(a + b));
        }

        #[test]
        fn prop_bits_round_trip(v in any::<u128>(), pad in 0usize..40) {
            let n = Nat::from_u128(v);
            let ell = n.bit_len() + pad;
            let bits = n.to_bits_len(ell).unwrap();
            prop_assert_eq!(bits.len(), ell);
            prop_assert_eq!(bits.val(), n);
        }

        #[test]
        fn prop_decimal_round_trip(v in any::<u128>()) {
            let n = Nat::from_u128(v);
            let text = n.to_string();
            prop_assert_eq!(text.clone(), v.to_string());
            prop_assert_eq!(text.parse::<Nat>().unwrap(), n);
        }

        #[test]
        fn prop_codec_round_trip(v in any::<u128>()) {
            let n = Nat::from_u128(v);
            let bytes = n.encode_to_vec();
            prop_assert_eq!(Nat::decode_from_slice(&bytes).unwrap(), n);
        }
    }
}

//! Packed MSB-first bitstrings.

use std::cmp::Ordering;
use std::fmt;

use ca_codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::kernel::{cmp_bits, copy_bits, fill_ones, first_diff};
use crate::Nat;

/// A packed, arbitrary-length bitstring, MSB-first.
///
/// Bit `0` is the *leftmost* (most significant) bit, matching the paper's
/// `B₁B₂…Bₖ` notation (the paper is 1-indexed; this API is 0-indexed).
///
/// # Ordering
///
/// `Ord` compares **numerically by `VAL`**, breaking ties (equal value,
/// different zero-padding) by length, so that the order is a total order
/// consistent with `Eq`. For the common protocol case of equal-length strings
/// this coincides with both lexicographic and numeric order. Use
/// [`BitString::cmp_val`] when only `VAL` should be compared.
///
/// # Invariant
///
/// The backing bytes are canonical: all bits beyond `len` in the final byte
/// are zero. Decoding enforces this, so equal bitstrings always have equal
/// encodings (required when hashing encodings).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    bytes: Vec<u8>,
    len: usize,
}

impl BitString {
    /// The empty bitstring.
    pub fn new() -> Self {
        Self::default()
    }

    /// The empty bitstring (alias matching the paper's "empty string").
    pub fn empty() -> Self {
        Self::default()
    }

    /// A bitstring of `len` copies of `bit`.
    pub fn repeat(bit: bool, len: usize) -> Self {
        #[expect(clippy::disallowed_methods, reason = "the caller's length, in bytes")]
        let bytes = vec![if bit { 0xff } else { 0x00 }; len.div_ceil(8)];
        let mut s = Self { bytes, len };
        s.clear_tail();
        s
    }

    /// Builds a bitstring from explicit bits (MSB first).
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits = bits.into_iter();
        #[expect(
            clippy::disallowed_methods,
            reason = "the caller's iterator's lower bound"
        )]
        let mut bytes = Vec::with_capacity(bits.size_hint().0.div_ceil(8));
        let mut len = 0usize;
        let mut acc = 0u8;
        for bit in bits {
            acc = (acc << 1) | u8::from(bit);
            len += 1;
            if len.is_multiple_of(8) {
                bytes.push(acc);
                acc = 0;
            }
        }
        if !len.is_multiple_of(8) {
            bytes.push(acc << (8 - len % 8));
        }
        Self { bytes, len }
    }

    /// Parses a string of `'0'`/`'1'` characters.
    ///
    /// # Errors
    ///
    /// Returns `None` if any character is not `'0'` or `'1'`.
    pub fn parse_binary(text: &str) -> Option<Self> {
        text.chars()
            .map(|c| match c {
                '0' => Some(false),
                '1' => Some(true),
                _ => None,
            })
            .collect()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitstring has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at position `i` (0-indexed from the most significant end).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.bytes[i / 8] & (0x80 >> (i % 8)) != 0
    }

    /// Sets the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let mask = 0x80 >> (i % 8);
        if bit {
            self.bytes[i / 8] |= mask;
        } else {
            self.bytes[i / 8] &= !mask;
        }
    }

    /// Appends one bit at the least-significant end.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        self.len += 1;
        if bit {
            self.set(self.len - 1, true);
        }
    }

    /// Appends all bits of `other` (the paper's `‖` concatenation).
    pub fn extend_from(&mut self, other: &BitString) {
        let old_len = self.len;
        self.len += other.len;
        self.bytes.resize(self.len.div_ceil(8), 0);
        copy_bits(&mut self.bytes, old_len, &other.bytes, 0, other.len);
    }

    /// Returns `self ‖ other`.
    pub fn concat(&self, other: &BitString) -> BitString {
        let mut out = self.min_extend(self.len + other.len);
        copy_bits(&mut out.bytes, self.len, &other.bytes, 0, other.len);
        out
    }

    /// The sub-bitstring of bit positions `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> BitString {
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of range (len {})",
            self.len
        );
        let len = end - start;
        #[expect(
            clippy::disallowed_methods,
            reason = "the slice's length, in bytes, within this bitstring's"
        )]
        let mut bytes = vec![0u8; len.div_ceil(8)];
        copy_bits(&mut bytes, 0, &self.bytes, start, len);
        BitString { bytes, len }
    }

    /// The first `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn prefix(&self, n: usize) -> BitString {
        self.slice(0, n)
    }

    /// Truncates to the first `n` bits in place.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn truncate(&mut self, n: usize) {
        assert!(
            n <= self.len,
            "truncate {n} out of range (len {})",
            self.len
        );
        self.len = n;
        self.bytes.truncate(n.div_ceil(8));
        self.clear_tail();
    }

    /// Whether `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &BitString) -> bool {
        self.len <= other.len && self.common_prefix_len(other) == self.len
    }

    /// Length of the longest common prefix of `self` and `other`.
    pub fn common_prefix_len(&self, other: &BitString) -> usize {
        let max = self.len.min(other.len);
        first_diff(&self.bytes, 0, &other.bytes, 0, max).unwrap_or(max)
    }

    /// `MINℓ(self)` (paper §2): the lowest `ℓ`-bit string with prefix `self`,
    /// obtained by appending `ℓ − |self|` zeroes.
    ///
    /// # Panics
    ///
    /// Panics if `ell < self.len()`.
    pub fn min_extend(&self, ell: usize) -> BitString {
        assert!(
            ell >= self.len,
            "MIN_l with l = {ell} < |prefix| = {}",
            self.len
        );
        // Sized once: a clone followed by a resize would copy the value twice.
        #[expect(clippy::disallowed_methods, reason = "the caller's target length")]
        let mut bytes = Vec::with_capacity(ell.div_ceil(8));
        bytes.extend_from_slice(&self.bytes);
        bytes.resize(ell.div_ceil(8), 0);
        BitString { bytes, len: ell }
    }

    /// `MAXℓ(self)` (paper §2): the highest `ℓ`-bit string with prefix
    /// `self`, obtained by appending `ℓ − |self|` ones.
    ///
    /// # Panics
    ///
    /// Panics if `ell < self.len()`.
    pub fn max_extend(&self, ell: usize) -> BitString {
        assert!(
            ell >= self.len,
            "MAX_l with l = {ell} < |prefix| = {}",
            self.len
        );
        let mut out = self.min_extend(ell);
        fill_ones(&mut out.bytes, self.len, ell - self.len);
        out
    }

    /// Number of leading zero bits.
    pub fn leading_zeros(&self) -> usize {
        for (byte_idx, &b) in self.bytes.iter().enumerate() {
            if b != 0 {
                return (byte_idx * 8 + b.leading_zeros() as usize).min(self.len);
            }
        }
        self.len
    }

    /// `|BITS(VAL(self))|`: the length after stripping leading zeros.
    ///
    /// The paper defines `BITS(0)` to be... well, `0 ≤ v < 2⁰` has no
    /// solution; we follow the usual convention that zero has effective
    /// length 0.
    pub fn effective_len(&self) -> usize {
        self.len - self.leading_zeros()
    }

    /// Numeric comparison of `VAL(self)` vs `VAL(other)`, ignoring
    /// zero-padding. For equal-length strings this equals lexicographic
    /// comparison.
    pub fn cmp_val(&self, other: &BitString) -> Ordering {
        let a_eff = self.effective_len();
        let b_eff = other.effective_len();
        match a_eff.cmp(&b_eff) {
            Ordering::Equal => cmp_bits(
                &self.bytes,
                self.len - a_eff,
                &other.bytes,
                other.len - b_eff,
                a_eff,
            ),
            ord => ord,
        }
    }

    /// The `i`-th block (0-indexed) of width `block_len`
    /// (paper §4, `BLOCKᵢ(v)` is 1-indexed).
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside the bitstring.
    pub fn block(&self, i: usize, block_len: usize) -> BitString {
        self.slice(i * block_len, (i + 1) * block_len)
    }

    /// Interprets the bitstring as a natural number (`VAL`, paper §2).
    pub fn val(&self) -> Nat {
        Nat::from_bits(self)
    }

    /// Iterates over the bits, MSB first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bytes
            .iter()
            .flat_map(|&byte| (0..8).map(move |k| byte & (0x80 >> k) != 0))
            .take(self.len)
    }

    /// The packed backing bytes (final partial byte zero-padded).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Builds from packed bytes, taking the first `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short for `len` bits.
    pub fn from_packed(bytes: &[u8], len: usize) -> Self {
        assert!(
            bytes.len() >= len.div_ceil(8),
            "not enough bytes for {len} bits"
        );
        Self::from_vec(bytes[..len.div_ceil(8)].to_vec(), len)
    }

    /// Takes over `bytes` as the backing store of a `len`-bit string, zeroing
    /// whatever lies past `len` in the final byte.
    pub(crate) fn from_vec(bytes: Vec<u8>, len: usize) -> Self {
        debug_assert_eq!(bytes.len(), len.div_ceil(8));
        let mut s = Self { bytes, len };
        s.clear_tail();
        s
    }

    /// Zeroes the unused bits of the final byte (canonical form invariant).
    fn clear_tail(&mut self) {
        let rem = self.len % 8;
        if rem != 0 {
            if let Some(last) = self.bytes.last_mut() {
                *last &= 0xffu8 << (8 - rem);
            }
        }
    }
}

impl PartialOrd for BitString {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitString {
    /// Numeric (`VAL`) order with length tie-break; see the type docs.
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_val(other).then(self.len.cmp(&other.len))
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (whole, last) = self.bytes.split_at(self.len / 8);
        for byte in whole {
            write!(f, "{byte:08b}")?;
        }
        match last.first() {
            Some(byte) => write!(
                f,
                "{:0width$b}",
                byte >> (8 - self.len % 8),
                width = self.len % 8
            ),
            None => Ok(()),
        }
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 64 {
            write!(f, "BitString(\"{self}\")")
        } else {
            write!(f, "BitString(len {}, \"{}…\")", self.len, self.prefix(64))
        }
    }
}

impl Encode for BitString {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len as u64);
        w.put_raw(&self.bytes);
    }

    fn encoded_len(&self) -> usize {
        Writer::varint_len(self.len as u64) + self.bytes.len()
    }
}

impl Decode for BitString {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len_bits = usize::decode(r)?;
        let nbytes = len_bits.div_ceil(8);
        if nbytes > r.remaining() {
            return Err(CodecError::LengthOverrun {
                claimed: nbytes,
                available: r.remaining(),
            });
        }
        let bytes = r.get_raw(nbytes)?;
        // Enforce canonical form: a byzantine encoder may not smuggle two
        // distinct encodings of the same bitstring. Only the last byte can
        // carry padding.
        let rem = len_bits % 8;
        if rem != 0 && bytes.last().is_some_and(|last| last & (0xff >> rem) != 0) {
            return Err(CodecError::Invalid("non-canonical bitstring padding"));
        }
        Ok(BitString {
            bytes: bytes.to_vec(),
            len: len_bits,
        })
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bs(s: &str) -> BitString {
        BitString::parse_binary(s).unwrap()
    }

    #[test]
    fn push_get_round_trip() {
        let s = bs("10110");
        assert_eq!(s.len(), 5);
        assert!(s.get(0));
        assert!(!s.get(1));
        assert!(s.get(2));
        assert!(s.get(3));
        assert!(!s.get(4));
    }

    #[test]
    fn display_round_trips() {
        for text in ["", "0", "1", "101100111000", "111111111"] {
            assert_eq!(bs(text).to_string(), text);
        }
    }

    #[test]
    fn repeat_builds_uniform_strings() {
        assert_eq!(BitString::repeat(true, 9).to_string(), "111111111");
        assert_eq!(BitString::repeat(false, 3).to_string(), "000");
        assert_eq!(BitString::repeat(true, 0).to_string(), "");
    }

    #[test]
    fn slice_and_concat_are_inverse() {
        let s = bs("110100101110001");
        let a = s.slice(0, 7);
        let b = s.slice(7, s.len());
        assert_eq!(a.concat(&b), s);
    }

    #[test]
    fn slice_unaligned() {
        let s = bs("1101001011");
        assert_eq!(s.slice(3, 9).to_string(), "100101");
    }

    #[test]
    fn prefix_checks() {
        let s = bs("110100");
        assert!(bs("110").is_prefix_of(&s));
        assert!(bs("").is_prefix_of(&s));
        assert!(s.is_prefix_of(&s));
        assert!(!bs("111").is_prefix_of(&s));
        assert!(!bs("1101001").is_prefix_of(&s));
        assert_eq!(s.common_prefix_len(&bs("110111")), 4);
        assert_eq!(s.common_prefix_len(&bs("0")), 0);
    }

    #[test]
    fn min_max_extend_match_paper() {
        let p = bs("101");
        assert_eq!(p.min_extend(6).to_string(), "101000");
        assert_eq!(p.max_extend(6).to_string(), "101111");
        assert_eq!(p.min_extend(3), p);
    }

    #[test]
    fn effective_len_and_leading_zeros() {
        assert_eq!(bs("000101").leading_zeros(), 3);
        assert_eq!(bs("000101").effective_len(), 3);
        assert_eq!(bs("0000").effective_len(), 0);
        assert_eq!(bs("").effective_len(), 0);
        assert_eq!(bs("1").leading_zeros(), 0);
        assert_eq!(bs("000000000001").leading_zeros(), 11);
    }

    #[test]
    fn cmp_val_ignores_padding() {
        assert_eq!(bs("0101").cmp_val(&bs("101")), Ordering::Equal);
        assert_eq!(bs("0101").cmp_val(&bs("110")), Ordering::Less);
        assert_eq!(bs("111").cmp_val(&bs("0110")), Ordering::Greater);
        assert_eq!(bs("").cmp_val(&bs("0000")), Ordering::Equal);
    }

    #[test]
    fn ord_is_total_and_consistent_with_eq() {
        let a = bs("0101");
        let b = bs("101");
        assert_ne!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Greater); // equal VAL, longer wins
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn blocks_split_evenly() {
        let s = bs("110100101110");
        assert_eq!(s.block(0, 3).to_string(), "110");
        assert_eq!(s.block(1, 3).to_string(), "100");
        assert_eq!(s.block(3, 3).to_string(), "110");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn blocks_reject_uneven_split() {
        // Five bits hold one whole block of width 3, not two.
        bs("11010").block(1, 3);
    }

    #[test]
    fn truncate_clears_tail_bits() {
        let mut s = bs("11111111");
        s.truncate(3);
        assert_eq!(s.to_string(), "111");
        assert_eq!(s.as_bytes(), &[0b1110_0000]);
    }

    #[test]
    fn codec_rejects_dirty_padding() {
        // "1" encoded with a dirty low bit in the byte.
        let mut w = ca_codec::Writer::new();
        w.put_varint(1);
        w.put_raw(&[0b1000_0001]);
        assert!(BitString::decode_from_slice(&w.into_vec()).is_err());
    }

    #[test]
    fn codec_checks_padding_of_the_last_byte_only() {
        let wire = |len: u64, bytes: &[u8]| {
            let mut w = ca_codec::Writer::new();
            w.put_varint(len);
            w.put_raw(bytes);
            BitString::decode_from_slice(&w.into_vec())
        };
        // 19 bits: the low five bits of the third byte are padding.
        assert_eq!(
            wire(19, &[0xff, 0xff, 0b1110_0001]),
            Err(CodecError::Invalid("non-canonical bitstring padding"))
        );
        assert_eq!(
            wire(19, &[0xff, 0xff, 0b1110_0000]),
            Ok(BitString::repeat(true, 19))
        );
        // A whole number of bytes has no padding to be dirty.
        assert_eq!(wire(24, &[0xff; 3]), Ok(BitString::repeat(true, 24)));
        assert_eq!(wire(0, &[]), Ok(BitString::empty()));
    }

    proptest! {
        #[test]
        fn prop_codec_round_trip(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
            let s = BitString::from_bits(bits);
            let bytes = s.encode_to_vec();
            prop_assert_eq!(bytes.len(), s.encoded_len());
            let back = BitString::decode_from_slice(&bytes).unwrap();
            prop_assert_eq!(back, s);
        }

        #[test]
        fn prop_slice_concat_identity(
            bits in proptest::collection::vec(any::<bool>(), 1..300),
            cut_frac in 0.0f64..1.0,
        ) {
            let s = BitString::from_bits(bits);
            let cut = ((s.len() as f64) * cut_frac) as usize;
            let a = s.slice(0, cut);
            let b = s.slice(cut, s.len());
            prop_assert_eq!(a.concat(&b), s);
        }

        #[test]
        fn prop_common_prefix_is_prefix(
            a in proptest::collection::vec(any::<bool>(), 0..200),
            b in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let a = BitString::from_bits(a);
            let b = BitString::from_bits(b);
            let k = a.common_prefix_len(&b);
            prop_assert!(a.prefix(k).is_prefix_of(&b));
            // Maximality: the next bit differs or one string ends.
            if k < a.len() && k < b.len() {
                prop_assert_ne!(a.get(k), b.get(k));
            }
        }

        #[test]
        fn prop_min_le_max_extend(
            bits in proptest::collection::vec(any::<bool>(), 0..100),
            extra in 0usize..50,
        ) {
            let p = BitString::from_bits(bits);
            let ell = p.len() + extra;
            let lo = p.min_extend(ell);
            let hi = p.max_extend(ell);
            prop_assert!(lo.cmp_val(&hi) != Ordering::Greater);
            prop_assert!(p.is_prefix_of(&lo));
            prop_assert!(p.is_prefix_of(&hi));
        }

        #[test]
        fn prop_val_cmp_matches_nat_cmp(
            a in proptest::collection::vec(any::<bool>(), 0..120),
            b in proptest::collection::vec(any::<bool>(), 0..120),
        ) {
            let a = BitString::from_bits(a);
            let b = BitString::from_bits(b);
            prop_assert_eq!(a.cmp_val(&b), a.val().cmp(&b.val()));
        }
    }
}

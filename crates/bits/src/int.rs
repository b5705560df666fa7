//! Signed integers: the input/output domain of `Π_ℤ` (paper §6).

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use ca_codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::{Nat, ParseNatError};

/// Sign of an [`Int`], matching the paper's `SIGN ∈ {0, 1}` with
/// `v = (−1)^SIGN · v^ℕ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sign {
    /// `SIGN = 0`: non-negative.
    #[default]
    NonNeg,
    /// `SIGN = 1`: negative.
    Neg,
}

impl Sign {
    /// The paper's bit encoding of the sign.
    pub fn as_bit(self) -> bool {
        matches!(self, Sign::Neg)
    }

    /// From the paper's bit encoding.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            Sign::Neg
        } else {
            Sign::NonNeg
        }
    }
}

/// A signed arbitrary-precision integer `(−1)^sign · magnitude`.
///
/// Zero is canonically non-negative (`-0` normalizes to `0`), so `Eq` is
/// structural equality of values.
///
/// # Examples
///
/// ```
/// use ca_bits::Int;
///
/// let t: Int = "-1005".parse().unwrap(); // e.g. a temperature of −10.05°C in centi-degrees
/// assert!(t < Int::zero());
/// assert_eq!(t.to_string(), "-1005");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Int {
    sign: Sign,
    mag: Nat,
}

/// Error returned when parsing a decimal [`Int`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntError(ParseNatError);

impl fmt::Display for ParseIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer: {}", self.0)
    }
}

impl Error for ParseIntError {}

impl Int {
    /// Zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Builds from a sign and magnitude, normalizing `-0` to `0`.
    pub fn from_parts(sign: Sign, mag: Nat) -> Self {
        let sign = if mag.is_zero() { Sign::NonNeg } else { sign };
        Self { sign, mag }
    }

    /// From an `i64`.
    pub fn from_i64(v: i64) -> Self {
        Self::from_parts(
            if v < 0 { Sign::Neg } else { Sign::NonNeg },
            Nat::from_u128(v.unsigned_abs().into()),
        )
    }

    /// From an `i128`.
    pub fn from_i128(v: i128) -> Self {
        Self::from_parts(
            if v < 0 { Sign::Neg } else { Sign::NonNeg },
            Nat::from_u128(v.unsigned_abs()),
        )
    }

    /// The sign (`SIGN_IN` in the paper's `Π_ℤ`).
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude (`v^ℕ` in the paper's `Π_ℤ`).
    pub fn magnitude(&self) -> &Nat {
        &self.mag
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// Value as `i128` if it fits.
    pub fn to_i128(&self) -> Option<i128> {
        let mag = self.mag.to_u128()?;
        match self.sign {
            Sign::NonNeg => i128::try_from(mag).ok(),
            Sign::Neg => {
                if mag <= (1u128 << 127) {
                    Some((mag as i128).wrapping_neg())
                } else {
                    None
                }
            }
        }
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::NonNeg, Sign::Neg) => Ordering::Greater,
            (Sign::Neg, Sign::NonNeg) => Ordering::Less,
            (Sign::NonNeg, Sign::NonNeg) => self.mag.cmp(&other.mag),
            (Sign::Neg, Sign::Neg) => other.mag.cmp(&self.mag),
        }
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Self {
        Int::from_i64(v)
    }
}

impl FromStr for Int {
    type Err = ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (Sign::Neg, rest),
            None => (Sign::NonNeg, s.strip_prefix('+').unwrap_or(s)),
        };
        let mag: Nat = digits.parse().map_err(ParseIntError)?;
        Ok(Int::from_parts(sign, mag))
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Neg {
            f.write_str("-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({self})")
    }
}

impl Encode for Int {
    fn encode(&self, w: &mut Writer) {
        self.sign.as_bit().encode(w);
        self.mag.encode(w);
    }

    fn encoded_len(&self) -> usize {
        1 + self.mag.encoded_len()
    }
}

impl Decode for Int {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let sign = Sign::from_bit(bool::decode(r)?);
        let mag = Nat::decode(r)?;
        if sign == Sign::Neg && mag.is_zero() {
            return Err(CodecError::Invalid("negative zero"));
        }
        Ok(Int::from_parts(sign, mag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn negative_zero_normalizes() {
        let z = Int::from_parts(Sign::Neg, Nat::zero());
        assert_eq!(z, Int::zero());
        assert_eq!(z.sign(), Sign::NonNeg);
    }

    #[test]
    fn parse_and_display() {
        for text in ["0", "-1", "42", "-123456789012345678901234567890"] {
            let v: Int = text.parse().unwrap();
            assert_eq!(v.to_string(), text);
        }
        assert_eq!("+7".parse::<Int>().unwrap(), Int::from_i64(7));
        assert_eq!("-0".parse::<Int>().unwrap(), Int::zero());
        assert!("--1".parse::<Int>().is_err());
    }

    #[test]
    fn codec_rejects_negative_zero() {
        let mut w = Writer::new();
        true.encode(&mut w);
        Nat::zero().encode(&mut w);
        assert!(Int::decode_from_slice(&w.into_vec()).is_err());
    }

    proptest! {
        #[test]
        fn prop_cmp_matches_i128(a in any::<i128>(), b in any::<i128>()) {
            prop_assert_eq!(Int::from_i128(a).cmp(&Int::from_i128(b)), a.cmp(&b));
        }

        #[test]
        fn prop_i128_round_trip(v in any::<i128>()) {
            prop_assert_eq!(Int::from_i128(v).to_i128(), Some(v));
        }

        #[test]
        fn prop_codec_round_trip(v in any::<i128>()) {
            let i = Int::from_i128(v);
            prop_assert_eq!(Int::decode_from_slice(&i.encode_to_vec()).unwrap(), i);
        }

        #[test]
        fn prop_display_matches_i128(v in any::<i128>()) {
            prop_assert_eq!(Int::from_i128(v).to_string(), v.to_string());
        }
    }
}

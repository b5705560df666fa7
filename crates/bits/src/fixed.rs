//! Fixed-point decimals: the paper's remark that integer inputs are
//! "without loss of generality … one could alternatively interpret the
//! inputs being rational numbers with some arbitrary pre-defined
//! precision" (§1), made concrete.
//!
//! A [`Fixed`] is an [`Int`] scaled by `10^scale`; the protocols run on the
//! underlying integer, and ordering (hence convex validity) is preserved
//! because scaling by a positive constant is monotone.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

use crate::{Int, Nat, Sign};

/// A decimal fixed-point number `mantissa · 10^(−scale)`.
///
/// # Examples
///
/// ```
/// use ca_bits::Fixed;
///
/// let t = Fixed::parse("-10.05", 2).unwrap(); // centi-degree precision
/// assert_eq!(t.to_string(), "-10.05");
/// assert_eq!(t.mantissa().to_i128(), Some(-1005));
/// let u = Fixed::parse("-10.3", 2).unwrap();
/// assert!(u < t);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fixed {
    mantissa: Int,
    scale: u32,
}

/// Error from parsing a [`Fixed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFixedError {
    /// Not a decimal number.
    Malformed,
    /// More fractional digits than the configured scale.
    TooPrecise {
        /// Digits provided.
        digits: usize,
        /// Maximum allowed.
        scale: u32,
    },
}

impl fmt::Display for ParseFixedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFixedError::Malformed => write!(f, "malformed fixed-point number"),
            ParseFixedError::TooPrecise { digits, scale } => {
                write!(f, "{digits} fractional digits exceed scale {scale}")
            }
        }
    }
}

impl Error for ParseFixedError {}

impl Fixed {
    /// Parses a decimal string (e.g. `"-10.05"`) at the given scale.
    ///
    /// # Errors
    ///
    /// [`ParseFixedError`] if the string is not a decimal number or carries
    /// more fractional digits than `scale`.
    pub fn parse(text: &str, scale: u32) -> Result<Self, ParseFixedError> {
        let (sign, rest) = match text.strip_prefix('-') {
            Some(r) => (Sign::Neg, r),
            None => (Sign::NonNeg, text.strip_prefix('+').unwrap_or(text)),
        };
        let (int_part, frac_part) = match rest.split_once('.') {
            Some((i, f)) => (i, f),
            None => (rest, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(ParseFixedError::Malformed);
        }
        if frac_part.len() > scale as usize {
            return Err(ParseFixedError::TooPrecise {
                digits: frac_part.len(),
                scale,
            });
        }
        let mut digits = String::new();
        digits.push_str(if int_part.is_empty() { "0" } else { int_part });
        digits.push_str(frac_part);
        for _ in frac_part.len()..scale as usize {
            digits.push('0');
        }
        let mag: Nat = digits.parse().map_err(|_| ParseFixedError::Malformed)?;
        Ok(Self {
            mantissa: Int::from_parts(sign, mag),
            scale,
        })
    }

    /// The scaled integer the protocols actually agree on.
    pub fn mantissa(&self) -> &Int {
        &self.mantissa
    }

    /// Number of decimal fraction digits.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Rewraps a protocol output (an [`Int`] mantissa) at this value's scale.
    pub fn with_mantissa(&self, mantissa: Int) -> Fixed {
        Fixed {
            mantissa,
            scale: self.scale,
        }
    }
}

impl PartialOrd for Fixed {
    /// Comparable only at equal scales (protocol runs fix one public scale);
    /// returns `None` across scales.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        (self.scale == other.scale).then(|| self.mantissa.cmp(&other.mantissa))
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = self.mantissa.magnitude().to_string();
        let scale = self.scale as usize;
        let (int_part, frac_part) = if digits.len() > scale {
            let (i, fr) = digits.split_at(digits.len() - scale);
            (i.to_owned(), fr.to_owned())
        } else {
            ("0".to_owned(), format!("{digits:0>scale$}"))
        };
        if self.mantissa.sign() == Sign::Neg {
            f.write_str("-")?;
        }
        if scale == 0 {
            write!(f, "{int_part}")
        } else {
            write!(f, "{int_part}.{frac_part}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        for (text, scale) in [
            ("-10.05", 2u32),
            ("0.00", 2),
            ("3.14", 2),
            ("42", 0),
            ("-0.001", 3),
            ("12345.678", 3),
        ] {
            let v = Fixed::parse(text, scale).unwrap();
            let canonical = text.to_owned();
            // Display always shows exactly `scale` fraction digits.
            if scale > 0 && !text.contains('.') {
                assert_eq!(
                    v.to_string(),
                    format!("{text}.{}", "0".repeat(scale as usize))
                );
            } else {
                assert_eq!(v.to_string(), canonical);
            }
        }
    }

    #[test]
    fn short_fractions_padded() {
        let v = Fixed::parse("-10.3", 2).unwrap();
        assert_eq!(v.mantissa().to_i128(), Some(-1030));
        assert_eq!(v.to_string(), "-10.30");
    }

    #[test]
    fn precision_enforced() {
        assert!(matches!(
            Fixed::parse("1.234", 2),
            Err(ParseFixedError::TooPrecise {
                digits: 3,
                scale: 2
            })
        ));
        assert!(Fixed::parse("", 2).is_err());
        assert!(Fixed::parse(".", 2).is_err());
        assert!(Fixed::parse("1.2.3", 2).is_err());
    }

    #[test]
    fn ordering_matches_real_value() {
        let a = Fixed::parse("-10.05", 2).unwrap();
        let b = Fixed::parse("-10.03", 2).unwrap();
        let c = Fixed::parse("100.00", 2).unwrap();
        assert!(a < b && b < c);
        // Cross-scale comparison is refused, not wrong.
        let d = Fixed::parse("1.5", 1).unwrap();
        assert_eq!(a.partial_cmp(&d), None);
    }

    #[test]
    fn negative_zero_normalizes_via_int() {
        let z = Fixed::parse("-0.00", 2).unwrap();
        assert_eq!(z.mantissa(), &Int::zero());
        assert_eq!(z.to_string(), "0.00");
    }
}

//! The Galois field `GF(2^16)`.
//!
//! Arithmetic uses full logarithm/antilogarithm tables built once at first
//! use (`2 × 128 KiB`), giving O(1) multiply/divide. The field is generated
//! by the primitive polynomial `x^16 + x^12 + x^3 + x + 1` (0x1100B).
//!
//! The paper's RS codewords are "elements of a Galois Field `GF(2^a)` with
//! `n ≤ 2^a − 1`" — with `a = 16` this supports up to 65 535 parties.

use std::sync::OnceLock;

/// Primitive polynomial for GF(2^16): x^16 + x^12 + x^3 + x + 1.
const PRIMITIVE_POLY: u32 = 0x1100B;

/// Number of nonzero field elements.
pub const ORDER: usize = (1 << 16) - 1;

struct Tables {
    /// exp[i] = g^i for i in 0..2*ORDER (doubled to skip a modulo).
    exp: Vec<u16>,
    /// log[x] = i with g^i = x, for x != 0.
    log: Vec<u16>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "the field's exp table, a constant size"
        )]
        let mut exp = vec![0u16; 2 * ORDER];
        #[expect(
            clippy::disallowed_methods,
            reason = "the field's log table, a constant size"
        )]
        let mut log = vec![0u16; 1 << 16];
        let mut x: u32 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(ORDER) {
            *e = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x10000 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        for i in ORDER..2 * ORDER {
            exp[i] = exp[i - ORDER];
        }
        Tables { exp, log }
    })
}

/// An element of `GF(2^16)`.
///
/// Addition is XOR; multiplication/division go through the log tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf(pub u16);

impl Gf {
    /// The additive identity.
    pub const ZERO: Gf = Gf(0);
    /// The multiplicative identity.
    pub const ONE: Gf = Gf(1);

    /// The generator `g` of the multiplicative group.
    pub fn generator() -> Gf {
        Gf(tables().exp[1])
    }

    /// `g^i`.
    pub fn alpha(i: usize) -> Gf {
        Gf(tables().exp[i % ORDER])
    }

    /// Field addition (XOR; also subtraction in characteristic 2).
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: named ops keep call sites explicit about GF semantics
    pub fn add(self, other: Gf) -> Gf {
        Gf(self.0 ^ other.0)
    }

    /// Field multiplication.
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: named ops keep call sites explicit about GF semantics
    pub fn mul(self, other: Gf) -> Gf {
        if self.0 == 0 || other.0 == 0 {
            return Gf::ZERO;
        }
        let t = tables();
        let idx = t.log[self.0 as usize] as usize + t.log[other.0 as usize] as usize;
        Gf(t.exp[idx])
    }

    /// Field division.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: named ops keep call sites explicit about GF semantics
    pub fn div(self, other: Gf) -> Gf {
        assert!(other.0 != 0, "division by zero in GF(2^16)");
        if self.0 == 0 {
            return Gf::ZERO;
        }
        let t = tables();
        let idx = t.log[self.0 as usize] as usize + ORDER - t.log[other.0 as usize] as usize;
        Gf(t.exp[idx])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn inv(self) -> Gf {
        Gf::ONE.div(self)
    }

    /// Exponentiation by squaring (used only in tests; encoding uses the
    /// tables directly).
    pub fn pow(self, mut e: u64) -> Gf {
        let mut base = self;
        let mut acc = Gf::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }
}

/// Products per [`MulTable`] entry: four 16-bit lanes of a `u64`.
pub(crate) const LANES: usize = 4;

/// Split multiplication tables for [`LANES`] fixed coefficients at once.
///
/// Multiplication by a constant is linear over `GF(2)`, so the product
/// decomposes over the low and high bytes of the variable operand:
/// `c · x = c · (x & 0xff) ⊕ c · (x & 0xff00)`. With lane `r` of every
/// entry holding coefficient `r`'s product, `lo[x & 0xff] ^ hi[x >> 8]` is
/// four products for two L1 loads and an XOR, with no branches and no trip
/// through the 384 KiB log/antilog pair of [`Gf::mul`]. Linearity also
/// builds the table: an entry is the entry without its lowest set bit XOR
/// that bit's product, so a build is 64 [`Gf::mul`] and 510 XORs, which
/// the RS kernel amortizes over at least 256 stripes. The pair takes 4 KiB.
#[derive(Debug, Clone)]
pub(crate) struct MulTable {
    lo: [u64; 256],
    hi: [u64; 256],
}

impl MulTable {
    /// Builds the split tables for multiplication by `coeffs[r]` in lane
    /// `r`.
    pub(crate) fn new(coeffs: [Gf; LANES]) -> Self {
        let mut basis = [0u64; 16];
        for (r, c) in coeffs.into_iter().enumerate() {
            for (j, b) in basis.iter_mut().enumerate() {
                *b |= u64::from(c.mul(Gf(1 << j)).0) << (16 * r);
            }
        }
        let (mut lo, mut hi) = ([0u64; 256], [0u64; 256]);
        for x in 1..256usize {
            let (rest, bit) = (x & (x - 1), x.trailing_zeros() as usize);
            lo[x] = lo[rest] ^ basis[bit];
            hi[x] = hi[rest] ^ basis[8 + bit];
        }
        Self { lo, hi }
    }

    /// The [`LANES`] products `coeffs[r] · x`, lane `r` in bits `16r..16r + 16`.
    #[inline]
    pub(crate) fn mul(&self, x: Gf) -> u64 {
        self.lo[(x.0 & 0xff) as usize] ^ self.hi[(x.0 >> 8) as usize]
    }

    /// Fused multiply-accumulate over a block: `acc[i] ^= mul(xs[i])`.
    ///
    /// This is the RS inner loop; the slice form lets the compiler unroll
    /// and keep both tables hot across the whole block.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub(crate) fn mul_acc(&self, acc: &mut [u64], xs: &[Gf]) {
        assert_eq!(acc.len(), xs.len(), "mul_acc length mismatch");
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a ^= self.mul(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identities() {
        let a = Gf(0x1234);
        assert_eq!(a.add(Gf::ZERO), a);
        assert_eq!(a.mul(Gf::ONE), a);
        assert_eq!(a.mul(Gf::ZERO), Gf::ZERO);
        assert_eq!(a.add(a), Gf::ZERO); // characteristic 2
    }

    #[test]
    fn generator_has_full_order() {
        let g = Gf::generator();
        assert_eq!(g.pow(ORDER as u64), Gf::ONE);
        // Order divides 2^16-1 = 3 · 5 · 17 · 257; check proper divisors.
        for d in [3u64, 5, 17, 257] {
            assert_ne!(g.pow(ORDER as u64 / d), Gf::ONE, "divisor {d}");
        }
    }

    #[test]
    fn alpha_points_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(Gf::alpha(i)), "alpha({i}) repeats");
        }
    }

    #[test]
    fn alpha_wraps_at_order() {
        // g^ORDER = g^0 = 1: indices reduce mod the multiplicative order,
        // not mod 2^16 — an off-by-one here would silently alias evaluation
        // points for i ≥ ORDER.
        assert_eq!(Gf::alpha(ORDER), Gf::alpha(0));
        assert_eq!(Gf::alpha(ORDER), Gf::ONE);
        assert_eq!(Gf::alpha(ORDER + 1), Gf::alpha(1));
        assert_eq!(Gf::alpha(ORDER + 5), Gf::alpha(5));
        assert_eq!(Gf::alpha(2 * ORDER), Gf::ONE);
        assert_eq!(Gf::alpha(2 * ORDER + 7), Gf::alpha(7));
        // And the points just below the wrap stay distinct from their images.
        assert_ne!(Gf::alpha(ORDER - 1), Gf::alpha(ORDER));
    }

    /// Lane `r` of a table entry is `coeffs[r] · x`, whatever the other
    /// lanes hold.
    fn assert_lanes(t: &MulTable, coeffs: [Gf; LANES], x: Gf) {
        for (r, c) in coeffs.into_iter().enumerate() {
            let lane = Gf((t.mul(x) >> (16 * r)) as u16);
            assert_eq!(lane, c.mul(x), "lane {r}, c={:#06x} x={:#06x}", c.0, x.0);
        }
    }

    #[test]
    fn mul_table_lanes_match_generic_mul() {
        // A spread of coefficients, rotated through every lane, against
        // Gf::mul over a structured operand set; the proptest below covers
        // random pairs.
        let operands: Vec<u16> = (0..=255u16)
            .map(|b| b << 8 | b ^ 0x5a)
            .chain([0, 1, 2, 0x00ff, 0xff00, 0xffff, 0x1234])
            .collect();
        let spread = [0u16, 1, 2, 3, 0x00ff, 0x0100, 0x8000, 0xffff, 0x1100];
        for i in 0..spread.len() {
            let coeffs = std::array::from_fn(|r| Gf(spread[(i + r) % spread.len()]));
            let t = MulTable::new(coeffs);
            for &x in &operands {
                assert_lanes(&t, coeffs, Gf(x));
            }
        }
    }

    #[test]
    fn mul_acc_accumulates_xor_per_lane() {
        let coeffs = [Gf(0x1234), Gf(1), Gf(0), Gf(0xfedc)];
        let t = MulTable::new(coeffs);
        let xs: Vec<Gf> = (0..100u16).map(|i| Gf(i.wrapping_mul(2557))).collect();
        let mut acc: Vec<u64> = (0..100u64).map(|i| i * 0x0001_0003_0005_0007).collect();
        let expect: Vec<u64> = acc
            .iter()
            .zip(&xs)
            .map(|(&a, &x)| {
                (0..LANES).fold(a, |a, r| a ^ u64::from(coeffs[r].mul(x).0) << (16 * r))
            })
            .collect();
        t.mul_acc(&mut acc, &xs);
        assert_eq!(acc, expect);
    }

    proptest! {
        #[test]
        fn prop_field_axioms(a in any::<u16>(), b in any::<u16>(), c in any::<u16>()) {
            let (a, b, c) = (Gf(a), Gf(b), Gf(c));
            prop_assert_eq!(a.add(b), b.add(a));
            prop_assert_eq!(a.mul(b), b.mul(a));
            prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
            prop_assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
        }

        #[test]
        fn prop_inverse(a in 1u16..) {
            let a = Gf(a);
            prop_assert_eq!(a.mul(a.inv()), Gf::ONE);
            prop_assert_eq!(a.div(a), Gf::ONE);
        }

        #[test]
        fn prop_div_is_mul_inv(a in any::<u16>(), b in 1u16..) {
            let (a, b) = (Gf(a), Gf(b));
            prop_assert_eq!(a.div(b), a.mul(b.inv()));
        }

        #[test]
        fn prop_mul_table_lanes_match_generic_mul(
            c in proptest::collection::vec(any::<u16>(), LANES..LANES + 1),
            x in any::<u16>(),
        ) {
            let coeffs = std::array::from_fn(|r| Gf(c[r]));
            assert_lanes(&MulTable::new(coeffs), coeffs, Gf(x));
        }
    }
}

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
        let mut exp = vec![0u16; 2 * ORDER];
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

/// Split multiplication tables for one fixed `GF(2^16)` coefficient.
///
/// Multiplication by a constant is linear over `GF(2)`, so the product
/// decomposes over the low and high bytes of the variable operand:
/// `c · x = c · (x & 0xff) ⊕ c · (x & 0xff00)`. Tabulating both halves gives
/// `mul(x) = lo[x & 0xff] ^ hi[x >> 8]` — two L1 loads and an XOR per
/// symbol, with no branches and no dependence on the 384 KiB log/antilog
/// pair that the generic [`Gf::mul`] path streams through.
///
/// The table itself is built in the log domain (one index add plus one
/// antilog lookup per entry, 510 entries), so a build amortizes after a few
/// hundred symbols; the blocked RS kernels sweep thousands of stripes per
/// build. Both tables together occupy 1 KiB and stay L1-resident for the
/// whole sweep.
#[derive(Debug, Clone)]
pub struct MulTable {
    lo: [u16; 256],
    hi: [u16; 256],
}

impl MulTable {
    /// Builds the split tables for multiplication by `c`.
    pub fn new(c: Gf) -> Self {
        let mut lo = [0u16; 256];
        let mut hi = [0u16; 256];
        if c.0 != 0 {
            let t = tables();
            let log_c = t.log[c.0 as usize] as usize;
            for x in 1..256usize {
                lo[x] = t.exp[log_c + t.log[x] as usize];
                hi[x] = t.exp[log_c + t.log[x << 8] as usize];
            }
        }
        Self { lo, hi }
    }

    /// `c · x` through the split tables.
    #[inline]
    pub fn mul(&self, x: Gf) -> Gf {
        Gf(self.lo[(x.0 & 0xff) as usize] ^ self.hi[(x.0 >> 8) as usize])
    }

    /// Fused multiply-accumulate over a block: `acc[i] ^= c · xs[i]`.
    ///
    /// This is the RS inner loop; the slice form lets the compiler unroll
    /// and keep both tables hot across the whole block.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn mul_acc(&self, acc: &mut [Gf], xs: &[Gf]) {
        assert_eq!(acc.len(), xs.len(), "mul_acc length mismatch");
        for (a, &x) in acc.iter_mut().zip(xs) {
            a.0 ^= self.lo[(x.0 & 0xff) as usize] ^ self.hi[(x.0 >> 8) as usize];
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

    #[test]
    fn mul_table_matches_generic_mul_exhaustive_coeffs() {
        // Spot-check a spread of coefficients against Gf::mul over a
        // structured operand set; the proptest below covers random pairs.
        let operands: Vec<u16> = (0..=255u16)
            .map(|b| b << 8 | b ^ 0x5a)
            .chain([0, 1, 2, 0x00ff, 0xff00, 0xffff, 0x1234])
            .collect();
        for c in [0u16, 1, 2, 3, 0x00ff, 0x0100, 0x8000, 0xffff, 0x1100] {
            let t = MulTable::new(Gf(c));
            for &x in &operands {
                assert_eq!(t.mul(Gf(x)), Gf(c).mul(Gf(x)), "c={c:#06x} x={x:#06x}");
            }
        }
    }

    #[test]
    fn mul_acc_accumulates_xor() {
        let c = Gf(0x1234);
        let t = MulTable::new(c);
        let xs: Vec<Gf> = (0..100u16).map(|i| Gf(i.wrapping_mul(2557))).collect();
        let mut acc: Vec<Gf> = (0..100u16).map(Gf).collect();
        let expect: Vec<Gf> = acc
            .iter()
            .zip(&xs)
            .map(|(&a, &x)| a.add(c.mul(x)))
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
        fn prop_mul_table_matches_generic_mul(c in any::<u16>(), x in any::<u16>()) {
            let t = MulTable::new(Gf(c));
            prop_assert_eq!(t.mul(Gf(x)), Gf(c).mul(Gf(x)));
        }
    }
}

//! A minimal unsigned 256-bit accumulator.
//!
//! Per-object drag is a `u128` (bytes × clock); classifying a site by the
//! coefficient of variation of its drags needs the sum of *squared* drags,
//! which can exceed 128 bits. [`U256`] carries that one sum exactly, so
//! shard merges stay pure integer addition and the final float conversion
//! happens exactly once, independent of record order and shard count.

/// An unsigned 256-bit integer: `hi * 2^128 + lo`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct U256 {
    hi: u128,
    lo: u128,
}

impl U256 {
    /// The exact 256-bit product of two `u128`s (schoolbook on 64-bit
    /// limbs).
    pub(crate) fn mul_u128(a: u128, b: u128) -> U256 {
        const MASK: u128 = (1u128 << 64) - 1;
        let (a1, a0) = (a >> 64, a & MASK);
        let (b1, b0) = (b >> 64, b & MASK);
        let p00 = a0 * b0;
        let p01 = a0 * b1;
        let p10 = a1 * b0;
        let p11 = a1 * b1;
        let (mid, mid_carry) = p01.overflowing_add(p10);
        let mut hi = p11 + ((mid_carry as u128) << 64);
        let (lo, lo_carry) = p00.overflowing_add(mid << 64);
        hi += (mid >> 64) + lo_carry as u128;
        U256 { hi, lo }
    }

    /// In-place addition (wrapping in the astronomically-unreachable top
    /// bit, like the `u128` sums around it).
    pub(crate) fn add_assign(&mut self, other: U256) {
        let (lo, carry) = self.lo.overflowing_add(other.lo);
        self.lo = lo;
        self.hi = self.hi.wrapping_add(other.hi).wrapping_add(carry as u128);
    }

    /// Nearest-`f64` value; the only lossy step, taken once at finalize.
    pub(crate) fn to_f64(self) -> f64 {
        self.hi as f64 * 340_282_366_920_938_463_463_374_607_431_768_211_456.0 + self.lo as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_products_match_u128() {
        for a in [0u128, 1, 7, 1 << 63, u64::MAX as u128] {
            for b in [0u128, 1, 9, 1 << 40, u64::MAX as u128] {
                let p = U256::mul_u128(a, b);
                assert_eq!(p, U256 { hi: 0, lo: a * b }, "{a} * {b}");
            }
        }
    }

    #[test]
    fn max_square_has_exact_limbs() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1.
        let p = U256::mul_u128(u128::MAX, u128::MAX);
        assert_eq!(p.hi, u128::MAX - 1);
        assert_eq!(p.lo, 1);
    }

    #[test]
    fn cross_limb_product() {
        // (2^64 + 3) * (2^64 + 5) = 2^128 + 8 * 2^64 + 15.
        let p = U256::mul_u128((1 << 64) + 3, (1 << 64) + 5);
        assert_eq!(p.hi, 1);
        assert_eq!(p.lo, (8u128 << 64) + 15);
    }

    #[test]
    fn addition_carries_between_limbs() {
        let mut x = U256 {
            hi: 0,
            lo: u128::MAX,
        };
        x.add_assign(U256 { hi: 0, lo: 1 });
        assert_eq!(x, U256 { hi: 1, lo: 0 });
    }

    #[test]
    fn to_f64_tracks_magnitude() {
        assert_eq!(U256 { hi: 0, lo: 1000 }.to_f64(), 1000.0);
        let big = U256 { hi: 2, lo: 0 }.to_f64();
        assert_eq!(big, 2.0 * (2.0f64).powi(128));
    }

    #[test]
    fn sum_of_squares_associates() {
        // Same multiset, different add orders → identical limbs.
        let drags = [3u128, u64::MAX as u128 * 97, 1 << 100, 42];
        let mut fwd = U256::default();
        for &d in &drags {
            fwd.add_assign(U256::mul_u128(d, d));
        }
        let mut rev = U256::default();
        for &d in drags.iter().rev() {
            rev.add_assign(U256::mul_u128(d, d));
        }
        assert_eq!(fwd, rev);
    }
}

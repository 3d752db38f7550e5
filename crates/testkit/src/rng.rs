//! A deterministic SplitMix64 generator plus the sampling helpers the
//! workspace's property tests need.

/// One SplitMix64 step: mixes `state + GOLDEN` into a well-distributed word.
///
/// Public so seed-derivation code (the runner, user fixtures) can reuse the
/// mixer without constructing an [`Rng`].
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic pseudo-random generator (SplitMix64 state advance with
/// an xorshift-style output mix). Identical seeds yield identical streams
/// on every platform.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next raw 32-bit word.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform-ish `u64` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform-ish `i64` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add((self.next_u64() % span) as i64)
    }

    /// Uniform-ish `i32` in `[lo, hi)`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.range_i64(lo as i64, hi as i64) as i32
    }

    /// Uniform-ish `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform-ish `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform-ish `u16` in `[lo, hi)`.
    pub fn range_u16(&mut self, lo: u16, hi: u16) -> u16 {
        self.range_u64(lo as u64, hi as u64) as u16
    }

    /// Uniform-ish `u8` in `[lo, hi)`.
    pub fn range_u8(&mut self, lo: u8, hi: u8) -> u8 {
        self.range_u64(lo as u64, hi as u64) as u8
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// True with probability `num / den`.
    pub fn ratio(&mut self, num: u64, den: u64) -> bool {
        assert!(den > 0);
        self.next_u64() % den < num
    }

    /// A reference to a uniformly chosen element. Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Builds a vector whose length is drawn from `[min_len, max_len)` and
    /// whose elements come from `f`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let n = if min_len + 1 >= max_len {
            min_len
        } else {
            self.range_usize(min_len, max_len)
        };
        (0..n).map(|_| f(self)).collect()
    }

    /// Forks an independent generator (for nested generators that must not
    /// disturb the parent's stream).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let w = rng.range_i64(-5, 5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn vec_respects_length_bounds() {
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let v = rng.vec(2, 6, |r| r.bool());
            assert!((2..6).contains(&v.len()));
        }
        let fixed = rng.vec(4, 4, |r| r.next_u32());
        assert_eq!(fixed.len(), 4);
    }

    #[test]
    fn ratio_is_roughly_calibrated() {
        let mut rng = Rng::new(11);
        let hits = (0..10_000).filter(|_| rng.ratio(1, 4)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }
}

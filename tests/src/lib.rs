//! Integration-test-only package; the tests live in `tests/tests/`.
//!
//! Also hosts what those tests share: [`rt`], the threaded runtime's
//! fault harness, and the tiny seeded property-test harness the suite
//! uses in place of an external property-testing framework (the
//! workspace builds offline): a SplitMix64 generator plus draw helpers.
//! Each property is a plain `for case in 0..N` loop seeded from the case
//! index, so failures reproduce exactly by re-running the named test.

pub mod rt;

/// A SplitMix64 PRNG: tiny, fast, and with a well-distributed output
/// stream even for consecutive seeds — every case index is a valid seed.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator for `seed` (any value, including zero).
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Picks one element of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A vector of `self.range(min_len, max_len)` draws from `f`.
    pub fn vec<T>(
        &mut self,
        min_len: u64,
        max_len: u64,
        mut f: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let n = self.range(min_len, max_len);
        (0..n).map(|_| f(self)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(42).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }

    #[test]
    fn draws_respect_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let x = r.range(5, 9);
            assert!((5..9).contains(&x));
            let f = r.unit_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}

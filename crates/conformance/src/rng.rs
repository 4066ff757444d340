//! Deterministic pseudo-randomness for the harness: xorshift64* seeded
//! explicitly, so every generated case, mutation, and shrink step is exactly
//! reproducible from `(seed, case index)`. No external dependency.

/// A xorshift64* generator (Vigna 2016): tiny state, passes BigCrush's
/// relevant batteries, and — unlike `rand`'s `StdRng` — guaranteed to
/// produce the same sequence forever, which is what seed reproduction
/// recipes in bug reports depend on.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded generator. A zero seed is remapped (xorshift has a zero fixed
    /// point) via SplitMix64's increment.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Derive an independent generator for subtask `index` — used to give
    /// every fuzz case its own seed so cases can be re-run in isolation.
    #[must_use]
    pub fn derive(&self, index: u64) -> Self {
        // SplitMix64 finalizer over (state, index): decorrelates neighbors.
        let mut z = self
            .state
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self::new(z ^ (z >> 31))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `0.0..1.0`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Log-uniform value in `[lo, hi]` (both positive).
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let (llo, lhi) = (lo.ln(), hi.ln());
        (llo + self.unit_f64() * (lhi - llo)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let root = Rng::new(42);
        let (mut a, mut b) = (root.derive(0), root.derive(1));
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_seed_is_not_stuck() {
        let mut r = Rng::new(0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn log_uniform_in_bounds() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            let v = r.log_uniform(1e-7, 1.0);
            assert!((1e-7..=1.0).contains(&v));
        }
    }
}

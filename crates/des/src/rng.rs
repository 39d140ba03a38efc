//! A small, fast, deterministic pseudo-random generator for simulation
//! jitter.
//!
//! The kernel deliberately does not depend on the `rand` crate: experiment
//! reproducibility requires that a seed fully determines a run on every
//! platform and across dependency upgrades. [`SplitMix64`] (Steele, Lea &
//! Flood, OOPSLA 2014) is tiny, passes BigCrush when used as intended, and is
//! the standard seeding generator for the xoshiro family.

/// A deterministic 64-bit pseudo-random generator (SplitMix64).
///
/// # Examples
///
/// ```
/// use p3_des::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed, including zero, is valid.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits give a uniform dyadic rational in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0) is meaningless");
        // Rejection sampling on the widening multiply keeps the result
        // exactly uniform.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// A standard-normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by drawing u1 from (0, 1].
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// The generator's current internal state. Feeding it back through
    /// [`SplitMix64::new`] reconstructs a generator whose future stream is
    /// bit-identical — the basis for simulator snapshot/restore.
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Forks an independent generator; the fork's stream is decorrelated from
    /// the parent's continuation.
    pub fn fork(&mut self) -> SplitMix64 {
        // Golden-ratio offset per the SplitMix64 split() recipe.
        SplitMix64::new(self.next_u64() ^ 0x9E37_79B9_7F4A_7C15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn known_answer_vector() {
        // Reference values from the canonical C implementation with seed 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_bounded_and_covers() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.next_below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut r = SplitMix64::new(1234);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.03, "variance {var} too far from 1");
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = SplitMix64::new(11);
        let mut child = parent.fork();
        // The two streams should not be identical going forward.
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }
}

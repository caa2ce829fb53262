//! A minimal deterministic PRNG (SplitMix64).
//!
//! `caf-core` must stay dependency-free so both substrates can share it,
//! and `caf-check`'s timed scheduler, the DES, and workload generators need
//! cheap reproducible randomness. SplitMix64 (Steele, Lea & Flood 2014) is
//! the standard seeding generator: one 64-bit state word, full period,
//! passes BigCrush when used as intended here (schedules and jitter, not
//! cryptography).

/// SplitMix64 generator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`), via 128-bit multiply
    /// (Lemire's method, bias ≤ 2⁻⁶⁴ — negligible for scheduling jitter).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One-shot SplitMix64 finalizer: hashes `x` to a well-mixed 64-bit value.
/// Used as the cheap non-cryptographic alternative to SHA-1 in the UTS
/// hash ablation.
#[inline]
pub fn splitmix64_hash(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence() {
        // First outputs for seed 1234567, cross-checked against the
        // published SplitMix64 reference implementation.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn bounded_values_stay_in_range() {
        let mut g = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(g.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = SplitMix64::new(99);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn hash_differs_for_adjacent_inputs() {
        assert_ne!(splitmix64_hash(0), splitmix64_hash(1));
        assert_ne!(splitmix64_hash(1), splitmix64_hash(2));
    }
}

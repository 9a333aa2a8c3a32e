//! SplitMix64 — a tiny, fast, deterministic PRNG (Steele et al., "Fast
//! splittable pseudorandom number generators").
//!
//! Synthetic file content must be *stable across builds and dependency
//! versions* because content identity drives every deduplication result in
//! the evaluation; we therefore avoid `rand`'s unspecified stream stability
//! and keep this 20-line generator under our own control.

/// Deterministic 64-bit generator. Cloning forks the stream state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive a child generator from a label — used to key file content by
    /// (package, version, path) without correlation between siblings.
    pub fn derive(&self, label: &str) -> SplitMix64 {
        let mut h = self.state ^ 0x9E37_79B9_7F4A_7C15;
        for &b in label.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        SplitMix64::new(h)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift reduction; bias is negligible for our uses.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi]` inclusive.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fill a buffer with pseudorandom bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_first_outputs() {
        // Reference outputs for seed 0 from the canonical SplitMix64.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220A8397B1DCDAF);
        assert_eq!(r.next_u64(), 0x6E789E6AA1B965F4);
        assert_eq!(r.next_u64(), 0x06C45D188009454F);
    }

    #[test]
    fn derive_is_stable_and_distinct() {
        let root = SplitMix64::new(7);
        let mut a1 = root.derive("alpha");
        let mut a2 = root.derive("alpha");
        let mut b = root.derive("beta");
        let x = a1.next_u64();
        assert_eq!(x, a2.next_u64());
        assert_ne!(x, b.next_u64());
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            let v = r.next_below(17);
            assert!(v < 17);
        }
    }

    #[test]
    fn next_range_inclusive() {
        let mut r = SplitMix64::new(2);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.next_range(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = SplitMix64::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn fill_bytes_varies() {
        let mut r = SplitMix64::new(4);
        let mut a = [0u8; 33];
        let mut b = [0u8; 33];
        r.fill_bytes(&mut a);
        r.fill_bytes(&mut b);
        assert_ne!(a, b);
    }
}

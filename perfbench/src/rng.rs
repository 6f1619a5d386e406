//! Seeded input generation: every matrix and right-hand side derives
//! from the `--seed` argument through SplitMix64 streams.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.signed_unit()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(Rng::new(7, 1).vector(8), Rng::new(7, 1).vector(8));
        assert_ne!(Rng::new(7, 1).vector(8), Rng::new(8, 1).vector(8));
        assert_ne!(Rng::new(7, 1).vector(8), Rng::new(7, 2).vector(8));
        assert!(Rng::new(3, 0)
            .vector(1000)
            .iter()
            .all(|v| (-1.0..1.0).contains(v)));
    }
}

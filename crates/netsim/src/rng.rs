//! Seeded random number generation.
//!
//! Every stochastic component of the reproduction (corpus generation, query logs,
//! peer identifier assignment, link jitter, loss injection) draws from a
//! [`SimRng`], a self-contained implementation of the ChaCha8 stream cipher as a
//! random number generator. Given the same seed the whole simulation is
//! bit-for-bit reproducible, which is what allows the experiment harness to
//! regenerate the paper's figures deterministically. (The implementation is
//! in-tree so the workspace builds without network access to crates.io.)

/// A deterministic, seedable random number generator.
///
/// `SimRng` also provides convenience helpers used throughout the workspace
/// (sub-generator derivation, shuffling, weighted choice).
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u32; 16],
    buffer: [u32; 16],
    cursor: usize,
    seed: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a new generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed into a 256-bit ChaCha key with splitmix64.
        let mut s = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_exact_mut(2) {
            let word = splitmix64(&mut s);
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        }
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646E;
        state[2] = 0x7962_2D32;
        state[3] = 0x6B20_6574;
        state[4..12].copy_from_slice(&key);
        // Block counter and nonce start at zero.
        SimRng {
            state,
            buffer: [0; 16],
            cursor: 16,
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent sub-generator identified by `stream`.
    ///
    /// Deriving (rather than sharing) generators lets independent components
    /// (e.g. corpus generation and link jitter) consume randomness without
    /// perturbing each other's sequences, keeping experiments comparable when
    /// one component changes.
    pub fn derive(&self, stream: u64) -> SimRng {
        // Mix the seed and stream with splitmix64-style finalization.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Runs the ChaCha8 block function and refills the output buffer.
    fn refill(&mut self) {
        #[inline(always)]
        fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        }

        let mut working = self.state;
        for _ in 0..4 {
            // A double round: four column rounds followed by four diagonal rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (w, s)) in self
            .buffer
            .iter_mut()
            .zip(working.iter().zip(self.state.iter()))
        {
            *out = w.wrapping_add(*s);
        }
        // 64-bit block counter in words 12/13.
        let (counter, carry) = self.state[12].overflowing_add(1);
        self.state[12] = counter;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
        self.cursor = 0;
    }

    /// Samples a uniform `u32`.
    fn gen_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let word = self.buffer[self.cursor];
        self.cursor += 1;
        word
    }

    /// Samples a uniform `u64`.
    pub fn gen_u64(&mut self) -> u64 {
        let lo = u64::from(self.gen_u32());
        let hi = u64::from(self.gen_u32());
        (hi << 32) | lo
    }

    /// Samples a uniform value in `[0, bound)`; `bound` must be non-zero.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Widening-multiply bounded sampling with a rejection pass to stay
        // unbiased for any bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let raw = self.gen_u64();
            let wide = u128::from(raw) * u128::from(bound);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Samples a value uniformly from `range`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// Samples a uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.is_empty() {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (reservoir style). If `k >= n`,
    /// returns all indices `0..n` in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k.min(n));
        all
    }
}

/// Ranges [`SimRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Samples one value uniformly from the range.
    fn sample(self, rng: &mut SimRng) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.gen_u64() as $t;
                }
                start + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn different_seed_different_sequence() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let sa: Vec<u64> = (0..8).map(|_| a.gen_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.gen_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn derive_is_deterministic_and_independent() {
        let base = SimRng::new(99);
        let mut d1 = base.derive(1);
        let mut d1_again = base.derive(1);
        let mut d2 = base.derive(2);
        let s1: Vec<u64> = (0..4).map(|_| d1.gen_u64()).collect();
        let s1b: Vec<u64> = (0..4).map(|_| d1_again.gen_u64()).collect();
        let s2: Vec<u64> = (0..4).map(|_| d2.gen_u64()).collect();
        assert_eq!(s1, s1b);
        assert_ne!(s1, s2);
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SimRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let set: HashSet<u32> = v.iter().copied().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = SimRng::new(13);
        let s = rng.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let set: HashSet<usize> = s.iter().copied().collect();
        assert_eq!(set.len(), 10);
        // Asking for more than available returns everything.
        let all = rng.sample_indices(5, 50);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::new(17);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        // Out-of-range probabilities are clamped instead of panicking.
        assert!(rng.gen_bool(2.0));
        assert!(!rng.gen_bool(-1.0));
    }

    #[test]
    fn gen_range_covers_bounds() {
        let mut rng = SimRng::new(23);
        let mut seen = HashSet::new();
        for _ in 0..200 {
            seen.insert(rng.gen_range(0usize..4));
        }
        assert_eq!(seen, (0..4).collect());
        for _ in 0..50 {
            let v = rng.gen_range(10u64..=12);
            assert!((10..=12).contains(&v));
        }
        let f = rng.gen_range(2.0f64..3.0);
        assert!((2.0..3.0).contains(&f));
    }

    #[test]
    fn uniform_values_spread_over_the_word() {
        // Sanity-check the ChaCha core: bits are not stuck.
        let mut rng = SimRng::new(29);
        let mut or_acc = 0u64;
        let mut and_acc = u64::MAX;
        for _ in 0..64 {
            let v = rng.gen_u64();
            or_acc |= v;
            and_acc &= v;
        }
        assert_eq!(or_acc, u64::MAX);
        assert_eq!(and_acc, 0);
    }
}

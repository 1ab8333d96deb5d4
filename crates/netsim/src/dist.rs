//! Discrete skewed distributions.
//!
//! Text collections, query logs and peer populations are all heavily skewed:
//! term frequencies and query popularity follow Zipf's law, and the AlvisP2P DHT is
//! explicitly designed to tolerate *arbitrary skew* in the peer identifier space.
//! The generators in this module produce those skews deterministically.

use crate::rng::SimRng;

/// A Zipf (discrete power-law) distribution over ranks `0..n`.
///
/// Rank `r` (0-based) is drawn with probability proportional to `1 / (r + 1)^s`,
/// where `s` is the skew exponent. `s = 0` degenerates to the uniform distribution,
/// `s ≈ 1` matches natural-language term frequencies, larger values concentrate the
/// mass further on the most popular ranks.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative distribution over ranks, `cdf[r]` = P(rank <= r).
    cdf: Vec<f64>,
    exponent: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative / non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf distribution needs at least one rank");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and >= 0"
        );
        let mut weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in weights.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        // Guard against floating point drift so the final bucket always catches 1.0.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Zipf {
            cdf: weights,
            exponent: s,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution has no ranks (never true: construction requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The skew exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of drawing rank `r`.
    pub fn pmf(&self, r: usize) -> f64 {
        if r >= self.cdf.len() {
            return 0.0;
        }
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        // Binary search the first rank whose cdf is >= u.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf values are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// A continuous bounded power-law used to skew peer identifiers in the DHT
/// identifier space (routing under arbitrary skew: `alvisp2p-dht`'s
/// `lookup::tests::hop_space_hops_are_logarithmic_and_skew_invariant`).
///
/// Samples `x` in `[0, 1)` with density proportional to `(1 - x)^(alpha - 1) * alpha`
/// for `alpha >= 1`; `alpha = 1` is uniform, larger alpha concentrates identifiers
/// near `0`, producing the skewed key-space population the hop-space routing scheme
/// is designed to tolerate.
#[derive(Clone, Copy, Debug)]
pub struct PowerLaw {
    alpha: f64,
}

impl PowerLaw {
    /// Creates a bounded power-law with concentration parameter `alpha >= 1`.
    ///
    /// # Panics
    /// Panics if `alpha < 1` or `alpha` is not finite.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha >= 1.0 && alpha.is_finite(),
            "alpha must be >= 1 and finite"
        );
        PowerLaw { alpha }
    }

    /// The concentration parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Samples a value in `[0, 1)`.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse-CDF sampling: CDF(x) = 1 - (1 - x)^alpha.
        let u = rng.gen_f64();
        let x = 1.0 - (1.0 - u).powf(1.0 / self.alpha);
        x.min(0.999_999_999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 1.0);
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(100), 0.0);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_is_monotonically_decreasing() {
        let z = Zipf::new(50, 1.2);
        for r in 1..50 {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_matches_skew() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SimRng::new(1);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 should be sampled far more often than rank 100.
        assert!(
            counts[0] > counts[100] * 5,
            "head {} tail {}",
            counts[0],
            counts[100]
        );
        // All samples within range (indexing above would have panicked otherwise).
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn zipf_negative_exponent_panics() {
        let _ = Zipf::new(10, -1.0);
    }

    #[test]
    fn powerlaw_uniform_case() {
        let p = PowerLaw::new(1.0);
        let mut rng = SimRng::new(2);
        let samples: Vec<f64> = (0..10_000).map(|_| p.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
        assert!(samples.iter().all(|x| (0.0..1.0).contains(x)));
    }

    #[test]
    fn powerlaw_concentrates_near_zero() {
        let p = PowerLaw::new(8.0);
        let mut rng = SimRng::new(3);
        let samples: Vec<f64> = (0..10_000).map(|_| p.sample(&mut rng)).collect();
        let below_quarter = samples.iter().filter(|x| **x < 0.25).count();
        assert!(
            below_quarter > 8_000,
            "expected strong concentration, got {below_quarter}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be >= 1")]
    fn powerlaw_rejects_small_alpha() {
        let _ = PowerLaw::new(0.5);
    }
}

//! The timing estimators and the input digest.
//!
//! Raw per-query percentiles of one pass move by 10–20% when a neighbour on
//! the box wakes up; the minimum over repeated passes of the same work moves
//! by about a percent. So a workload that does bit-identical work every pass
//! takes each instance's latency as the minimum over passes and then takes
//! percentiles over instances; a workload whose passes differ takes each
//! statistic per pass and reports the minimum across passes.

/// The `p`-th percentile (`0 < p < 100`) by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the `p`-th percentile's rank.
#[cfg(test)]
pub fn samples_beyond(len: usize, p: f64) -> usize {
    len - ((p / 100.0 * len as f64).ceil() as usize).clamp(1, len)
}

/// Lowers every element of `best` to the matching element of `pass`.
pub fn fold_min(best: &mut [u64], pass: &[u64]) {
    assert_eq!(best.len(), pass.len(), "passes replay one fixed sequence");
    for (b, p) in best.iter_mut().zip(pass) {
        *b = (*b).min(*p);
    }
}

/// `(q1, median, q3)` of a sample, by linear interpolation between order
/// statistics (the "inclusive" method; one sample is its own quartiles).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Incremental 64-bit FNV-1a: the digest that pins generated inputs and
/// compares per-pass results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 51.0), 3);
    }

    #[test]
    fn four_thousand_instances_leave_forty_beyond_p99() {
        assert_eq!(samples_beyond(4_000, 99.0), 40);
        assert_eq!(samples_beyond(100, 50.0), 50);
    }

    #[test]
    fn min_over_passes_is_taken_per_instance() {
        let mut best = vec![10, 50, 30];
        fold_min(&mut best, &[12, 20, 30]);
        fold_min(&mut best, &[9, 90, 31]);
        assert_eq!(best, vec![9, 20, 30]);
        // One slow pass cannot raise any percentile of the folded sample.
        fold_min(&mut best, &[1_000, 1_000, 1_000]);
        best.sort_unstable();
        assert_eq!(percentile(&best, 50.0), 20);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv1a::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }
}

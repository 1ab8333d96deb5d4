//! Link models: latency and loss.
//!
//! Links between simulated peers are modelled with a configurable latency
//! distribution and an independent per-message loss probability. The AlvisP2P
//! experiments are primarily about message/byte counts, but latency matters for the
//! congestion-control workload (`alvisp2p-dht`'s `congestion` module and its
//! `congestion_control_beats_baseline_under_overload` test), where queueing delay
//! and retransmissions interact with offered load.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Latency model of a network link.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Latency uniformly distributed in `[min, max]`.
    Uniform {
        /// Lower bound.
        min: SimDuration,
        /// Upper bound (inclusive).
        max: SimDuration,
    },
    /// A base latency plus an exponentially distributed jitter with the given mean.
    BaseJitter {
        /// Fixed propagation delay.
        base: SimDuration,
        /// Mean of the additional exponential jitter.
        jitter_mean: SimDuration,
    },
}

impl LatencyModel {
    /// A typical wide-area latency model (20ms base, 10ms mean jitter), roughly the
    /// conditions of the paper's EPFL–Zagreb deployment.
    pub fn wide_area() -> Self {
        LatencyModel::BaseJitter {
            base: SimDuration::from_millis(20),
            jitter_mean: SimDuration::from_millis(10),
        }
    }

    /// A local-area latency model (1ms constant).
    pub fn local_area() -> Self {
        LatencyModel::Constant(SimDuration::from_millis(1))
    }

    /// Samples the one-way delay for a message.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { min, max } => {
                let lo = min.as_micros();
                let hi = max.as_micros().max(lo);
                SimDuration::from_micros(rng.gen_range(lo..=hi))
            }
            LatencyModel::BaseJitter { base, jitter_mean } => {
                let mean = jitter_mean.as_micros() as f64;
                // Inverse-CDF exponential sample; clamp the uniform away from 0
                // so ln() stays finite.
                let u = rng.gen_f64().max(1e-12);
                let jitter = (-u.ln() * mean).min(mean * 50.0) as u64;
                *base + SimDuration::from_micros(jitter)
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::wide_area()
    }
}

/// Loss model of a network link: each message is independently dropped with
/// probability `loss_rate`.
#[derive(Clone, Copy, Debug, Default)]
pub struct LossModel {
    loss_rate: f64,
}

impl LossModel {
    /// No loss.
    pub fn lossless() -> Self {
        LossModel { loss_rate: 0.0 }
    }

    /// Creates a loss model with the given drop probability, clamped to `[0, 1]`.
    pub fn with_rate(loss_rate: f64) -> Self {
        LossModel {
            loss_rate: loss_rate.clamp(0.0, 1.0),
        }
    }

    /// The configured drop probability.
    pub fn rate(&self) -> f64 {
        self.loss_rate
    }

    /// Decides whether a particular message is lost.
    pub fn drops(&self, rng: &mut SimRng) -> bool {
        self.loss_rate > 0.0 && rng.gen_bool(self.loss_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_latency_is_constant() {
        let m = LatencyModel::Constant(SimDuration::from_millis(5));
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let m = LatencyModel::Uniform {
            min: SimDuration::from_millis(10),
            max: SimDuration::from_millis(20),
        };
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(10) && d <= SimDuration::from_millis(20));
        }
    }

    #[test]
    fn base_jitter_is_at_least_base() {
        let m = LatencyModel::BaseJitter {
            base: SimDuration::from_millis(20),
            jitter_mean: SimDuration::from_millis(10),
        };
        let mut rng = SimRng::new(3);
        let mut total = 0u64;
        for _ in 0..2000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(20));
            total += d.as_micros();
        }
        let mean_ms = total as f64 / 2000.0 / 1000.0;
        // Mean should be roughly base + jitter_mean = 30ms.
        assert!((mean_ms - 30.0).abs() < 3.0, "mean was {mean_ms}ms");
    }

    #[test]
    fn loss_model_extremes() {
        let mut rng = SimRng::new(4);
        let never = LossModel::lossless();
        let always = LossModel::with_rate(1.0);
        for _ in 0..100 {
            assert!(!never.drops(&mut rng));
            assert!(always.drops(&mut rng));
        }
        // Clamping out-of-range rates.
        assert_eq!(LossModel::with_rate(7.0).rate(), 1.0);
        assert_eq!(LossModel::with_rate(-3.0).rate(), 0.0);
    }

    #[test]
    fn loss_model_rough_rate() {
        let mut rng = SimRng::new(5);
        let m = LossModel::with_rate(0.2);
        let drops = (0..10_000).filter(|_| m.drops(&mut rng)).count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "observed rate {rate}");
    }
}

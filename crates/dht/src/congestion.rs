//! Congestion control for the DHT (Klemm, Le Boudec, Aberer — NCA 2006).
//!
//! The information-retrieval workload generates bursts of requests that concentrate on
//! the peers responsible for popular keys. Without flow control those peers' queues
//! overflow, requests are dropped, requesters retransmit, and the extra retransmissions
//! push the system into **congestion collapse**: offered load keeps rising while
//! delivered goodput falls. AlvisP2P integrates an end-to-end, per-destination
//! congestion controller into its DHT to prevent this.
//!
//! [`AimdController`] is that per-destination window (additive increase /
//! multiplicative decrease), kept as a pure controller: the caller reports sends,
//! acknowledgements and timeouts, and asks whether one more request may go out.
//! No query path drives it yet; it is kept as the admission rule that
//! per-destination probe waves would use.

/// Parameters of the per-destination AIMD window.
#[derive(Clone, Copy, Debug)]
pub struct CongestionConfig {
    /// Initial window size in outstanding requests.
    pub initial_window: f64,
    /// Lower bound of the window.
    pub min_window: f64,
    /// Upper bound of the window.
    pub max_window: f64,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            initial_window: 4.0,
            min_window: 1.0,
            max_window: 256.0,
        }
    }
}

/// Per-destination additive-increase / multiplicative-decrease window.
#[derive(Clone, Debug)]
pub struct AimdController {
    config: CongestionConfig,
    window: f64,
    in_flight: usize,
    acks: u64,
    losses: u64,
}

impl AimdController {
    /// Creates a controller with the given configuration. The window starts at
    /// `initial_window`, brought inside `[min_window, max_window]` (the lower
    /// bound wins if the two bounds cross).
    pub fn new(config: CongestionConfig) -> Self {
        AimdController {
            window: config
                .initial_window
                .min(config.max_window)
                .max(config.min_window),
            config,
            in_flight: 0,
            acks: 0,
            losses: 0,
        }
    }

    /// Current window size (outstanding-request budget).
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Requests currently outstanding towards this destination.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Acknowledgements received.
    pub fn acks(&self) -> u64 {
        self.acks
    }

    /// Losses (timeouts) observed.
    pub fn losses(&self) -> u64 {
        self.losses
    }

    /// Whether a new request may be sent to this destination right now.
    pub fn can_send(&self) -> bool {
        (self.in_flight as f64) < self.window.floor().max(self.config.min_window)
    }

    /// Records that a request was sent.
    pub fn on_send(&mut self) {
        self.in_flight += 1;
    }

    /// Records a successful response: additive increase (one packet per round trip).
    pub fn on_ack(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.acks += 1;
        self.window = (self.window + 1.0 / self.window.max(1.0)).min(self.config.max_window);
    }

    /// Records a loss (timeout): multiplicative decrease.
    pub fn on_timeout(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.losses += 1;
        self.window = (self.window / 2.0).max(self.config.min_window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aimd_window_grows_on_acks_and_halves_on_loss() {
        let mut c = AimdController::new(CongestionConfig::default());
        let w0 = c.window();
        for _ in 0..50 {
            c.on_send();
            c.on_ack();
        }
        assert!(c.window() > w0);
        let grown = c.window();
        c.on_send();
        c.on_timeout();
        assert!((c.window() - grown / 2.0).abs() < 1e-9);
        assert_eq!(c.acks(), 50);
        assert_eq!(c.losses(), 1);
    }

    #[test]
    fn aimd_window_respects_bounds() {
        // The second input starts above `max_window`: the window must start
        // inside the bounds, not admit more than the maximum until the first
        // ack.
        for initial_window in [2.0, 32.0] {
            let config = CongestionConfig {
                initial_window,
                min_window: 1.0,
                max_window: 8.0,
            };
            let mut c = AimdController::new(config);
            assert!(c.window() <= 8.0, "start {initial_window}: {}", c.window());
            let mut admitted = 0;
            while c.can_send() {
                c.on_send();
                admitted += 1;
            }
            assert!(admitted <= 8, "start {initial_window}: admitted {admitted}");
            for _ in 0..10_000 {
                c.on_send();
                c.on_ack();
            }
            assert!(c.window() <= 8.0);
            for _ in 0..100 {
                c.on_send();
                c.on_timeout();
            }
            assert!(c.window() >= 1.0);
        }
    }

    #[test]
    fn crossed_bounds_do_not_panic() {
        let c = AimdController::new(CongestionConfig {
            initial_window: 4.0,
            min_window: 8.0,
            max_window: 2.0,
        });
        assert_eq!(c.window(), 8.0);
    }

    #[test]
    fn window_limits_in_flight_requests() {
        let config = CongestionConfig {
            initial_window: 3.0,
            ..Default::default()
        };
        let mut c = AimdController::new(config);
        let mut sent = 0;
        while c.can_send() {
            c.on_send();
            sent += 1;
            assert!(sent < 100, "window never closed");
        }
        assert_eq!(sent, 3);
        c.on_ack();
        assert!(c.can_send());
    }
}

//! Congestion control for the DHT (Klemm, Le Boudec, Aberer — NCA 2006).
//!
//! The information-retrieval workload generates bursts of requests that concentrate on
//! the peers responsible for popular keys. Without flow control those peers' queues
//! overflow, requests are dropped, requesters retransmit, and the extra retransmissions
//! push the system into **congestion collapse**: offered load keeps rising while
//! delivered goodput falls. AlvisP2P integrates an end-to-end, per-destination
//! congestion controller into its DHT to prevent this.
//!
//! This module provides:
//!
//! * [`AimdController`] — the per-destination window (additive increase /
//!   multiplicative decrease) that limits outstanding requests;
//! * [`HotspotScenario`] — an event-driven workload (built on
//!   [`alvisp2p_netsim::Simulator`]) in which many client peers direct requests at a
//!   small set of hot-spot server peers. The unit test
//!   `congestion_control_beats_baseline_under_overload` checks the paper's claim on
//!   it: under overload the controller completes more requests and drops fewer
//!   messages than the uncontrolled baseline.

use alvisp2p_netsim::{
    Context, LatencyModel, Node, NodeId, SimConfig, SimDuration, SimRng, SimTime, Simulator,
    TrafficCategory, WireSize, Zipf,
};
use std::collections::{HashMap, VecDeque};

/// Parameters of the per-destination AIMD window.
#[derive(Clone, Copy, Debug)]
pub struct CongestionConfig {
    /// Whether congestion control is active. When disabled the window is unbounded
    /// (the baseline that collapses under overload).
    pub enabled: bool,
    /// Initial window size in outstanding requests.
    pub initial_window: f64,
    /// Lower bound of the window.
    pub min_window: f64,
    /// Upper bound of the window.
    pub max_window: f64,
    /// Retransmission timeout.
    pub timeout: SimDuration,
    /// How many times a request is retransmitted before being given up on.
    pub max_retries: u32,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            enabled: true,
            initial_window: 4.0,
            min_window: 1.0,
            max_window: 256.0,
            timeout: SimDuration::from_millis(500),
            max_retries: 5,
        }
    }
}

impl CongestionConfig {
    /// The baseline configuration without congestion control.
    pub fn disabled() -> Self {
        CongestionConfig {
            enabled: false,
            ..Default::default()
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
    /// Creates a controller with the given configuration.
    pub fn new(config: CongestionConfig) -> Self {
        AimdController {
            window: config.initial_window.max(config.min_window),
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
        if !self.config.enabled {
            return true;
        }
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
        if self.config.enabled {
            self.window = (self.window + 1.0 / self.window.max(1.0)).min(self.config.max_window);
        }
    }

    /// Records a loss (timeout): multiplicative decrease.
    pub fn on_timeout(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.losses += 1;
        if self.config.enabled {
            self.window = (self.window / 2.0).max(self.config.min_window);
        }
    }
}

// ---------------------------------------------------------------------------
// Hot-spot workload
// ---------------------------------------------------------------------------

/// Message exchanged in the hot-spot workload.
#[derive(Clone, Debug)]
pub enum CongestionMsg {
    /// A key request directed at a (hot-spot) server peer.
    Request {
        /// Unique request identifier (per client).
        id: u64,
    },
    /// The server's answer, carrying a posting-list-sized payload.
    Response {
        /// Identifier of the request being answered.
        id: u64,
        /// Size of the simulated payload in bytes.
        payload: u32,
    },
}

impl WireSize for CongestionMsg {
    fn wire_size(&self) -> usize {
        match self {
            CongestionMsg::Request { .. } => 48,
            CongestionMsg::Response { payload, .. } => 16 + *payload as usize,
        }
    }
}

const TIMER_GENERATE: u64 = 1;
const TIMER_CHECK_TIMEOUTS: u64 = 2;

/// Statistics produced by a client node.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Requests generated by the application.
    pub generated: u64,
    /// Requests completed (response received).
    pub completed: u64,
    /// Requests abandoned after exhausting retries.
    pub failed: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
}

struct Outstanding {
    dest: NodeId,
    sent_at: SimTime,
    retries: u32,
}

/// Node behaviour for the hot-spot workload: either a request-generating client or a
/// responding server.
pub enum CongestionNode {
    /// A client peer issuing requests to hot-spot servers.
    Client(Box<ClientState>),
    /// A server peer responsible for a popular key.
    Server {
        /// Number of requests served.
        served: u64,
        /// Response payload size in bytes.
        payload: u32,
    },
}

/// Internal state of a client node.
pub struct ClientState {
    config: CongestionConfig,
    servers: Vec<NodeId>,
    server_popularity: Zipf,
    /// New requests generated per generation tick.
    batch_per_tick: u64,
    tick: SimDuration,
    generate_until: SimTime,
    next_id: u64,
    pending: HashMap<NodeId, VecDeque<u64>>,
    outstanding: HashMap<u64, Outstanding>,
    controllers: HashMap<NodeId, AimdController>,
    stats: ClientStats,
}

impl ClientState {
    fn controller(&mut self, dest: NodeId) -> &mut AimdController {
        let config = self.config;
        self.controllers
            .entry(dest)
            .or_insert_with(|| AimdController::new(config))
    }

    fn try_send(&mut self, ctx: &mut Context<'_, CongestionMsg>) {
        let dests: Vec<NodeId> = self
            .pending
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(d, _)| *d)
            .collect();
        for dest in dests {
            loop {
                if !self.controller(dest).can_send() {
                    break;
                }
                let Some(id) = self.pending.get_mut(&dest).and_then(VecDeque::pop_front) else {
                    break;
                };
                self.controller(dest).on_send();
                self.outstanding.insert(
                    id,
                    Outstanding {
                        dest,
                        sent_at: ctx.now(),
                        retries: self.outstanding.get(&id).map(|o| o.retries).unwrap_or(0),
                    },
                );
                ctx.send_categorized(
                    dest,
                    CongestionMsg::Request { id },
                    TrafficCategory::Retrieval,
                );
            }
        }
    }

    fn generate(&mut self, rng: &mut SimRng, now: SimTime) {
        if now > self.generate_until {
            return;
        }
        for _ in 0..self.batch_per_tick {
            let rank = self.server_popularity.sample(rng);
            let dest = self.servers[rank % self.servers.len()];
            let id = self.next_id;
            self.next_id += 1;
            self.stats.generated += 1;
            self.pending.entry(dest).or_default().push_back(id);
        }
    }

    fn check_timeouts(&mut self, now: SimTime) {
        let timeout = self.config.timeout;
        let expired: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| now.saturating_since(o.sent_at) >= timeout)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            let Some(out) = self.outstanding.remove(&id) else {
                continue;
            };
            self.controller(out.dest).on_timeout();
            if out.retries < self.config.max_retries {
                self.stats.retransmissions += 1;
                // Requeue at the front with an incremented retry count; the retry count
                // is carried by re-inserting a placeholder into `outstanding` on send.
                self.pending.entry(out.dest).or_default().push_front(id);
                // Remember the retry count for when it is resent.
                self.outstanding.insert(
                    id,
                    Outstanding {
                        dest: out.dest,
                        sent_at: SimTime::MAX, // not actually in flight; replaced on send
                        retries: out.retries + 1,
                    },
                );
            } else {
                self.stats.failed += 1;
            }
        }
    }

    /// The client's statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }
}

impl Node for CongestionNode {
    type Msg = CongestionMsg;

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, CongestionMsg>,
        from: NodeId,
        msg: CongestionMsg,
    ) {
        match self {
            CongestionNode::Server { served, payload } => {
                if let CongestionMsg::Request { id } = msg {
                    *served += 1;
                    ctx.send_categorized(
                        from,
                        CongestionMsg::Response {
                            id,
                            payload: *payload,
                        },
                        TrafficCategory::Retrieval,
                    );
                }
            }
            CongestionNode::Client(state) => {
                if let CongestionMsg::Response { id, .. } = msg {
                    if let Some(out) = state.outstanding.remove(&id) {
                        if out.sent_at != SimTime::MAX {
                            state.controller(out.dest).on_ack();
                        }
                        state.stats.completed += 1;
                    }
                    state.try_send(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, CongestionMsg>, timer: u64) {
        if let CongestionNode::Client(state) = self {
            match timer {
                TIMER_GENERATE => {
                    let now = ctx.now();
                    state.generate(ctx.rng(), now);
                    state.try_send(ctx);
                    if ctx.now() <= state.generate_until {
                        let tick = state.tick;
                        ctx.schedule(tick, TIMER_GENERATE);
                    }
                }
                TIMER_CHECK_TIMEOUTS => {
                    state.check_timeouts(ctx.now());
                    state.try_send(ctx);
                    let tick = state.config.timeout;
                    // Keep checking for as long as requests may still be in flight.
                    if ctx.now() <= state.generate_until.saturating_add(tick.saturating_mul(4)) {
                        ctx.schedule(tick, TIMER_CHECK_TIMEOUTS);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Parameters of the hot-spot experiment.
#[derive(Clone, Debug)]
pub struct HotspotScenario {
    /// Number of client peers generating requests.
    pub clients: usize,
    /// Number of hot-spot server peers.
    pub servers: usize,
    /// Total offered load in requests per second (spread over all clients).
    pub offered_load: f64,
    /// How long clients keep generating load.
    pub duration: SimDuration,
    /// Zipf exponent of server popularity (how concentrated the hot spot is).
    pub hotspot_skew: f64,
    /// Congestion-control configuration used by the clients.
    pub congestion: CongestionConfig,
    /// Server processing time per request (bounds server throughput).
    pub service_time: SimDuration,
    /// Server inbound queue capacity.
    pub inbox_capacity: usize,
    /// Response payload size in bytes (a truncated posting list).
    pub response_payload: u32,
}

impl Default for HotspotScenario {
    fn default() -> Self {
        HotspotScenario {
            clients: 32,
            servers: 4,
            offered_load: 500.0,
            duration: SimDuration::from_secs(10),
            hotspot_skew: 1.0,
            congestion: CongestionConfig::default(),
            service_time: SimDuration::from_millis(2),
            inbox_capacity: 64,
            response_payload: 2_000,
        }
    }
}

/// Aggregate outcome of a hot-spot run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CongestionOutcome {
    /// Offered load in requests per second.
    pub offered_load: f64,
    /// Requests generated.
    pub generated: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests abandoned.
    pub failed: u64,
    /// Retransmissions sent.
    pub retransmissions: u64,
    /// Messages dropped by overloaded queues or the network.
    pub drops: u64,
    /// Completed requests per second of load-generation time.
    pub goodput: f64,
    /// Fraction of generated requests that completed.
    pub completion_rate: f64,
}

/// Runs the hot-spot workload and reports aggregate goodput statistics.
pub fn run_hotspot(scenario: &HotspotScenario, seed: u64) -> CongestionOutcome {
    let sim_config = SimConfig {
        latency: LatencyModel::Constant(SimDuration::from_millis(5)),
        inbox_capacity: scenario.inbox_capacity,
        service_time: scenario.service_time,
        ..SimConfig::default()
    };
    let mut sim: Simulator<CongestionNode> = Simulator::new(sim_config, seed);

    let mut servers = Vec::new();
    for _ in 0..scenario.servers {
        servers.push(sim.add_node(CongestionNode::Server {
            served: 0,
            payload: scenario.response_payload,
        }));
    }

    // Spread the offered load over clients; each client generates a batch every 100ms.
    let tick = SimDuration::from_millis(100);
    let per_client_per_sec = scenario.offered_load / scenario.clients.max(1) as f64;
    let batch = (per_client_per_sec * tick.as_secs_f64()).round().max(1.0) as u64;

    let mut clients = Vec::new();
    for _ in 0..scenario.clients {
        let state = ClientState {
            config: scenario.congestion,
            servers: servers.clone(),
            server_popularity: Zipf::new(scenario.servers.max(1), scenario.hotspot_skew),
            batch_per_tick: batch,
            tick,
            generate_until: SimTime::ZERO + scenario.duration,
            next_id: 0,
            pending: HashMap::new(),
            outstanding: HashMap::new(),
            controllers: HashMap::new(),
            stats: ClientStats::default(),
        };
        clients.push(sim.add_node(CongestionNode::Client(Box::new(state))));
    }

    for (i, c) in clients.iter().enumerate() {
        // Stagger generation starts to avoid perfectly synchronised bursts.
        sim.post_timer(*c, TIMER_GENERATE, SimTime::from_millis(i as u64 % 100));
        sim.post_timer(
            *c,
            TIMER_CHECK_TIMEOUTS,
            SimTime::from_millis(100 + i as u64 % 100),
        );
    }

    // Run for the generation period plus drain time.
    let horizon = SimTime::ZERO
        + scenario.duration
        + scenario
            .congestion
            .timeout
            .saturating_mul(scenario.congestion.max_retries as u64 + 2)
        + SimDuration::from_secs(2);
    sim.run_until(horizon);

    let mut outcome = CongestionOutcome {
        offered_load: scenario.offered_load,
        drops: sim.stats().dropped_messages(),
        ..Default::default()
    };
    for c in &clients {
        if let CongestionNode::Client(state) = sim.node(*c) {
            outcome.generated += state.stats.generated;
            outcome.completed += state.stats.completed;
            outcome.failed += state.stats.failed;
            outcome.retransmissions += state.stats.retransmissions;
        }
    }
    let secs = scenario.duration.as_secs_f64().max(1e-9);
    outcome.goodput = outcome.completed as f64 / secs;
    outcome.completion_rate = if outcome.generated > 0 {
        outcome.completed as f64 / outcome.generated as f64
    } else {
        0.0
    };
    outcome
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
        let config = CongestionConfig {
            initial_window: 2.0,
            min_window: 1.0,
            max_window: 8.0,
            ..Default::default()
        };
        let mut c = AimdController::new(config);
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

    #[test]
    fn disabled_controller_never_blocks() {
        let mut c = AimdController::new(CongestionConfig::disabled());
        for _ in 0..1_000 {
            assert!(c.can_send());
            c.on_send();
        }
        let w = c.window();
        c.on_timeout();
        assert_eq!(c.window(), w, "disabled controller does not adapt");
    }

    #[test]
    fn hotspot_light_load_high_completion() {
        let scenario = HotspotScenario {
            clients: 8,
            servers: 4,
            offered_load: 100.0,
            duration: SimDuration::from_secs(5),
            ..Default::default()
        };
        let out = run_hotspot(&scenario, 1);
        assert!(out.generated > 0);
        assert!(
            out.completion_rate > 0.95,
            "light load should complete: {out:?}"
        );
    }

    #[test]
    fn congestion_control_beats_baseline_under_overload() {
        // Server capacity: 4 servers * 500 req/s = 2000 req/s. Offer 4x that.
        let base = HotspotScenario {
            clients: 32,
            servers: 4,
            offered_load: 8_000.0,
            duration: SimDuration::from_secs(3),
            hotspot_skew: 1.2,
            service_time: SimDuration::from_millis(2),
            inbox_capacity: 32,
            ..Default::default()
        };
        let with_cc = run_hotspot(
            &HotspotScenario {
                congestion: CongestionConfig::default(),
                ..base.clone()
            },
            7,
        );
        let without_cc = run_hotspot(
            &HotspotScenario {
                congestion: CongestionConfig::disabled(),
                ..base
            },
            7,
        );
        assert!(
            with_cc.completion_rate > without_cc.completion_rate,
            "with cc {:?} vs without {:?}",
            with_cc,
            without_cc
        );
        assert!(without_cc.drops > with_cc.drops);
    }
}

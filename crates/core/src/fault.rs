//! Deterministic fault injection for the probe path, and the policy that
//! survives it.
//!
//! The paper's setting is a P2P overlay where message loss and abrupt peer
//! failure are the normal case. This module makes those events a first-class
//! *input* to query execution:
//!
//! * [`FaultPlane`] — a seeded, deterministic source of per-operation fault
//!   decisions: message loss, slow replies past the deadline, crashed or
//!   stalled peers, response bit-flip corruption (caught by the codec's
//!   checksum trailer), lost posting publications, and lost replica-sync /
//!   stats-publication messages. It is *data* the one probe path and the one
//!   publication path of [`crate::global_index::GlobalIndex`] consult, not a
//!   switch between two paths: the default, [`FaultPlane::NoFaults`] — like
//!   any plane whose rates are zero and whose crash set is empty — answers
//!   "no" to every question without drawing randomness, so it charges nothing
//!   extra and changes no byte (pinned by the `fault_equivalence` suite).
//! * [`RetryPolicy`] — how the executor responds: bounded retries with
//!   exponential backoff and deterministic jitter in simulated time, a
//!   per-probe deadline, and failover to a live replica holder of the key
//!   (see [`alvisp2p_dht::replica`]).
//! * [`ProbeOutcome`] / [`FailureCause`] — the fallible-by-design probe
//!   result and the per-key cause recorded when a probe is exhausted.
//! * [`Completeness`] — the degraded-answer report on
//!   [`crate::request::QueryResponse`]: what fraction of the planned document
//!   frequency the answer actually covers, and why the rest is missing.
//!
//! Fault decisions are **stateless**: each one hashes `(plane seed, key ring
//! identifier, query sequence number, attempt index)` into a fresh
//! [`SimRng`] and takes a single draw. No RNG state is carried between
//! probes, so decisions are order-independent, replayable, and — crucially —
//! an inactive plane consumes zero randomness.

use crate::global_index::ProbeResult;
use alvisp2p_dht::RingId;
use alvisp2p_netsim::SimRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Why a probe attempt (or an exhausted probe) failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureCause {
    /// The request or its response was dropped in flight.
    Lost,
    /// The response arrived after the per-probe deadline (the bytes still
    /// crossed the wire and are charged).
    TimedOut,
    /// The peer that would have served the probe is crashed or stalled (or
    /// overlay routing could not reach a responsible peer at all).
    PeerDown,
    /// The response arrived but failed frame-integrity verification (its
    /// checksum trailer disagreed with its bytes); the full round trip was
    /// charged and the payload discarded.
    Corrupt,
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Lost => write!(f, "lost"),
            FailureCause::TimedOut => write!(f, "timed-out"),
            FailureCause::PeerDown => write!(f, "peer-down"),
            FailureCause::Corrupt => write!(f, "corrupt"),
        }
    }
}

/// The result of one probe attempt (see
/// [`crate::global_index::GlobalIndex::probe`]).
///
/// Every variant reports the overlay hops the attempt spent — failed attempts
/// consumed real routing traffic and are charged against hop budgets.
#[derive(Clone, Debug)]
pub enum ProbeOutcome {
    /// The attempt succeeded.
    Ok(ProbeResult),
    /// The message (or its response) was dropped in flight: routing and
    /// request bytes were spent, no response arrived, the serving peer never
    /// observed the request.
    Lost {
        /// Overlay hops the attempt spent.
        hops: usize,
    },
    /// The response arrived past the deadline: the full round trip was
    /// charged and the serving peer observed the request, but the payload is
    /// useless to the querier.
    TimedOut {
        /// Overlay hops the attempt spent.
        hops: usize,
    },
    /// The peer that would have served the probe is crashed or stalled;
    /// routing and request bytes were spent before the failure was apparent.
    PeerDown {
        /// The unresponsive peer.
        peer: usize,
        /// Overlay hops the attempt spent.
        hops: usize,
    },
    /// The response arrived but its frame failed checksum verification (a
    /// bit-flip in flight): the full round trip was charged, the payload is
    /// unusable, and the attempt is retryable like a lost message.
    Corrupt {
        /// Overlay hops the attempt spent.
        hops: usize,
    },
}

/// A window of query sequence numbers during which a peer is unresponsive
/// (a transient stall, as opposed to a [`FaultConfig::crashed`] peer).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallWindow {
    /// The stalled peer.
    pub peer: usize,
    /// First query sequence number of the stall (inclusive).
    pub from_seq: u64,
    /// Last query sequence number of the stall (inclusive).
    pub until_seq: u64,
}

/// The knobs of a seeded fault plane.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the stateless per-decision hash.
    pub seed: u64,
    /// Probability that a probe attempt's message (or response) is dropped.
    pub loss_rate: f64,
    /// Probability that a served response arrives past the per-probe
    /// deadline.
    pub slow_rate: f64,
    /// Probability that a served response frame suffers a bit-flip in flight
    /// (caught by the codec's checksum trailer and surfaced as the retryable
    /// [`ProbeOutcome::Corrupt`]).
    #[serde(default)]
    pub corrupt_rate: f64,
    /// Probability that a posting-publication message is dropped in flight:
    /// the traffic is charged but the responsible peer never applies the
    /// update, leaving the publication un-acked (see
    /// [`crate::global_index::GlobalIndex::republish_round`]).
    #[serde(default)]
    pub publish_loss_rate: f64,
    /// Probability that one replica-sync (or stats-publication)
    /// message is dropped in flight, leaving that holder's copy stale until
    /// anti-entropy repair pulls a fresh one.
    #[serde(default)]
    pub sync_loss_rate: f64,
    /// Peers that have crashed abruptly: still present in the overlay's
    /// routing state (no graceful departure ran), but unresponsive.
    pub crashed: BTreeSet<usize>,
    /// Transient per-peer stall windows, keyed by query sequence number.
    pub stalls: Vec<StallWindow>,
}

impl FaultConfig {
    /// A config with the given seed and no faults configured.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            loss_rate: 0.0,
            slow_rate: 0.0,
            corrupt_rate: 0.0,
            publish_loss_rate: 0.0,
            sync_loss_rate: 0.0,
            crashed: BTreeSet::new(),
            stalls: Vec::new(),
        }
    }
}

/// Deterministic fault injection for the wire operations of
/// [`crate::global_index::GlobalIndex`], which owns the plane. Under the
/// default, [`FaultPlane::NoFaults`], every decision function below returns
/// `false` / `None` / `0` without drawing randomness, so probes and
/// publications run the same code as under an active plane and simply never
/// fail.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum FaultPlane {
    /// No faults are ever injected (the default).
    #[default]
    NoFaults,
    /// Faults are injected per the embedded [`FaultConfig`].
    Seeded(FaultConfig),
}

/// Salt of the message-loss draw (distinct per decision type so one decision
/// never influences another).
const SALT_LOSS: u64 = 0x6c6f_7373; // "loss"
/// Salt of the slow-reply draw.
const SALT_SLOW: u64 = 0x736c_6f77; // "slow"
/// Salt of the backoff-jitter draw.
const SALT_JITTER: u64 = 0x6a69_7474; // "jitt"
/// Salt of the response-corruption draw.
const SALT_CORRUPT: u64 = 0x636f_7272; // "corr"
/// Salt of the corrupted-bit-position draw.
const SALT_CORRUPT_BIT: u64 = 0x666c_6970; // "flip"
/// Salt of the publish-loss draw.
const SALT_PUBLISH: u64 = 0x7075_626c; // "publ"
/// Salt of the replica-sync / stats-publication loss draw.
const SALT_SYNC: u64 = 0x7379_6e63; // "sync"

/// Mixes the decision coordinates into one seed (splitmix64-style finalizer
/// over the xor-folded inputs).
fn mix(seed: u64, salt: u64, ring: RingId, seq: u64, attempt: u32) -> u64 {
    let mut z = seed
        ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ ring.0.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ seq.wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ u64::from(attempt).wrapping_mul(0xd6e8_feb8_6659_fd93);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One uniform draw in `[0, 1)` for the decision at these coordinates.
fn draw(seed: u64, salt: u64, ring: RingId, seq: u64, attempt: u32) -> f64 {
    SimRng::new(mix(seed, salt, ring, seq, attempt)).gen_f64()
}

impl FaultPlane {
    /// A seeded plane with no faults configured yet (use the `with_*` and
    /// [`FaultPlane::crash`] / [`FaultPlane::stall`] knobs to add some).
    pub fn seeded(seed: u64) -> Self {
        FaultPlane::Seeded(FaultConfig::new(seed))
    }

    /// Sets the per-attempt message loss probability.
    pub fn with_loss(mut self, rate: f64) -> Self {
        self.config_mut().loss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability that a served response misses the deadline.
    pub fn with_slow(mut self, rate: f64) -> Self {
        self.config_mut().slow_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability that a served response frame suffers a bit-flip
    /// in flight (detected by the codec checksum trailer).
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.config_mut().corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability that a posting-publication message is dropped in
    /// flight (the publication stays un-acked and is re-sent by
    /// [`crate::global_index::GlobalIndex::republish_round`]).
    pub fn with_publish_loss(mut self, rate: f64) -> Self {
        self.config_mut().publish_loss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability that one replica-sync (or stats
    /// publication) message is dropped in flight.
    pub fn with_sync_loss(mut self, rate: f64) -> Self {
        self.config_mut().sync_loss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Crashes a peer abruptly: it stays in the overlay's routing state (no
    /// graceful departure runs) but stops answering probes. Upgrades a
    /// [`FaultPlane::NoFaults`] plane to a seeded one with zero rates.
    pub fn crash(&mut self, peer: usize) {
        self.config_mut().crashed.insert(peer);
    }

    /// Restores a crashed peer.
    pub fn restore(&mut self, peer: usize) {
        if let FaultPlane::Seeded(cfg) = self {
            cfg.crashed.remove(&peer);
        }
    }

    /// Stalls a peer for the query sequence window `[from_seq, until_seq]`.
    pub fn stall(&mut self, peer: usize, from_seq: u64, until_seq: u64) {
        self.config_mut().stalls.push(StallWindow {
            peer,
            from_seq,
            until_seq,
        });
    }

    /// The crashed-peer set (empty under [`FaultPlane::NoFaults`]).
    pub fn crashed(&self) -> Option<&BTreeSet<usize>> {
        match self {
            FaultPlane::NoFaults => None,
            FaultPlane::Seeded(cfg) => Some(&cfg.crashed),
        }
    }

    fn config_mut(&mut self) -> &mut FaultConfig {
        if let FaultPlane::NoFaults = self {
            *self = FaultPlane::seeded(0);
        }
        match self {
            FaultPlane::Seeded(cfg) => cfg,
            FaultPlane::NoFaults => unreachable!("just upgraded"),
        }
    }

    /// Whether the plane can inject anything at all. Purely descriptive (for
    /// tests and reports): no code path branches on it — an inactive plane is
    /// inert because each decision function answers "no", not because it is
    /// bypassed.
    pub fn is_active(&self) -> bool {
        match self {
            FaultPlane::NoFaults => false,
            FaultPlane::Seeded(cfg) => {
                cfg.loss_rate > 0.0
                    || cfg.slow_rate > 0.0
                    || cfg.corrupt_rate > 0.0
                    || cfg.publish_loss_rate > 0.0
                    || cfg.sync_loss_rate > 0.0
                    || !cfg.crashed.is_empty()
                    || !cfg.stalls.is_empty()
            }
        }
    }

    /// The seed of the plane's stateless decision hash (`None` under
    /// [`FaultPlane::NoFaults`]). [`crate::global_index::GlobalIndex::set_fault_plane`]
    /// hands it to the dht layer so replica-sync loss draws share the same
    /// determinism guarantees.
    pub fn seed(&self) -> Option<u64> {
        match self {
            FaultPlane::NoFaults => None,
            FaultPlane::Seeded(cfg) => Some(cfg.seed),
        }
    }

    /// The replica-sync loss probability (`0.0` under
    /// [`FaultPlane::NoFaults`]).
    pub fn sync_loss_rate(&self) -> f64 {
        match self {
            FaultPlane::NoFaults => 0.0,
            FaultPlane::Seeded(cfg) => cfg.sync_loss_rate,
        }
    }

    /// Whether `peer` is unresponsive (crashed, or stalled at `seq`).
    pub fn peer_down(&self, peer: usize, seq: u64) -> bool {
        match self {
            FaultPlane::NoFaults => false,
            FaultPlane::Seeded(cfg) => {
                cfg.crashed.contains(&peer)
                    || cfg
                        .stalls
                        .iter()
                        .any(|s| s.peer == peer && s.from_seq <= seq && seq <= s.until_seq)
            }
        }
    }

    /// Whether the attempt's message is lost in flight.
    pub fn message_lost(&self, ring: RingId, seq: u64, attempt: u32) -> bool {
        match self {
            FaultPlane::NoFaults => false,
            FaultPlane::Seeded(cfg) => {
                cfg.loss_rate > 0.0 && draw(cfg.seed, SALT_LOSS, ring, seq, attempt) < cfg.loss_rate
            }
        }
    }

    /// Whether the attempt's served response misses the deadline.
    pub fn reply_timed_out(&self, ring: RingId, seq: u64, attempt: u32) -> bool {
        match self {
            FaultPlane::NoFaults => false,
            FaultPlane::Seeded(cfg) => {
                cfg.slow_rate > 0.0 && draw(cfg.seed, SALT_SLOW, ring, seq, attempt) < cfg.slow_rate
            }
        }
    }

    /// Whether the attempt's served response suffers a bit-flip in flight; if
    /// so, returns the (deterministically drawn) bit index to flip in the
    /// `frame_len`-byte response frame. `None` when the fault does not fire
    /// (or the frame is empty, or under [`FaultPlane::NoFaults`]).
    pub fn response_corrupt_bit(
        &self,
        ring: RingId,
        seq: u64,
        attempt: u32,
        frame_len: usize,
    ) -> Option<usize> {
        match self {
            FaultPlane::NoFaults => None,
            FaultPlane::Seeded(cfg) => {
                if frame_len == 0
                    || cfg.corrupt_rate == 0.0
                    || draw(cfg.seed, SALT_CORRUPT, ring, seq, attempt) >= cfg.corrupt_rate
                {
                    return None;
                }
                let bits = frame_len * 8;
                Some((mix(cfg.seed, SALT_CORRUPT_BIT, ring, seq, attempt) % bits as u64) as usize)
            }
        }
    }

    /// Whether a posting-publication message is dropped in flight.
    /// `seq` is the publisher's publish sequence number; `attempt` counts
    /// re-publications of the same pending publication.
    pub fn publish_lost(&self, ring: RingId, seq: u64, attempt: u32) -> bool {
        match self {
            FaultPlane::NoFaults => false,
            FaultPlane::Seeded(cfg) => {
                cfg.publish_loss_rate > 0.0
                    && draw(cfg.seed, SALT_PUBLISH, ring, seq, attempt) < cfg.publish_loss_rate
            }
        }
    }

    /// Whether one replica-sync or stats-publication message is
    /// dropped in flight. `seq` identifies the sync operation and `attempt`
    /// the recipient within it.
    pub fn sync_lost(&self, ring: RingId, seq: u64, attempt: u32) -> bool {
        match self {
            FaultPlane::NoFaults => false,
            FaultPlane::Seeded(cfg) => {
                cfg.sync_loss_rate > 0.0
                    && draw(cfg.seed, SALT_SYNC, ring, seq, attempt) < cfg.sync_loss_rate
            }
        }
    }

    /// Deterministic backoff jitter in `[0, span]` microseconds for the given
    /// retry coordinates (`0` under [`FaultPlane::NoFaults`]).
    pub fn jitter_us(&self, ring: RingId, seq: u64, attempt: u32, span: u64) -> u64 {
        match self {
            FaultPlane::NoFaults => 0,
            FaultPlane::Seeded(cfg) => {
                if span == 0 {
                    0
                } else {
                    (draw(cfg.seed, SALT_JITTER, ring, seq, attempt) * span as f64) as u64
                }
            }
        }
    }
}

/// How the executor responds to probe-attempt failures: bounded retries with
/// exponential backoff (deterministic jitter, simulated time), a per-probe
/// deadline, and failover to a live replica holder of the key.
///
/// The default policy retries twice with failover enabled — and is
/// byte-identical to no policy at all when the [`FaultPlane`] is inactive,
/// because retries only happen after a failed attempt and an inactive plane
/// never fails one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum number of re-sends after the first attempt (`0` = no retries).
    pub max_retries: usize,
    /// Backoff before retry `i` (0-based) is `base_backoff_us << i` plus
    /// jitter, in simulated microseconds.
    pub base_backoff_us: u64,
    /// Upper bound of the deterministic jitter added to each backoff.
    pub jitter_us: u64,
    /// Per-probe deadline in simulated microseconds: once the accumulated
    /// backoff exceeds it, the probe is abandoned (`0` = no deadline).
    pub deadline_us: u64,
    /// Whether retries may re-route the serve to another live holder in the
    /// key's replica set (see [`alvisp2p_dht::replica`]).
    pub failover: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_us: 500,
            jitter_us: 250,
            deadline_us: 50_000,
            failover: true,
        }
    }
}

impl RetryPolicy {
    /// The give-up-immediately policy: no retries, no failover.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_us: 0,
            jitter_us: 0,
            deadline_us: 0,
            failover: false,
        }
    }

    /// Retries without failover (re-send to the same serve selection).
    pub fn retry_only(max_retries: usize) -> Self {
        RetryPolicy {
            max_retries,
            failover: false,
            ..RetryPolicy::default()
        }
    }

    /// The base (jitter-free) backoff before 0-based retry `attempt`.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        self.base_backoff_us
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
    }
}

/// The degraded-answer report of a [`crate::request::QueryResponse`]: how
/// much of the *planned* document frequency the answer actually covers, and
/// which keys failed with what cause.
///
/// Coverage is measured against the plan's own per-key DF estimates
/// ([`crate::plan::PlanNode::est_entries`]): `planned_df` sums the estimates
/// of every scheduled probe, `covered_df` subtracts the estimates of the
/// probes that failed exhaustively. Budget truncation and lattice pruning do
/// **not** reduce completeness — they are deliberate scheduling decisions
/// reported elsewhere (`budget_exhausted`, the trace) — so a fault-free query
/// always reports a fraction of `1.0`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Completeness {
    /// Estimated document frequency the plan scheduled probes for.
    pub planned_df: u64,
    /// Estimated document frequency actually covered (planned minus failed).
    pub covered_df: u64,
    /// `(canonical key, cause)` of every exhausted probe, in schedule order.
    pub failures: Vec<(String, FailureCause)>,
}

impl Completeness {
    /// Fraction of the planned DF the answer covers (`1.0` when nothing was
    /// planned — an empty query is complete, not degraded).
    pub fn fraction(&self) -> f64 {
        if self.planned_df == 0 {
            1.0
        } else {
            self.covered_df as f64 / self.planned_df as f64
        }
    }

    /// Whether the answer is degraded (some planned DF was not covered).
    pub fn is_degraded(&self) -> bool {
        self.covered_df < self.planned_df
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(v: u64) -> RingId {
        RingId(v)
    }

    #[test]
    fn no_faults_is_inert() {
        let plane = FaultPlane::default();
        assert!(!plane.is_active());
        assert!(!plane.peer_down(0, 1));
        assert!(!plane.message_lost(ring(42), 1, 0));
        assert!(!plane.reply_timed_out(ring(42), 1, 0));
        assert!(plane.response_corrupt_bit(ring(42), 1, 0, 64).is_none());
        assert!(!plane.publish_lost(ring(42), 1, 0));
        assert!(!plane.sync_lost(ring(42), 1, 0));
        assert_eq!(plane.seed(), None);
        assert_eq!(plane.sync_loss_rate(), 0.0);
        assert_eq!(plane.jitter_us(ring(42), 1, 0, 1000), 0);
    }

    #[test]
    fn control_plane_rates_activate_the_plane() {
        assert!(FaultPlane::seeded(1).with_corruption(0.1).is_active());
        assert!(FaultPlane::seeded(1).with_publish_loss(0.1).is_active());
        assert!(FaultPlane::seeded(1).with_sync_loss(0.1).is_active());
        assert!(!FaultPlane::seeded(1).is_active());
    }

    #[test]
    fn corruption_draw_is_deterministic_and_in_range() {
        let plane = FaultPlane::seeded(13).with_corruption(0.5);
        let mut fired = 0usize;
        for seq in 0..512u64 {
            let bit = plane.response_corrupt_bit(ring(4), seq, 0, 100);
            assert_eq!(plane.response_corrupt_bit(ring(4), seq, 0, 100), bit);
            if let Some(b) = bit {
                assert!(b < 800, "bit index within the 100-byte frame");
                fired += 1;
            }
        }
        assert!((150..360).contains(&fired), "~50% of 512, got {fired}");
        // Empty frames are never corrupted even when the draw fires.
        assert!(plane.response_corrupt_bit(ring(4), 0, 0, 0).is_none());
    }

    #[test]
    fn publish_and_sync_loss_are_independent_salted_draws() {
        let plane = FaultPlane::seeded(21)
            .with_publish_loss(0.5)
            .with_sync_loss(0.5);
        let disagree = (0..512u64)
            .filter(|s| plane.publish_lost(ring(9), *s, 0) != plane.sync_lost(ring(9), *s, 0))
            .count();
        assert!(disagree > 100, "salted draws should frequently disagree");
        let lost = (0..10_000u64)
            .filter(|s| plane.publish_lost(ring(5), *s, 0))
            .count();
        assert!((4600..5400).contains(&lost), "~50% of 10k, got {lost}");
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plane = FaultPlane::seeded(7).with_loss(0.5).with_slow(0.5);
        let a = plane.message_lost(ring(1), 3, 0);
        let b = plane.message_lost(ring(2), 3, 0);
        // Re-asking in any order gives the same answers: no hidden state.
        assert_eq!(plane.message_lost(ring(2), 3, 0), b);
        assert_eq!(plane.message_lost(ring(1), 3, 0), a);
        // Distinct coordinates are distinct decisions.
        let distinct = (0..64u32)
            .map(|attempt| plane.message_lost(ring(9), 5, attempt))
            .collect::<Vec<_>>();
        assert!(distinct.iter().any(|l| *l) && distinct.iter().any(|l| !*l));
        // Loss and slow draws at the same coordinates are independent salts.
        let seq_hits = (0..512u64)
            .filter(|s| plane.message_lost(ring(9), *s, 0) != plane.reply_timed_out(ring(9), *s, 0))
            .count();
        assert!(seq_hits > 100, "salted draws should frequently disagree");
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let plane = FaultPlane::seeded(11).with_loss(0.1);
        let lost = (0..10_000u64)
            .filter(|s| plane.message_lost(ring(5), *s, 0))
            .count();
        assert!((800..1200).contains(&lost), "~10% of 10k, got {lost}");
    }

    #[test]
    fn crash_stall_and_restore_track_peers() {
        let mut plane = FaultPlane::default();
        plane.crash(3);
        assert!(plane.is_active());
        assert!(plane.peer_down(3, 1) && !plane.peer_down(4, 1));
        plane.restore(3);
        assert!(!plane.peer_down(3, 1));
        plane.stall(5, 10, 20);
        assert!(!plane.peer_down(5, 9));
        assert!(plane.peer_down(5, 10) && plane.peer_down(5, 20));
        assert!(!plane.peer_down(5, 21));
    }

    #[test]
    fn retry_policy_backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_us(0), 500);
        assert_eq!(p.backoff_us(1), 1000);
        assert_eq!(p.backoff_us(2), 2000);
        assert_eq!(RetryPolicy::none().max_retries, 0);
        assert!(!RetryPolicy::none().failover);
        assert!(!RetryPolicy::retry_only(2).failover);
        assert_eq!(RetryPolicy::retry_only(2).max_retries, 2);
    }

    #[test]
    fn completeness_fraction_handles_empty_and_degraded() {
        let c = Completeness::default();
        assert_eq!(c.fraction(), 1.0);
        assert!(!c.is_degraded());
        let c = Completeness {
            planned_df: 100,
            covered_df: 75,
            failures: vec![("a+b".into(), FailureCause::Lost)],
        };
        assert_eq!(c.fraction(), 0.75);
        assert!(c.is_degraded());
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let plane = FaultPlane::seeded(3).with_loss(0.01);
        for attempt in 0..8 {
            let j = plane.jitter_us(ring(77), 9, attempt, 250);
            assert!(j <= 250);
            assert_eq!(plane.jitter_us(ring(77), 9, attempt, 250), j);
        }
    }
}

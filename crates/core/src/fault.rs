//! Deterministic fault injection for the wire, and the policy that survives
//! it.
//!
//! The paper's setting is a P2P overlay where message loss and abrupt peer
//! failure are the normal case. This module makes those events a first-class
//! *input* to query execution:
//!
//! * [`FaultPlane`] — the one authority on injected faults: a seeded,
//!   deterministic source of per-operation fault decisions — message loss,
//!   replies that arrive too late to use, crashed peers, response bit-flip
//!   corruption (caught by the codec's checksum trailer), lost posting
//!   publications, and lost replica-sync / stats-publication messages. No
//!   other code holds a fault seed or rate or draws a fault: the overlay's
//!   replica sync ([`alvisp2p_dht::Dht::sync_replicas`]) asks its caller, and
//!   [`crate::global_index::GlobalIndex`] answers with
//!   [`FaultPlane::replica_sync_lost`]. The plane is *data* the one probe path
//!   and the one publication path of the global index consult, not a switch
//!   between two paths: the default plane — every rate zero, nobody crashed
//!   — answers "no" to every question without drawing randomness, so it
//!   charges nothing extra and changes no byte (pinned by the
//!   `fault_equivalence` suite).
//! * [`RetryPolicy`] — how the executor responds: a bounded number of
//!   re-sends and failover to a live replica holder of the key (see
//!   [`alvisp2p_dht::replica`]). A retry is simply the next attempt: the query
//!   path has no clock, so there is no backoff, jitter or deadline.
//! * [`ProbeOutcome`] / [`FailureCause`] — the fallible-by-design probe
//!   result and the per-key cause recorded when a probe is exhausted.
//! * [`Completeness`] — the degraded-answer report on
//!   [`crate::request::QueryResponse`]: what fraction of the planned document
//!   frequency the answer actually covers, and why the rest is missing.
//!
//! Fault decisions are **stateless**: each one hashes `(plane seed, salt of
//! the decision type, key ring identifier, sequence number, attempt index)`
//! into a fresh [`SimRng`] and takes a single draw. No RNG state is carried
//! between decisions, so they are order-independent, replayable, and — crucially
//! — a zero rate consumes zero randomness.

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
    /// The response arrived too late to use (the bytes still crossed the
    /// wire and are charged). The plane's slow-reply draw decides this; no
    /// deadline clock stands behind it.
    TimedOut,
    /// The peer that would have served the probe is crashed (or overlay
    /// routing could not reach a responsible peer at all).
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
/// Every variant reports the attempt's hops — the lookup messages that did
/// not deliver the request (see [`ProbeResult::hops`]). Failed attempts
/// consumed real routing traffic, which the query's trace counts.
#[derive(Clone, Debug)]
pub enum ProbeOutcome {
    /// The attempt succeeded.
    Ok(ProbeResult),
    /// The message (or its response) was dropped in flight: routing and
    /// request bytes were spent, no response arrived, the serving peer never
    /// observed the request.
    Lost {
        /// Lookup messages that did not deliver the request.
        hops: usize,
    },
    /// The response arrived too late to use: the full round trip was charged
    /// and the serving peer observed the request, but the payload is useless
    /// to the querier. The plane's slow-reply draw decides this; no deadline
    /// clock stands behind it.
    TimedOut {
        /// Lookup messages that did not deliver the request.
        hops: usize,
    },
    /// The peer that would have served the probe is crashed; routing and
    /// request bytes were spent before the failure was apparent.
    PeerDown {
        /// The unresponsive peer.
        peer: usize,
        /// Lookup messages that did not deliver the request.
        hops: usize,
    },
    /// The response arrived but its frame failed checksum verification (a
    /// bit-flip in flight): the full round trip was charged, the payload is
    /// unusable, and the attempt is retryable like a lost message.
    Corrupt {
        /// Lookup messages that did not deliver the request.
        hops: usize,
    },
}

/// Deterministic fault injection for the wire operations of
/// [`crate::global_index::GlobalIndex`], which owns the plane. Under the
/// default plane every decision function below returns `false` / `None`
/// without drawing randomness, so probes and publications run the same code
/// as under an active plane and simply never fail.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlane {
    /// Seed of the stateless per-decision hash.
    seed: u64,
    /// Probability that a probe attempt's message (or response) is dropped.
    loss_rate: f64,
    /// Probability that a served response arrives too late to use.
    slow_rate: f64,
    /// Probability that a served response frame suffers a bit-flip in flight.
    corrupt_rate: f64,
    /// Probability that a posting-publication message is dropped in flight.
    publish_loss_rate: f64,
    /// Probability that one replica-sync or stats-publication message is
    /// dropped in flight.
    sync_loss_rate: f64,
    /// Peers that have crashed abruptly: still present in the overlay's
    /// routing state (no graceful departure ran), but unresponsive.
    crashed: BTreeSet<usize>,
}

/// Salt of the message-loss draw (distinct per decision type so one decision
/// never influences another).
const SALT_LOSS: u64 = 0x6c6f_7373; // "loss"
/// Salt of the slow-reply draw.
const SALT_SLOW: u64 = 0x736c_6f77; // "slow"
/// Salt of the response-corruption draw.
const SALT_CORRUPT: u64 = 0x636f_7272; // "corr"
/// Salt of the corrupted-bit-position draw.
const SALT_CORRUPT_BIT: u64 = 0x666c_6970; // "flip"
/// Salt of the publish-loss draw.
const SALT_PUBLISH: u64 = 0x7075_626c; // "publ"
/// Salt of the stats-publication loss draw.
const SALT_SYNC: u64 = 0x7379_6e63; // "sync"
/// Salt of the replica-sync loss draw.
const SALT_REPLICA_SYNC: u64 = 0x7273_796e; // "rsyn"

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

impl FaultPlane {
    /// A seeded plane with no faults configured yet (use the `with_*` and
    /// [`FaultPlane::crash`] knobs to add some).
    pub fn seeded(seed: u64) -> Self {
        FaultPlane {
            seed,
            ..FaultPlane::default()
        }
    }

    /// Sets the per-attempt message loss probability.
    pub fn with_loss(mut self, rate: f64) -> Self {
        self.loss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability that a served response arrives too late to use.
    pub fn with_slow(mut self, rate: f64) -> Self {
        self.slow_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability that a served response frame suffers a bit-flip
    /// in flight (detected by the codec checksum trailer and surfaced as the
    /// retryable [`ProbeOutcome::Corrupt`]).
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability that a posting-publication message is dropped in
    /// flight: the traffic is charged but the responsible peer never applies
    /// the update, leaving the publication un-acked until
    /// [`crate::global_index::GlobalIndex::republish_round`] re-sends it.
    pub fn with_publish_loss(mut self, rate: f64) -> Self {
        self.publish_loss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability that one replica-sync (or stats publication)
    /// message is dropped in flight, leaving that holder's copy stale until
    /// anti-entropy repair pulls a fresh one.
    pub fn with_sync_loss(mut self, rate: f64) -> Self {
        self.sync_loss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Crashes a peer abruptly: it stays in the overlay's routing state (no
    /// graceful departure runs) but stops answering probes.
    pub fn crash(&mut self, peer: usize) {
        self.crashed.insert(peer);
    }

    /// Restores a crashed peer.
    pub fn restore(&mut self, peer: usize) {
        self.crashed.remove(&peer);
    }

    /// The crashed-peer set.
    pub fn crashed(&self) -> &BTreeSet<usize> {
        &self.crashed
    }

    /// Whether the plane can inject anything at all. Purely descriptive (for
    /// tests and reports): no code path branches on it — an inactive plane is
    /// inert because each decision function answers "no", not because it is
    /// bypassed.
    pub fn is_active(&self) -> bool {
        self.loss_rate > 0.0
            || self.slow_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.publish_loss_rate > 0.0
            || self.sync_loss_rate > 0.0
            || !self.crashed.is_empty()
    }

    /// Whether `peer` is unresponsive (crashed).
    pub fn peer_down(&self, peer: usize) -> bool {
        self.crashed.contains(&peer)
    }

    /// Whether the decision of type `salt` at these coordinates fires under
    /// `rate`: one uniform draw in `[0, 1)`, taken only when `rate > 0`.
    fn fires(&self, rate: f64, salt: u64, ring: RingId, seq: u64, attempt: u32) -> bool {
        rate > 0.0 && SimRng::new(mix(self.seed, salt, ring, seq, attempt)).gen_f64() < rate
    }

    /// Whether the attempt's message is lost in flight.
    pub fn message_lost(&self, ring: RingId, seq: u64, attempt: u32) -> bool {
        self.fires(self.loss_rate, SALT_LOSS, ring, seq, attempt)
    }

    /// Whether the attempt's served response arrives too late to use.
    pub fn reply_timed_out(&self, ring: RingId, seq: u64, attempt: u32) -> bool {
        self.fires(self.slow_rate, SALT_SLOW, ring, seq, attempt)
    }

    /// Whether the attempt's served response suffers a bit-flip in flight; if
    /// so, returns the (deterministically drawn) bit index to flip in the
    /// `frame_len`-byte response frame. `None` when the fault does not fire
    /// or the frame is empty.
    pub fn response_corrupt_bit(
        &self,
        ring: RingId,
        seq: u64,
        attempt: u32,
        frame_len: usize,
    ) -> Option<usize> {
        if frame_len == 0 || !self.fires(self.corrupt_rate, SALT_CORRUPT, ring, seq, attempt) {
            return None;
        }
        let bits = frame_len as u64 * 8;
        Some((mix(self.seed, SALT_CORRUPT_BIT, ring, seq, attempt) % bits) as usize)
    }

    /// Whether a posting-publication frame is dropped in flight. `ring` is
    /// the frame's first key and `seq` the frame's publish sequence number
    /// (see [`crate::global_index::GlobalIndex::publish_batch`]); a re-send
    /// carries one pending publication, drawn at its own key, its original
    /// frame's `seq` and `attempt`, the re-publications so far.
    pub fn publish_lost(&self, ring: RingId, seq: u64, attempt: u32) -> bool {
        self.fires(self.publish_loss_rate, SALT_PUBLISH, ring, seq, attempt)
    }

    /// Whether one stats-publication message is dropped in flight. `seq`
    /// identifies the publication and `attempt` the send within it.
    pub fn sync_lost(&self, ring: RingId, seq: u64, attempt: u32) -> bool {
        self.fires(self.sync_loss_rate, SALT_SYNC, ring, seq, attempt)
    }

    /// Whether the replica-sync message of sync operation `seq` to the
    /// `recipient`-th holder of `key` is dropped in flight (the decision
    /// [`alvisp2p_dht::Dht::sync_replicas`] asks its caller for). Drawn at the
    /// sync-loss rate under a salt of its own.
    pub fn replica_sync_lost(&self, key: RingId, seq: u64, recipient: u32) -> bool {
        self.fires(self.sync_loss_rate, SALT_REPLICA_SYNC, key, seq, recipient)
    }
}

/// How the executor responds to probe-attempt failures: up to `max_retries`
/// re-sends, each sent as the next attempt straight away, and failover to a
/// live replica holder of the key.
///
/// The default policy retries twice with failover enabled — and is
/// byte-identical to no policy at all when the [`FaultPlane`] is inactive,
/// because retries only happen after a failed attempt and an inactive plane
/// never fails one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of re-sends after the first attempt (`0` = no retries).
    pub max_retries: usize,
    /// Whether retries may re-route the serve to another live holder in the
    /// key's replica set (see [`alvisp2p_dht::replica`]).
    pub failover: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            failover: true,
        }
    }
}

impl RetryPolicy {
    /// The give-up-immediately policy: no retries, no failover.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            failover: false,
        }
    }

    /// Retries without failover (re-send to the same serve selection).
    pub fn retry_only(max_retries: usize) -> Self {
        RetryPolicy {
            max_retries,
            failover: false,
        }
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
        assert!(!plane.peer_down(0));
        assert!(plane.crashed().is_empty());
        assert!(!plane.message_lost(ring(42), 1, 0));
        assert!(!plane.reply_timed_out(ring(42), 1, 0));
        assert!(plane.response_corrupt_bit(ring(42), 1, 0, 64).is_none());
        assert!(!plane.publish_lost(ring(42), 1, 0));
        assert!(!plane.sync_lost(ring(42), 1, 0));
        assert!(!plane.replica_sync_lost(ring(42), 1, 0));
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
        let disagree = (0..512u64)
            .filter(|s| plane.sync_lost(ring(9), *s, 0) != plane.replica_sync_lost(ring(9), *s, 0))
            .count();
        assert!(disagree > 100, "replica syncs draw under their own salt");
        let lost = (0..10_000u64)
            .filter(|s| plane.publish_lost(ring(5), *s, 0))
            .count();
        assert!((4600..5400).contains(&lost), "~50% of 10k, got {lost}");
    }

    #[test]
    fn replica_sync_draws_are_deterministic_and_rate_bounded() {
        let plane = FaultPlane::seeded(7).with_sync_loss(0.3);
        let key = ring(42);
        let a: Vec<bool> = (0..512)
            .map(|s| plane.replica_sync_lost(key, s, 0))
            .collect();
        let b: Vec<bool> = (0..512)
            .map(|s| plane.replica_sync_lost(key, s, 0))
            .collect();
        assert_eq!(a, b);
        let lost = a.iter().filter(|l| **l).count();
        assert!((100..210).contains(&lost), "~30% of 512, got {lost}");
        assert!(
            !FaultPlane::seeded(7).replica_sync_lost(key, 1, 0),
            "zero rate never fires"
        );
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

    /// Every decision's outcome at 16 fixed `(ring, seq, attempt)`
    /// coordinates, seed 20080824, every rate 0.5: the corrupted bit of a
    /// 64-byte frame, and the decisions that fire, named by their salts. The
    /// `rsyn` column was computed by the overlay's former private copy of the
    /// replica-sync draw (`dht::replica`), so this table pins that moving it
    /// into the plane changed no decision.
    type Coords = (u64, u64, u32);
    const GOLDEN: [(Coords, Option<usize>, &str); 16] = [
        ((0x0, 0, 0), Some(50), "loss slow"),
        ((0x1, 0, 0), Some(217), "loss publ sync rsyn"),
        ((0x0, 1, 0), None, "loss slow rsyn"),
        ((0x0, 0, 1), Some(174), "slow publ sync"),
        ((0x2a, 7, 0), Some(320), "sync rsyn"),
        ((0x2a, 7, 1), None, "slow publ sync rsyn"),
        ((0x2a, 7, 2), Some(242), "publ sync"),
        ((0xdead_beef, 3, 0), Some(346), "slow"),
        ((u64::MAX, 0, 0), Some(51), "loss slow publ sync"),
        ((u64::MAX, u64::MAX, 3), Some(448), "loss publ rsyn"),
        ((0x1234_5678_9abc_def0, 99, 1), None, "slow rsyn"),
        ((0x7, 1_000_000, 0), Some(307), "slow publ"),
        ((0x8000_0000_0000_0000, 5, 2), None, "publ sync"),
        ((0x1f, 31, 31), None, "loss publ rsyn"),
        ((0xfeed_f00d, 12, 0), None, "loss slow publ rsyn"),
        ((0x7d8, 824, 1), Some(356), "sync"),
    ];

    #[test]
    fn draws_match_their_golden_vectors() {
        let plane = FaultPlane::seeded(20080824)
            .with_loss(0.5)
            .with_slow(0.5)
            .with_corruption(0.5)
            .with_publish_loss(0.5)
            .with_sync_loss(0.5);
        for ((r, seq, attempt), bit, fired) in GOLDEN {
            let key = ring(r);
            let drawn = [
                ("loss", plane.message_lost(key, seq, attempt)),
                ("slow", plane.reply_timed_out(key, seq, attempt)),
                ("publ", plane.publish_lost(key, seq, attempt)),
                ("sync", plane.sync_lost(key, seq, attempt)),
                ("rsyn", plane.replica_sync_lost(key, seq, attempt)),
            ];
            let drawn: Vec<&str> = drawn.iter().filter(|d| d.1).map(|d| d.0).collect();
            let at = (r, seq, attempt);
            assert_eq!(drawn.join(" "), fired, "decisions at {at:?}");
            let corrupt = plane.response_corrupt_bit(key, seq, attempt, 64);
            assert_eq!(corrupt, bit, "corruption at {at:?}");
        }
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
    fn crash_and_restore_track_peers() {
        let mut plane = FaultPlane::default();
        plane.crash(3);
        assert!(plane.is_active());
        assert!(plane.peer_down(3) && !plane.peer_down(4));
        assert_eq!(plane.crashed(), &BTreeSet::from([3]));
        plane.restore(3);
        assert!(!plane.peer_down(3));
        assert!(!plane.is_active());
    }

    #[test]
    fn retry_policies_set_retries_and_failover() {
        let knobs = |p: RetryPolicy| (p.max_retries, p.failover);
        assert_eq!(knobs(RetryPolicy::default()), (2, true));
        assert_eq!(knobs(RetryPolicy::none()), (0, false));
        assert_eq!(knobs(RetryPolicy::retry_only(2)), (2, false));
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
}

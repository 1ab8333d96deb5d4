//! Skew-aware replication of hot keys onto ring successor sets.
//!
//! Zipfian query logs concentrate most probe traffic on the few ring positions
//! owning head terms — the skew regime that provably limits parallel speedup
//! (Beame et al., "Skew in Parallel Query Processing") and that skew-aware
//! replication of heavy keys attacks directly. This module adds that layer to
//! the overlay:
//!
//! * [`ReplicationPolicy`] — the seam deciding *when* a stored key is hot
//!   enough to replicate and when it has cooled enough to withdraw. Built-ins:
//!   [`NoReplication`] (today's semantics, the default — every key lives only
//!   at its responsible peer) and [`HotKeyReplication`] (hysteresis thresholds
//!   over an EWMA probe load).
//! * [`ReplicaManager`] — the bookkeeping carried by [`Dht`]: the active
//!   policy, the *replica directory* mapping each replicated key to the peers
//!   currently holding a copy, and per-key and per-peer EWMA probe counters.
//!   In the deployed system each responsible peer tracks the probes served for
//!   the keys it stores; the simulator keeps the union of those per-node
//!   trackers in one structure, which is equivalent because every key has
//!   exactly one responsible peer observing its probes.
//!
//! Replica copies live in a **separate** per-peer store
//! ([`crate::node::Peer::replica_store`]), never in the primary store, so the
//! overlay's core invariant — a key's primary value lives exactly at its
//! responsible peer — is untouched and [`NoReplication`] is byte-identical to
//! the pre-replication overlay.
//!
//! Replication never changes *what* a request returns, only *where* it is
//! served: copies are kept byte-identical to the primary (synced on every
//! publish through [`Dht::sync_replicas`]), so any live holder can answer.
//! On churn the replica sets re-converge onto the new successor lists
//! ([`Dht::reconverge_replicas`], called by join/leave/fail), and a failed
//! primary's value is recovered from a surviving replica instead of being
//! lost.
//!
//! # Anti-entropy repair
//!
//! On a faulty wire the "copies stay byte-identical" invariant breaks: a
//! sync message dropped in flight (the overlay holds no fault state; it asks
//! the caller of [`Dht::sync_replicas`] which messages are lost) leaves a
//! holder's copy **stale**, and bit rot leaves it **corrupt**. The manager therefore tracks a monotonic
//! content version per replicated key and the version each holder last
//! received; [`Dht::repair_round`] — driven periodically from the churn loop
//! once [`Dht::set_repair_enabled`] turns it on — exchanges compact per-key
//! [`CopyDigest`]s (`(version, checksum)`), detects stale/missing/corrupt
//! copies, and pulls a fresh copy from the freshest live holder (the primary
//! when reachable). All repair traffic is charged to
//! [`TrafficCategory::Overlay`]. Repair is off by default and injecting
//! nothing, so the repair-disabled overlay stays byte-identical to the
//! pre-repair one.

use crate::id::RingId;
use crate::network::Dht;
use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
use alvisp2p_netsim::{TrafficCategory, WireSize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Policy seam
// ---------------------------------------------------------------------------

/// Decides when a stored key is replicated onto its ring successor set and
/// when the replicas are withdrawn again.
///
/// The decisions are driven by an EWMA probe load per key (see
/// [`ReplicaManager::key_load`]): `should_replicate` is consulted for keys
/// that are not yet replicated, `should_withdraw` for keys that are —
/// keeping the two thresholds apart gives hysteresis, so a key oscillating
/// around one threshold does not thrash copies on and off the network.
///
/// # Worked example
///
/// A hot key crosses the threshold after a burst of probes and is copied onto
/// its two ring successors; the replica set never contains the primary:
///
/// ```
/// use alvisp2p_dht::replica::HotKeyReplication;
/// use alvisp2p_dht::{Dht, DhtConfig, RingId};
/// use alvisp2p_netsim::TrafficCategory;
/// use std::sync::Arc;
///
/// let mut dht: Dht<Vec<u8>> = Dht::with_peers(DhtConfig::default(), 7, 32);
/// dht.set_replication_policy(Arc::new(HotKeyReplication::new(2)));
///
/// let key = RingId::hash_str("hot term");
/// dht.put(0, key, vec![1, 2, 3], TrafficCategory::Indexing).unwrap();
/// let primary = dht.responsible_for(key).unwrap();
///
/// // A burst of probes drives the key's EWMA load over the hot threshold …
/// for _ in 0..16 {
///     dht.record_probe(key, primary);
/// }
/// // … and the key is now replicated onto its two ring successors.
/// let holders = dht.replica_holders(key);
/// assert_eq!(holders.len(), 2);
/// assert!(!holders.contains(&primary));
/// for h in holders {
///     assert_eq!(dht.peer(h).replica_store.get(&key), Some(&vec![1, 2, 3]));
/// }
/// ```
pub trait ReplicationPolicy: std::fmt::Debug + Send + Sync {
    /// A short label used in reports and experiment output.
    fn label(&self) -> &str;

    /// Number of replicas (beyond the primary) a hot key is copied onto.
    /// `0` disables replication entirely. Co-tune this with
    /// [`crate::network::DhtConfig::successor_list_len`]: a factor no larger
    /// than the successor-list length keeps every replica inside the primary's
    /// successor list, where lookups terminate anyway.
    fn replication_factor(&self) -> usize;

    /// Whether a not-yet-replicated key at this EWMA probe load is hot enough
    /// to replicate.
    fn should_replicate(&self, load: f64) -> bool;

    /// Whether a replicated key at this EWMA probe load has cooled enough to
    /// withdraw its copies.
    fn should_withdraw(&self, load: f64) -> bool;

    /// Half-life, in observed probes network-wide, of the EWMA load tracker.
    fn half_life(&self) -> f64 {
        64.0
    }

    /// Whether the overlay needs to feed the load tracker at all. Policies
    /// that never replicate return `false`, keeping the probe hot path free
    /// of tracking cost.
    fn tracks(&self) -> bool {
        self.replication_factor() > 0
    }
}

/// The default policy: never replicate. Byte-identical to the
/// pre-replication overlay — no tracking, no copies, no directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoReplication;

impl ReplicationPolicy for NoReplication {
    fn label(&self) -> &str {
        "none"
    }

    fn replication_factor(&self) -> usize {
        0
    }

    fn should_replicate(&self, _load: f64) -> bool {
        false
    }

    fn should_withdraw(&self, _load: f64) -> bool {
        true
    }
}

/// Replicates a key onto its ring successor set while its EWMA probe load
/// stays hot, with hysteresis between the replicate and withdraw thresholds.
///
/// With the default half-life of 64 probes the steady-state load of a key
/// receiving a fraction `p` of all probes is ≈ `92·p`, so the default
/// `hot_threshold` of 2.0 replicates keys drawing more than ≈ 2% of the
/// network's probe traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct HotKeyReplication {
    /// Number of successor-set replicas per hot key (see
    /// [`ReplicationPolicy::replication_factor`]).
    pub factor: usize,
    /// EWMA load above which a key is replicated.
    pub hot_threshold: f64,
    /// EWMA load below which a replicated key is withdrawn. Must be below
    /// `hot_threshold` for useful hysteresis.
    pub cool_threshold: f64,
    /// Half-life of the EWMA tracker, in observed probes network-wide.
    pub half_life: f64,
}

impl Default for HotKeyReplication {
    fn default() -> Self {
        HotKeyReplication {
            factor: 3,
            hot_threshold: 2.0,
            cool_threshold: 0.5,
            half_life: 64.0,
        }
    }
}

impl HotKeyReplication {
    /// A policy replicating hot keys onto `factor` successors with the
    /// default thresholds.
    pub fn new(factor: usize) -> Self {
        HotKeyReplication {
            factor,
            ..Default::default()
        }
    }
}

impl ReplicationPolicy for HotKeyReplication {
    fn label(&self) -> &str {
        "hot-key"
    }

    fn replication_factor(&self) -> usize {
        self.factor
    }

    fn should_replicate(&self, load: f64) -> bool {
        load >= self.hot_threshold
    }

    fn should_withdraw(&self, load: f64) -> bool {
        load <= self.cool_threshold
    }

    fn half_life(&self) -> f64 {
        self.half_life
    }
}

// ---------------------------------------------------------------------------
// Load tracking
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Ewma {
    value: f64,
    at: u64,
}

/// EWMA probe-load counters per stored key and per serving peer.
///
/// The clock is the number of probes observed network-wide: every
/// [`LoadTracker::observe`] advances it by one and adds one unit of load to
/// the probed key and the serving peer, with all loads decaying by a factor
/// of two every `half_life` ticks. Decay is applied lazily, so idle keys
/// cost nothing.
#[derive(Clone, Debug)]
pub(crate) struct LoadTracker {
    half_life: f64,
    tick: u64,
    keys: HashMap<RingId, Ewma>,
    peers: HashMap<usize, Ewma>,
}

impl LoadTracker {
    /// Creates a tracker whose loads halve every `half_life` observed probes.
    fn new(half_life: f64) -> Self {
        LoadTracker {
            half_life: half_life.max(1.0),
            tick: 0,
            keys: HashMap::new(),
            peers: HashMap::new(),
        }
    }

    fn decayed(&self, e: &Ewma) -> f64 {
        let dt = (self.tick - e.at) as f64;
        e.value * (-dt / self.half_life).exp2()
    }

    /// Records one probe for `key` served by peer `served_by`; advances the
    /// clock and returns the key's updated load.
    fn observe(&mut self, key: RingId, served_by: usize) -> f64 {
        self.tick += 1;
        let tick = self.tick;
        let half_life = self.half_life;
        let bump = |slot: &mut Ewma| {
            let dt = (tick - slot.at) as f64;
            slot.value = slot.value * (-dt / half_life).exp2() + 1.0;
            slot.at = tick;
        };
        let key_slot = self.keys.entry(key).or_insert(Ewma {
            value: 0.0,
            at: tick,
        });
        bump(key_slot);
        let key_load = key_slot.value;
        let peer_slot = self.peers.entry(served_by).or_insert(Ewma {
            value: 0.0,
            at: tick,
        });
        bump(peer_slot);
        key_load
    }

    /// The key's current (decayed) EWMA probe load.
    fn key_load(&self, key: RingId) -> f64 {
        self.keys.get(&key).map(|e| self.decayed(e)).unwrap_or(0.0)
    }

    /// The peer's current (decayed) EWMA serve load.
    fn peer_load(&self, peer: usize) -> f64 {
        self.peers
            .get(&peer)
            .map(|e| self.decayed(e))
            .unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------------
// Manager state carried by the Dht
// ---------------------------------------------------------------------------

/// Counters describing the replication subsystem's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Keys replicated onto their successor set (hysteresis upward crossings).
    pub replications: u64,
    /// Replica sets withdrawn after cooling down.
    pub withdrawals: u64,
    /// Probes served by a replica instead of the primary.
    pub replica_serves: u64,
    /// Publish-path refreshes of existing replica copies.
    pub syncs: u64,
    /// Primary values recovered from a replica after an abrupt failure.
    pub recovered: u64,
    /// Per-holder `(version, checksum)` digest exchanges performed by
    /// anti-entropy repair rounds (see [`Dht::repair_round`]).
    pub digests_exchanged: u64,
    /// Stale, missing or corrupt replica copies refreshed from the freshest
    /// live holder by anti-entropy repair.
    pub repairs_pulled: u64,
}

/// The compact per-key metadata holders exchange during an anti-entropy
/// repair round: which content version a copy corresponds to and a checksum
/// of its replicated bytes (see
/// [`alvisp2p_netsim::WireSize::content_digest`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyDigest {
    /// Monotonic content version of the copy, bumped on every publish-path
    /// sync of the key.
    pub version: u64,
    /// Content checksum of the copy's bytes.
    pub checksum: u64,
}

impl CopyDigest {
    /// Wire bytes of one [`CopyDigest`] message: the key identifier plus the
    /// version and checksum words.
    pub const WIRE_BYTES: usize = 24;
}

const DIGEST_BYTES: usize = CopyDigest::WIRE_BYTES;

/// The replication bookkeeping carried by a [`Dht`]: the active policy, the
/// EWMA load tracker and the replica directory (key → holder peer indices).
#[derive(Debug)]
pub struct ReplicaManager {
    policy: Arc<dyn ReplicationPolicy>,
    tracker: LoadTracker,
    directory: BTreeMap<RingId, Vec<usize>>,
    stats: ReplicaStats,
    /// Whether the churn loop drives periodic [`Dht::repair_round`]s.
    /// Default `false`: the repair-disabled overlay is byte-identical to the
    /// pre-repair one.
    repair_enabled: bool,
    /// Monotonic content version of each replicated key's canonical (primary)
    /// copy; bumped on every publish-path sync.
    versions: HashMap<RingId, u64>,
    /// Content version each holder's copy corresponds to — stale when it
    /// lags the key's canonical version.
    holder_versions: HashMap<(RingId, usize), u64>,
    /// Replica copies marked bit-rotted by fault injection; their digest no
    /// longer matches their recorded version.
    corrupt: BTreeSet<(RingId, usize)>,
    /// Sequence number of the next replica-sync operation (what
    /// [`Dht::sync_replicas`] hands its caller's loss decision).
    sync_seq: u64,
}

impl ReplicaManager {
    pub(crate) fn new(policy: Arc<dyn ReplicationPolicy>) -> Self {
        let half_life = policy.half_life();
        ReplicaManager {
            policy,
            tracker: LoadTracker::new(half_life),
            directory: BTreeMap::new(),
            stats: ReplicaStats::default(),
            repair_enabled: false,
            versions: HashMap::new(),
            holder_versions: HashMap::new(),
            corrupt: BTreeSet::new(),
            sync_seq: 0,
        }
    }

    /// Whether periodic anti-entropy repair is driven from the churn loop.
    pub fn repair_enabled(&self) -> bool {
        self.repair_enabled
    }

    /// The canonical content version of a replicated key (`0` for a key that
    /// has never been replicated or synced).
    pub fn content_version(&self, key: RingId) -> u64 {
        self.versions.get(&key).copied().unwrap_or(0)
    }

    /// The content version `holder`'s copy of `key` corresponds to.
    pub fn holder_version(&self, key: RingId, holder: usize) -> u64 {
        self.holder_versions
            .get(&(key, holder))
            .copied()
            .unwrap_or(0)
    }

    /// Whether `holder`'s copy of `key` is marked bit-rotted.
    pub fn is_copy_corrupt(&self, key: RingId, holder: usize) -> bool {
        self.corrupt.contains(&(key, holder))
    }

    /// Records that `holder` received a fresh copy of `key` at `version`.
    fn note_copy(&mut self, key: RingId, holder: usize, version: u64) {
        self.holder_versions.insert((key, holder), version);
        self.corrupt.remove(&(key, holder));
    }

    /// Drops the per-holder metadata of `holder`'s copy of `key`.
    fn drop_copy_meta(&mut self, key: RingId, holder: usize) {
        self.holder_versions.remove(&(key, holder));
        self.corrupt.remove(&(key, holder));
    }

    /// The active replication policy.
    pub fn policy(&self) -> &Arc<dyn ReplicationPolicy> {
        &self.policy
    }

    /// Activity counters.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// Number of currently replicated keys.
    pub fn replicated_keys(&self) -> usize {
        self.directory.len()
    }

    /// Whether `key` currently has a replica set.
    pub fn is_replicated(&self, key: RingId) -> bool {
        self.directory.contains_key(&key)
    }

    /// All currently replicated keys, in ring order.
    pub fn replicated_key_list(&self) -> Vec<RingId> {
        self.directory.keys().copied().collect()
    }

    /// The key's current EWMA probe load.
    pub fn key_load(&self, key: RingId) -> f64 {
        self.tracker.key_load(key)
    }

    /// The peer's current EWMA serve load.
    pub fn peer_load(&self, peer: usize) -> f64 {
        self.tracker.peer_load(peer)
    }

    pub(crate) fn observe(&mut self, key: RingId, served_by: usize) -> f64 {
        self.tracker.observe(key, served_by)
    }

    pub(crate) fn holders_raw(&self, key: RingId) -> Vec<usize> {
        self.directory.get(&key).cloned().unwrap_or_default()
    }

    pub(crate) fn set_holders(&mut self, key: RingId, holders: Vec<usize>) {
        self.directory.insert(key, holders);
    }

    pub(crate) fn remove_holders(&mut self, key: RingId) -> Option<Vec<usize>> {
        self.directory.remove(&key)
    }

    pub(crate) fn stats_mut(&mut self) -> &mut ReplicaStats {
        &mut self.stats
    }
}

/// What a [`Dht::reconverge_replicas`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconvergeReport {
    /// Primary values recovered from a surviving replica.
    pub recovered: usize,
    /// Replica copies (re)placed onto new successor-set members.
    pub refreshed: usize,
    /// Replicated keys whose every copy was lost (bookkeeping dropped).
    pub lost: usize,
}

/// What one [`Dht::repair_round`] anti-entropy pass found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Replicated keys whose holder set was checked.
    pub keys_checked: usize,
    /// Per-holder `(version, checksum)` digest exchanges performed.
    pub digests_exchanged: usize,
    /// Copies found lagging the canonical content version.
    pub stale: usize,
    /// Holders found without any copy of a key they should hold.
    pub missing: usize,
    /// Copies whose checksum disagreed with their recorded version (bit rot).
    pub corrupt: usize,
    /// Fresh copies pulled from the freshest live holder.
    pub repaired: usize,
}

impl RepairReport {
    /// Total divergent copies the pass detected.
    pub fn divergent(&self) -> usize {
        self.stale + self.missing + self.corrupt
    }
}

// ---------------------------------------------------------------------------
// Replica-aware overlay operations
// ---------------------------------------------------------------------------

impl<V: Clone + WireSize> Dht<V> {
    /// Replaces the replication policy, withdrawing any existing replicas
    /// first (the new policy starts from a clean slate).
    pub fn set_replication_policy(&mut self, policy: Arc<dyn ReplicationPolicy>) {
        for key in self.replication().replicated_key_list() {
            self.withdraw_replicas(key);
        }
        // The repair switch outlives policy swaps: it describes the
        // maintenance loop, not the policy.
        let repair_enabled = self.replication().repair_enabled;
        *self.replicas_mut() = ReplicaManager::new(policy);
        self.replicas_mut().repair_enabled = repair_enabled;
    }

    /// Turns the churn-driven anti-entropy repair loop on or off (off by
    /// default; see [`Dht::repair_round`]).
    pub fn set_repair_enabled(&mut self, enabled: bool) {
        self.replicas_mut().repair_enabled = enabled;
    }

    /// Marks `holder`'s replica copy of `key` bit-rotted (fault injection):
    /// its digest no longer matches its content, which the next repair round
    /// detects and fixes. Returns whether the holder actually held a copy.
    pub fn corrupt_replica_copy(&mut self, key: RingId, holder: usize) -> bool {
        if holder < self.peer_slots() && self.peer(holder).replica_store.contains(&key) {
            self.replicas_mut().corrupt.insert((key, holder));
            true
        } else {
            false
        }
    }

    /// The first `factor` live ring successors of `key`'s responsible peer —
    /// where the key's replicas are placed. Never contains the primary.
    pub fn replica_targets(&self, key: RingId, factor: usize) -> Vec<usize> {
        let Ok(primary) = self.responsible_for(key) else {
            return Vec::new();
        };
        let ring = self.ring();
        let Some(rank) = ring.rank_of(self.peer(primary).id) else {
            return Vec::new();
        };
        let n = ring.len();
        let mut targets = Vec::new();
        for step in 1..n {
            if targets.len() >= factor {
                break;
            }
            let (_, idx) = ring.at_rank(rank + step);
            if idx != primary && !targets.contains(&idx) {
                targets.push(idx);
            }
        }
        targets
    }

    /// The live peers currently holding a replica of `key` (primary excluded).
    pub fn replica_holders(&self, key: RingId) -> Vec<usize> {
        let mut holders = self.replication().holders_raw(key);
        holders.retain(|&h| {
            h < self.peer_slots() && self.peer(h).alive && self.peer(h).replica_store.contains(&key)
        });
        holders
    }

    /// The least-loaded live holder of `key` (primary included), by EWMA serve
    /// load with the primary winning ties — the probe-routing decision.
    pub fn least_loaded_holder(&self, key: RingId) -> Option<usize> {
        let primary = self.responsible_for(key).ok()?;
        let mut best = primary;
        let mut best_load = self.replication().peer_load(primary);
        for h in self.replica_holders(key) {
            let load = self.replication().peer_load(h);
            if load < best_load {
                best = h;
                best_load = load;
            }
        }
        Some(best)
    }

    /// Feeds one observed probe for `key` (served by peer `served_by`) into
    /// the load tracker and applies the policy's hysteresis: a key crossing
    /// the hot threshold is replicated onto its successor set, a replicated
    /// key that cooled below the withdraw threshold has its copies revoked.
    ///
    /// No-op (and free) under a policy that does not track, such as
    /// [`NoReplication`].
    pub fn record_probe(&mut self, key: RingId, served_by: usize) {
        if !self.replication().policy().tracks() {
            return;
        }
        let load = self.replicas_mut().observe(key, served_by);
        if let Ok(primary) = self.responsible_for(key) {
            if served_by != primary {
                self.replicas_mut().stats_mut().replica_serves += 1;
            }
        }
        let replicated = self.replication().is_replicated(key);
        let (replicate, withdraw) = {
            let policy = self.replication().policy();
            (
                !replicated && policy.should_replicate(load),
                replicated && policy.should_withdraw(load),
            )
        };
        if withdraw {
            self.withdraw_replicas(key);
        } else if replicate {
            self.replicate_key(key);
        }
    }

    /// Copies `key`'s stored value onto its successor-set targets and records
    /// the replica set in the directory. Transfer bytes are charged to
    /// [`TrafficCategory::Overlay`]. No-op if the key has no stored value.
    fn replicate_key(&mut self, key: RingId) {
        let factor = self.replication().policy().replication_factor();
        if factor == 0 {
            return;
        }
        let Ok(primary) = self.responsible_for(key) else {
            return;
        };
        let Some(value) = self.peer(primary).store.get(&key).cloned() else {
            return;
        };
        let targets = self.replica_targets(key, factor);
        if targets.is_empty() {
            return;
        }
        let version = {
            let m = self.replicas_mut();
            let v = m.versions.entry(key).or_insert(0);
            if *v == 0 {
                *v = 1;
            }
            *v
        };
        let bytes_per_copy = 8 + value.wire_size() + ENVELOPE_OVERHEAD;
        for &t in &targets {
            self.peer_mut(t).replica_store.insert(key, value.clone());
            self.replicas_mut().note_copy(key, t, version);
            self.record_overlay(bytes_per_copy);
        }
        self.replicas_mut().set_holders(key, targets);
        self.replicas_mut().stats_mut().replications += 1;
    }

    /// Revokes all replica copies of `key` (small control message per holder,
    /// charged to [`TrafficCategory::Overlay`]). Returns whether the key was
    /// replicated.
    pub fn withdraw_replicas(&mut self, key: RingId) -> bool {
        let Some(holders) = self.replicas_mut().remove_holders(key) else {
            return false;
        };
        for h in holders {
            if h < self.peer_slots() {
                self.peer_mut(h).replica_store.remove(&key);
            }
            self.replicas_mut().drop_copy_meta(key, h);
            self.record_overlay(16 + ENVELOPE_OVERHEAD);
        }
        self.replicas_mut().stats_mut().withdrawals += 1;
        true
    }

    /// Refreshes every replica copy of `key` from the primary's current value
    /// (called by the layer above after mutating the primary, so copies stay
    /// byte-identical and any holder can serve). Transfer bytes are charged to
    /// `category`. No-op if the key is not replicated.
    ///
    /// Each sync operation bumps the key's canonical content version, and each
    /// per-holder message crosses the (possibly faulty) wire independently.
    /// The overlay holds no fault state: it asks `lost(sync_seq, recipient)`
    /// — the operation's sequence number and the holder's position in the
    /// replica set — whether the message to that live holder is dropped. A
    /// dropped message still charges its bytes but leaves that holder's copy —
    /// and its recorded version — **stale**, until anti-entropy repair pulls a
    /// fresh one. `|_, _| false` is the fault-free wire.
    pub fn sync_replicas(
        &mut self,
        key: RingId,
        category: TrafficCategory,
        mut lost: impl FnMut(u64, u32) -> bool,
    ) {
        let holders = self.replication().holders_raw(key);
        if holders.is_empty() {
            return;
        }
        let Ok(primary) = self.responsible_for(key) else {
            return;
        };
        let Some(value) = self.peer(primary).store.get(&key).cloned() else {
            // The primary value is gone (evicted/removed): the copies go too.
            self.withdraw_replicas(key);
            return;
        };
        let (version, seq) = {
            let m = self.replicas_mut();
            let v = m.versions.entry(key).or_insert(0);
            *v += 1;
            let version = *v;
            let seq = m.sync_seq;
            m.sync_seq += 1;
            (version, seq)
        };
        let bytes = 8 + value.wire_size();
        for (recipient, h) in holders.into_iter().enumerate() {
            if h < self.peer_slots() && self.peer(h).alive {
                self.charge_external(category, bytes);
                if lost(seq, recipient as u32) {
                    // Dropped in flight: the holder keeps its stale copy.
                    continue;
                }
                self.peer_mut(h).replica_store.insert(key, value.clone());
                self.replicas_mut().note_copy(key, h, version);
            }
        }
        self.replicas_mut().stats_mut().syncs += 1;
    }

    /// Re-converges every replica set after a membership change: recovers a
    /// failed primary's value from a surviving replica, re-targets each set at
    /// the current successor list, places missing copies and removes copies
    /// from peers that left the set. Called by
    /// [`Dht::join`]/[`Dht::leave`]/[`Dht::fail`]; free under
    /// [`NoReplication`] (empty directory).
    pub fn reconverge_replicas(&mut self) -> ReconvergeReport {
        let mut report = ReconvergeReport::default();
        let factor = self.replication().policy().replication_factor();
        for key in self.replication().replicated_key_list() {
            let Ok(primary) = self.responsible_for(key) else {
                self.replicas_mut().remove_holders(key);
                continue;
            };
            // Recover or promote the value if the current primary lacks it
            // (its previous owner failed, or responsibility moved onto a
            // peer that held a replica).
            if !self.peer(primary).store.contains(&key) {
                if let Some(v) = self.peer_mut(primary).replica_store.remove(&key) {
                    self.peer_mut(primary).store.insert(key, v);
                    self.replicas_mut().drop_copy_meta(key, primary);
                    report.recovered += 1;
                } else {
                    let copy = self
                        .replication()
                        .holders_raw(key)
                        .into_iter()
                        .filter(|&h| h < self.peer_slots() && self.peer(h).alive)
                        .find_map(|h| self.peer(h).replica_store.get(&key).cloned());
                    if let Some(v) = copy {
                        let bytes = 8 + v.wire_size() + ENVELOPE_OVERHEAD;
                        self.peer_mut(primary).store.insert(key, v);
                        self.record_overlay(bytes);
                        report.recovered += 1;
                    }
                }
            }
            if !self.peer(primary).store.contains(&key) {
                // Every copy died with its holder: the entry is gone (the
                // layer above re-publishes, as with any abrupt failure).
                if let Some(old) = self.replicas_mut().remove_holders(key) {
                    for h in old {
                        if h < self.peer_slots() {
                            self.peer_mut(h).replica_store.remove(&key);
                        }
                        self.replicas_mut().drop_copy_meta(key, h);
                    }
                }
                report.lost += 1;
                continue;
            }
            // Re-target the set at the current successor list.
            let targets = self.replica_targets(key, factor);
            let old = self.replication().holders_raw(key);
            for h in old {
                if !targets.contains(&h) && h < self.peer_slots() {
                    self.peer_mut(h).replica_store.remove(&key);
                    self.replicas_mut().drop_copy_meta(key, h);
                }
            }
            if targets.is_empty() {
                self.replicas_mut().remove_holders(key);
                continue;
            }
            let value = self
                .peer(primary)
                .store
                .get(&key)
                .cloned()
                .expect("checked above");
            let version = self.replication().content_version(key).max(1);
            let bytes_per_copy = 8 + value.wire_size() + ENVELOPE_OVERHEAD;
            for &t in &targets {
                if !self.peer(t).replica_store.contains(&key) {
                    self.peer_mut(t).replica_store.insert(key, value.clone());
                    self.replicas_mut().note_copy(key, t, version);
                    self.record_overlay(bytes_per_copy);
                    report.refreshed += 1;
                }
            }
            self.replicas_mut().set_holders(key, targets);
        }
        self.replicas_mut().stats_mut().recovered += report.recovered as u64;
        report
    }

    /// One anti-entropy repair pass over every replicated key (see
    /// [`Dht::repair_round_excluding`] for the variant that skips known
    /// unresponsive peers).
    pub fn repair_round(&mut self) -> RepairReport {
        self.repair_round_excluding(&BTreeSet::new())
    }

    /// One anti-entropy repair pass over every replicated key, skipping
    /// `unresponsive` peers (crashed-but-not-departed peers the layer above
    /// knows about; digest exchanges with them would go unanswered).
    ///
    /// For each key, the pass picks the freshest live holder — the primary
    /// when reachable (its copy is canonical by construction), otherwise the
    /// responsive holder with the highest received version and an unrotted
    /// copy — then exchanges a compact [`CopyDigest`] with every other
    /// responsive holder. A holder whose digest is missing, lags the source's
    /// version, or disagrees with its checksum pulls a fresh copy from the
    /// source. Digest and transfer bytes are charged to
    /// [`TrafficCategory::Overlay`] — repair is control-plane traffic, never
    /// Retrieval.
    pub fn repair_round_excluding(&mut self, unresponsive: &BTreeSet<usize>) -> RepairReport {
        let mut report = RepairReport::default();
        for key in self.replication().replicated_key_list() {
            let holders = self.replication().holders_raw(key);
            if holders.is_empty() {
                continue;
            }
            let responsive = |dht: &Self, p: usize| {
                p < dht.peer_slots() && dht.peer(p).alive && !unresponsive.contains(&p)
            };
            // The freshest live source of the key's content.
            let primary = self.responsible_for(key).ok();
            let source = match primary {
                Some(p) if responsive(self, p) && self.peer(p).store.contains(&key) => Some(p),
                _ => holders
                    .iter()
                    .copied()
                    .filter(|&h| {
                        responsive(self, h)
                            && self.peer(h).replica_store.contains(&key)
                            && !self.replication().is_copy_corrupt(key, h)
                    })
                    .max_by_key(|&h| self.replication().holder_version(key, h)),
            };
            let Some(source) = source else {
                // No responsive holder with a trustworthy copy: nothing to
                // repair from this round.
                continue;
            };
            let from_primary = primary == Some(source);
            let value = if from_primary {
                self.peer(source).store.get(&key).cloned()
            } else {
                self.peer(source).replica_store.get(&key).cloned()
            };
            let Some(value) = value else { continue };
            let src_digest = CopyDigest {
                version: self.replication().content_version(key).max(1),
                checksum: value.content_digest(),
            };
            report.keys_checked += 1;
            let transfer_bytes = 8 + value.wire_size() + ENVELOPE_OVERHEAD;
            for h in holders {
                if h == source || !responsive(self, h) {
                    continue;
                }
                // The digest exchange: one request, one response.
                self.record_overlay(2 * (DIGEST_BYTES + ENVELOPE_OVERHEAD));
                report.digests_exchanged += 1;
                self.replicas_mut().stats_mut().digests_exchanged += 1;
                let holder_digest = self.peer(h).replica_store.get(&key).map(|copy| CopyDigest {
                    version: self.replication().holder_version(key, h),
                    checksum: if self.replication().is_copy_corrupt(key, h) {
                        // Bit rot: the stored bytes no longer hash to what
                        // the holder's metadata claims.
                        !copy.content_digest()
                    } else {
                        copy.content_digest()
                    },
                });
                let divergent = match holder_digest {
                    None => {
                        report.missing += 1;
                        true
                    }
                    Some(d) if d.version != src_digest.version => {
                        report.stale += 1;
                        true
                    }
                    Some(d) if d.checksum != src_digest.checksum => {
                        report.corrupt += 1;
                        true
                    }
                    Some(_) => false,
                };
                if divergent {
                    self.peer_mut(h).replica_store.insert(key, value.clone());
                    self.replicas_mut().note_copy(key, h, src_digest.version);
                    self.record_overlay(transfer_bytes);
                    report.repaired += 1;
                    self.replicas_mut().stats_mut().repairs_pulled += 1;
                }
            }
        }
        report
    }

    /// Fraction of live replica copies byte-identical to their key's
    /// canonical (primary) content, `1.0` when nothing is replicated — the
    /// consistency figure the chaos benchmark tracks. See
    /// [`Dht::replica_consistency_excluding`].
    pub fn replica_consistency(&self) -> f64 {
        self.replica_consistency_excluding(&BTreeSet::new())
    }

    /// Like [`Dht::replica_consistency`], but ignores copies held by
    /// `unresponsive` peers (a crashed holder's copy can neither serve nor be
    /// repaired until it recovers or departs).
    pub fn replica_consistency_excluding(&self, unresponsive: &BTreeSet<usize>) -> f64 {
        let mut total = 0usize;
        let mut consistent = 0usize;
        for key in self.replication().replicated_key_list() {
            let Ok(primary) = self.responsible_for(key) else {
                continue;
            };
            if unresponsive.contains(&primary) {
                continue;
            }
            let Some(canonical) = self.peer(primary).store.get(&key) else {
                continue;
            };
            let canon_digest = canonical.content_digest();
            for h in self.replication().holders_raw(key) {
                if h >= self.peer_slots() || !self.peer(h).alive || unresponsive.contains(&h) {
                    continue;
                }
                total += 1;
                let ok = !self.replication().is_copy_corrupt(key, h)
                    && self
                        .peer(h)
                        .replica_store
                        .get(&key)
                        .is_some_and(|copy| copy.content_digest() == canon_digest);
                if ok {
                    consistent += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            consistent as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DhtConfig;

    fn hot_dht(n: usize, factor: usize) -> Dht<Vec<u8>> {
        let mut dht: Dht<Vec<u8>> = Dht::with_peers(DhtConfig::default(), 11, n);
        dht.set_replication_policy(Arc::new(HotKeyReplication::new(factor)));
        dht
    }

    fn heat(dht: &mut Dht<Vec<u8>>, key: RingId, probes: usize) {
        let primary = dht.responsible_for(key).unwrap();
        for _ in 0..probes {
            dht.record_probe(key, primary);
        }
    }

    /// Stores a new primary value and syncs the replicas, dropping every sync
    /// message when `lost`.
    fn update(dht: &mut Dht<Vec<u8>>, key: RingId, value: Vec<u8>, lost: bool) {
        dht.put(0, key, value, TrafficCategory::Indexing).unwrap();
        dht.sync_replicas(key, TrafficCategory::Indexing, |_, _| lost);
    }

    fn no_replica_copies(dht: &Dht<Vec<u8>>) -> bool {
        (0..dht.peer_slots()).all(|p| dht.peer(p).replica_store.is_empty())
    }

    #[test]
    fn tracker_decays_with_half_life() {
        let mut t = LoadTracker::new(4.0);
        let key = RingId(1);
        for _ in 0..3 {
            t.observe(key, 0);
        }
        let hot = t.key_load(key);
        assert!(hot > 2.0, "three consecutive probes accumulate, got {hot}");
        // Four probes for other keys later, the load has halved.
        for i in 0..4u64 {
            t.observe(RingId(100 + i), 1);
        }
        let cooled = t.key_load(key);
        assert!(
            (cooled - hot / 2.0).abs() < 1e-9,
            "half-life decay: {hot} -> {cooled}"
        );
        assert!(t.peer_load(0) > 0.0 && t.peer_load(1) > 0.0);
        assert_eq!(t.tick, 7);
    }

    #[test]
    fn no_replication_tracks_nothing_and_replicates_nothing() {
        let mut dht: Dht<Vec<u8>> = Dht::with_peers(DhtConfig::default(), 3, 16);
        let key = RingId::hash_str("cold");
        dht.put(0, key, vec![1], TrafficCategory::Indexing).unwrap();
        heat(&mut dht, key, 200);
        assert_eq!(dht.replication().replicated_keys(), 0);
        assert_eq!(dht.replication().tracker.tick, 0);
        assert!(dht.replica_holders(key).is_empty());
        assert!(no_replica_copies(&dht));
    }

    #[test]
    fn hot_key_crosses_threshold_and_cools_back_down() {
        let mut dht: Dht<Vec<u8>> = Dht::with_peers(DhtConfig::default(), 11, 24);
        dht.set_replication_policy(Arc::new(HotKeyReplication {
            cool_threshold: 1.5,
            ..HotKeyReplication::new(3)
        }));
        let key = RingId::hash_str("head term");
        dht.put(0, key, vec![9; 32], TrafficCategory::Indexing)
            .unwrap();
        heat(&mut dht, key, 10);
        assert!(dht.replication().is_replicated(key));
        let holders = dht.replica_holders(key);
        assert_eq!(holders.len(), 3);
        let primary = dht.responsible_for(key).unwrap();
        assert!(!holders.contains(&primary), "replica set excludes primary");
        assert_eq!(
            holders,
            dht.replica_targets(key, 3),
            "successor-set placement"
        );
        let stats = dht.replication().stats();
        assert_eq!(stats.replications, 1);

        // Cooling: probes for other keys decay the EWMA, so the key's next
        // probe finds it below the withdraw threshold.
        for i in 0..2_000u64 {
            let other = RingId::hash_u64(i);
            dht.record_probe(other, dht.responsible_for(other).unwrap());
        }
        assert!(dht.replication().is_replicated(key));
        heat(&mut dht, key, 1);
        assert!(!dht.replication().is_replicated(key));
        assert!(dht.replica_holders(key).is_empty());
        assert_eq!(dht.replication().stats().withdrawals, 1);
    }

    #[test]
    fn replication_charges_overlay_traffic_only() {
        let mut dht = hot_dht(16, 2);
        let key = RingId::hash_str("charged");
        dht.put(0, key, vec![7; 100], TrafficCategory::Indexing)
            .unwrap();
        let before = dht.stats_snapshot();
        heat(&mut dht, key, 10);
        let delta = dht.stats_snapshot().since(&before);
        assert!(delta.category(TrafficCategory::Overlay).bytes >= 2 * 100);
        assert_eq!(delta.category(TrafficCategory::Retrieval).bytes, 0);
        assert_eq!(delta.category(TrafficCategory::Indexing).bytes, 0);
    }

    #[test]
    fn least_loaded_holder_spreads_serves() {
        let mut dht = hot_dht(24, 3);
        let key = RingId::hash_str("balanced");
        dht.put(0, key, vec![1, 2], TrafficCategory::Indexing)
            .unwrap();
        heat(&mut dht, key, 10);
        // Serve each probe where the probe path does, at the least-loaded
        // holder; the serves should now be spread over primary + 3 replicas
        // instead of hammering one peer, and every holder has the value.
        let mut served = std::collections::BTreeMap::new();
        for _ in 0..80 {
            let by = dht.least_loaded_holder(key).unwrap();
            let holder = dht.peer(by);
            let value = holder.store.get(&key).or(holder.replica_store.get(&key));
            assert_eq!(value, Some(&vec![1, 2]));
            dht.record_probe(key, by);
            *served.entry(by).or_insert(0u64) += 1;
        }
        assert!(served.len() >= 3, "serves spread over holders: {served:?}");
        let max = served.values().max().copied().unwrap();
        assert!(max <= 40, "no single holder serves everything: {served:?}");
        assert!(dht.replication().stats().replica_serves > 0);
    }

    #[test]
    fn sync_keeps_copies_identical_after_updates() {
        let mut dht = hot_dht(16, 2);
        let key = RingId::hash_str("synced");
        dht.put(0, key, vec![1], TrafficCategory::Indexing).unwrap();
        heat(&mut dht, key, 10);
        dht.put(0, key, vec![1, 2, 3], TrafficCategory::Indexing)
            .unwrap();
        // The overlay asks about each live holder of the first sync
        // operation, in replica-set order.
        let mut asked = Vec::new();
        dht.sync_replicas(key, TrafficCategory::Indexing, |seq, recipient| {
            asked.push((seq, recipient));
            false
        });
        assert_eq!(asked, vec![(0, 0), (0, 1)]);
        for h in dht.replica_holders(key) {
            assert_eq!(dht.peer(h).replica_store.get(&key), Some(&vec![1, 2, 3]));
        }
        assert!(dht.replication().stats().syncs > 0);
    }

    #[test]
    fn failed_primary_recovers_from_a_replica() {
        let mut dht = hot_dht(24, 3);
        let key = RingId::hash_str("survivor");
        dht.put(0, key, vec![42; 16], TrafficCategory::Indexing)
            .unwrap();
        heat(&mut dht, key, 10);
        let primary = dht.responsible_for(key).unwrap();
        let lost = dht.fail(primary).unwrap();
        assert_eq!(lost, 0, "the replicated key is recovered, not lost");
        // The new primary holds the value; the set re-converged onto the new
        // successor list.
        let new_primary = dht.responsible_for(key).unwrap();
        assert_ne!(new_primary, primary);
        assert_eq!(dht.peer(new_primary).store.get(&key), Some(&vec![42; 16]));
        let holders = dht.replica_holders(key);
        assert_eq!(holders, dht.replica_targets(key, 3));
        assert!(!holders.contains(&new_primary));
        assert!(dht.replication().stats().recovered >= 1);
        // And it is still readable over the overlay.
        let origin = dht.live_peer_indices()[0];
        let (_, v) = dht.get(origin, key, TrafficCategory::Retrieval).unwrap();
        assert_eq!(v, Some(vec![42; 16]));
    }

    #[test]
    fn join_retargets_replica_sets() {
        let mut dht = hot_dht(16, 2);
        let key = RingId::hash_str("moving");
        dht.put(0, key, vec![5; 8], TrafficCategory::Indexing)
            .unwrap();
        heat(&mut dht, key, 10);
        // Join a peer right at the key so it takes over as primary.
        let new_idx = dht.join(key).expect("fresh id");
        assert_eq!(dht.responsible_for(key).unwrap(), new_idx);
        assert!(
            dht.peer(new_idx).store.contains(&key),
            "handoff moved the value"
        );
        let holders = dht.replica_holders(key);
        assert_eq!(holders, dht.replica_targets(key, 2));
        assert!(!holders.contains(&new_idx));
        assert!(
            !dht.peer(new_idx).replica_store.contains(&key),
            "a promoted primary keeps no replica copy"
        );
    }

    #[test]
    fn set_policy_withdraws_existing_replicas() {
        let mut dht = hot_dht(16, 2);
        let key = RingId::hash_str("reset");
        dht.put(0, key, vec![1], TrafficCategory::Indexing).unwrap();
        heat(&mut dht, key, 10);
        assert_eq!(dht.replication().replicated_keys(), 1);
        dht.set_replication_policy(Arc::new(NoReplication));
        assert_eq!(dht.replication().replicated_keys(), 0);
        assert!(no_replica_copies(&dht));
        assert_eq!(dht.replication().policy().label(), "none");
    }

    #[test]
    fn lost_syncs_leave_stale_copies_and_repair_pulls_them_fresh() {
        let mut dht = hot_dht(24, 3);
        let key = RingId::hash_str("stale prone");
        dht.put(0, key, vec![1], TrafficCategory::Indexing).unwrap();
        heat(&mut dht, key, 10);
        assert_eq!(dht.replica_holders(key).len(), 3);
        assert_eq!(dht.replica_consistency(), 1.0, "placement itself is clean");
        // An update whose syncs are all dropped: holders keep the old copy.
        update(&mut dht, key, vec![9, 9, 9], true);
        assert!(dht.replica_consistency() < 1.0);
        for h in dht.replica_holders(key) {
            assert_eq!(dht.peer(h).replica_store.get(&key), Some(&vec![1]));
        }
        // Repair detects the stale copies via the version digests and pulls
        // fresh ones from the primary, charging Overlay only.
        let before = dht.stats_snapshot();
        let report = dht.repair_round();
        assert_eq!(report.stale, 3);
        assert_eq!(report.repaired, 3);
        assert_eq!(dht.replica_consistency(), 1.0);
        for h in dht.replica_holders(key) {
            assert_eq!(dht.peer(h).replica_store.get(&key), Some(&vec![9, 9, 9]));
        }
        let delta = dht.stats_snapshot().since(&before);
        assert!(delta.category(TrafficCategory::Overlay).bytes > 0);
        assert_eq!(delta.category(TrafficCategory::Retrieval).bytes, 0);
        let stats = dht.replication().stats();
        assert_eq!(stats.digests_exchanged, 3);
        assert_eq!(stats.repairs_pulled, 3);
        // A second round finds nothing to do (convergence).
        let report = dht.repair_round();
        assert_eq!(report.divergent(), 0);
        assert_eq!(report.repaired, 0);
    }

    #[test]
    fn corrupt_copies_are_detected_and_repaired() {
        let mut dht = hot_dht(24, 2);
        let key = RingId::hash_str("bit rot");
        dht.put(0, key, vec![7; 16], TrafficCategory::Indexing)
            .unwrap();
        heat(&mut dht, key, 10);
        let holders = dht.replica_holders(key);
        assert!(dht.corrupt_replica_copy(key, holders[0]));
        assert!(dht.replication().is_copy_corrupt(key, holders[0]));
        assert!(dht.replica_consistency() < 1.0);
        let report = dht.repair_round();
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.repaired, 1);
        assert!(!dht.replication().is_copy_corrupt(key, holders[0]));
        assert_eq!(dht.replica_consistency(), 1.0);
        // Corrupting a non-holder is a no-op.
        let primary = dht.responsible_for(key).unwrap();
        assert!(!dht.corrupt_replica_copy(key, primary));
    }

    #[test]
    fn repair_skips_unresponsive_peers_and_sources_from_the_freshest() {
        let mut dht = hot_dht(24, 3);
        let key = RingId::hash_str("partial repair");
        dht.put(0, key, vec![1], TrafficCategory::Indexing).unwrap();
        heat(&mut dht, key, 10);
        update(&mut dht, key, vec![2, 2], true);
        let holders = dht.replica_holders(key);
        let down: BTreeSet<usize> = [holders[0]].into();
        let report = dht.repair_round_excluding(&down);
        // Only the responsive holders were checked and fixed.
        assert_eq!(report.digests_exchanged, 2);
        assert_eq!(report.repaired, 2);
        assert_eq!(dht.peer(holders[0]).replica_store.get(&key), Some(&vec![1]));
        assert!(dht.replica_consistency_excluding(&down) >= 1.0);
        assert!(dht.replica_consistency() < 1.0, "the down holder is stale");
        // Once responsive again, the next round fixes the last copy.
        let report = dht.repair_round();
        assert_eq!(report.repaired, 1);
        assert_eq!(dht.replica_consistency(), 1.0);
    }

    #[test]
    fn repair_disabled_overlay_stays_clean_without_faults() {
        let mut dht = hot_dht(16, 2);
        assert!(!dht.replication().repair_enabled());
        let key = RingId::hash_str("healthy");
        dht.put(0, key, vec![3; 8], TrafficCategory::Indexing)
            .unwrap();
        heat(&mut dht, key, 10);
        update(&mut dht, key, vec![4; 8], false);
        assert_eq!(dht.replica_consistency(), 1.0);
        // A repair round on a healthy overlay exchanges digests but moves no
        // bytes of content.
        let report = dht.repair_round();
        assert_eq!(report.divergent(), 0);
        assert_eq!(report.repaired, 0);
        assert!(report.digests_exchanged > 0);
    }

    #[test]
    fn replica_targets_cap_at_population() {
        let mut dht = hot_dht(3, 8);
        let key = RingId::hash_str("tiny ring");
        dht.put(0, key, vec![1], TrafficCategory::Indexing).unwrap();
        heat(&mut dht, key, 10);
        let holders = dht.replica_holders(key);
        assert_eq!(holders.len(), 2, "only n-1 replicas exist on a 3-peer ring");
    }
}

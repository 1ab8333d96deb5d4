//! The simulated DHT: peer population, routed storage operations, traffic accounting.
//!
//! [`Dht`] is the synchronous facade the information-retrieval layers (L3/L4) are
//! built on. Every operation that would cross the network in the deployed system
//! (lookups, posting-list transfers, statistics queries) is routed hop-by-hop over the
//! peers' routing tables and accounted into a [`TrafficStats`] so the experiment
//! harness can report exactly how many messages and bytes each mechanism costs.

use crate::id::RingId;
use crate::lookup::{lookup, lookup_hops};
use crate::node::Peer;
use crate::replica::{NoReplication, ReplicaManager, ReplicationPolicy};
use crate::ring::Ring;
use crate::routing::{build_routing_table_with, RoutingStrategy, SUCCESSOR_LIST_LEN};
use crate::shortcut::ShortcutStats;
use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
use alvisp2p_netsim::{PowerLaw, SimRng, TrafficCategory, TrafficStats, WireSize};
use std::sync::Arc;

/// How peer identifiers are assigned when populating a network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IdDistribution {
    /// Identifiers drawn uniformly at random (hashed addresses).
    Uniform,
    /// Identifiers concentrated near one region of the ring; `alpha >= 1` controls the
    /// skew (1 = uniform, larger = more skewed). Models load-imbalanced / partitioned
    /// identifier assignment the hop-space routing is designed to tolerate.
    Skewed(f64),
    /// Identifiers evenly spaced around the ring (idealised balanced placement).
    Evenly,
}

/// Configuration of the simulated DHT.
#[derive(Clone, Debug)]
pub struct DhtConfig {
    /// Routing-table construction strategy.
    pub strategy: RoutingStrategy,
    /// Maximum hops a lookup may take before being declared failed.
    pub max_hops: usize,
    /// Size in bytes of a lookup/forward request message (key + originator address).
    pub lookup_request_bytes: usize,
    /// How peer identifiers are assigned.
    pub id_distribution: IdDistribution,
    /// Number of ring successors every peer keeps in its routing table
    /// (defaults to [`SUCCESSOR_LIST_LEN`]). Co-tune with the replication
    /// factor of the `replication` policy: replicas are placed on the
    /// primary's first successors, so a factor no larger than this length
    /// keeps every replica inside the routing tables' successor lists.
    pub successor_list_len: usize,
    /// Policy replicating hot stored keys onto their ring successor sets
    /// (defaults to [`NoReplication`], i.e. the pre-replication semantics).
    pub replication: Arc<dyn ReplicationPolicy>,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            strategy: RoutingStrategy::HopSpace,
            max_hops: 128,
            lookup_request_bytes: 48,
            id_distribution: IdDistribution::Uniform,
            successor_list_len: SUCCESSOR_LIST_LEN,
            replication: Arc::new(NoReplication),
        }
    }
}

/// Result of a routed operation: which peer is responsible and how many overlay hops
/// the request took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteInfo {
    /// Index of the responsible peer.
    pub responsible: usize,
    /// Number of overlay hops taken by the request — for
    /// [`Dht::route_probe`], the lookup messages that did not deliver the
    /// request.
    pub hops: usize,
}

/// Error type for DHT operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DhtError {
    /// The originating peer does not exist or has left the overlay.
    BadOrigin,
    /// The lookup did not complete within the hop budget (stale routing state).
    LookupFailed,
    /// The overlay has no live peers.
    EmptyNetwork,
}

impl std::fmt::Display for DhtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhtError::BadOrigin => write!(f, "originating peer is not part of the overlay"),
            DhtError::LookupFailed => write!(f, "lookup exceeded the hop budget"),
            DhtError::EmptyNetwork => write!(f, "the overlay has no live peers"),
        }
    }
}

impl std::error::Error for DhtError {}

/// A simulated structured P2P overlay storing values of type `V`.
pub struct Dht<V> {
    peers: Vec<Peer<V>>,
    ring: Ring,
    config: DhtConfig,
    stats: TrafficStats,
    rng: SimRng,
    replicas: ReplicaManager,
    shortcut_stats: ShortcutStats,
}

impl<V: Clone + WireSize> Dht<V> {
    /// Creates an empty overlay.
    pub fn new(config: DhtConfig, seed: u64) -> Self {
        let replicas = ReplicaManager::new(Arc::clone(&config.replication));
        Dht {
            peers: Vec::new(),
            ring: Ring::new(),
            config,
            stats: TrafficStats::new(),
            rng: SimRng::new(seed).derive(0xD47),
            replicas,
            shortcut_stats: ShortcutStats::default(),
        }
    }

    /// Creates an overlay populated with `n` peers whose identifiers follow the
    /// configured [`IdDistribution`], with routing tables already built.
    pub fn with_peers(config: DhtConfig, seed: u64, n: usize) -> Self {
        let mut dht = Self::new(config, seed);
        dht.populate(n);
        dht.rebuild_routing_tables();
        dht
    }

    /// Adds `n` peers according to the configured identifier distribution
    /// (routing tables must be rebuilt afterwards).
    fn populate(&mut self, n: usize) {
        for _ in 0..n {
            let id = self.draw_id(self.peers.len(), n);
            self.add_peer_with_id(id);
        }
    }

    fn draw_id(&mut self, index: usize, total: usize) -> RingId {
        match self.config.id_distribution {
            IdDistribution::Uniform => RingId(self.rng.gen_u64()),
            IdDistribution::Skewed(alpha) => {
                let p = PowerLaw::new(alpha.max(1.0));
                RingId::from_fraction(p.sample(&mut self.rng))
            }
            IdDistribution::Evenly => {
                let total = total.max(1);
                RingId(((index as u128 * u64::MAX as u128) / total as u128) as u64)
            }
        }
    }

    /// Adds a peer with an explicit identifier; returns its index, or `None` if the
    /// identifier is already taken.
    pub fn add_peer_with_id(&mut self, id: RingId) -> Option<usize> {
        if self.ring.rank_of(id).is_some() {
            return None;
        }
        let index = self.peers.len();
        self.peers.push(Peer::new(id));
        self.ring.insert(id, index);
        Some(index)
    }

    /// Rebuilds every live peer's routing table from the current membership
    /// (the converged state of the stabilisation protocol).
    pub fn rebuild_routing_tables(&mut self) {
        for i in 0..self.peers.len() {
            if self.peers[i].alive {
                self.peers[i].table = build_routing_table_with(
                    self.peers[i].id,
                    &self.ring,
                    self.config.strategy,
                    self.config.successor_list_len,
                );
            }
        }
    }

    /// Number of live peers.
    pub fn live_peers(&self) -> usize {
        self.peers.iter().filter(|p| p.alive).count()
    }

    /// Total number of peer slots ever allocated (including departed peers).
    pub fn peer_slots(&self) -> usize {
        self.peers.len()
    }

    /// Indices of all live peers.
    pub fn live_peer_indices(&self) -> Vec<usize> {
        (0..self.peers.len())
            .filter(|i| self.peers[*i].alive)
            .collect()
    }

    /// Immutable access to a peer.
    pub fn peer(&self, index: usize) -> &Peer<V> {
        &self.peers[index]
    }

    /// Mutable access to a peer (used by the IR layer to manage co-located state).
    pub fn peer_mut(&mut self, index: usize) -> &mut Peer<V> {
        &mut self.peers[index]
    }

    /// The current ring membership view.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The configuration this overlay was built with.
    pub fn config(&self) -> &DhtConfig {
        &self.config
    }

    /// The replication subsystem's bookkeeping: active policy, load tracker
    /// and replica directory (see [`crate::replica`]).
    pub fn replication(&self) -> &ReplicaManager {
        &self.replicas
    }

    pub(crate) fn replicas_mut(&mut self) -> &mut ReplicaManager {
        &mut self.replicas
    }

    /// What the peers' shortcut tables did for [`Dht::route_probe`] so far
    /// (see [`crate::shortcut`]).
    pub fn shortcut_stats(&self) -> ShortcutStats {
        self.shortcut_stats
    }

    /// Traffic statistics accumulated by routed operations.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Resets the traffic statistics (e.g. between the indexing and retrieval phases
    /// of an experiment).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Takes a snapshot of the statistics for later differencing.
    pub fn stats_snapshot(&self) -> TrafficStats {
        self.stats.clone()
    }

    /// A deterministic RNG derived from the overlay's seed.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Routes a request for `key` from peer `from`, charging one lookup-request
    /// message per hop to `category`.
    pub fn route(
        &mut self,
        from: usize,
        key: RingId,
        category: TrafficCategory,
    ) -> Result<RouteInfo, DhtError> {
        let info = self.traverse(from, key)?;
        self.charge_lookups(category, info.hops);
        Ok(info)
    }

    /// The greedy lookup for `key` from `from`, counting every forwarder but
    /// charging nothing.
    fn traverse(&mut self, from: usize, key: RingId) -> Result<RouteInfo, DhtError> {
        self.check_origin(from)?;
        let result = lookup(&self.peers, &self.ring, from, key, self.config.max_hops)
            .ok_or(DhtError::LookupFailed)?;
        let hops = result.hops();
        // Every peer on the path but the last forwarded the request once.
        for forwarder in &result.path[..hops] {
            self.peers[*forwarder].forwarded_lookups += 1;
        }
        Ok(RouteInfo {
            responsible: result.responsible,
            hops,
        })
    }

    /// Charges `count` lookup-request messages to `category`.
    fn charge_lookups(&mut self, category: TrafficCategory, count: usize) {
        let msg = self.config.lookup_request_bytes + ENVELOPE_OVERHEAD;
        for _ in 0..count {
            self.stats.record(category, msg);
        }
    }

    /// Routes a *probe* for `key` from peer `from` and charges the lookup
    /// messages that did **not** deliver the request: the caller sends the
    /// request itself (see `GlobalIndex::probe` in `alvisp2p-core`), and it
    /// travels the last overlay step in place of a lookup message. `from`
    /// first consults its shortcut table (see [`crate::shortcut`]) and dials
    /// the primary it names instead of looking the key up again. The
    /// returned `hops` counts the lookup messages charged; the flag is
    /// `true` when a fresh shortcut carried the request.
    ///
    /// * **fresh** shortcut — the named peer is the key's primary: the
    ///   request is the dial, `hops = 0`, nothing forwarded;
    /// * **stale** shortcut — membership changed and the named peer is gone or
    ///   no longer the key's primary: that one lookup-message dial is wasted,
    ///   the entry is dropped and the request is routed (`hops = routed`:
    ///   the wasted dial plus `routed − 1`);
    /// * **no** shortcut: the greedy lookup of `routed` hops, the request
    ///   riding the final one (`hops = routed − 1`);
    /// * `from` is itself the primary (which it knows without asking
    ///   anyone): `hops = 0`.
    ///
    /// Entries come only from [`Dht::learn_shortcut`]. Only probes use this
    /// entry point; `put` / `get` / `update` / `remove` keep [`Dht::route`],
    /// which charges one lookup message per hop.
    pub fn route_probe(
        &mut self,
        from: usize,
        key: RingId,
        category: TrafficCategory,
    ) -> Result<(RouteInfo, bool), DhtError> {
        self.check_origin(from)?;
        let primary = self.responsible_for(key)?;
        let mut wasted_dials = 0;
        if primary != from {
            match self.peers[from].shortcuts.get(key) {
                Some(named) if named == primary => {
                    self.shortcut_stats.hits += 1;
                    let info = RouteInfo {
                        responsible: primary,
                        hops: 0,
                    };
                    return Ok((info, true));
                }
                Some(_) => {
                    self.shortcut_stats.stale += 1;
                    self.charge_lookups(category, 1);
                    self.peers[from].shortcuts.forget(key);
                    wasted_dials = 1;
                }
                None => self.shortcut_stats.misses += 1,
            }
        }
        let mut info = self.traverse(from, key)?;
        // The request itself travels the final hop.
        let lookups = info.hops.saturating_sub(1);
        self.charge_lookups(category, lookups);
        info.hops = wasted_dials + lookups;
        Ok((info, false))
    }

    /// Peer `from` learns (or re-confirms) that `primary` is responsible for
    /// `key` — the probe layer calls this for every served response, which
    /// names the primary that answered. A peer needs no shortcut to itself, so
    /// `primary == from` is ignored.
    pub fn learn_shortcut(&mut self, from: usize, key: RingId, primary: usize) {
        if primary != from && self.peers[from].shortcuts.learn(key, primary) {
            self.shortcut_stats.evictions += 1;
        }
    }

    /// The hops [`Dht::route`] would take, without recording any traffic — for
    /// tests that only measure hop counts and for [`Dht::estimate_hops`].
    pub fn probe_hops(&self, from: usize, key: RingId) -> Result<usize, DhtError> {
        self.check_origin(from)?;
        lookup_hops(&self.peers, &self.ring, from, key, self.config.max_hops)
            .ok_or(DhtError::LookupFailed)
    }

    /// An **upper bound** on the lookup messages [`Dht::route_probe`] would
    /// charge a probe for `key` from peer `from`, **without sending or
    /// charging anything**: the simulator replays the exact greedy lookup a
    /// routed request would perform (walking every en-route peer's routing
    /// table) and counts every hop but the final one, which the request
    /// itself travels, plus the one wasted dial when `from` holds a stale
    /// shortcut for the key. A fresh shortcut is deliberately not credited —
    /// its entry may be evicted before the request is sent, and its dial
    /// charges no lookup message at all — so the probe charges at most the
    /// estimate as long as membership and routing state do not change in
    /// between, and exactly the estimate when it is routed. In a real
    /// deployment this would be an analytic `O(log n)` estimate computed at
    /// the querying peer. Query planners use it to cost-annotate probe
    /// schedules before spending any bandwidth.
    pub fn estimate_hops(&self, from: usize, key: RingId) -> Result<usize, DhtError> {
        let routed = self.probe_hops(from, key)?;
        let primary = self.responsible_for(key)?;
        let stale = primary != from
            && self.peers[from]
                .shortcuts
                .get(key)
                .is_some_and(|named| named != primary);
        Ok(routed.saturating_sub(1) + usize::from(stale))
    }

    /// The peer currently responsible for `key` (no routing, no traffic) — the ground
    /// truth used in tests and for co-located state management.
    pub fn responsible_for(&self, key: RingId) -> Result<usize, DhtError> {
        self.ring
            .successor_of_key(key)
            .map(|(_, idx)| idx)
            .ok_or(DhtError::EmptyNetwork)
    }

    fn check_origin(&self, from: usize) -> Result<(), DhtError> {
        if self.ring.is_empty() {
            return Err(DhtError::EmptyNetwork);
        }
        if from >= self.peers.len() || !self.peers[from].alive {
            return Err(DhtError::BadOrigin);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Routed storage operations
    // ------------------------------------------------------------------

    /// Stores `value` under `key`, replacing any previous value. The transferred
    /// payload (the value itself) plus the routing messages are charged to `category`.
    pub fn put(
        &mut self,
        from: usize,
        key: RingId,
        value: V,
        category: TrafficCategory,
    ) -> Result<RouteInfo, DhtError> {
        let info = self.route(from, key, category)?;
        let payload = value.wire_size() + ENVELOPE_OVERHEAD;
        self.stats.record(category, payload);
        let peer = &mut self.peers[info.responsible];
        peer.served_requests += 1;
        peer.store.insert(key, value);
        Ok(info)
    }

    /// Fetches the value stored under `key`. The request is routed (charged per hop);
    /// the response carries the value (or a small not-found notice) directly back to
    /// the requester and is charged to `category` as well.
    pub fn get(
        &mut self,
        from: usize,
        key: RingId,
        category: TrafficCategory,
    ) -> Result<(RouteInfo, Option<V>), DhtError> {
        let info = self.route(from, key, category)?;
        let peer = &mut self.peers[info.responsible];
        peer.served_requests += 1;
        let value = peer.store.get(&key).cloned();
        let response_bytes = value.as_ref().map(|v| v.wire_size()).unwrap_or(1) + ENVELOPE_OVERHEAD;
        self.stats.record(category, response_bytes);
        Ok((info, value))
    }

    /// Applies an arbitrary modification to the entry stored under `key` at the
    /// responsible peer. `request_bytes` is the size of the update payload the
    /// requester ships (e.g. a delta posting list); it is charged to `category` on top
    /// of the routing messages. The one-key case of [`Dht::update_many`].
    pub fn update(
        &mut self,
        from: usize,
        key: RingId,
        request_bytes: usize,
        category: TrafficCategory,
        f: impl FnOnce(&mut Option<V>),
    ) -> Result<RouteInfo, DhtError> {
        let mut f = Some(f);
        self.update_many(from, &[key], request_bytes, category, |_, slot| {
            if let Some(f) = f.take() {
                f(slot);
            }
        })
    }

    /// Applies one modification per key of `keys` at the peer responsible
    /// for all of them, shipped as **one** routed frame: the lookup for
    /// `keys[0]` is charged one lookup-request message per hop, then a
    /// single message of `request_bytes` (every key's payload together) plus
    /// one envelope. `f(i, slot)` modifies the entry stored under `keys[i]`,
    /// in order, and every key applied counts as one served request.
    ///
    /// The caller groups the keys: they must share one primary
    /// ([`Dht::responsible_for`]), and `keys` must not be empty.
    pub fn update_many(
        &mut self,
        from: usize,
        keys: &[RingId],
        request_bytes: usize,
        category: TrafficCategory,
        mut f: impl FnMut(usize, &mut Option<V>),
    ) -> Result<RouteInfo, DhtError> {
        let info = self.route(from, keys[0], category)?;
        self.stats
            .record(category, request_bytes + ENVELOPE_OVERHEAD);
        for (i, key) in keys.iter().enumerate() {
            debug_assert_eq!(self.responsible_for(*key), Ok(info.responsible));
            let peer = &mut self.peers[info.responsible];
            peer.served_requests += 1;
            peer.store.upsert_with(*key, |slot| f(i, slot));
        }
        Ok(info)
    }

    /// Removes the value stored under `key`. Routing messages and a small removal
    /// request are charged to `category`.
    pub fn remove(
        &mut self,
        from: usize,
        key: RingId,
        category: TrafficCategory,
    ) -> Result<(RouteInfo, Option<V>), DhtError> {
        let info = self.route(from, key, category)?;
        self.stats.record(category, 16 + ENVELOPE_OVERHEAD);
        let peer = &mut self.peers[info.responsible];
        peer.served_requests += 1;
        Ok((info.clone(), peer.store.remove(&key)))
    }

    /// Reads a value without routing or traffic accounting (ground-truth inspection
    /// for tests and experiment verification).
    pub fn peek(&self, key: RingId) -> Option<&V> {
        let idx = self.responsible_for(key).ok()?;
        self.peers[idx].store.get(&key)
    }

    /// Records one externally-modelled message of `bytes` bytes in `category`.
    ///
    /// Higher layers use this for exchanges whose routing is already accounted (e.g.
    /// a posting-list response that travels directly back to the requester) or that
    /// are modelled analytically (e.g. the on-demand acquisition of a posting list).
    pub fn charge_external(&mut self, category: TrafficCategory, bytes: usize) {
        self.stats.record(category, bytes + ENVELOPE_OVERHEAD);
    }

    // ------------------------------------------------------------------
    // Crate-internal helpers (used by the churn module)
    // ------------------------------------------------------------------

    pub(crate) fn stats_record(&mut self, category: TrafficCategory, bytes: usize) {
        self.stats.record(category, bytes);
    }

    pub(crate) fn remove_from_ring(&mut self, id: RingId) {
        self.ring.remove(id);
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Total number of keys stored across all live peers.
    pub fn total_keys(&self) -> usize {
        self.peers
            .iter()
            .filter(|p| p.alive)
            .map(|p| p.store.len())
            .sum()
    }

    /// Total approximate storage bytes across all live peers.
    pub fn total_storage_bytes(&self) -> usize {
        self.peers
            .iter()
            .filter(|p| p.alive)
            .map(|p| p.store.storage_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dht(n: usize) -> Dht<Vec<u32>> {
        Dht::with_peers(DhtConfig::default(), 42, n)
    }

    #[test]
    fn with_peers_builds_live_network() {
        let d = dht(32);
        assert_eq!(d.live_peers(), 32);
        assert_eq!(d.ring().len(), 32);
        assert!(d.peer(0).table.size() > 0);
    }

    #[test]
    fn put_then_get_round_trips() {
        let mut d = dht(16);
        let key = RingId::hash_str("database retrieval");
        d.put(0, key, vec![1, 2, 3], TrafficCategory::Indexing)
            .unwrap();
        let (_, value) = d.get(5, key, TrafficCategory::Retrieval).unwrap();
        assert_eq!(value, Some(vec![1, 2, 3]));
        // The value lives at the responsible peer.
        assert_eq!(d.peek(key), Some(&vec![1, 2, 3]));
        let responsible = d.responsible_for(key).unwrap();
        assert!(d.peer(responsible).store.contains(&key));
    }

    #[test]
    fn get_missing_returns_none_but_charges_traffic() {
        let mut d = dht(8);
        let before = d.stats().bytes_sent();
        let (_, v) = d
            .get(
                0,
                RingId::hash_str("nothing here"),
                TrafficCategory::Retrieval,
            )
            .unwrap();
        assert!(v.is_none());
        assert!(d.stats().bytes_sent() > before);
    }

    #[test]
    fn update_creates_and_modifies() {
        let mut d = dht(8);
        let key = RingId::hash_str("peer to peer");
        d.update(1, key, 12, TrafficCategory::Indexing, |slot| {
            slot.get_or_insert_with(Vec::new).push(7);
        })
        .unwrap();
        d.update(2, key, 12, TrafficCategory::Indexing, |slot| {
            slot.get_or_insert_with(Vec::new).push(9);
        })
        .unwrap();
        assert_eq!(d.peek(key), Some(&vec![7, 9]));
        // Deleting through update.
        d.update(3, key, 4, TrafficCategory::Indexing, |slot| *slot = None)
            .unwrap();
        assert!(d.peek(key).is_none());
    }

    #[test]
    fn remove_returns_previous_value() {
        let mut d = dht(8);
        let key = RingId::hash_str("x");
        d.put(0, key, vec![5], TrafficCategory::Indexing).unwrap();
        let (_, removed) = d.remove(4, key, TrafficCategory::Indexing).unwrap();
        assert_eq!(removed, Some(vec![5]));
        assert_eq!(d.total_keys(), 0);
    }

    #[test]
    fn traffic_is_attributed_to_categories() {
        let mut d = dht(32);
        let key = RingId::hash_str("category test");
        d.put(0, key, vec![0; 100], TrafficCategory::Indexing)
            .unwrap();
        d.get(1, key, TrafficCategory::Retrieval).unwrap();
        assert!(d.stats().category(TrafficCategory::Indexing).bytes > 0);
        assert!(d.stats().category(TrafficCategory::Retrieval).bytes >= 100);
        assert_eq!(d.stats().category(TrafficCategory::Overlay).messages, 0);
    }

    #[test]
    fn probe_hops_does_not_generate_traffic() {
        let d = dht(64);
        let hops = d.probe_hops(0, RingId::hash_str("probe")).unwrap();
        assert!(hops <= 10);
        assert_eq!(d.stats().messages_sent(), 0);
    }

    #[test]
    fn estimate_hops_is_free_and_matches_the_routed_request() {
        let mut d = dht(64);
        let keys: Vec<RingId> = (0..20)
            .map(|i| RingId::hash_str(&format!("estimate{i}")))
            .collect();
        let estimates: Vec<usize> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| d.estimate_hops(i % 64, *key).unwrap())
            .collect();
        assert_eq!(d.stats().messages_sent(), 0, "estimation must be free");
        // Every table is empty, so every probe is routed: the estimate is
        // exact.
        for (i, (key, estimated)) in keys.iter().zip(&estimates).enumerate() {
            let (info, via_shortcut) = d
                .route_probe(i % 64, *key, TrafficCategory::Routing)
                .unwrap();
            assert_eq!((*estimated, via_shortcut), (info.hops, false));
        }
        assert_eq!(d.shortcut_stats().hits, 0);
        assert_eq!(
            d.estimate_hops(999, RingId(1)).unwrap_err(),
            DhtError::BadOrigin
        );
    }

    #[test]
    fn route_probe_dials_fresh_shortcuts_and_wastes_one_dial_on_stale_ones() {
        let mut d = dht(64);
        let key = RingId::hash_str("dialled");
        let primary = d.responsible_for(key).unwrap();
        // An origin at least two hops away, so that a routed probe charges
        // lookup messages at all.
        let from = (0..64)
            .find(|p| d.probe_hops(*p, key).unwrap() >= 2)
            .unwrap();
        let wrong = (0..64).find(|p| *p != primary && *p != from).unwrap();
        let routed = d.probe_hops(from, key).unwrap();
        let dial = (d.config().lookup_request_bytes + ENVELOPE_OVERHEAD) as u64;
        let forwarded = |d: &Dht<Vec<u32>>| -> u64 {
            (0..d.peer_slots())
                .map(|p| d.peer(p).forwarded_lookups)
                .sum()
        };
        let probe = |d: &mut Dht<Vec<u32>>| {
            let before = d.stats().category(TrafficCategory::Retrieval);
            let estimate = d.estimate_hops(from, key).unwrap();
            let (info, via_shortcut) = d
                .route_probe(from, key, TrafficCategory::Retrieval)
                .unwrap();
            let after = d.stats().category(TrafficCategory::Retrieval);
            assert_eq!(info.responsible, primary);
            assert!(info.hops <= estimate, "{} > {estimate}", info.hops);
            assert_eq!(after.messages - before.messages, info.hops as u64);
            assert_eq!(after.bytes - before.bytes, info.hops as u64 * dial);
            (info.hops, via_shortcut)
        };

        // Miss: the routed lookup, forwarded by `h` peers, charges `h − 1`
        // lookup messages — the request rides the final hop.
        assert_eq!(probe(&mut d), (routed - 1, false));
        assert_eq!(forwarded(&d), routed as u64);
        // Hit: the request is the dial — no lookup message, forwarded by
        // nobody.
        d.learn_shortcut(from, key, primary);
        assert_eq!(probe(&mut d), (0, true));
        assert_eq!(forwarded(&d), routed as u64);
        // Stale: the wasted dial, then the routed lookup; the entry is gone.
        d.learn_shortcut(from, key, wrong);
        assert_eq!(d.estimate_hops(from, key).unwrap(), routed);
        assert_eq!(probe(&mut d), (routed, false));
        assert_eq!(probe(&mut d), (routed - 1, false));
        assert_eq!(forwarded(&d), 3 * routed as u64);
        // The primary itself never consults its table.
        d.learn_shortcut(primary, key, wrong);
        let (local, via_shortcut) = d
            .route_probe(primary, key, TrafficCategory::Retrieval)
            .unwrap();
        assert_eq!((local.hops, via_shortcut), (0, false));
        assert_eq!(
            d.shortcut_stats(),
            ShortcutStats {
                hits: 1,
                misses: 2,
                stale: 1,
                evictions: 0
            }
        );
        assert_eq!(
            d.route_probe(999, key, TrafficCategory::Retrieval),
            Err(DhtError::BadOrigin)
        );
    }

    #[test]
    fn storage_operations_never_consult_shortcuts() {
        let mut d = dht(64);
        let key = RingId::hash_str("published");
        let primary = d.responsible_for(key).unwrap();
        let from = (0..64).find(|p| *p != primary).unwrap();
        let routed = d.probe_hops(from, key).unwrap();
        d.learn_shortcut(from, key, primary);
        let put = d
            .put(from, key, vec![1], TrafficCategory::Indexing)
            .unwrap();
        let (got, _) = d.get(from, key, TrafficCategory::Retrieval).unwrap();
        let updated = d
            .update(from, key, 8, TrafficCategory::Indexing, |_| {})
            .unwrap();
        let (removed, _) = d.remove(from, key, TrafficCategory::Indexing).unwrap();
        for info in [put, got, updated, removed] {
            assert_eq!(info.hops, routed);
        }
        assert_eq!(d.shortcut_stats(), ShortcutStats::default());
    }

    #[test]
    fn route_hops_are_logarithmic() {
        let mut d = dht(256);
        let mut max_hops = 0;
        for i in 0..100 {
            let key = RingId::hash_str(&format!("key{i}"));
            let info = d.route(i % 256, key, TrafficCategory::Routing).unwrap();
            max_hops = max_hops.max(info.hops);
        }
        assert!(max_hops <= 10, "max hops {max_hops}");
    }

    #[test]
    fn errors_for_bad_origin_and_empty_network() {
        let mut empty: Dht<Vec<u32>> = Dht::new(DhtConfig::default(), 1);
        assert_eq!(
            empty.route(0, RingId(1), TrafficCategory::Routing),
            Err(DhtError::EmptyNetwork)
        );
        let mut d = dht(4);
        assert_eq!(
            d.route(99, RingId(1), TrafficCategory::Routing),
            Err(DhtError::BadOrigin)
        );
    }

    #[test]
    fn skewed_and_even_distributions_build_valid_networks() {
        let skewed_cfg = DhtConfig {
            id_distribution: IdDistribution::Skewed(8.0),
            ..DhtConfig::default()
        };
        let mut d: Dht<Vec<u32>> = Dht::with_peers(skewed_cfg, 7, 64);
        let key = RingId::hash_str("skewed");
        d.put(0, key, vec![1], TrafficCategory::Indexing).unwrap();
        assert_eq!(d.peek(key), Some(&vec![1]));

        let even_cfg = DhtConfig {
            id_distribution: IdDistribution::Evenly,
            ..DhtConfig::default()
        };
        let d2: Dht<Vec<u32>> = Dht::with_peers(even_cfg, 7, 64);
        assert_eq!(d2.live_peers(), 64);
    }

    #[test]
    fn storage_distribution_sums_match_totals() {
        let mut d = dht(16);
        for i in 0..200 {
            let key = RingId::hash_str(&format!("term{i}"));
            d.put(i % 16, key, vec![i as u32; 3], TrafficCategory::Indexing)
                .unwrap();
        }
        let live = || d.peers.iter().filter(|p| p.alive);
        let keys: usize = live().map(|p| p.store.len()).sum();
        let bytes: usize = live().map(|p| p.store.storage_bytes()).sum();
        assert_eq!(keys, d.total_keys());
        assert_eq!(bytes, d.total_storage_bytes());
        assert_eq!(keys, 200);
    }

    #[test]
    fn successor_list_len_is_configurable_per_overlay() {
        let cfg = DhtConfig {
            successor_list_len: 7,
            ..DhtConfig::default()
        };
        let d: Dht<Vec<u32>> = Dht::with_peers(cfg, 9, 32);
        for i in 0..32 {
            assert_eq!(d.peer(i).table.successors.len(), 7);
        }
        // The default stays at SUCCESSOR_LIST_LEN.
        let d2 = dht(32);
        assert_eq!(d2.peer(0).table.successors.len(), SUCCESSOR_LIST_LEN);
    }

    #[test]
    fn duplicate_peer_id_rejected() {
        let mut d: Dht<Vec<u32>> = Dht::new(DhtConfig::default(), 3);
        assert!(d.add_peer_with_id(RingId(10)).is_some());
        assert!(d.add_peer_with_id(RingId(10)).is_none());
    }
}

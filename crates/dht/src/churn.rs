//! Peer churn: joins, graceful departures and abrupt failures.
//!
//! In AlvisP2P a peer joining the network takes over responsibility for part of its
//! successor's key range, and a peer leaving gracefully hands its keys to its
//! successor. Both transfers cross the network and are charged to
//! [`TrafficCategory::Overlay`]. Abrupt failures lose the failed peer's index slice
//! (the layer above re-publishes from the peers' local indexes, exactly as the paper's
//! design prescribes: documents always stay at their owner, the global index is a
//! cache that can be rebuilt).

use crate::id::RingId;
use crate::network::{Dht, DhtError};
use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
use alvisp2p_netsim::{TrafficCategory, WireSize};

impl<V: Clone + WireSize> Dht<V> {
    /// A new peer with identifier `id` joins the overlay.
    ///
    /// The keys in `(predecessor(id), id]` are transferred from the peer that was
    /// previously responsible for them; the transfer is charged to
    /// [`TrafficCategory::Overlay`]. Routing tables of all peers are refreshed
    /// (the converged effect of stabilisation).
    ///
    /// Returns the index of the new peer, or `None` if the identifier is taken.
    pub fn join(&mut self, id: RingId) -> Option<usize> {
        // Who is responsible for this range today (before the join)?
        let old_responsible = self.responsible_for(id).ok();
        let new_index = self.add_peer_with_id(id)?;

        if let Some(old_idx) = old_responsible {
            // The new peer takes over (pred(new), new] from its successor.
            let pred = self
                .ring()
                .predecessor_of_peer(id)
                .map(|(p, _)| p)
                .unwrap_or(id);
            let moved = {
                let old_peer = self.peer_mut(old_idx);
                old_peer.store.split_off_interval(pred, id)
            };
            let mut transferred_bytes = 0usize;
            for (k, v) in moved {
                transferred_bytes += 8 + v.wire_size();
                self.peer_mut(new_index).store.insert(k, v);
            }
            if transferred_bytes > 0 {
                self.record_overlay(transferred_bytes + ENVELOPE_OVERHEAD);
            }
        }
        // Join handshake + stabilisation messages: one routed join request plus a
        // constant number of neighbour updates.
        self.record_overlay(64 + ENVELOPE_OVERHEAD);
        self.rebuild_routing_tables();
        // Replica sets re-target onto the changed successor lists (a no-op
        // under NoReplication).
        self.reconverge_replicas();
        self.maybe_repair_after_churn();
        Some(new_index)
    }

    /// Peer `index` leaves gracefully, handing all its keys to its successor.
    pub fn leave(&mut self, index: usize) -> Result<(), DhtError> {
        if index >= self.peer_slots() || !self.peer(index).alive {
            return Err(DhtError::BadOrigin);
        }
        let id = self.peer(index).id;
        let successor = self
            .ring()
            .successor_of_peer(id)
            .map(|(_, idx)| idx)
            .filter(|idx| *idx != index);

        let handed_over = self.peer_mut(index).store.drain_all();
        let mut transferred_bytes = 0usize;
        if let Some(succ) = successor {
            for (k, v) in handed_over {
                transferred_bytes += 8 + v.wire_size();
                self.peer_mut(succ).store.insert(k, v);
            }
        }
        if transferred_bytes > 0 {
            self.record_overlay(transferred_bytes + ENVELOPE_OVERHEAD);
        }
        self.record_overlay(48 + ENVELOPE_OVERHEAD);
        self.mark_departed(index, id);
        self.reconverge_replicas();
        self.maybe_repair_after_churn();
        Ok(())
    }

    /// Peer `index` fails abruptly: its slice of the distributed index is lost —
    /// except for keys the replication subsystem had copied onto the peer's
    /// successors, which are recovered onto the new responsible peer. Returns
    /// the number of keys actually lost.
    pub fn fail(&mut self, index: usize) -> Result<usize, DhtError> {
        if index >= self.peer_slots() || !self.peer(index).alive {
            return Err(DhtError::BadOrigin);
        }
        let id = self.peer(index).id;
        let lost = self.peer_mut(index).store.drain_all().len();
        self.mark_departed(index, id);
        let report = self.reconverge_replicas();
        self.maybe_repair_after_churn();
        Ok(lost.saturating_sub(report.recovered))
    }

    /// When anti-entropy repair is enabled, every churn event is followed by
    /// one repair round so copies that went stale while the membership was in
    /// flux (e.g. syncs dropped towards a peer mid-departure) reconverge
    /// immediately instead of waiting for the next explicit
    /// [`Dht::repair_round`]. A no-op (zero traffic) when repair is disabled —
    /// the default — which keeps the pre-repair churn byte accounting
    /// byte-identical.
    fn maybe_repair_after_churn(&mut self) {
        if self.replication().repair_enabled() {
            self.repair_round();
        }
    }

    fn mark_departed(&mut self, index: usize, id: RingId) {
        self.peer_mut(index).alive = false;
        // Any replica copies the peer held die with it.
        let _ = self.peer_mut(index).replica_store.drain_all();
        // ...and so does what it had learned as a querier.
        self.peer_mut(index).shortcuts = Default::default();
        self.remove_from_ring(id);
        self.rebuild_routing_tables();
    }
}

// Small private helpers exposed through an extension trait pattern would be overkill;
// instead the ring/stats mutators below stay `pub(crate)` on `Dht` via this impl.
impl<V: Clone + WireSize> Dht<V> {
    pub(crate) fn record_overlay(&mut self, bytes: usize) {
        self.stats_record(TrafficCategory::Overlay, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DhtConfig;

    fn dht(n: usize) -> Dht<Vec<u32>> {
        Dht::with_peers(DhtConfig::default(), 11, n)
    }

    fn fill(d: &mut Dht<Vec<u32>>, n_keys: usize) -> Vec<RingId> {
        let mut keys = Vec::new();
        for i in 0..n_keys {
            let key = RingId::hash_str(&format!("key-{i}"));
            d.put(
                i % d.live_peers(),
                key,
                vec![i as u32],
                TrafficCategory::Indexing,
            )
            .unwrap();
            keys.push(key);
        }
        keys
    }

    #[test]
    fn join_takes_over_the_right_key_range() {
        let mut d = dht(16);
        let keys = fill(&mut d, 100);
        let total_before = d.total_keys();
        let new_idx = d.join(RingId(u64::MAX / 3)).expect("fresh id");
        assert_eq!(d.live_peers(), 17);
        // No keys were lost and every key is still reachable at its responsible peer.
        assert_eq!(d.total_keys(), total_before);
        for k in &keys {
            assert!(d.peek(*k).is_some(), "key {k:?} lost after join");
        }
        // The new peer is responsible for exactly the keys it stores.
        for (k, _) in d.peer(new_idx).store.iter() {
            assert_eq!(d.responsible_for(*k).unwrap(), new_idx);
        }
        assert!(d.stats().category(TrafficCategory::Overlay).messages > 0);
    }

    #[test]
    fn graceful_leave_hands_keys_to_successor() {
        let mut d = dht(16);
        let keys = fill(&mut d, 100);
        let victim = 7;
        let had = d.peer(victim).store.len();
        d.leave(victim).unwrap();
        assert_eq!(d.live_peers(), 15);
        assert!(!d.peer(victim).alive);
        // All keys still present and reachable.
        assert_eq!(d.total_keys(), 100);
        for k in &keys {
            let resp = d.responsible_for(*k).unwrap();
            assert!(
                d.peer(resp).store.contains(k),
                "key {k:?} not at responsible peer"
            );
        }
        let _ = had;
        // Leaving twice is an error.
        assert_eq!(d.leave(victim), Err(DhtError::BadOrigin));
    }

    #[test]
    fn abrupt_failure_loses_only_that_peers_keys() {
        let mut d = dht(16);
        fill(&mut d, 200);
        let victim = 3;
        let had = d.peer(victim).store.len();
        let lost = d.fail(victim).unwrap();
        assert_eq!(lost, had);
        assert_eq!(d.total_keys(), 200 - had);
        // Lookups still work for the remaining keys.
        let mut reachable = 0;
        for i in 0..200 {
            let key = RingId::hash_str(&format!("key-{i}"));
            if d.peek(key).is_some() {
                let (_, v) = d.get(0, key, TrafficCategory::Retrieval).unwrap();
                assert!(v.is_some());
                reachable += 1;
            }
        }
        assert_eq!(reachable, 200 - had);
    }

    #[test]
    fn join_with_taken_id_is_rejected() {
        let mut d = dht(4);
        let existing = d.peer(0).id;
        assert!(d.join(existing).is_none());
        assert_eq!(d.live_peers(), 4);
    }

    #[test]
    fn operations_survive_a_churn_sequence() {
        let mut d = dht(24);
        fill(&mut d, 150);
        // A burst of churn: 4 joins, 3 graceful leaves, 2 failures.
        for j in 0..4u64 {
            d.join(RingId::hash_u64(0xBEEF + j));
        }
        for v in [2usize, 9, 17] {
            let _ = d.leave(v);
        }
        for v in [4usize, 11] {
            let _ = d.fail(v);
        }
        // The overlay still routes and serves requests from any live peer.
        let origins = d.live_peer_indices();
        assert!(d.live_peers() >= 23);
        for (i, origin) in origins.iter().take(10).enumerate() {
            let key = RingId::hash_str(&format!("post-churn-{i}"));
            d.put(*origin, key, vec![1, 2], TrafficCategory::Indexing)
                .unwrap();
            let (_, v) = d.get(origins[0], key, TrafficCategory::Retrieval).unwrap();
            assert_eq!(v, Some(vec![1, 2]));
        }
    }

    #[test]
    fn churn_triggers_a_repair_round_when_enabled() {
        use crate::replica::HotKeyReplication;
        use std::sync::Arc;

        let mut d = dht(24);
        d.set_replication_policy(Arc::new(HotKeyReplication::new(2)));
        d.set_repair_enabled(true);
        let key = RingId::hash_str("churny hot key");
        d.put(0, key, vec![5], TrafficCategory::Indexing).unwrap();
        let primary = d.responsible_for(key).unwrap();
        for _ in 0..10 {
            d.record_probe(key, primary);
        }
        assert!(!d.replica_holders(key).is_empty());
        // An update whose syncs all vanish leaves the holders stale...
        d.put(0, key, vec![6, 6], TrafficCategory::Indexing)
            .unwrap();
        d.sync_replicas(key, TrafficCategory::Indexing, |_, _| true);
        assert!(d.replica_consistency() < 1.0);
        // ...and the next churn event repairs them as a side effect.
        d.join(RingId::hash_u64(0xC0FFEE)).expect("fresh id");
        assert_eq!(d.replica_consistency(), 1.0);
        assert!(d.replication().stats().repairs_pulled > 0);
    }

    #[test]
    fn a_departing_peer_drops_its_shortcuts() {
        for graceful in [true, false] {
            let mut d = dht(16);
            let key = RingId::hash_str("remembered");
            let primary = d.responsible_for(key).unwrap();
            let querier = (0..16).find(|p| *p != primary).unwrap();
            d.learn_shortcut(querier, key, primary);
            assert_eq!(d.peer(querier).shortcuts.get(key), Some(primary));
            if graceful {
                d.leave(querier).unwrap();
            } else {
                d.fail(querier).unwrap();
            }
            assert_eq!(d.peer(querier).shortcuts.get(key), None);
        }
    }
}

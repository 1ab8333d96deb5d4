//! Routing shortcuts: a bounded per-peer `key → primary peer` table.
//!
//! The overlay is for *discovery*. Once a querying peer has been answered for
//! a key it knows which peer is responsible for it, and the next probe for
//! that key can *dial* that peer with the request itself — no lookup message
//! at all — instead of paying the greedy `O(log n)` lookup again
//! ([`crate::Dht::route_probe`]). The table names only
//! the key's **primary**; which holder of a hot-replicated key serves the
//! probe is still decided per probe by the replication layer, so shortcuts
//! never pin traffic onto one peer.
//!
//! The table is a strict LRU ordered by a monotone use stamp, never by
//! `HashMap` iteration order: its contents and recency order are a pure
//! function of the sequence of entries learned and dropped, so replaying a
//! probe sequence charges the same bytes and hops every time.

use crate::id::RingId;
use std::collections::HashMap;

/// Entries one peer's shortcut table holds (≈ 24 KB: key, peer and use stamp
/// per entry). A constant rather than a configuration field because one value
/// serves every workload measured: the largest per-querier working set on the
/// `alvis_bench` workloads is under 256 keys, capacities of 256, 512 and 1,024
/// charge identical bytes, and the memory is only touched as entries are
/// learned.
pub const SHORTCUT_CAPACITY: usize = 1024;

/// Counters describing what the shortcut tables did for routed probes
/// ([`crate::Dht::shortcut_stats`]). Probes whose origin is itself the key's
/// primary never consult a table and count nowhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShortcutStats {
    /// Probes dialled straight to the primary a fresh shortcut named.
    pub hits: u64,
    /// Probes routed because the origin's table had no entry for the key.
    pub misses: u64,
    /// Probes whose shortcut named a peer that membership change had made
    /// wrong: one wasted lookup-message dial, then the routed probe.
    pub stale: u64,
    /// Least-recently-learned entries dropped to admit a new key.
    pub evictions: u64,
}

/// One peer's `key → primary peer` shortcuts (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct ShortcutTable {
    /// `key → (named peer, use stamp)`; stamps are unique.
    entries: HashMap<RingId, (usize, u64)>,
    /// The stamp the next [`ShortcutTable::learn`] hands out.
    clock: u64,
    capacity: usize,
}

impl Default for ShortcutTable {
    fn default() -> Self {
        Self::with_capacity(SHORTCUT_CAPACITY)
    }
}

impl ShortcutTable {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ShortcutTable {
            entries: HashMap::new(),
            clock: 0,
            capacity,
        }
    }

    /// The peer the table names for `key`. Reading is not a use: recency
    /// moves only when a served response confirms the entry
    /// ([`ShortcutTable::learn`]).
    pub(crate) fn get(&self, key: RingId) -> Option<usize> {
        self.entries.get(&key).map(|(peer, _)| *peer)
    }

    /// Records (or refreshes) `key → peer` as the most recent entry; returns
    /// whether the least recent entry was evicted to make room.
    pub(crate) fn learn(&mut self, key: RingId, peer: usize) -> bool {
        let stamp = self.clock;
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            *entry = (peer, stamp);
            return false;
        }
        // A full table is scanned for its oldest stamp: `capacity`
        // comparisons, paid only by a querier whose working set has outgrown
        // the table.
        let evicted = if self.entries.len() >= self.capacity {
            self.entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(oldest, _)| *oldest)
        } else {
            None
        };
        if let Some(oldest) = evicted {
            self.entries.remove(&oldest);
        }
        self.entries.insert(key, (peer, stamp));
        evicted.is_some()
    }

    /// Drops the entry for `key` (it named a wrong peer).
    pub(crate) fn forget(&mut self, key: RingId) {
        self.entries.remove(&key);
    }

    /// `(key, peer)` from least to most recently learned.
    #[cfg(test)]
    fn by_recency(&self) -> Vec<(RingId, usize)> {
        let mut all: Vec<_> = self.entries.iter().collect();
        all.sort_by_key(|(_, (_, stamp))| *stamp);
        all.into_iter()
            .map(|(key, (peer, _))| (*key, *peer))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A skewed key sequence with far more distinct keys than a 4-entry table.
    fn sequence() -> Vec<(RingId, usize)> {
        (0..200u64)
            .map(|i| {
                let key = (i * i + 3 * i) % 11;
                (RingId(key), key as usize + 100)
            })
            .collect()
    }

    fn feed(table: &mut ShortcutTable, sequence: &[(RingId, usize)]) -> Vec<bool> {
        sequence
            .iter()
            .map(|(key, peer)| table.learn(*key, *peer))
            .collect()
    }

    #[test]
    fn learn_get_forget_round_trip() {
        let mut t = ShortcutTable::default();
        assert_eq!(t.get(RingId(7)), None);
        assert!(!t.learn(RingId(7), 3));
        assert_eq!(t.get(RingId(7)), Some(3));
        assert!(!t.learn(RingId(7), 5), "refreshing evicts nothing");
        assert_eq!(t.get(RingId(7)), Some(5));
        t.forget(RingId(7));
        assert_eq!(t.get(RingId(7)), None);
    }

    #[test]
    fn eviction_is_strict_lru() {
        let mut t = ShortcutTable::with_capacity(4);
        for k in 0..4 {
            assert!(!t.learn(RingId(k), k as usize));
        }
        // Refreshing key 0 makes key 1 the least recent.
        t.learn(RingId(0), 0);
        assert!(t.learn(RingId(9), 9));
        assert_eq!(t.get(RingId(1)), None);
        let order: Vec<u64> = t.by_recency().iter().map(|(k, _)| k.0).collect();
        assert_eq!(order, vec![2, 3, 0, 9]);
    }

    #[test]
    fn two_tables_fed_the_same_sequence_evict_the_same_keys() {
        let seq = sequence();
        let (mut a, mut b) = (
            ShortcutTable::with_capacity(4),
            ShortcutTable::with_capacity(4),
        );
        let evictions = feed(&mut a, &seq);
        assert_eq!(evictions, feed(&mut b, &seq));
        assert!(evictions.iter().filter(|e| **e).count() > 10);
        assert_eq!(a.by_recency(), b.by_recency());
        assert_eq!(a.by_recency().len(), 4);
    }

    #[test]
    fn replaying_a_sequence_leaves_the_table_unchanged() {
        // What `alvis_bench`'s warm-up + replay gate relies on: a table that
        // has seen a pass once is in the same state after seeing it again,
        // whether the pass fits the table or overflows it.
        for capacity in [4, SHORTCUT_CAPACITY] {
            let seq = sequence();
            let mut t = ShortcutTable::with_capacity(capacity);
            feed(&mut t, &seq);
            let once = t.by_recency();
            feed(&mut t, &seq);
            assert_eq!(t.by_recency(), once, "capacity {capacity}");
        }
    }
}

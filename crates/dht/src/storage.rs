//! Per-peer local key/value store.
//!
//! Each peer stores the fraction of the global distributed index associated with the
//! ring identifiers it is responsible for. The store is typed (`V` is defined by the
//! layer above — in AlvisP2P it holds truncated posting lists, key statistics and
//! global ranking statistics) and reports its approximate in-memory footprint, which
//! the root `tests/storage_scalability.rs` checks grows with the collection.

use crate::id::RingId;
use alvisp2p_netsim::WireSize;
use std::collections::BTreeMap;

/// A peer's local slice of the distributed index.
#[derive(Clone, Debug)]
pub struct LocalStore<V> {
    entries: BTreeMap<RingId, V>,
}

impl<V> Default for LocalStore<V> {
    fn default() -> Self {
        LocalStore {
            entries: BTreeMap::new(),
        }
    }
}

impl<V> LocalStore<V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or replaces the value stored under `key`, returning the old value.
    pub fn insert(&mut self, key: RingId, value: V) -> Option<V> {
        self.entries.insert(key, value)
    }

    /// Returns a reference to the value stored under `key`.
    pub fn get(&self, key: &RingId) -> Option<&V> {
        self.entries.get(key)
    }

    /// Returns a mutable reference to the value stored under `key`.
    pub fn get_mut(&mut self, key: &RingId) -> Option<&mut V> {
        self.entries.get_mut(key)
    }

    /// Applies `f` to the (possibly absent) entry under `key`; if `f` leaves `None`
    /// the entry is removed, otherwise it is (re-)inserted.
    pub fn upsert_with(&mut self, key: RingId, f: impl FnOnce(&mut Option<V>)) {
        let mut slot = self.entries.remove(&key);
        f(&mut slot);
        if let Some(v) = slot {
            self.entries.insert(key, v);
        }
    }

    /// Removes and returns the value stored under `key`.
    pub fn remove(&mut self, key: &RingId) -> Option<V> {
        self.entries.remove(key)
    }

    /// Whether the store holds a value for `key`.
    pub fn contains(&self, key: &RingId) -> bool {
        self.entries.contains_key(key)
    }

    /// Iterates over all `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&RingId, &V)> {
        self.entries.iter()
    }

    /// Removes and returns all entries whose key falls in the clockwise interval
    /// `(from, to]` — used when a joining peer takes over part of its successor's
    /// key range.
    pub fn split_off_interval(&mut self, from: RingId, to: RingId) -> Vec<(RingId, V)> {
        let keys: Vec<RingId> = self
            .entries
            .keys()
            .filter(|k| k.in_interval_open_closed(from, to))
            .copied()
            .collect();
        keys.into_iter()
            .map(|k| {
                let v = self.entries.remove(&k).expect("key listed above");
                (k, v)
            })
            .collect()
    }

    /// Drains the whole store (used when a peer leaves and hands its keys over).
    pub fn drain_all(&mut self) -> Vec<(RingId, V)> {
        std::mem::take(&mut self.entries).into_iter().collect()
    }
}

impl<V: WireSize> LocalStore<V> {
    /// Approximate storage footprint in bytes (keys + serialized values).
    pub fn storage_bytes(&self) -> usize {
        self.entries.values().map(|v| 8 + v.wire_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s: LocalStore<String> = LocalStore::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(RingId(1), "a".into()), None);
        assert_eq!(s.insert(RingId(1), "b".into()), Some("a".into()));
        assert_eq!(s.get(&RingId(1)).map(String::as_str), Some("b"));
        assert!(s.contains(&RingId(1)));
        assert_eq!(s.remove(&RingId(1)), Some("b".into()));
        assert!(!s.contains(&RingId(1)));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn upsert_with_creates_modifies_and_deletes() {
        let mut s: LocalStore<u64> = LocalStore::new();
        s.upsert_with(RingId(9), |slot| *slot = Some(1));
        assert_eq!(s.get(&RingId(9)), Some(&1));
        s.upsert_with(RingId(9), |slot| {
            *slot = slot.map(|v| v + 10);
        });
        assert_eq!(s.get(&RingId(9)), Some(&11));
        s.upsert_with(RingId(9), |slot| *slot = None);
        assert!(!s.contains(&RingId(9)));
    }

    #[test]
    fn split_off_interval_moves_only_that_range() {
        let mut s: LocalStore<u32> = LocalStore::new();
        for k in [10u64, 20, 30, 40, 50] {
            s.insert(RingId(k), k as u32);
        }
        let moved = s.split_off_interval(RingId(15), RingId(40));
        let moved_keys: Vec<u64> = moved.iter().map(|(k, _)| k.0).collect();
        assert_eq!(moved_keys, vec![20, 30, 40]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&RingId(10)) && s.contains(&RingId(50)));
    }

    #[test]
    fn split_off_wrapping_interval() {
        let mut s: LocalStore<u32> = LocalStore::new();
        for k in [5u64, 100, u64::MAX - 5] {
            s.insert(RingId(k), 0);
        }
        let moved = s.split_off_interval(RingId(u64::MAX - 10), RingId(10));
        let moved_keys: Vec<u64> = moved.iter().map(|(k, _)| k.0).collect();
        assert_eq!(moved_keys.len(), 2);
        assert!(moved_keys.contains(&5) && moved_keys.contains(&(u64::MAX - 5)));
    }

    #[test]
    fn drain_all_empties_the_store() {
        let mut s: LocalStore<u8> = LocalStore::new();
        s.insert(RingId(1), 1);
        s.insert(RingId(2), 2);
        let all = s.drain_all();
        assert_eq!(all.len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn storage_bytes_accounts_key_and_value() {
        let mut s: LocalStore<Vec<u32>> = LocalStore::new();
        s.insert(RingId(1), vec![1, 2, 3]);
        // key 8 + (vec header 4 + 3*4)
        assert_eq!(s.storage_bytes(), 8 + 16);
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut s: LocalStore<u8> = LocalStore::new();
        s.insert(RingId(30), 3);
        s.insert(RingId(10), 1);
        s.insert(RingId(20), 2);
        let keys: Vec<u64> = s.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![10, 20, 30]);
    }
}

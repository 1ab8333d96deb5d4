//! Per-peer overlay state.

use crate::id::RingId;
use crate::routing::RoutingTable;
use crate::shortcut::ShortcutTable;
use crate::storage::LocalStore;

/// The overlay-level state of a single peer: its position on the ring, its routing
/// table and the slice of the distributed index it is responsible for.
#[derive(Clone, Debug)]
pub struct Peer<V> {
    /// The peer's ring identifier.
    pub id: RingId,
    /// Whether the peer is currently part of the overlay.
    pub alive: bool,
    /// Long-range routing entries plus successor list.
    pub table: RoutingTable,
    /// The peer's slice of the global distributed index.
    pub store: LocalStore<V>,
    /// Replica copies of hot keys this peer holds for other peers' slices
    /// (managed by [`crate::replica`]; kept strictly separate from `store`, so
    /// the "primary value lives at the responsible peer" invariant is
    /// unaffected by replication).
    pub replica_store: LocalStore<V>,
    /// Number of lookup requests this peer has forwarded (load indicator).
    pub forwarded_lookups: u64,
    /// Number of storage requests (get/put/update) served by this peer.
    pub served_requests: u64,
    /// Where this peer, as a querier, last found each key's primary (see
    /// [`crate::shortcut`]); dropped when the peer leaves the overlay.
    pub(crate) shortcuts: ShortcutTable,
}

impl<V> Peer<V> {
    /// Creates a live peer with the given identifier and an empty store.
    pub fn new(id: RingId) -> Self {
        Peer {
            id,
            alive: true,
            table: RoutingTable::default(),
            store: LocalStore::new(),
            replica_store: LocalStore::new(),
            forwarded_lookups: 0,
            served_requests: 0,
            shortcuts: ShortcutTable::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_peer_is_alive_and_empty() {
        let p: Peer<u32> = Peer::new(RingId(42));
        assert!(p.alive);
        assert_eq!(p.id, RingId(42));
        assert!(p.store.is_empty());
        assert!(p.replica_store.is_empty());
        assert_eq!(p.forwarded_lookups, 0);
        assert_eq!(p.served_requests, 0);
        assert!(p.table.entries.is_empty());
    }
}

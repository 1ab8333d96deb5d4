//! Routing-table construction.
//!
//! Two strategies are implemented:
//!
//! * [`RoutingStrategy::HopSpace`] — the skew-tolerant scheme of Klemm et al.
//!   ("On Routing in Distributed Hash Tables", P2P 2007) used by AlvisP2P: a peer's
//!   i-th routing entry points to the peer **half-way around the remaining peer
//!   population** (rank + n/2, rank + n/4, …), not half-way around the identifier
//!   space. Because entries are defined on ranks ("hop space"), every hop halves the
//!   number of remaining peers and lookups take O(log n) hops *regardless of how
//!   skewed the peer identifiers are*.
//!
//! * [`RoutingStrategy::Finger`] — the **identifier-space partitioning** baseline:
//!   a table of the same size (⌈log₂ n⌉ entries) whose i-th entry points at
//!   `successor(own_id + ring/2^(i+1))`, i.e. the ring is halved in *identifier space*
//!   rather than in peer population (this is the Chord-style construction compared
//!   against in Klemm et al.). Under a uniform identifier distribution the two schemes
//!   coincide and both give O(log n) hops; under skew the identifier-space entries
//!   collapse onto few distinct peers, the finest entry still skips past many peers in
//!   dense regions, and lookups degenerate towards successor walking. It is kept as
//!   the baseline of `lookup::tests::identifier_space_baseline_degrades_under_strong_skew`.
//!
//! In the deployed system routing entries are discovered by sampling and exchange
//! during stabilisation; the simulator constructs the converged tables directly from
//! the membership view, which is the state those protocols converge to.

use crate::id::RingId;
use crate::ring::Ring;

/// Which routing-table construction to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingStrategy {
    /// Skew-tolerant hop-space routing (AlvisP2P's choice).
    HopSpace,
    /// Chord-style finger tables (baseline).
    Finger,
}

/// A single routing entry: the identifier and peer index of a known remote peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RoutingEntry {
    /// Ring identifier of the remote peer.
    pub id: RingId,
    /// Index of the remote peer in the DHT's peer table.
    pub peer_index: usize,
}

/// A peer's routing state: long-range entries plus a short successor list.
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    /// Long-range entries (O(log n) of them).
    pub entries: Vec<RoutingEntry>,
    /// The next few peers clockwise; guarantees progress and fault tolerance.
    pub successors: Vec<RoutingEntry>,
}

impl RoutingTable {
    /// Total number of distinct remote peers this table references.
    pub fn size(&self) -> usize {
        let mut all: Vec<usize> = self
            .entries
            .iter()
            .chain(self.successors.iter())
            .map(|e| e.peer_index)
            .collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }

    /// All candidate next hops (entries followed by successors).
    pub fn candidates(&self) -> impl Iterator<Item = &RoutingEntry> {
        self.entries.iter().chain(self.successors.iter())
    }
}

/// Default number of successors every peer keeps (fault tolerance and guaranteed
/// progress). Configurable per overlay via
/// [`crate::network::DhtConfig::successor_list_len`], e.g. to co-tune it with the
/// replication factor of [`crate::replica::HotKeyReplication`].
pub const SUCCESSOR_LIST_LEN: usize = 4;

/// Builds the routing table for the peer with identifier `own_id` according to
/// `strategy`, given the current ring membership, with the default successor-list
/// length of [`SUCCESSOR_LIST_LEN`].
///
/// Returns an empty table if the peer is not a ring member or is the only member.
pub fn build_routing_table(own_id: RingId, ring: &Ring, strategy: RoutingStrategy) -> RoutingTable {
    build_routing_table_with(own_id, ring, strategy, SUCCESSOR_LIST_LEN)
}

/// Like [`build_routing_table`] but with an explicit successor-list length.
pub fn build_routing_table_with(
    own_id: RingId,
    ring: &Ring,
    strategy: RoutingStrategy,
    successor_list_len: usize,
) -> RoutingTable {
    let Some(rank) = ring.rank_of(own_id) else {
        return RoutingTable::default();
    };
    let n = ring.len();
    if n <= 1 {
        return RoutingTable::default();
    }

    let mut successors = Vec::new();
    for step in 1..=successor_list_len.min(n - 1) {
        let (id, peer_index) = ring.at_rank(rank + step);
        successors.push(RoutingEntry { id, peer_index });
    }

    let entries = match strategy {
        RoutingStrategy::HopSpace => build_hopspace_entries(rank, ring),
        RoutingStrategy::Finger => build_finger_entries(own_id, ring),
    };

    RoutingTable {
        entries,
        successors,
    }
}

/// Hop-space entries: peers at ranks `rank + n/2`, `rank + n/4`, … `rank + 1`.
fn build_hopspace_entries(rank: usize, ring: &Ring) -> Vec<RoutingEntry> {
    let n = ring.len();
    let mut entries = Vec::new();
    let mut span = n / 2;
    while span >= 1 {
        let (id, peer_index) = ring.at_rank(rank + span);
        if peer_index != ring.at_rank(rank).1 {
            entries.push(RoutingEntry { id, peer_index });
        }
        if span == 1 {
            break;
        }
        span /= 2;
    }
    dedup_entries(entries)
}

/// Identifier-space entries: `successor(own_id + ring/2^(i+1))` for
/// `i = 0..⌈log₂ n⌉`, i.e. a table of the same size as the hop-space table but whose
/// targets halve the *identifier space* instead of the peer population.
fn build_finger_entries(own_id: RingId, ring: &Ring) -> Vec<RoutingEntry> {
    let n = ring.len();
    let levels = (usize::BITS - (n - 1).leading_zeros()).max(1); // ceil(log2 n)
    let mut entries = Vec::new();
    let mut span = u64::MAX / 2;
    for _ in 0..levels {
        let target = RingId(own_id.0.wrapping_add(span).wrapping_add(1));
        if let Some((id, peer_index)) = ring.successor_of_key(target) {
            if id != own_id {
                entries.push(RoutingEntry { id, peer_index });
            }
        }
        span /= 2;
        if span == 0 {
            break;
        }
    }
    dedup_entries(entries)
}

fn dedup_entries(mut entries: Vec<RoutingEntry>) -> Vec<RoutingEntry> {
    entries.sort_by_key(|e| e.id);
    entries.dedup_by_key(|e| e.peer_index);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_ring(n: usize) -> Ring {
        // Peers evenly spaced around the ring.
        Ring::from_members((0..n).map(|i| {
            let id = RingId(((i as u128 * u64::MAX as u128) / n as u128) as u64);
            (id, i)
        }))
    }

    fn skewed_ring(n: usize) -> Ring {
        // All peers crowded into the first 1/1024th of the identifier space.
        Ring::from_members((0..n).map(|i| {
            let id = RingId((i as u64) * (u64::MAX / 1024 / n as u64).max(1));
            (id, i)
        }))
    }

    #[test]
    fn table_is_logarithmic_for_hopspace() {
        for n in [16usize, 64, 256, 1024] {
            let ring = uniform_ring(n);
            let (own, _) = ring.at_rank(0);
            let t = build_routing_table(own, &ring, RoutingStrategy::HopSpace);
            let log2n = (n as f64).log2();
            assert!(
                t.entries.len() as f64 <= log2n + 1.0,
                "n={n}: {} entries",
                t.entries.len()
            );
            assert!(t.entries.len() as f64 >= log2n - 1.0);
        }
    }

    #[test]
    fn hopspace_entries_halve_the_population() {
        let n = 64;
        let ring = uniform_ring(n);
        let (own, _) = ring.at_rank(10);
        let t = build_routing_table(own, &ring, RoutingStrategy::HopSpace);
        let ranks: Vec<usize> = t
            .entries
            .iter()
            .map(|e| ring.rank_of(e.id).unwrap())
            .collect();
        // Expect ranks 10+32, 10+16, ..., 10+1 (mod 64), i.e. 42, 26, 18, 14, 12, 11.
        let expected: Vec<usize> = vec![42, 26, 18, 14, 12, 11];
        let mut sorted_ranks = ranks.clone();
        sorted_ranks.sort_unstable();
        let mut sorted_expected = expected.clone();
        sorted_expected.sort_unstable();
        assert_eq!(sorted_ranks, sorted_expected);
    }

    #[test]
    fn hopspace_table_size_independent_of_skew() {
        let n = 512;
        let uni = uniform_ring(n);
        let skew = skewed_ring(n);
        let t_uni = build_routing_table(uni.at_rank(3).0, &uni, RoutingStrategy::HopSpace);
        let t_skew = build_routing_table(skew.at_rank(3).0, &skew, RoutingStrategy::HopSpace);
        assert_eq!(t_uni.entries.len(), t_skew.entries.len());
    }

    #[test]
    fn finger_table_collapses_under_skew() {
        let n = 512;
        let uni = uniform_ring(n);
        let skew = skewed_ring(n);
        let t_uni = build_routing_table(uni.at_rank(3).0, &uni, RoutingStrategy::Finger);
        let t_skew = build_routing_table(skew.at_rank(3).0, &skew, RoutingStrategy::Finger);
        // Under skew most fingers point past the crowded region and collapse onto few
        // distinct peers; the healthy table has noticeably more distinct entries.
        assert!(
            t_skew.entries.len() < t_uni.entries.len(),
            "skewed {} vs uniform {}",
            t_skew.entries.len(),
            t_uni.entries.len()
        );
    }

    #[test]
    fn successor_list_has_expected_length_and_order() {
        let ring = uniform_ring(32);
        let (own, _) = ring.at_rank(31);
        let t = build_routing_table(own, &ring, RoutingStrategy::HopSpace);
        assert_eq!(t.successors.len(), SUCCESSOR_LIST_LEN);
        // First successor is the next peer clockwise (rank 0, wrapping).
        assert_eq!(t.successors[0].id, ring.at_rank(0).0);
    }

    #[test]
    fn successor_list_length_is_configurable() {
        let ring = uniform_ring(32);
        let (own, _) = ring.at_rank(5);
        for len in [1usize, 2, 6, 31, 100] {
            let t = build_routing_table_with(own, &ring, RoutingStrategy::HopSpace, len);
            assert_eq!(t.successors.len(), len.min(31), "requested {len}");
            // Successors stay in clockwise rank order regardless of length.
            for (step, e) in t.successors.iter().enumerate() {
                assert_eq!(e.id, ring.at_rank(5 + step + 1).0);
            }
        }
    }

    #[test]
    fn tiny_rings_produce_small_tables() {
        let ring = uniform_ring(1);
        let t = build_routing_table(ring.at_rank(0).0, &ring, RoutingStrategy::HopSpace);
        assert!(t.entries.is_empty());
        assert!(t.successors.is_empty());

        let ring2 = uniform_ring(2);
        let t2 = build_routing_table(ring2.at_rank(0).0, &ring2, RoutingStrategy::Finger);
        assert_eq!(t2.successors.len(), 1);
        assert!(t2.size() >= 1);
    }

    #[test]
    fn non_member_gets_empty_table() {
        let ring = uniform_ring(8);
        let t = build_routing_table(RingId(12345), &ring, RoutingStrategy::HopSpace);
        assert!(t.entries.is_empty() && t.successors.is_empty());
    }

    #[test]
    fn entries_never_point_at_self() {
        for strategy in [RoutingStrategy::HopSpace, RoutingStrategy::Finger] {
            let ring = uniform_ring(64);
            for rank in [0usize, 7, 63] {
                let (own, own_idx) = ring.at_rank(rank);
                let t = build_routing_table(own, &ring, strategy);
                assert!(
                    t.candidates().all(|e| e.peer_index != own_idx),
                    "{strategy:?} rank {rank} points at itself"
                );
            }
        }
    }
}

//! Greedy key lookup over the overlay.
//!
//! Starting from an originating peer, the lookup repeatedly forwards towards the key:
//! at each hop the current peer picks, among its routing entries and successors, the
//! live peer that makes the most clockwise progress **without overshooting the key**.
//! When no such entry exists the key lies between the current peer and its first live
//! successor, which is then the responsible peer. With hop-space routing tables every
//! hop halves the remaining peer population, giving the O(log n) hop count the paper
//! claims for arbitrary identifier skew.

use crate::id::RingId;
use crate::node::Peer;
use crate::ring::Ring;

/// The outcome of a successful lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupResult {
    /// Index of the peer responsible for the key.
    pub responsible: usize,
    /// The peers traversed, starting with the originator and ending with the
    /// responsible peer.
    pub path: Vec<usize>,
}

impl LookupResult {
    /// Number of overlay hops (messages forwarded); 0 when the originator itself is
    /// responsible.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Performs a greedy lookup of `key` starting at peer `from`.
///
/// Returns `None` if the lookup cannot complete within `max_hops` hops (e.g. because
/// routing state is stale after churn) or if the originating peer is not alive.
pub fn lookup<V>(
    peers: &[Peer<V>],
    ring: &Ring,
    from: usize,
    key: RingId,
    max_hops: usize,
) -> Option<LookupResult> {
    let mut path = Vec::new();
    let responsible = walk(peers, ring, from, key, max_hops, |peer| path.push(peer))?;
    Some(LookupResult { responsible, path })
}

/// The hop count of [`lookup`] without materialising the path — for callers
/// that only cost a request (hop estimation, hop-count experiments).
pub(crate) fn lookup_hops<V>(
    peers: &[Peer<V>],
    ring: &Ring,
    from: usize,
    key: RingId,
    max_hops: usize,
) -> Option<usize> {
    let mut visited = 0usize;
    walk(peers, ring, from, key, max_hops, |_| visited += 1)?;
    Some(visited - 1)
}

/// The greedy walk itself: calls `visit` for every peer traversed, originator
/// first and responsible peer last, and returns the responsible peer.
fn walk<V>(
    peers: &[Peer<V>],
    ring: &Ring,
    from: usize,
    key: RingId,
    max_hops: usize,
    mut visit: impl FnMut(usize),
) -> Option<usize> {
    if from >= peers.len() || !peers[from].alive || ring.is_empty() {
        return None;
    }
    let mut current = from;
    visit(current);

    for _ in 0..=max_hops {
        let cur = &peers[current];
        if ring.is_responsible(cur.id, key) {
            return Some(current);
        }
        let dist_to_key = cur.id.distance_to(key);

        // Closest preceding live candidate: maximal progress without overshooting.
        let mut best: Option<(u64, usize)> = None;
        for entry in cur.table.candidates() {
            if entry.peer_index >= peers.len() || !peers[entry.peer_index].alive {
                continue;
            }
            let progress = cur.id.distance_to(entry.id);
            if progress == 0 || progress > dist_to_key {
                continue;
            }
            if best.is_none_or(|(bp, _)| progress > bp) {
                best = Some((progress, entry.peer_index));
            }
        }

        let next = match best {
            Some((_, idx)) => idx,
            None => {
                // The key lies between us and our first live successor.
                cur.table
                    .successors
                    .iter()
                    .find(|e| e.peer_index < peers.len() && peers[e.peer_index].alive)
                    .map(|e| e.peer_index)?
            }
        };

        if next == current {
            return None;
        }
        current = next;
        visit(current);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{build_routing_table, RoutingStrategy};
    use alvisp2p_netsim::{PowerLaw, SimRng};

    /// Peers at `ids` (peer `i` at `ids[i]`) with converged routing tables.
    fn network_at(ids: &[RingId], strategy: RoutingStrategy) -> (Vec<Peer<u32>>, Ring) {
        let ring = Ring::from_members(ids.iter().enumerate().map(|(i, id)| (*id, i)));
        let mut peers: Vec<Peer<u32>> = ids.iter().map(|id| Peer::new(*id)).collect();
        for p in peers.iter_mut() {
            p.table = build_routing_table(p.id, &ring, strategy);
        }
        (peers, ring)
    }

    fn build_network(n: usize, strategy: RoutingStrategy) -> (Vec<Peer<u32>>, Ring) {
        let ids: Vec<RingId> = (0..n)
            .map(|i| RingId(((i as u128 * u64::MAX as u128) / n as u128) as u64))
            .collect();
        network_at(&ids, strategy)
    }

    /// Mean and maximum lookup hops, and mean routing-table size, of one
    /// overlay configuration.
    #[derive(Debug)]
    struct HopStats {
        mean: f64,
        max: usize,
        table_size: f64,
    }

    /// `n` peers at the quantiles of a bounded power law (`skew` 1 = uniform,
    /// larger = crowded into a small region of the identifier space) and
    /// `lookups` keys drawn from the same law: peers sit where the keys are
    /// dense, as under load-balanced placement.
    fn skewed_lookups(
        n: usize,
        skew: f64,
        strategy: RoutingStrategy,
        lookups: usize,
        seed: u64,
    ) -> HopStats {
        let mut rng = SimRng::new(seed).derive(n as u64 ^ skew.to_bits());
        let placement = PowerLaw::new(skew);
        let mut ids: Vec<RingId> = Vec::with_capacity(n);
        while ids.len() < n {
            let id = RingId::from_fraction(placement.sample(&mut rng));
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let (peers, ring) = network_at(&ids, strategy);
        let hops: Vec<usize> = (0..lookups)
            .map(|i| {
                let key = RingId::from_fraction(placement.sample(&mut rng));
                lookup_hops(&peers, &ring, (i * 2654435761) % n, key, 128)
                    .expect("lookup completes")
            })
            .collect();
        HopStats {
            mean: hops.iter().sum::<usize>() as f64 / lookups as f64,
            max: hops.iter().copied().max().unwrap_or(0),
            table_size: peers.iter().map(|p| p.table.size()).sum::<usize>() as f64 / n as f64,
        }
    }

    #[test]
    fn lookup_reaches_the_responsible_peer() {
        let (peers, ring) = build_network(64, RoutingStrategy::HopSpace);
        for key in [0u64, 12345, u64::MAX / 3, u64::MAX - 1] {
            let key = RingId(key);
            let res = lookup(&peers, &ring, 0, key, 64).expect("lookup completes");
            let expected = ring.successor_of_key(key).unwrap().1;
            assert_eq!(res.responsible, expected);
            assert_eq!(*res.path.first().unwrap(), 0);
            assert_eq!(*res.path.last().unwrap(), expected);
        }
    }

    #[test]
    fn lookup_from_responsible_peer_takes_zero_hops() {
        let (peers, ring) = build_network(16, RoutingStrategy::HopSpace);
        let key = peers[5].id; // peer 5 is its own successor for its exact id
        let res = lookup(&peers, &ring, 5, key, 16).unwrap();
        assert_eq!(res.hops(), 0);
        assert_eq!(res.responsible, 5);
    }

    #[test]
    fn hop_count_is_logarithmic_with_hopspace() {
        let (peers, ring) = build_network(256, RoutingStrategy::HopSpace);
        let log2n = 8.0;
        let mut max_hops = 0usize;
        for k in 0..200u64 {
            let key = RingId(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let res = lookup(&peers, &ring, (k % 256) as usize, key, 512).unwrap();
            max_hops = max_hops.max(res.hops());
        }
        assert!(
            (max_hops as f64) <= log2n + 2.0,
            "max hops {max_hops} exceeds log2(n)+2"
        );
    }

    #[test]
    fn finger_lookup_also_terminates() {
        let (peers, ring) = build_network(128, RoutingStrategy::Finger);
        for k in 0..100u64 {
            let key = RingId(k.wrapping_mul(0x1234_5678_9ABC_DEF1));
            let res = lookup(&peers, &ring, (k % 128) as usize, key, 256).unwrap();
            assert_eq!(res.responsible, ring.successor_of_key(key).unwrap().1);
        }
    }

    #[test]
    fn lookup_skips_dead_candidates() {
        let (mut peers, mut ring) = build_network(32, RoutingStrategy::HopSpace);
        // Kill a peer that is *not* responsible for the key and not the originator.
        let key = RingId(u64::MAX / 2 + 12345);
        let responsible = ring.successor_of_key(key).unwrap().1;
        let victim = (0..32).find(|i| *i != responsible && *i != 0).unwrap();
        peers[victim].alive = false;
        ring.remove(peers[victim].id);
        // Rebuild tables to reflect the smaller ring (stabilisation).
        for peer in peers.iter_mut().filter(|p| p.alive) {
            peer.table = build_routing_table(peer.id, &ring, RoutingStrategy::HopSpace);
        }
        let res = lookup(&peers, &ring, 0, key, 64).unwrap();
        assert!(res.path.iter().all(|p| peers[*p].alive));
        assert_eq!(res.responsible, ring.successor_of_key(key).unwrap().1);
    }

    #[test]
    fn lookup_from_dead_or_invalid_peer_fails() {
        let (mut peers, ring) = build_network(8, RoutingStrategy::HopSpace);
        peers[3].alive = false;
        assert!(lookup(&peers, &ring, 3, RingId(1), 16).is_none());
        assert!(lookup(&peers, &ring, 99, RingId(1), 16).is_none());
    }

    #[test]
    fn lookup_fails_when_hop_budget_exhausted() {
        let (peers, ring) = build_network(64, RoutingStrategy::HopSpace);
        // A budget of zero hops only succeeds if the originator is responsible.
        let key = RingId(u64::MAX / 2 + 999);
        let responsible = ring.successor_of_key(key).unwrap().1;
        let origin = (responsible + 10) % 64;
        assert!(lookup(&peers, &ring, origin, key, 0).is_none());
    }

    #[test]
    fn single_peer_network_resolves_everything_locally() {
        let (peers, ring) = build_network(1, RoutingStrategy::HopSpace);
        let res = lookup(&peers, &ring, 0, RingId(0xDEADBEEF), 4).unwrap();
        assert_eq!(res.responsible, 0);
        assert_eq!(res.hops(), 0);
    }

    // The paper's layer-2 claim (§3): hop-space routing tables of O(log n)
    // entries give O(log n)-hop lookups under arbitrary identifier skew, where
    // identifier-space (Chord-style) tables of the same size degrade.

    #[test]
    fn hop_space_hops_are_logarithmic_and_skew_invariant() {
        let log2_n = 8.0;
        let uniform = skewed_lookups(256, 1.0, RoutingStrategy::HopSpace, 400, 1);
        let skewed = skewed_lookups(256, 64.0, RoutingStrategy::HopSpace, 400, 1);
        assert!(uniform.mean <= log2_n, "{uniform:?}");
        assert!(skewed.mean <= log2_n, "{skewed:?}");
        assert!(uniform.max <= 10);
        assert!(
            (uniform.mean - skewed.mean).abs() < 0.5,
            "uniform {} vs skewed {}",
            uniform.mean,
            skewed.mean
        );
        // Routing tables stay logarithmic.
        assert!(uniform.table_size <= log2_n + 5.0);
    }

    #[test]
    fn identifier_space_baseline_degrades_under_strong_skew() {
        let hop_space = skewed_lookups(512, 128.0, RoutingStrategy::HopSpace, 500, 2);
        let finger = skewed_lookups(512, 128.0, RoutingStrategy::Finger, 500, 2);
        assert!(
            finger.mean > hop_space.mean,
            "finger {} should exceed hop-space {} under skew",
            finger.mean,
            hop_space.mean
        );
        assert!(finger.max >= hop_space.max);
    }

    #[test]
    fn hops_grow_logarithmically_with_network_size() {
        let small = skewed_lookups(64, 1.0, RoutingStrategy::HopSpace, 300, 3);
        let large = skewed_lookups(1024, 1.0, RoutingStrategy::HopSpace, 300, 3);
        // 16x the peers adds log2(16) = 4 hops at most, and about half that on
        // average.
        assert!(large.mean > small.mean);
        assert!(large.mean < small.mean + 4.0);
    }
}

//! Property-based tests for the overlay: routing-table construction invariants,
//! arbitrary churn sequences, key-range handoff and storage reachability.

use alvisp2p_dht::{
    build_routing_table, build_routing_table_with, Dht, DhtConfig, HotKeyReplication,
    IdDistribution, Ring, RingId, RoutingStrategy,
};
use alvisp2p_netsim::TrafficCategory;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

fn ring_from(ids: &[u64]) -> Ring {
    Ring::from_members(ids.iter().enumerate().map(|(i, id)| (RingId(*id), i)))
}

proptest! {
    #[test]
    fn routing_tables_never_reference_self_and_stay_logarithmic(
        ids in proptest::collection::hash_set(any::<u64>(), 2..300),
        finger: bool,
    ) {
        let ids: Vec<u64> = ids.into_iter().collect();
        let ring = ring_from(&ids);
        let strategy = if finger { RoutingStrategy::Finger } else { RoutingStrategy::HopSpace };
        let n = ring.len();
        let bound = (n as f64).log2().ceil() as usize + 1;
        for rank in [0usize, n / 3, n - 1] {
            let (own, own_idx) = ring.at_rank(rank);
            let table = build_routing_table(own, &ring, strategy);
            prop_assert!(table.candidates().all(|e| e.peer_index != own_idx));
            prop_assert!(
                table.entries.len() <= bound.max(1),
                "{} entries for n={} ({:?})",
                table.entries.len(),
                n,
                strategy
            );
            // Every referenced peer actually exists in the ring.
            for e in table.candidates() {
                prop_assert_eq!(ring.rank_of(e.id).map(|r| ring.at_rank(r).1), Some(e.peer_index));
            }
        }
    }

    #[test]
    fn stored_values_remain_reachable_through_arbitrary_churn(
        initial_peers in 8usize..24,
        keys in proptest::collection::vec("[a-z]{3,10}", 1..25),
        // churn script: (operation, argument); op 0 = join, 1 = leave, 2 = fail
        churn in proptest::collection::vec((0u8..3, any::<u64>()), 0..12),
        seed: u64,
    ) {
        let mut dht: Dht<Vec<u8>> = Dht::with_peers(
            DhtConfig { id_distribution: IdDistribution::Uniform, ..Default::default() },
            seed,
            initial_peers,
        );
        // Store one value per key and remember it.
        let mut expected: HashMap<RingId, Vec<u8>> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            let ring_key = RingId::hash_str(key);
            let value = vec![i as u8; (i % 7) + 1];
            dht.put(i % initial_peers, ring_key, value.clone(), TrafficCategory::Indexing).unwrap();
            expected.insert(ring_key, value);
        }

        // Apply the churn script. Graceful operations must never lose data; abrupt
        // failures may lose exactly the keys stored at the failed peer.
        for (op, arg) in churn {
            match op {
                0 => {
                    let _ = dht.join(RingId::hash_u64(arg));
                }
                1 => {
                    let live = dht.live_peer_indices();
                    if live.len() > 2 {
                        let victim = live[(arg as usize) % live.len()];
                        dht.leave(victim).unwrap();
                    }
                }
                _ => {
                    let live = dht.live_peer_indices();
                    if live.len() > 2 {
                        let victim = live[(arg as usize) % live.len()];
                        // Failures lose that peer's keys: drop them from expectations.
                        let lost: Vec<RingId> = dht
                            .peer(victim)
                            .store
                            .iter()
                            .map(|(k, _)| *k)
                            .collect();
                        dht.fail(victim).unwrap();
                        for k in lost {
                            expected.remove(&k);
                        }
                    }
                }
            }
        }

        // Every expected key is still stored at its (current) responsible peer and
        // retrievable from an arbitrary live origin.
        let origins = dht.live_peer_indices();
        prop_assert!(!origins.is_empty());
        for (ring_key, value) in &expected {
            let responsible = dht.responsible_for(*ring_key).unwrap();
            prop_assert!(dht.peer(responsible).store.contains(ring_key));
            let (_, got) = dht
                .get(origins[0], *ring_key, TrafficCategory::Retrieval)
                .unwrap();
            prop_assert_eq!(got.as_ref(), Some(value));
        }
        // No key is stored at a peer that is not responsible for it (no duplicates
        // left behind by handoffs).
        let mut stored_total = 0usize;
        for idx in dht.live_peer_indices() {
            for (k, _) in dht.peer(idx).store.iter() {
                prop_assert_eq!(dht.responsible_for(*k).unwrap(), idx);
                stored_total += 1;
            }
        }
        prop_assert_eq!(stored_total, expected.len());
    }

    #[test]
    fn successor_lists_wrap_the_ring_in_clockwise_order(
        ids in proptest::collection::hash_set(any::<u64>(), 2..200),
        len in 1usize..40,
        finger: bool,
    ) {
        let ids: Vec<u64> = ids.into_iter().collect();
        let ring = ring_from(&ids);
        let strategy = if finger { RoutingStrategy::Finger } else { RoutingStrategy::HopSpace };
        let n = ring.len();
        // Check a low rank, a middle rank and the last rank — the last one's
        // successor list must wrap around the top of the identifier space.
        for rank in [0usize, n / 2, n - 1] {
            let (own, own_idx) = ring.at_rank(rank);
            let table = build_routing_table_with(own, &ring, strategy, len);
            prop_assert_eq!(table.successors.len(), len.min(n - 1));
            for (step, entry) in table.successors.iter().enumerate() {
                let (expect_id, expect_idx) = ring.at_rank((rank + 1 + step) % n);
                prop_assert_eq!(entry.id, expect_id, "step {} of rank {}", step, rank);
                prop_assert_eq!(entry.peer_index, expect_idx);
                prop_assert_ne!(entry.peer_index, own_idx);
            }
            // Successors are pairwise distinct (capping at n-1 guarantees the
            // wrap never re-enters the list).
            let distinct: BTreeSet<u64> = table.successors.iter().map(|e| e.id.0).collect();
            prop_assert_eq!(distinct.len(), table.successors.len());
        }
    }

    #[test]
    fn replica_sets_stay_disjoint_and_reconverge_under_churn(
        initial_peers in 8usize..20,
        keys in proptest::collection::hash_set("[a-z]{3,10}", 1..10),
        factor in 1usize..4,
        churn in proptest::collection::vec((0u8..3, any::<u64>()), 0..12),
        seed: u64,
    ) {
        let keys: Vec<String> = keys.into_iter().collect();
        let mut dht: Dht<Vec<u8>> = Dht::with_peers(
            DhtConfig {
                replication: Arc::new(HotKeyReplication::new(factor)),
                ..Default::default()
            },
            seed,
            initial_peers,
        );
        // Store every key, then probe each one hot enough to replicate.
        for (i, key) in keys.iter().enumerate() {
            let ring_key = RingId::hash_str(key);
            dht.put(i % initial_peers, ring_key, vec![i as u8; (i % 5) + 1], TrafficCategory::Indexing).unwrap();
            let primary = dht.responsible_for(ring_key).unwrap();
            for _ in 0..16 {
                dht.record_probe(ring_key, primary);
            }
            prop_assert!(dht.replication().is_replicated(ring_key));
        }

        // Arbitrary churn; joins, leaves and failures all re-converge the
        // replica placement internally.
        for (op, arg) in churn {
            let live = dht.live_peer_indices();
            match op {
                0 => { let _ = dht.join(RingId::hash_u64(arg)); }
                1 if live.len() > 2 => { dht.leave(live[(arg as usize) % live.len()]).unwrap(); }
                2 if live.len() > 2 => { let _ = dht.fail(live[(arg as usize) % live.len()]).unwrap(); }
                _ => {}
            }
        }

        let factor = dht.replication().policy().replication_factor();
        for ring_key in dht.replication().replicated_key_list() {
            let primary = dht.responsible_for(ring_key).unwrap();
            let holders = dht.replica_holders(ring_key);
            // Disjointness: the primary never holds its own replica, and no
            // peer appears twice.
            prop_assert!(!holders.contains(&primary));
            let distinct: BTreeSet<usize> = holders.iter().copied().collect();
            prop_assert_eq!(distinct.len(), holders.len());
            // Re-convergence: after any churn the holders are exactly the
            // key's current ring-successor targets.
            let mut expected = dht.replica_targets(ring_key, factor);
            let mut got = holders.clone();
            expected.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
            // Every holder carries a live copy identical to the primary's
            // canonical value, in the replica store (never the primary store).
            let canonical = dht.peer(primary).store.get(&ring_key).cloned();
            prop_assert!(canonical.is_some());
            for holder in holders {
                prop_assert_eq!(dht.peer(holder).replica_store.get(&ring_key), canonical.as_ref());
            }
        }
    }

    #[test]
    fn anti_entropy_repair_converges_from_arbitrary_divergence(
        initial_peers in 10usize..24,
        keys in proptest::collection::hash_set("[a-z]{3,10}", 1..8),
        factor in 1usize..4,
        // Per-key divergence script: whether the key gets an update whose
        // replica syncs are all dropped, and which holders to bit-rot.
        update_mask in proptest::collection::vec(any::<bool>(), 8),
        rot in proptest::collection::vec((0usize..8, any::<u64>()), 0..6),
        seed: u64,
    ) {
        let keys: Vec<String> = keys.into_iter().collect();
        let mut dht: Dht<Vec<u8>> = Dht::with_peers(
            DhtConfig {
                replication: Arc::new(HotKeyReplication::new(factor)),
                ..Default::default()
            },
            seed,
            initial_peers,
        );
        let ring_keys: Vec<RingId> = keys.iter().map(|k| RingId::hash_str(k)).collect();
        for (i, ring_key) in ring_keys.iter().enumerate() {
            dht.put(i % initial_peers, *ring_key, vec![i as u8; (i % 5) + 1], TrafficCategory::Indexing).unwrap();
            let primary = dht.responsible_for(*ring_key).unwrap();
            for _ in 0..16 {
                dht.record_probe(*ring_key, primary);
            }
            prop_assert!(dht.replication().is_replicated(*ring_key));
        }

        // Diverge: updates whose syncs are all dropped leave stale copies...
        for (i, ring_key) in ring_keys.iter().enumerate() {
            if update_mask[i % update_mask.len()] {
                dht.put(i % initial_peers, *ring_key, vec![0xFE; (i % 5) + 2], TrafficCategory::Indexing).unwrap();
                dht.sync_replicas(*ring_key, TrafficCategory::Indexing, |_, _| true);
            }
        }
        // ...and arbitrary holders suffer bit rot.
        for (key_pick, holder_pick) in rot {
            let ring_key = ring_keys[key_pick % ring_keys.len()];
            let holders = dht.replica_holders(ring_key);
            if !holders.is_empty() {
                dht.corrupt_replica_copy(ring_key, holders[(holder_pick as usize) % holders.len()]);
            }
        }

        // Repeated repair rounds converge within a bounded number of passes:
        // each round sources every key from its freshest live holder, so one
        // clean round (no divergence detected) must arrive quickly.
        let mut clean = false;
        for _ in 0..4 {
            let report = dht.repair_round();
            if report.divergent() == 0 {
                prop_assert_eq!(report.repaired, 0);
                clean = true;
                break;
            }
            prop_assert_eq!(report.divergent(), report.repaired,
                "every divergent copy found is repaired in the same round");
        }
        prop_assert!(clean, "repair did not converge within the round bound");
        prop_assert_eq!(dht.replica_consistency(), 1.0);
        // Every holder's copy is byte-identical to the primary's canonical
        // value, and no corruption marker survives.
        for ring_key in &ring_keys {
            let primary = dht.responsible_for(*ring_key).unwrap();
            let canonical = dht.peer(primary).store.get(ring_key).cloned();
            prop_assert!(canonical.is_some());
            for holder in dht.replica_holders(*ring_key) {
                prop_assert!(!dht.replication().is_copy_corrupt(*ring_key, holder));
                prop_assert_eq!(dht.peer(holder).replica_store.get(ring_key), canonical.as_ref());
            }
        }
    }

    #[test]
    fn lookups_are_logarithmic_for_every_origin(
        n in 2usize..128,
        seed: u64,
        keys in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let dht: Dht<Vec<u8>> = Dht::with_peers(DhtConfig::default(), seed, n);
        let bound = (n as f64).log2().ceil() as usize + 2;
        for (i, key) in keys.iter().enumerate() {
            let hops = dht.probe_hops(i % n, RingId(*key)).unwrap();
            prop_assert!(hops <= bound, "hops {hops} > bound {bound} for n={n}");
        }
    }
}

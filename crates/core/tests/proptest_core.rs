//! Property-based tests for the core indexing/retrieval layer: HDK window machinery,
//! result merging, QDI decision logic and the global distributed index.

use alvisp2p_core::fault::ProbeOutcome;
use alvisp2p_core::global_index::GlobalIndex;
use alvisp2p_core::hdk::{cooccurs_within_window, min_cover_window};
use alvisp2p_core::key::TermKey;
use alvisp2p_core::posting::{ScoredRef, TruncatedPostingList};
use alvisp2p_core::ranking::merge_retrieved;
use alvisp2p_dht::DhtConfig;
use alvisp2p_netsim::TrafficCategory;
use alvisp2p_textindex::{DocId, TermId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Brute-force minimum covering window used as the reference implementation.
fn brute_force_window(lists: &[Vec<u32>]) -> Option<u32> {
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return None;
    }
    let mut best: Option<u32> = None;
    fn recurse(lists: &[Vec<u32>], chosen: &mut Vec<u32>, best: &mut Option<u32>) {
        if chosen.len() == lists.len() {
            let min = *chosen.iter().min().unwrap();
            let max = *chosen.iter().max().unwrap();
            let spread = max - min;
            *best = Some(best.map_or(spread, |b| b.min(spread)));
            return;
        }
        for &p in &lists[chosen.len()] {
            chosen.push(p);
            recurse(lists, chosen, best);
            chosen.pop();
        }
    }
    recurse(lists, &mut Vec::new(), &mut best);
    best
}

proptest! {
    #[test]
    fn min_cover_window_matches_brute_force(
        lists in proptest::collection::vec(
            proptest::collection::btree_set(0u32..60, 1..6),
            1..4
        ),
    ) {
        let lists: Vec<Vec<u32>> = lists
            .into_iter()
            .map(|s| s.into_iter().collect::<Vec<u32>>())
            .collect();
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        prop_assert_eq!(min_cover_window(&refs), brute_force_window(&lists));
    }

    #[test]
    fn cooccurrence_is_monotone_in_the_window_size(
        positions_a in proptest::collection::btree_set(0u32..100, 1..6),
        positions_b in proptest::collection::btree_set(0u32..100, 1..6),
        window in 0u32..50,
    ) {
        let doc = {
            let mut d = vec![
                (TermId::intern("alpha"), positions_a.iter().copied().collect::<Vec<u32>>()),
                (TermId::intern("beta"), positions_b.iter().copied().collect::<Vec<u32>>()),
            ];
            d.sort_unstable_by_key(|(t, _)| *t);
            d
        };
        let key = TermKey::new(["alpha", "beta"]);
        let narrow = cooccurs_within_window(&doc, &key, window);
        let wide = cooccurs_within_window(&doc, &key, window + 25);
        // Anything that co-occurs in a narrow window also co-occurs in a wider one.
        prop_assert!(!narrow || wide);
        // With a huge window, co-occurrence only requires both terms to be present.
        prop_assert!(cooccurs_within_window(&doc, &key, 1_000));
    }

    #[test]
    fn merged_results_never_exceed_the_sum_of_key_scores(
        per_key in proptest::collection::vec(
            (proptest::collection::hash_set("[a-d]{1}", 1..4),
             proptest::collection::vec((0u32..30, 0u32..1000u32), 1..20)),
            1..5
        ),
        k in 1usize..20,
    ) {
        // Build retrieved lists from arbitrary (key, postings) data.
        let retrieved: Vec<(TermKey, TruncatedPostingList)> = per_key
            .into_iter()
            .map(|(terms, postings)| {
                let key = TermKey::new(terms);
                let list = TruncatedPostingList::from_refs(
                    postings.into_iter().map(|(doc, s)| ScoredRef {
                        doc: DocId::new(0, doc),
                        score: f64::from(s) / 10.0,
                    }),
                    64,
                );
                (key, list)
            })
            .collect();
        let merged = merge_retrieved(&retrieved, k);
        prop_assert!(merged.len() <= k);
        // Per-document upper bound: the sum of that document's scores across all lists.
        for r in &merged {
            let upper: f64 = retrieved
                .iter()
                .filter_map(|(_, list)| list.refs().iter().find(|x| x.doc == r.doc).map(|x| x.score))
                .sum();
            prop_assert!(r.score <= upper + 1e-9, "doc {:?}: {} > {}", r.doc, r.score, upper);
            prop_assert!(r.score > 0.0 || upper == 0.0);
        }
        // Ranking order is respected.
        for w in merged.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn global_index_stores_every_published_key_at_its_responsible_peer(
        peers in 2usize..32,
        keys in proptest::collection::hash_set("[a-h]{1,6}", 1..25),
        seed: u64,
    ) {
        let mut gi = GlobalIndex::new(DhtConfig::default(), seed, peers);
        let keys: Vec<TermKey> = keys.into_iter().map(TermKey::single).collect();
        for (i, key) in keys.iter().enumerate() {
            let list = TruncatedPostingList::from_refs(
                [ScoredRef { doc: DocId::new(0, i as u32), score: 1.0 }],
                16,
            );
            gi.publish_postings(i % peers, key, &list, 16).unwrap();
        }
        prop_assert_eq!(gi.activated_keys(), keys.len());
        // Every key is found by a probe from any origin and the per-peer loads sum up.
        for (i, key) in keys.iter().enumerate() {
            let probe = gi.probe((i + 1) % peers, key, i as u64, 16, None, 0, None).unwrap();
            let found = matches!(&probe, ProbeOutcome::Ok(served) if served.found());
            prop_assert!(found, "published key {key} not found: {probe:?}");
        }
        let load_sum: usize = gi.per_peer_load().iter().map(|(k, _)| *k).sum();
        prop_assert_eq!(load_sum, keys.len());
        // The activated key list is exactly the published set.
        let published: BTreeSet<String> = keys.iter().map(|k| k.canonical()).collect();
        let activated: BTreeSet<String> =
            gi.activated_key_list().iter().map(|k| k.canonical()).collect();
        prop_assert_eq!(published, activated);
    }

    #[test]
    fn probe_traffic_is_bounded_by_the_truncation_capacity(
        capacity in 1usize..64,
        published in 1u32..200,
        seed: u64,
    ) {
        let mut gi = GlobalIndex::new(DhtConfig::default(), seed, 16);
        let key = TermKey::new(["frequent", "pair"]);
        let list = TruncatedPostingList::from_refs(
            (0..published).map(|i| ScoredRef { doc: DocId::new(0, i), score: f64::from(i) }),
            capacity,
        );
        gi.publish_postings(0, &key, &list, capacity).unwrap();
        let before = gi.stats_snapshot();
        gi.probe(5, &key, 1, capacity, None, 0, None).unwrap();
        let delta = gi.stats_snapshot().since(&before);
        let retrieval = delta.category(TrafficCategory::Retrieval).bytes as usize;
        // The response can never exceed capacity * sizeof(ref) plus bounded overheads
        // (request, routing messages, envelopes).
        let routing_allowance = 16 * (48 + 64 + 32);
        prop_assert!(
            retrieval <= capacity * 12 + 16 + routing_allowance,
            "retrieval bytes {} for capacity {}",
            retrieval,
            capacity
        );
    }
}

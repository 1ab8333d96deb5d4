//! Property-based tests for the core indexing/retrieval layer: HDK window machinery,
//! result merging, QDI decision logic, the global distributed index, and the
//! truncated posting list's rules against a naive model.

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

/// The documented posting-list rules, applied the naive way on a plain `Vec`:
/// add or raise the entry, re-sort canonically (descending score, ties by
/// ascending document id), cut to the capacity.
#[derive(Debug)]
struct ModelList {
    refs: Vec<ScoredRef>,
    capacity: usize,
    full_df: u64,
}

impl ModelList {
    fn new(capacity: usize) -> Self {
        ModelList {
            refs: Vec::new(),
            capacity,
            full_df: 0,
        }
    }

    fn from_refs(refs: &[ScoredRef], capacity: usize) -> Self {
        let mut model = ModelList::new(capacity);
        for r in refs {
            model.insert(*r);
        }
        model
    }

    /// A stored document keeps its best score and counts once; any other
    /// document counts towards `full_df` whether or not it is kept.
    fn insert(&mut self, r: ScoredRef) {
        match self.refs.iter_mut().find(|x| x.doc == r.doc) {
            Some(old) => old.score = old.score.max(r.score),
            None => {
                self.full_df += 1;
                self.refs.push(r);
            }
        }
        self.refs
            .sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        self.refs.truncate(self.capacity);
    }

    /// Every kept entry of `other` is inserted; the entries `other` had
    /// already truncated away add to `full_df` unseen.
    fn merge(&mut self, other: &ModelList) {
        for r in &other.refs {
            self.insert(*r);
        }
        self.full_df += other.full_df - other.refs.len() as u64;
    }

    fn remove_peer_docs(&mut self, peer: u32) -> usize {
        let before = self.refs.len();
        self.refs.retain(|r| r.doc.peer != peer);
        let removed = before - self.refs.len();
        self.full_df = self.full_df.saturating_sub(removed as u64);
        removed
    }
}

/// Asserts that `list` and `model` hold the same entries (documents and
/// score bits, in order), `full_df`, capacity and truncation status.
fn assert_matches_model(list: &TruncatedPostingList, model: &ModelList) {
    let bits = |refs: &[ScoredRef]| -> Vec<(DocId, u64)> {
        refs.iter().map(|r| (r.doc, r.score.to_bits())).collect()
    };
    assert_eq!(bits(list.refs()), bits(&model.refs));
    assert_eq!(list.full_df(), model.full_df);
    assert_eq!(list.capacity(), model.capacity);
    assert_eq!(list.is_truncated(), model.full_df > model.refs.len() as u64);
}

/// One step of a random list history.
#[derive(Clone, Debug)]
enum ListOp {
    Insert(ScoredRef),
    /// Merge a list built from these entries under this capacity.
    Merge(Vec<ScoredRef>, usize),
    RemovePeer(u32),
}

/// Entries over few documents and few scores, so that documents are
/// re-published and scores tie.
fn small_ref() -> impl Strategy<Value = ScoredRef> {
    (0u32..3, 0u32..6, 0u64..5).prop_map(|(peer, local, s)| ScoredRef {
        doc: DocId::new(peer, local),
        score: s as f64 * 0.25,
    })
}

/// A capacity in `1..=8`, or unbounded.
fn list_capacity() -> impl Strategy<Value = usize> {
    (0usize..9).prop_map(|c| if c == 0 { usize::MAX } else { c })
}

fn list_op() -> impl Strategy<Value = ListOp> {
    (
        0u8..10,
        small_ref(),
        proptest::collection::vec(small_ref(), 0..12),
        list_capacity(),
    )
        .prop_map(|(kind, r, refs, capacity)| match kind {
            0..=5 => ListOp::Insert(r),
            6..=8 => ListOp::Merge(refs, capacity),
            _ => ListOp::RemovePeer(r.doc.peer),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn posting_list_follows_the_naive_model(
        capacity in list_capacity(),
        ops in proptest::collection::vec(list_op(), 0..40),
    ) {
        let mut list = TruncatedPostingList::new(capacity);
        let mut model = ModelList::new(capacity);
        for op in ops {
            match op {
                ListOp::Insert(r) => {
                    list.insert(r);
                    model.insert(r);
                }
                ListOp::Merge(refs, other_capacity) => {
                    let other = TruncatedPostingList::from_refs(refs.iter().copied(), other_capacity);
                    let other_model = ModelList::from_refs(&refs, other_capacity);
                    assert_matches_model(&other, &other_model);
                    list.merge(&other);
                    model.merge(&other_model);
                }
                ListOp::RemovePeer(peer) => {
                    prop_assert_eq!(list.remove_peer_docs(peer), model.remove_peer_docs(peer));
                }
            }
            assert_matches_model(&list, &model);
        }
    }
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
            let probe = gi.probe((i + 1) % peers, key, i as u64, 16, 0, None).unwrap();
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
        gi.probe(5, &key, 1, capacity, 0, None).unwrap();
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

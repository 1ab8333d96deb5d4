//! The distributed ranking layer (L4).
//!
//! AlvisP2P ranks with BM25, but the statistics the formula needs — global document
//! frequencies, the global number of documents, the global average document length —
//! describe the *whole* distributed collection, not any single peer's slice. Those
//! statistics are themselves stored in the P2P network: every peer publishes its local
//! collection statistics, the aggregate is available under well-known keys, and
//! publishers fetch it before scoring the posting-list entries they contribute.
//!
//! At query time the querying peer merges the retrieved (truncated) posting lists into
//! a single ranking. Because each entry's score was computed against the same global
//! statistics, merging reduces to summing the contributions of the query-term subsets
//! actually covered by each retrieved key — documents covered by an exact term cover
//! receive exactly their centralized BM25 score, which is why retrieval quality stays
//! comparable to a centralized engine. The root `tests/end_to_end.rs` pins the
//! residual loss due to truncation, and `alvis_bench` gates its `overlap_at_10`.
//!
//! **The free bound.** A stored score is the sum of its key's BM25 term scores
//! ([`score_local_postings`]), and each term score is
//! `idf(t)·tf·(k1 + 1) / (tf + norm)` with `norm ≥ 0` for `0 ≤ b ≤ 1`, so no
//! stored score of a key exceeds `Σ_{t∈key} idf(df_t, N)·(k1 + 1)`. The bound is
//! reached only when `norm = 0` (`b = 1` and a zero document length), so it is
//! `≤`, not `<`. Every querier already holds each df and `N` from the published
//! collection statistics, so the bound of any key, probed or not, costs no
//! message: no per-key maximum is published. `tests/proptest_invariants.rs`
//! checks it over every stored entry.

use crate::key::TermKey;
use crate::posting::{ScoredRef, TruncatedPostingList};
use alvisp2p_textindex::bm25::{bm25_term_score, top_k, Bm25Params, ScoredDoc};
use alvisp2p_textindex::{CollectionStats, DocId, InvertedIndex, TermId};
use std::collections::{BTreeSet, HashMap};

/// Globally aggregated collection statistics used by the ranking layer.
///
/// Alongside the mergeable string-keyed [`CollectionStats`] (the form peers
/// publish), an interned `TermId → df` side table is maintained so the query
/// plan's per-key document-frequency estimates never touch a string.
#[derive(Clone, Debug, Default)]
pub struct GlobalRankingStats {
    stats: CollectionStats,
    /// Interned mirror of `stats.doc_frequencies`, rebuilt as fragments merge.
    df_by_id: HashMap<TermId, u64>,
}

impl GlobalRankingStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        GlobalRankingStats::default()
    }

    /// Aggregates the statistics published by all peers.
    pub fn aggregate<'a>(fragments: impl IntoIterator<Item = &'a CollectionStats>) -> Self {
        let mut out = GlobalRankingStats::default();
        for f in fragments {
            out.merge_fragment(f);
        }
        out
    }

    /// Merges one more peer's statistics fragment.
    pub fn merge_fragment(&mut self, fragment: &CollectionStats) {
        self.stats.merge(fragment);
        // Interning here warms the process-wide interner with the whole query
        // vocabulary before the first query arrives.
        for (term, df) in &fragment.doc_frequencies {
            *self.df_by_id.entry(TermId::intern(term)).or_insert(0) += df;
        }
    }

    /// Global number of documents.
    pub fn doc_count(&self) -> u64 {
        self.stats.doc_count
    }

    /// Global average document length.
    pub fn avg_doc_len(&self) -> f64 {
        self.stats.avg_doc_len()
    }

    /// Global document frequency of a term.
    pub fn df(&self, term: &str) -> u64 {
        self.stats.df(term)
    }

    /// Global document frequency of an interned term (allocation-free).
    pub fn df_id(&self, term: TermId) -> u64 {
        self.df_by_id.get(&term).copied().unwrap_or(0)
    }

    /// Size of the aggregated vocabulary.
    pub fn vocabulary_size(&self) -> usize {
        self.stats.vocabulary_size()
    }

    /// Approximate wire size of one peer's statistics fragment (what publishing it to
    /// the ranking layer costs). Proportional to the peer's vocabulary.
    pub fn fragment_wire_size(fragment: &CollectionStats) -> usize {
        16 + fragment
            .doc_frequencies
            .keys()
            .map(|t| t.len() + 8 + 4)
            .sum::<usize>()
    }
}

/// Scores the documents of a peer's local index for `key` against the global
/// statistics, producing the posting-list contribution that peer publishes for the key.
///
/// Only documents containing **all** terms of the key contribute (for a single-term
/// key this is simply the term's local posting list). Each contribution's score is the
/// sum of the BM25 term scores of the key's terms — i.e. exactly the part of the
/// centralized BM25 score attributable to those query terms.
pub fn score_local_postings(
    index: &InvertedIndex,
    key: &TermKey,
    global: &GlobalRankingStats,
    params: Bm25Params,
    capacity: usize,
) -> TruncatedPostingList {
    let matching = index.intersect_ids(key.term_ids());
    let mut list = TruncatedPostingList::new(capacity);
    for doc in matching {
        let doc_len = index.doc_len(doc).unwrap_or(0);
        let mut score = 0.0;
        for term in key.term_ids() {
            let tf = index
                .postings_id(*term)
                .and_then(|l| l.get(doc))
                .map(|p| p.tf)
                .unwrap_or(0);
            score += bm25_term_score(
                tf,
                doc_len,
                global.avg_doc_len(),
                global.df_id(*term),
                global.doc_count(),
                params,
            );
        }
        list.insert(ScoredRef { doc, score });
    }
    list
}

/// Merges the posting lists retrieved by the lattice exploration into a final ranking.
///
/// Retrieved keys are processed largest-first; for every document, each query term is
/// counted at most once: if two retrieved keys overlap (e.g. `a+b` and `a+c`), the
/// overlapping term's contribution is only added once (approximated by scaling the
/// key's aggregate score by the fraction of its terms that are still uncovered for
/// that document).
pub fn merge_retrieved(retrieved: &[(TermKey, TruncatedPostingList)], k: usize) -> Vec<ScoredDoc> {
    let mut ordered: Vec<&(TermKey, TruncatedPostingList)> = retrieved.iter().collect();
    ordered.sort_by_key(|e| std::cmp::Reverse(e.0.len()));

    let mut scores: HashMap<DocId, f64> = HashMap::new();
    let mut covered: HashMap<DocId, BTreeSet<TermId>> = HashMap::new();

    for (key, list) in ordered {
        for r in list.refs() {
            let cov = covered.entry(r.doc).or_default();
            let new_terms = key.term_ids().iter().filter(|t| !cov.contains(t)).count();
            if new_terms == 0 {
                continue;
            }
            let fraction = new_terms as f64 / key.len() as f64;
            *scores.entry(r.doc).or_insert(0.0) += r.score * fraction;
            cov.extend(key.term_ids().iter().copied());
        }
    }

    top_k(
        scores
            .into_iter()
            .map(|(doc, score)| ScoredDoc { doc, score })
            .collect(),
        k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn global_from(indexes: &[&InvertedIndex]) -> GlobalRankingStats {
        let frags: Vec<CollectionStats> = indexes.iter().map(|i| i.collection_stats()).collect();
        GlobalRankingStats::aggregate(frags.iter())
    }

    fn local_index(peer: u32, docs: &[&str]) -> InvertedIndex {
        let mut idx = InvertedIndex::default();
        for (i, d) in docs.iter().enumerate() {
            idx.index_text(DocId::new(peer, i as u32), d);
        }
        idx
    }

    #[test]
    fn aggregation_matches_a_single_global_index() {
        let a = local_index(0, &["peer to peer retrieval", "distributed hash tables"]);
        let b = local_index(1, &["peer networks", "text retrieval quality"]);
        let global = global_from(&[&a, &b]);
        assert_eq!(global.doc_count(), 4);
        assert_eq!(global.df("peer"), 2);
        assert_eq!(global.df("retriev"), 2);
        assert_eq!(global.df("network"), 1);
        assert!(global.avg_doc_len() > 0.0);
        assert!(global.vocabulary_size() >= 8);
        // Incremental merge gives the same result as one-shot aggregation.
        let mut incremental = GlobalRankingStats::new();
        incremental.merge_fragment(&a.collection_stats());
        incremental.merge_fragment(&b.collection_stats());
        assert_eq!(incremental.doc_count(), global.doc_count());
        assert_eq!(incremental.df("peer"), global.df("peer"));
    }

    #[test]
    fn fragment_wire_size_grows_with_vocabulary() {
        let small = local_index(0, &["one short document"]).collection_stats();
        let large = local_index(
            0,
            &[
                "a much longer document with many different interesting terms appearing here",
                "another document with yet more vocabulary diversity and novel words",
            ],
        )
        .collection_stats();
        assert!(
            GlobalRankingStats::fragment_wire_size(&large)
                > GlobalRankingStats::fragment_wire_size(&small)
        );
    }

    #[test]
    fn score_local_postings_single_term_matches_bm25() {
        let idx = local_index(
            0,
            &[
                "peer retrieval peer systems",
                "web search engines",
                "peer protocols",
            ],
        );
        let global = global_from(&[&idx]);
        let key = TermKey::single("peer");
        let list = score_local_postings(&idx, &key, &global, Bm25Params::default(), 100);
        assert_eq!(list.len(), 2);
        assert!(!list.is_truncated());
        // Doc 0 has tf=2 and should outscore doc 2 (tf=1) despite being longer.
        assert_eq!(list.refs()[0].doc, DocId::new(0, 0));
        assert!(list.refs()[0].score > list.refs()[1].score);
    }

    #[test]
    fn score_local_postings_multi_term_requires_all_terms() {
        let idx = local_index(
            0,
            &[
                "peer retrieval systems",
                "peer networks without the other keyword",
                "retrieval only here",
            ],
        );
        let global = global_from(&[&idx]);
        let key = TermKey::new(["peer", "retriev"]);
        let list = score_local_postings(&idx, &key, &global, Bm25Params::default(), 100);
        assert_eq!(list.len(), 1);
        assert_eq!(list.refs()[0].doc, DocId::new(0, 0));
        // The pair score equals the sum of the two single-term scores for that doc.
        let single_p = score_local_postings(
            &idx,
            &TermKey::single("peer"),
            &global,
            Bm25Params::default(),
            100,
        );
        let single_r = score_local_postings(
            &idx,
            &TermKey::single("retriev"),
            &global,
            Bm25Params::default(),
            100,
        );
        let sp = single_p
            .refs()
            .iter()
            .find(|r| r.doc == DocId::new(0, 0))
            .unwrap()
            .score;
        let sr = single_r
            .refs()
            .iter()
            .find(|r| r.doc == DocId::new(0, 0))
            .unwrap()
            .score;
        assert!((list.refs()[0].score - (sp + sr)).abs() < 1e-9);
    }

    #[test]
    fn truncation_caps_published_contributions() {
        let docs: Vec<String> = (0..50)
            .map(|i| format!("peer document number {i}"))
            .collect();
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let idx = local_index(0, &doc_refs);
        let global = global_from(&[&idx]);
        let list = score_local_postings(
            &idx,
            &TermKey::single("peer"),
            &global,
            Bm25Params::default(),
            10,
        );
        assert_eq!(list.len(), 10);
        assert!(list.is_truncated());
        assert_eq!(list.full_df(), 50);
    }

    #[test]
    fn merge_retrieved_reconstructs_exact_scores_for_disjoint_covers() {
        // Query {a, b, c} answered from keys {b, c} and {a}: a document present in
        // both lists must score the sum of both contributions.
        let doc = DocId::new(0, 7);
        let bc = TruncatedPostingList::from_refs([ScoredRef { doc, score: 2.0 }], 10);
        let a = TruncatedPostingList::from_refs(
            [
                ScoredRef { doc, score: 1.5 },
                ScoredRef {
                    doc: DocId::new(0, 9),
                    score: 0.5,
                },
            ],
            10,
        );
        let merged = merge_retrieved(
            &[(TermKey::new(["b", "c"]), bc), (TermKey::single("a"), a)],
            10,
        );
        assert_eq!(merged[0].doc, doc);
        assert!((merged[0].score - 3.5).abs() < 1e-9);
        assert_eq!(merged.len(), 2);
        assert!((merged[1].score - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_retrieved_does_not_double_count_overlapping_keys() {
        // Keys {a,b} and {b} overlap on term b: the single-term list must not add b's
        // contribution again for a document already covered by {a,b}.
        let doc = DocId::new(0, 1);
        let ab = TruncatedPostingList::from_refs([ScoredRef { doc, score: 4.0 }], 10);
        let b = TruncatedPostingList::from_refs([ScoredRef { doc, score: 1.0 }], 10);
        let merged = merge_retrieved(
            &[(TermKey::new(["a", "b"]), ab), (TermKey::single("b"), b)],
            10,
        );
        assert_eq!(merged.len(), 1);
        assert!((merged[0].score - 4.0).abs() < 1e-9);
    }

    #[test]
    fn merge_retrieved_orders_by_score_and_truncates() {
        let lists: Vec<(TermKey, TruncatedPostingList)> = (0..5)
            .map(|i| {
                (
                    TermKey::single(format!("t{i}")),
                    TruncatedPostingList::from_refs(
                        [ScoredRef {
                            doc: DocId::new(0, i),
                            score: f64::from(i),
                        }],
                        10,
                    ),
                )
            })
            .collect();
        let merged = merge_retrieved(&lists, 3);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].doc, DocId::new(0, 4));
        assert!(merged.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn merge_retrieved_empty_input() {
        assert!(merge_retrieved(&[], 10).is_empty());
    }

    /// Over a *laminar* key family (every pair disjoint or nested) the
    /// coverage-weighted merge is additive over each document's maximal
    /// covering keys, so every document's merged score — and the running
    /// k-th — only grows as lists arrive. The same prefix walk over a
    /// non-laminar family shows the contrast: a merged score can shrink
    /// mid-stream.
    #[test]
    fn laminar_merges_are_additive_and_monotone_under_list_arrival() {
        let d1 = DocId::new(0, 1);
        let d2 = DocId::new(0, 2);
        let list = |pairs: &[(DocId, f64)]| {
            TruncatedPostingList::from_refs(
                pairs.iter().map(|&(doc, score)| ScoredRef { doc, score }),
                10,
            )
        };
        // Laminar: {a,b} ⊃ {a}, plus disjoint {c}. d1 appears in every list
        // but its subset-key entry must not dilute the superset's.
        let retrieved = vec![
            (TermKey::new(["a", "b"]), list(&[(d1, 3.0), (d2, 2.0)])),
            (TermKey::single("a"), list(&[(d1, 2.5)])),
            (TermKey::single("c"), list(&[(d1, 1.0), (d2, 4.0)])),
        ];
        let score_of =
            |merged: &[ScoredDoc], doc: DocId| merged.iter().find(|r| r.doc == doc).unwrap().score;
        let full = merge_retrieved(&retrieved, 10);
        // Additivity over maximal covering keys: {a,b} at fraction 1 plus the
        // disjoint {c} at fraction 1; the nested {a} entry is skipped whole.
        assert!((score_of(&full, d1) - 4.0).abs() < 1e-12);
        assert!((score_of(&full, d2) - 6.0).abs() < 1e-12);
        // Monotonicity: per-document merged scores never shrink as lists
        // arrive, so every prefix's k-th merged score lower-bounds the final
        // k-th.
        for upto in 1..retrieved.len() {
            let prefix = merge_retrieved(&retrieved[..upto], 10);
            for r in &prefix {
                assert!(
                    score_of(&full, r.doc) + 1e-12 >= r.score,
                    "a merged score shrank as lists arrived"
                );
            }
            for k in 1..=prefix.len() {
                assert!(
                    prefix[k - 1].score <= full[k - 1].score + 1e-12,
                    "the running k-th merged score exceeded the final k-th"
                );
            }
        }
        // Non-laminar contrast ({a,b} and {b,c} overlap without nesting):
        // d1's merged score *shrinks* when the second list arrives late in
        // the length-sorted order re-spreads the shared term.
        let ab = (TermKey::new(["a", "b"]), list(&[(d1, 1.0)]));
        let bc = (TermKey::new(["b", "c"]), list(&[(d1, 10.0)]));
        let alone = merge_retrieved(std::slice::from_ref(&bc), 10);
        let both = merge_retrieved(&[ab, bc], 10);
        assert!((score_of(&alone, d1) - 10.0).abs() < 1e-12);
        assert!(
            score_of(&both, d1) < 10.0,
            "the non-laminar merge diluted d1 ({})",
            score_of(&both, d1)
        );
    }
}

//! Reference baselines.
//!
//! Two baselines frame the paper's claims:
//!
//! * [`CentralizedEngine`] — a conventional centralized search engine over the whole
//!   collection. It is the **retrieval-quality reference**: the paper claims AlvisP2P's
//!   quality is "fully comparable to state-of-the-art centralized search engines".
//!   The root `tests/end_to_end.rs` measures precision and overlap against exactly
//!   this engine, and `alvis_bench` gates its `overlap_at_10`.
//! * The **single-term full-posting-list** distributed strategy of Zhang & Suel
//!   (reference \[11\] of the paper) — the approach AlvisP2P argues against: every term's
//!   complete posting list is stored in the DHT and shipped to the querying peer, so
//!   retrieval traffic grows with the collection. It is implemented as the
//!   [`crate::strategy::SingleTermFull`] strategy; this module holds
//!   the shared scoring helper both use.

use alvisp2p_textindex::bm25::{Bm25Params, Bm25Searcher, ScoredDoc};
use alvisp2p_textindex::{Analyzer, DocId, InvertedIndex};

/// A centralized search engine over the complete global collection.
///
/// Conceptually this is "what Google would do with the same documents": one inverted
/// index, exact global statistics, no truncation anywhere.
#[derive(Clone, Debug)]
pub struct CentralizedEngine {
    index: InvertedIndex,
    analyzer: Analyzer,
    params: Bm25Params,
}

impl CentralizedEngine {
    /// Creates an empty engine.
    pub fn new(params: Bm25Params) -> Self {
        let analyzer = Analyzer::default();
        CentralizedEngine {
            index: InvertedIndex::new(analyzer.clone()),
            analyzer,
            params,
        }
    }

    /// Indexes one document.
    pub fn index_text(&mut self, id: DocId, text: &str) {
        self.index.index_text(id, text);
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.index.doc_count()
    }

    /// The underlying inverted index (read-only).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Answers a raw-text query with the top-`k` BM25 results.
    pub fn search(&self, query: &str, k: usize) -> Vec<ScoredDoc> {
        let terms = self.analyzer.analyze_query(query);
        Bm25Searcher::with_params(&self.index, self.params).search(&terms, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CentralizedEngine {
        let mut e = CentralizedEngine::new(Bm25Params::default());
        let docs = [
            "peer to peer retrieval with truncated posting lists",
            "centralized search engines use one big inverted index",
            "query driven indexing adapts to query popularity",
            "bm25 ranking uses document frequencies and lengths",
        ];
        for (i, d) in docs.iter().enumerate() {
            e.index_text(DocId::new((i % 2) as u32, i as u32), d);
        }
        e
    }

    #[test]
    fn centralized_engine_answers_queries() {
        let e = engine();
        assert_eq!(e.doc_count(), 4);
        let results = e.search("peer retrieval", 10);
        assert!(!results.is_empty());
        assert_eq!(results[0].doc, DocId::new(0, 0));
    }

    #[test]
    fn unknown_query_terms_return_nothing() {
        let e = engine();
        assert!(e.search("zzzz qqqq", 5).is_empty());
        assert!(e.search("", 5).is_empty());
    }

    #[test]
    fn results_are_ranked_and_bounded() {
        let e = engine();
        let all = e.search("query index ranking", 10);
        assert!(all.len() >= 2);
        for w in all.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let one = e.search("query index ranking", 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].doc, all[0].doc);
    }
}

//! BM25 ranking.
//!
//! The paper's ranking layer (L4) uses "the state-of-the-art BM25 ranking function".
//! This module provides both the raw scoring function — reused by the distributed
//! ranking component, which feeds it *global* statistics gathered from the P2P
//! network — and a local top-k searcher over a peer's [`InvertedIndex`].

use crate::doc::DocId;
use crate::index::InvertedIndex;
use std::cmp::Ordering;
use std::collections::HashMap;

/// BM25 parameters.
#[derive(Clone, Copy, Debug)]
pub struct Bm25Params {
    /// Term-frequency saturation parameter (typical range 1.2–2.0).
    pub k1: f64,
    /// Length-normalisation parameter in `[0, 1]`.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// Robertson–Sparck Jones inverse document frequency with the standard +0.5 smoothing,
/// floored at a small positive value so that very frequent terms still contribute a
/// non-negative score.
pub fn idf(doc_freq: u64, doc_count: u64) -> f64 {
    let n = doc_count as f64;
    let df = doc_freq as f64;
    (((n - df + 0.5) / (df + 0.5)) + 1.0).ln().max(1e-6)
}

/// BM25 contribution of a single term occurrence profile in a document.
///
/// * `tf` — term frequency in the document,
/// * `doc_len` — document length in analyzed terms,
/// * `avg_doc_len` — average document length over the (global) collection,
/// * `doc_freq`/`doc_count` — document frequency of the term and collection size.
pub fn bm25_term_score(
    tf: u32,
    doc_len: u32,
    avg_doc_len: f64,
    doc_freq: u64,
    doc_count: u64,
    params: Bm25Params,
) -> f64 {
    if tf == 0 || doc_count == 0 {
        return 0.0;
    }
    let tf = tf as f64;
    let avg = if avg_doc_len <= 0.0 { 1.0 } else { avg_doc_len };
    let norm = params.k1 * (1.0 - params.b + params.b * (doc_len as f64 / avg));
    idf(doc_freq, doc_count) * (tf * (params.k1 + 1.0)) / (tf + norm)
}

/// A scored document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredDoc {
    /// The document.
    pub doc: DocId,
    /// Its BM25 score with respect to the query.
    pub score: f64,
}

impl ScoredDoc {
    /// Total ordering: by descending score, ties broken by ascending document id so
    /// that rankings are deterministic.
    pub fn ranking_cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.doc.cmp(&other.doc))
    }
}

/// Sorts scored documents into ranking order (descending score, ascending id) and
/// truncates to `k` results.
pub fn top_k(mut scored: Vec<ScoredDoc>, k: usize) -> Vec<ScoredDoc> {
    scored.sort_by(ScoredDoc::ranking_cmp);
    scored.truncate(k);
    scored
}

/// A BM25 searcher over a local inverted index.
#[derive(Clone, Debug)]
pub struct Bm25Searcher<'a> {
    index: &'a InvertedIndex,
    params: Bm25Params,
}

impl<'a> Bm25Searcher<'a> {
    /// Creates a searcher with default parameters.
    pub fn new(index: &'a InvertedIndex) -> Self {
        Bm25Searcher {
            index,
            params: Bm25Params::default(),
        }
    }

    /// Creates a searcher with explicit parameters.
    pub fn with_params(index: &'a InvertedIndex, params: Bm25Params) -> Self {
        Bm25Searcher { index, params }
    }

    /// Scores all documents matching at least one query term (disjunctive semantics,
    /// like the paper's result-merging step) and returns the top `k`.
    ///
    /// `query_terms` must already be analyzed (normalized/stemmed).
    pub fn search(&self, query_terms: &[String], k: usize) -> Vec<ScoredDoc> {
        let scores = self.score_all(query_terms);
        top_k(
            scores
                .into_iter()
                .map(|(doc, score)| ScoredDoc { doc, score })
                .collect(),
            k,
        )
    }

    /// Scores all matching documents without truncation (used by experiments that need
    /// the full centralized reference ranking).
    pub fn score_all(&self, query_terms: &[String]) -> HashMap<DocId, f64> {
        let doc_count = self.index.doc_count() as u64;
        let avg = self.index.avg_doc_len();
        let mut acc: HashMap<DocId, f64> = HashMap::new();
        for term in query_terms {
            let Some(list) = self.index.postings(term) else {
                continue;
            };
            let df = list.df() as u64;
            for posting in &list.postings {
                let dl = self.index.doc_len(posting.doc).unwrap_or(0);
                let s = bm25_term_score(posting.tf, dl, avg, df, doc_count, self.params);
                *acc.entry(posting.doc).or_insert(0.0) += s;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::Analyzer;

    fn build_index() -> InvertedIndex {
        let mut idx = InvertedIndex::default();
        let docs = [
            "peer to peer retrieval with distributed hash tables",
            "peer networks exchange posting lists between peers peers",
            "centralized search engines crawl and index the web",
            "bm25 is a ranking function used by search engines",
            "text retrieval quality is measured with precision and recall",
        ];
        for (i, d) in docs.iter().enumerate() {
            idx.index_text(DocId::new(0, i as u32), d);
        }
        idx
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        assert!(idf(1, 1000) > idf(10, 1000));
        assert!(idf(10, 1000) > idf(500, 1000));
        assert!(idf(999, 1000) > 0.0, "idf stays positive");
    }

    #[test]
    fn term_score_increases_with_tf_but_saturates() {
        let p = Bm25Params::default();
        let s1 = bm25_term_score(1, 100, 100.0, 10, 1000, p);
        let s2 = bm25_term_score(2, 100, 100.0, 10, 1000, p);
        let s10 = bm25_term_score(10, 100, 100.0, 10, 1000, p);
        let s100 = bm25_term_score(100, 100, 100.0, 10, 1000, p);
        assert!(s2 > s1);
        assert!(s10 > s2);
        // Saturation: going from 10 to 100 occurrences gains less than from 1 to 2.
        assert!(s100 - s10 < s2 - s1);
        assert_eq!(bm25_term_score(0, 100, 100.0, 10, 1000, p), 0.0);
    }

    #[test]
    fn longer_documents_are_penalized() {
        let p = Bm25Params::default();
        let short = bm25_term_score(3, 50, 100.0, 10, 1000, p);
        let long = bm25_term_score(3, 500, 100.0, 10, 1000, p);
        assert!(short > long);
    }

    #[test]
    fn b_zero_disables_length_normalisation() {
        let p = Bm25Params { k1: 1.2, b: 0.0 };
        let short = bm25_term_score(3, 50, 100.0, 10, 1000, p);
        let long = bm25_term_score(3, 500, 100.0, 10, 1000, p);
        assert!((short - long).abs() < 1e-12);
    }

    #[test]
    fn search_ranks_relevant_documents_first() {
        let idx = build_index();
        let analyzer = Analyzer::default();
        let q = analyzer.analyze_query("peer retrieval");
        let results = Bm25Searcher::new(&idx).search(&q, 10);
        assert!(!results.is_empty());
        // Doc 0 contains both query terms and should rank first.
        assert_eq!(results[0].doc, DocId::new(0, 0));
        // Every returned document contains at least one query term.
        assert!(results.len() >= 3);
        // Scores are non-increasing.
        for w in results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn search_respects_k() {
        let idx = build_index();
        let q = vec![
            "search".to_string(),
            "retriev".to_string(),
            "peer".to_string(),
        ];
        let top2 = Bm25Searcher::new(&idx).search(&q, 2);
        assert_eq!(top2.len(), 2);
        let all = Bm25Searcher::new(&idx).search(&q, 100);
        assert!(all.len() > 2);
        // The top-2 prefix matches the full ranking's prefix.
        assert_eq!(top2[0].doc, all[0].doc);
        assert_eq!(top2[1].doc, all[1].doc);
    }

    #[test]
    fn unknown_terms_yield_empty_results() {
        let idx = build_index();
        let res = Bm25Searcher::new(&idx).search(&["zzzzz".to_string()], 10);
        assert!(res.is_empty());
        let res2 = Bm25Searcher::new(&idx).search(&[], 10);
        assert!(res2.is_empty());
    }

    #[test]
    fn ranking_ties_break_deterministically() {
        let a = ScoredDoc {
            doc: DocId::new(0, 2),
            score: 1.0,
        };
        let b = ScoredDoc {
            doc: DocId::new(0, 1),
            score: 1.0,
        };
        let ranked = top_k(vec![a, b], 2);
        assert_eq!(ranked[0].doc, DocId::new(0, 1));
        assert_eq!(ranked[1].doc, DocId::new(0, 2));
    }

    #[test]
    fn top_k_truncates() {
        let scored: Vec<ScoredDoc> = (0..20)
            .map(|i| ScoredDoc {
                doc: DocId::new(0, i),
                score: f64::from(i),
            })
            .collect();
        let top = top_k(scored, 5);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0].doc, DocId::new(0, 19));
    }
}

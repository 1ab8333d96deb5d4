//! The positional inverted index of a peer's local collection.
//!
//! This is the "local search engine" substrate (the role Terrier plays in the original
//! prototype): it indexes the documents the peer has published, answers local queries,
//! and provides the statistics (document frequencies, document lengths) that both the
//! HDK key generator and the BM25 ranking model consume.

use crate::analyze::{Analyzer, TermOccurrence};
use crate::doc::{DocId, Document};
use crate::intern::TermId;
use std::collections::{BTreeMap, HashMap};

/// One posting: a document containing the term, with term frequency and positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// Number of occurrences of the term in the document.
    pub tf: u32,
    /// Word positions of the occurrences (ascending).
    pub positions: Vec<u32>,
}

/// The posting list of a term, ordered by document identifier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PostingList {
    /// Postings sorted by `doc`.
    pub postings: Vec<Posting>,
}

impl PostingList {
    /// Document frequency: number of documents containing the term.
    pub fn df(&self) -> usize {
        self.postings.len()
    }

    /// Looks up the posting for a document, if present.
    pub fn get(&self, doc: DocId) -> Option<&Posting> {
        self.postings
            .binary_search_by_key(&doc, |p| p.doc)
            .ok()
            .map(|i| &self.postings[i])
    }

    fn upsert(&mut self, doc: DocId, position: u32) {
        match self.postings.binary_search_by_key(&doc, |p| p.doc) {
            Ok(i) => {
                let p = &mut self.postings[i];
                p.tf += 1;
                p.positions.push(position);
            }
            Err(i) => self.postings.insert(
                i,
                Posting {
                    doc,
                    tf: 1,
                    positions: vec![position],
                },
            ),
        }
    }

    fn remove_doc(&mut self, doc: DocId) -> bool {
        match self.postings.binary_search_by_key(&doc, |p| p.doc) {
            Ok(i) => {
                self.postings.remove(i);
                true
            }
            Err(_) => false,
        }
    }
}

/// Collection-level statistics needed by the ranking model. The statistics are
/// mergeable so that the distributed ranking layer (L4) can aggregate the local
/// statistics of many peers into global values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CollectionStats {
    /// Number of documents.
    pub doc_count: u64,
    /// Sum of document lengths (in analyzed terms).
    pub total_terms: u64,
    /// Document frequency per term.
    pub doc_frequencies: BTreeMap<String, u64>,
}

impl CollectionStats {
    /// Average document length in analyzed terms (0 if the collection is empty).
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_count == 0 {
            0.0
        } else {
            self.total_terms as f64 / self.doc_count as f64
        }
    }

    /// Document frequency of a term.
    pub fn df(&self, term: &str) -> u64 {
        self.doc_frequencies.get(term).copied().unwrap_or(0)
    }

    /// Merges another peer's statistics into this one.
    pub fn merge(&mut self, other: &CollectionStats) {
        self.doc_count += other.doc_count;
        self.total_terms += other.total_terms;
        for (term, df) in &other.doc_frequencies {
            *self.doc_frequencies.entry(term.clone()).or_insert(0) += df;
        }
    }

    /// Number of distinct terms with a recorded document frequency.
    pub fn vocabulary_size(&self) -> usize {
        self.doc_frequencies.len()
    }
}

/// A peer-local positional inverted index.
///
/// The vocabulary is keyed by interned [`TermId`]s: indexing a document interns
/// its analyzed terms once, and every later lookup — candidate generation,
/// posting-list scoring, intersection — moves 4-byte ids instead of strings.
/// String-based accessors remain for query-facing callers.
#[derive(Clone, Debug)]
pub struct InvertedIndex {
    analyzer: Analyzer,
    terms: HashMap<TermId, PostingList>,
    doc_lengths: HashMap<DocId, u32>,
    total_terms: u64,
}

impl Default for InvertedIndex {
    fn default() -> Self {
        InvertedIndex::new(Analyzer::default())
    }
}

impl InvertedIndex {
    /// Creates an empty index using the given analysis pipeline.
    pub fn new(analyzer: Analyzer) -> Self {
        InvertedIndex {
            analyzer,
            terms: HashMap::new(),
            doc_lengths: HashMap::new(),
            total_terms: 0,
        }
    }

    /// The analyzer used by this index.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Indexes a document (title and body).
    pub fn index_document(&mut self, doc: &Document) {
        let text = format!("{} {}", doc.title, doc.body);
        self.index_text(doc.id, &text);
    }

    /// Indexes raw text under a document identifier. Re-indexing an existing document
    /// first removes its previous postings.
    pub fn index_text(&mut self, doc: DocId, text: &str) {
        if self.doc_lengths.contains_key(&doc) {
            self.remove_document(doc);
        }
        let occurrences = self.analyzer.analyze(text);
        let len = occurrences.len() as u32;
        self.doc_lengths.insert(doc, len);
        self.total_terms += u64::from(len);
        for TermOccurrence { term, position } in occurrences {
            self.terms
                .entry(TermId::intern(&term))
                .or_default()
                .upsert(doc, position);
        }
    }

    /// Indexes a pre-analyzed list of term occurrences (used when importing a
    /// document digest produced by an external search engine).
    pub fn index_occurrences(&mut self, doc: DocId, occurrences: &[TermOccurrence]) {
        if self.doc_lengths.contains_key(&doc) {
            self.remove_document(doc);
        }
        let len = occurrences.len() as u32;
        self.doc_lengths.insert(doc, len);
        self.total_terms += u64::from(len);
        for TermOccurrence { term, position } in occurrences {
            self.terms
                .entry(TermId::intern(term))
                .or_default()
                .upsert(doc, *position);
        }
    }

    /// Removes a document from the index.
    pub fn remove_document(&mut self, doc: DocId) -> bool {
        let Some(len) = self.doc_lengths.remove(&doc) else {
            return false;
        };
        self.total_terms -= u64::from(len);
        self.terms.retain(|_, list| {
            list.remove_doc(doc);
            !list.postings.is_empty()
        });
        true
    }

    /// The posting list of a term, if any document contains it.
    pub fn postings(&self, term: &str) -> Option<&PostingList> {
        self.terms.get(&TermId::get(term)?)
    }

    /// The posting list of an interned term, if any document contains it.
    pub fn postings_id(&self, term: TermId) -> Option<&PostingList> {
        self.terms.get(&term)
    }

    /// Document frequency of a term in this local collection.
    pub fn df(&self, term: &str) -> usize {
        self.postings(term).map_or(0, PostingList::df)
    }

    /// Document frequency of an interned term in this local collection.
    pub fn df_id(&self, term: TermId) -> usize {
        self.terms.get(&term).map_or(0, PostingList::df)
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Length (in analyzed terms) of a document.
    pub fn doc_len(&self, doc: DocId) -> Option<u32> {
        self.doc_lengths.get(&doc).copied()
    }

    /// Average document length in analyzed terms.
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_lengths.is_empty() {
            0.0
        } else {
            self.total_terms as f64 / self.doc_lengths.len() as f64
        }
    }

    /// Iterates over the vocabulary (terms in arbitrary order).
    pub fn vocabulary(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.terms.keys().map(|id| id.as_str())
    }

    /// Iterates over the interned vocabulary (arbitrary order, no resolution).
    pub fn vocabulary_ids(&self) -> impl Iterator<Item = TermId> + '_ {
        self.terms.keys().copied()
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.terms.len()
    }

    /// All indexed document identifiers (sorted).
    pub fn documents(&self) -> Vec<DocId> {
        let mut ids: Vec<DocId> = self.doc_lengths.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Documents that contain **all** of the given terms (conjunctive/AND semantics),
    /// sorted by document id. This is the posting-list intersection primitive whose
    /// network cost the paper's single-term baseline cannot afford.
    pub fn intersect<S: AsRef<str>>(&self, terms: &[S]) -> Vec<DocId> {
        if terms.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&PostingList> = Vec::with_capacity(terms.len());
        for t in terms {
            match self.postings(t.as_ref()) {
                Some(l) => lists.push(l),
                None => return Vec::new(),
            }
        }
        Self::intersect_lists(lists)
    }

    /// [`InvertedIndex::intersect`] for already-interned terms.
    pub fn intersect_ids(&self, terms: &[TermId]) -> Vec<DocId> {
        if terms.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&PostingList> = Vec::with_capacity(terms.len());
        for t in terms {
            match self.terms.get(t) {
                Some(l) => lists.push(l),
                None => return Vec::new(),
            }
        }
        Self::intersect_lists(lists)
    }

    fn intersect_lists(mut lists: Vec<&PostingList>) -> Vec<DocId> {
        // Start from the shortest list and probe the others.
        lists.sort_by_key(|l| l.df());
        let (first, rest) = lists.split_first().expect("non-empty");
        first
            .postings
            .iter()
            .map(|p| p.doc)
            .filter(|doc| rest.iter().all(|l| l.get(*doc).is_some()))
            .collect()
    }

    /// Exports this peer's collection statistics (document count, lengths, document
    /// frequencies) for aggregation by the distributed ranking layer.
    pub fn collection_stats(&self) -> CollectionStats {
        CollectionStats {
            doc_count: self.doc_lengths.len() as u64,
            total_terms: self.total_terms,
            doc_frequencies: self
                .terms
                .iter()
                .map(|(t, l)| (t.as_str().to_string(), l.df() as u64))
                .collect(),
        }
    }

    /// The distinct analyzed terms of a document together with their positions,
    /// reconstructed from the inverted index, **sorted by [`TermId`]** so callers
    /// can binary-search by id. Used by the HDK key generator, which needs
    /// per-document term positions to apply its proximity-window filter.
    pub fn doc_term_positions(&self, doc: DocId) -> Vec<(TermId, Vec<u32>)> {
        let mut out: Vec<(TermId, Vec<u32>)> = self
            .terms
            .iter()
            .filter_map(|(t, l)| l.get(doc).map(|p| (*t, p.positions.clone())))
            .collect();
        out.sort_unstable_by_key(|(t, _)| *t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u32) -> DocId {
        DocId::new(0, i)
    }

    fn sample_index() -> InvertedIndex {
        let mut idx = InvertedIndex::default();
        idx.index_text(doc(0), "peer to peer text retrieval in structured networks");
        idx.index_text(
            doc(1),
            "distributed hash tables route messages between peers",
        );
        idx.index_text(doc(2), "text indexing and retrieval with inverted indexes");
        idx.index_text(doc(3), "centralized web search engines index the whole web");
        idx
    }

    #[test]
    fn indexing_builds_postings_with_positions() {
        let idx = sample_index();
        let peers = idx.postings("peer").expect("peer indexed");
        // "peer" appears twice in doc 0 and once (as "peers") in doc 1.
        assert_eq!(peers.df(), 2);
        let p0 = peers.get(doc(0)).unwrap();
        assert_eq!(p0.tf, 2);
        assert_eq!(p0.positions.len(), 2);
        assert!(p0.positions[0] < p0.positions[1]);
        assert!(peers.get(doc(3)).is_none());
    }

    #[test]
    fn df_and_doc_count() {
        let idx = sample_index();
        assert_eq!(idx.doc_count(), 4);
        assert_eq!(idx.df("retriev"), 2);
        assert_eq!(idx.df("web"), 1);
        assert_eq!(idx.df("missing"), 0);
        assert!(idx.vocabulary_size() > 10);
        assert_eq!(idx.documents().len(), 4);
    }

    #[test]
    fn doc_lengths_and_average() {
        let idx = sample_index();
        assert!(idx.doc_len(doc(0)).unwrap() >= 5);
        assert!(idx.doc_len(DocId::new(9, 9)).is_none());
        let avg = idx.avg_doc_len();
        assert!(avg > 3.0 && avg < 10.0, "avg {avg}");
    }

    #[test]
    fn reindexing_replaces_old_postings() {
        let mut idx = sample_index();
        idx.index_text(doc(0), "completely different content now");
        assert_eq!(idx.doc_count(), 4);
        assert_eq!(idx.df("peer"), 1); // only doc 1 remains
        assert!(idx.postings("differ").is_some());
    }

    #[test]
    fn removing_documents_cleans_up_terms() {
        let mut idx = sample_index();
        assert!(idx.remove_document(doc(3)));
        assert!(!idx.remove_document(doc(3)));
        assert_eq!(idx.doc_count(), 3);
        // "centralized" only appeared in doc 3, so its term disappears entirely.
        assert_eq!(idx.df("central"), 0);
        assert!(idx.vocabulary().all(|t| t != "central"));
    }

    #[test]
    fn intersection_requires_all_terms() {
        let idx = sample_index();
        let both = idx.intersect(&["text", "retriev"]);
        assert_eq!(both, vec![doc(0), doc(2)]);
        let none = idx.intersect(&["text", "messag"]);
        assert!(none.is_empty());
        assert!(idx.intersect::<&str>(&[]).is_empty());
        assert!(idx.intersect(&["nonexistent"]).is_empty());
        // The interned-id variant agrees with the string variant.
        let ids = [TermId::intern("text"), TermId::intern("retriev")];
        assert_eq!(idx.intersect_ids(&ids), both);
        assert!(idx.intersect_ids(&[]).is_empty());
    }

    #[test]
    fn collection_stats_merge() {
        let idx = sample_index();
        let mut stats = idx.collection_stats();
        assert_eq!(stats.doc_count, 4);
        assert_eq!(stats.df("retriev"), 2);
        let mut other = InvertedIndex::default();
        other.index_text(DocId::new(1, 0), "retrieval of multimedia documents");
        stats.merge(&other.collection_stats());
        assert_eq!(stats.doc_count, 5);
        assert_eq!(stats.df("retriev"), 3);
        assert!(stats.avg_doc_len() > 0.0);
        assert!(stats.vocabulary_size() >= 15);
    }

    #[test]
    fn doc_term_positions_reconstructs_forward_view() {
        let idx = sample_index();
        let terms = idx.doc_term_positions(doc(0));
        assert!(terms.iter().any(|(t, _)| t.as_str() == "peer"));
        let (_, positions) = terms.iter().find(|(t, _)| t.as_str() == "peer").unwrap();
        assert_eq!(positions.len(), 2);
        // Sorted by id so callers can binary-search.
        assert!(terms.windows(2).all(|w| w[0].0 < w[1].0));
        // Unknown document yields an empty view.
        assert!(idx.doc_term_positions(DocId::new(5, 5)).is_empty());
    }

    #[test]
    fn index_occurrences_matches_index_text() {
        let analyzer = Analyzer::default();
        let text = "query driven indexing for peer to peer retrieval";
        let occs = analyzer.analyze(text);
        let mut a = InvertedIndex::default();
        a.index_text(doc(0), text);
        let mut b = InvertedIndex::default();
        b.index_occurrences(doc(0), &occs);
        assert_eq!(a.df("queri"), b.df("queri"));
        assert_eq!(a.doc_len(doc(0)), b.doc_len(doc(0)));
        assert_eq!(a.vocabulary_size(), b.vocabulary_size());
    }

    #[test]
    fn empty_index_edge_cases() {
        let idx = InvertedIndex::default();
        assert_eq!(idx.doc_count(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
        assert!(idx.postings("anything").is_none());
        assert_eq!(idx.collection_stats().avg_doc_len(), 0.0);
    }
}

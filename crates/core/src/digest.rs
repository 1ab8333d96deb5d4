//! The Alvis document digest.
//!
//! The *document digest* ([`DocumentDigest`]) is the paper's interchange
//! format for plugging external local search engines into a peer: an explicit,
//! serialisable representation of a collection's index (documents → terms →
//! positions). It grew out of the former `textindex::digest` module.

use alvisp2p_textindex::{Analyzer, DocId, Document, DocumentStore, InvertedIndex, TermOccurrence};
use serde::{Deserialize, Serialize};

/// One indexing term of a digest document, with its word positions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigestTerm {
    /// The normalized indexing term.
    pub term: String,
    /// Word positions at which the term occurs.
    pub positions: Vec<u32>,
}

/// One document entry of a digest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigestDocument {
    /// URL of the original document (at the external engine or hosting peer).
    pub url: String,
    /// Human-readable title.
    pub title: String,
    /// Indexing terms with positions.
    pub terms: Vec<DigestTerm>,
}

impl DigestDocument {
    /// Flattens the entry into analyzer-style term occurrences.
    fn to_occurrences(&self) -> Vec<TermOccurrence> {
        let mut occs: Vec<TermOccurrence> = self
            .terms
            .iter()
            .flat_map(|t| {
                t.positions.iter().map(|p| TermOccurrence {
                    term: t.term.clone(),
                    position: *p,
                })
            })
            .collect();
        occs.sort_by_key(|o| o.position);
        occs
    }
}

/// A digest of a whole document collection.
///
/// A *document digest* is an explicit, serialisable representation of the
/// index of a document collection: the list of document URLs and, for each
/// document, the list of its indexing terms with their positions. It is the
/// interchange format that lets a peer be associated with an arbitrary
/// external local search engine (the paper's example is a digital library
/// running its own sophisticated indexer): the external engine exports a
/// digest, the peer re-imports it into its local index and starts the
/// distributed indexing process.
///
/// The original format is XML; this reproduction uses JSON with the same
/// structure (documents → terms → positions), which keeps the digest
/// human-inspectable.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DocumentDigest {
    /// Name of the collection (e.g. the digital library's identifier).
    pub collection: String,
    /// Document entries.
    pub documents: Vec<DigestDocument>,
}

impl DocumentDigest {
    /// Creates an empty digest for a named collection.
    pub fn new(collection: impl Into<String>) -> Self {
        DocumentDigest {
            collection: collection.into(),
            documents: Vec::new(),
        }
    }

    /// Builds a digest from a peer's published documents using the given analyzer
    /// (what a peer would transmit to make its collection globally searchable).
    pub fn from_collection(store: &DocumentStore, analyzer: &Analyzer) -> Self {
        let mut digest = DocumentDigest::new(format!("peer{}", store.peer()));
        for doc in store.iter() {
            digest.documents.push(digest_document(doc, analyzer));
        }
        digest
    }

    /// Number of documents described by the digest.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the digest describes no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Serialises the digest to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a digest from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }

    /// Imports the digest into a peer's local inverted index, assigning fresh local
    /// document identifiers owned by `peer`. Returns the assigned identifiers in the
    /// order of the digest's documents.
    pub fn import_into(
        &self,
        index: &mut InvertedIndex,
        peer: u32,
        first_local: u32,
    ) -> Vec<DocId> {
        let mut ids = Vec::with_capacity(self.documents.len());
        for (i, entry) in self.documents.iter().enumerate() {
            let id = DocId::new(peer, first_local + i as u32);
            index.index_occurrences(id, &entry.to_occurrences());
            ids.push(id);
        }
        ids
    }
}

fn digest_document(doc: &Document, analyzer: &Analyzer) -> DigestDocument {
    let text = format!("{} {}", doc.title, doc.body);
    let occs = analyzer.analyze(&text);
    let mut terms: Vec<DigestTerm> = Vec::new();
    for occ in occs {
        match terms.iter_mut().find(|t| t.term == occ.term) {
            Some(t) => t.positions.push(occ.position),
            None => terms.push(DigestTerm {
                term: occ.term,
                positions: vec![occ.position],
            }),
        }
    }
    terms.sort_by(|a, b| a.term.cmp(&b.term));
    DigestDocument {
        url: doc.url.clone(),
        title: doc.title.clone(),
        terms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> DocumentStore {
        let mut store = DocumentStore::new(2);
        store.publish("P2P Retrieval", "peer to peer retrieval of text documents");
        store.publish("Ranking", "bm25 ranking of retrieved documents");
        store
    }

    #[test]
    fn digest_from_collection_covers_all_documents() {
        let store = sample_store();
        let digest = DocumentDigest::from_collection(&store, &Analyzer::default());
        assert_eq!(digest.len(), 2);
        assert_eq!(digest.collection, "peer2");
        assert!(!digest.is_empty());
        let first = &digest.documents[0];
        assert!(first.terms.iter().any(|t| t.term == "retriev"));
        let occurrences: usize = first.terms.iter().map(|t| t.positions.len()).sum();
        assert!(occurrences >= 4);
    }

    #[test]
    fn json_round_trip_preserves_the_digest() {
        let store = sample_store();
        let digest = DocumentDigest::from_collection(&store, &Analyzer::default());
        let json = digest.to_json().unwrap();
        let back = DocumentDigest::from_json(&json).unwrap();
        assert_eq!(digest, back);
        assert!(json.contains("retriev"));
    }

    #[test]
    fn import_reproduces_the_original_index() {
        let store = sample_store();
        let analyzer = Analyzer::default();
        // Index built directly from the documents.
        let mut direct = InvertedIndex::default();
        for (i, doc) in store.iter().enumerate() {
            direct.index_text(
                DocId::new(9, i as u32),
                &format!("{} {}", doc.title, doc.body),
            );
        }
        // Index built by exporting and re-importing a digest (what an external engine
        // would do).
        let digest = DocumentDigest::from_collection(&store, &analyzer);
        let mut imported = InvertedIndex::default();
        let ids = digest.import_into(&mut imported, 9, 0);
        assert_eq!(ids.len(), 2);
        assert_eq!(imported.doc_count(), direct.doc_count());
        for term in ["retriev", "peer", "bm25", "rank"] {
            assert_eq!(imported.df(term), direct.df(term), "df mismatch for {term}");
        }
        assert_eq!(imported.avg_doc_len(), direct.avg_doc_len());
    }

    #[test]
    fn digest_occurrences_are_position_sorted() {
        let entry = DigestDocument {
            url: "u".into(),
            title: "t".into(),
            terms: vec![
                DigestTerm {
                    term: "b".into(),
                    positions: vec![3, 1],
                },
                DigestTerm {
                    term: "a".into(),
                    positions: vec![0, 2],
                },
            ],
        };
        let occs = entry.to_occurrences();
        let positions: Vec<u32> = occs.iter().map(|o| o.position).collect();
        assert_eq!(positions, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_digest_round_trips() {
        let digest = DocumentDigest::new("empty");
        let json = digest.to_json().unwrap();
        let back = DocumentDigest::from_json(&json).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.collection, "empty");
    }
}

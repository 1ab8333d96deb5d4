//! The AlvisP2P peer: the co-located layers L3–L5 of one participant.
//!
//! An [`AlvisPeer`] owns the peer's published documents (the "shared directory"), its
//! local inverted index (the role Terrier plays in the original client), and the
//! analyzer both share. Documents never leave the peer — only index entries do — so
//! the peer also enforces per-document access rights when another peer fetches a
//! result, and serves the "second step" query refinement against its local engine.

use crate::digest::DocumentDigest;
use alvisp2p_textindex::bm25::{Bm25Searcher, ScoredDoc};
use alvisp2p_textindex::{
    AccessDecision, Analyzer, CollectionStats, Credentials, DocId, Document, DocumentStore,
    InvertedIndex,
};

/// Metadata kept for documents imported from an external engine via a digest: the
/// document body lives at the external engine, only the index and the pointer are held
/// by the peer.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ExternalDocument {
    /// The identifier assigned when the digest was imported.
    id: DocId,
    /// Title from the digest.
    title: String,
    /// URL of the original document at the external engine.
    url: String,
}

/// A result served by a peer for a remote fetch request, after access control.
#[derive(Clone, Debug, PartialEq)]
pub enum FetchOutcome {
    /// The full document.
    Full(Document),
    /// Only metadata (title, URL, snippet) — the document is private.
    Metadata {
        /// Document title.
        title: String,
        /// URL at the hosting peer.
        url: String,
        /// A short snippet.
        snippet: String,
    },
    /// Access denied (missing or wrong credentials).
    Denied,
    /// The peer does not host this document.
    NotFound,
}

/// One AlvisP2P participant (layers 3–5).
#[derive(Clone, Debug)]
pub struct AlvisPeer {
    peer_id: u32,
    store: DocumentStore,
    index: InvertedIndex,
    analyzer: Analyzer,
    external: Vec<ExternalDocument>,
    /// Above every local document number in `index`: own and imported
    /// documents draw from this one counter, so they never share a [`DocId`].
    next_local: u32,
}

impl AlvisPeer {
    /// Creates a peer with an empty shared directory.
    pub fn new(peer_id: u32) -> Self {
        AlvisPeer::with_analyzer(peer_id, Analyzer::default())
    }

    /// Creates a peer using a custom analysis pipeline (the heterogeneity story: peers
    /// may process their local collections differently).
    pub fn with_analyzer(peer_id: u32, analyzer: Analyzer) -> Self {
        AlvisPeer {
            peer_id,
            store: DocumentStore::new(peer_id),
            index: InvertedIndex::new(analyzer.clone()),
            analyzer,
            external: Vec::new(),
            next_local: 0,
        }
    }

    /// The peer's analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The peer's local inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The peer's shared-directory document store.
    pub fn documents(&self) -> &DocumentStore {
        &self.store
    }

    /// Number of locally indexed documents (own + imported).
    pub fn indexed_documents(&self) -> usize {
        self.index.doc_count()
    }

    // ------------------------------------------------------------------
    // Publishing
    // ------------------------------------------------------------------

    /// Publishes a plain-text document into the shared directory and indexes it.
    pub fn publish(&mut self, title: impl Into<String>, body: impl Into<String>) -> DocId {
        let id = DocId::new(self.peer_id, self.next_local);
        self.publish_document(Document::new(id, title, body))
    }

    /// Publishes a fully specified document (format, access rights) and indexes it.
    /// Keeps the document's id if this peer owns it and no indexed document (own or
    /// imported) uses it; otherwise assigns the next local id.
    pub fn publish_document(&mut self, mut doc: Document) -> DocId {
        if doc.id.peer != self.peer_id || self.index.doc_len(doc.id).is_some() {
            doc.id = DocId::new(self.peer_id, self.next_local);
        }
        self.next_local = self.next_local.max(doc.id.local + 1);
        let id = self.store.publish_document(doc);
        let stored = self.store.get(id).expect("just published").clone();
        self.index.index_document(&stored);
        id
    }

    /// Removes a document from the shared directory and the local index.
    pub fn unpublish(&mut self, id: DocId) -> bool {
        let removed = self.store.remove(id).is_some();
        if removed {
            self.index.remove_document(id);
        }
        removed
    }

    /// Imports a document digest produced by an external search engine: the documents
    /// become searchable through this peer (and, once distributed indexing runs,
    /// through the whole network) while remaining hosted at the external engine.
    pub fn import_digest(&mut self, digest: &DocumentDigest) -> Vec<DocId> {
        let ids = digest.import_into(&mut self.index, self.peer_id, self.next_local);
        self.next_local += ids.len() as u32;
        for (id, entry) in ids.iter().zip(&digest.documents) {
            self.external.push(ExternalDocument {
                id: *id,
                title: entry.title.clone(),
                url: entry.url.clone(),
            });
        }
        ids
    }

    /// Exports this peer's own collection as a digest (what it would transmit to an
    /// associated external engine or publish for debugging).
    pub fn export_digest(&self) -> DocumentDigest {
        DocumentDigest::from_collection(&self.store, &self.analyzer)
    }

    /// The peer's local collection statistics (published to the ranking layer).
    pub fn collection_stats(&self) -> CollectionStats {
        self.index.collection_stats()
    }

    // ------------------------------------------------------------------
    // Serving
    // ------------------------------------------------------------------

    /// Runs the query against the peer's local search engine (the refinement step of
    /// the two-step retrieval). `query` is raw text; it is analyzed with this peer's
    /// own pipeline.
    pub fn local_search(&self, query: &str, k: usize) -> Vec<ScoredDoc> {
        let terms = self.analyzer.analyze_query(query);
        Bm25Searcher::new(&self.index).search(&terms, k)
    }

    /// Serves a remote fetch of a document, enforcing its access rights.
    pub fn fetch(&self, id: DocId, credentials: &Credentials) -> FetchOutcome {
        let Some(doc) = self.store.get(id) else {
            return FetchOutcome::NotFound;
        };
        match doc.access.check(credentials) {
            AccessDecision::Granted => FetchOutcome::Full(doc.clone()),
            AccessDecision::MetadataOnly => FetchOutcome::Metadata {
                title: doc.title.clone(),
                url: doc.url.clone(),
                snippet: doc.snippet(160),
            },
            AccessDecision::Denied => FetchOutcome::Denied,
        }
    }

    /// A displayable snippet for a result owned by this peer (empty if unknown).
    pub fn snippet(&self, id: DocId) -> String {
        self.store
            .get(id)
            .map(|d| d.snippet(160))
            .or_else(|| {
                self.external
                    .iter()
                    .find(|e| e.id == id)
                    .map(|e| format!("[external] {}", e.title))
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvisp2p_textindex::AccessRights;

    #[test]
    fn publish_indexes_and_serves_documents() {
        let mut peer = AlvisPeer::new(3);
        let id = peer.publish("P2P retrieval", "peer to peer retrieval of text documents");
        assert_eq!(id.peer, 3);
        assert_eq!(peer.indexed_documents(), 1);
        assert_eq!(peer.documents().len(), 1);
        let results = peer.local_search("retrieval", 10);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].doc, id);
        assert!(!peer.snippet(id).is_empty());
    }

    #[test]
    fn unpublish_removes_from_store_and_index() {
        let mut peer = AlvisPeer::new(0);
        let id = peer.publish("Title", "searchable body text");
        assert!(peer.unpublish(id));
        assert!(!peer.unpublish(id));
        assert_eq!(peer.indexed_documents(), 0);
        assert!(peer.local_search("searchable", 10).is_empty());
    }

    #[test]
    fn access_rights_are_enforced_on_fetch() {
        let mut peer = AlvisPeer::new(1);
        let public = peer.publish("Open", "anyone can read this");
        let restricted_doc = Document::new(DocId::new(1, 99), "Secret", "classified content body")
            .with_access(AccessRights::Restricted {
                username: "alice".into(),
                password: "pw".into(),
            });
        let restricted = peer.publish_document(restricted_doc);
        let private_doc = Document::new(DocId::new(1, 98), "Hidden", "private but searchable text")
            .with_access(AccessRights::Private);
        let private = peer.publish_document(private_doc);

        assert!(matches!(
            peer.fetch(public, &Credentials::anonymous()),
            FetchOutcome::Full(_)
        ));
        assert_eq!(
            peer.fetch(restricted, &Credentials::anonymous()),
            FetchOutcome::Denied
        );
        assert!(matches!(
            peer.fetch(restricted, &Credentials::basic("alice", "pw")),
            FetchOutcome::Full(_)
        ));
        assert!(matches!(
            peer.fetch(private, &Credentials::basic("alice", "pw")),
            FetchOutcome::Metadata { .. }
        ));
        assert_eq!(
            peer.fetch(DocId::new(1, 12345), &Credentials::anonymous()),
            FetchOutcome::NotFound
        );
        // Restricted and private documents are still locally searchable.
        assert!(!peer.local_search("classified", 10).is_empty());
        assert!(!peer.local_search("private", 10).is_empty());
    }

    #[test]
    fn digest_import_makes_external_documents_searchable() {
        // An "external engine" (modelled as another peer) exports its collection.
        let mut library = AlvisPeer::new(7);
        library.publish(
            "Digital library holdings",
            "medieval manuscripts digitized archive",
        );
        library.publish("Catalogue", "rare books catalogue with annotations");
        let digest = library.export_digest();

        // A gateway peer imports the digest.
        let mut gateway = AlvisPeer::new(2);
        gateway.publish("Own doc", "completely unrelated content");
        let ids = gateway.import_digest(&digest);
        assert_eq!(ids.len(), 2);
        assert_eq!(gateway.indexed_documents(), 3);
        assert_eq!(gateway.external.len(), 2);
        // The imported documents are found by local search at the gateway.
        let hits = gateway.local_search("manuscripts archive", 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].doc.peer, 2);
        // But their bodies are not hosted at the gateway.
        assert_eq!(
            gateway.fetch(hits[0].doc, &Credentials::anonymous()),
            FetchOutcome::NotFound
        );
        assert!(gateway.snippet(hits[0].doc).contains("[external]"));
    }

    fn one_document_digest() -> DocumentDigest {
        let mut library = AlvisPeer::new(7);
        library.publish("Catalogue", "rare books catalogue with annotations");
        library.export_digest()
    }

    #[test]
    fn an_own_document_never_takes_an_imported_id() {
        let mut peer = AlvisPeer::new(2);
        let imported = peer.import_digest(&one_document_digest())[0];
        let own = peer.publish_document(Document::new(imported, "Own", "unrelated body text"));
        assert_ne!(own, imported);
        assert_eq!(peer.indexed_documents(), 2);
        assert!(!peer.local_search("catalogue", 10).is_empty());
    }

    #[test]
    fn an_import_never_takes_an_own_documents_id() {
        let mut peer = AlvisPeer::new(2);
        let own = peer.publish_document(Document::new(
            DocId::new(2, 1_000_000),
            "Own",
            "unrelated body text",
        ));
        let imported = peer.import_digest(&one_document_digest())[0];
        assert_ne!(imported, own);
        assert_eq!(peer.indexed_documents(), 2);
        assert!(!peer.local_search("unrelated", 10).is_empty());
    }

    #[test]
    fn collection_stats_reflect_local_collection() {
        let mut peer = AlvisPeer::new(4);
        peer.publish("One", "alpha beta gamma");
        peer.publish("Two", "alpha delta");
        let stats = peer.collection_stats();
        assert_eq!(stats.doc_count, 2);
        assert_eq!(stats.df("alpha"), 2);
        assert_eq!(stats.df("delta"), 1);
    }

    #[test]
    fn custom_analyzer_is_used_for_indexing_and_search() {
        let plain = Analyzer::plain();
        let mut peer = AlvisPeer::with_analyzer(5, plain);
        peer.publish("Stopwords", "the and of remain searchable here");
        // With the plain analyzer, stopwords are indexed and searchable.
        assert!(!peer.local_search("the", 5).is_empty());
    }
}

//! Documents and the per-peer document store.
//!
//! In AlvisP2P documents always remain at the peer that owns them; only index entries
//! travel through the network. A [`Document`] therefore carries its full text plus the
//! metadata shown in the client's result list (title, URL at the hosting peer, size),
//! and the [`DocumentStore`] is the peer-local "shared directory" of published
//! documents.

use crate::access::AccessRights;
use std::collections::BTreeMap;

/// Globally unique document identifier: `(peer id, local document number)`.
///
/// Using the owning peer as part of the identifier mirrors the paper's design where a
/// result's URL always points back at the hosting peer
/// (`http://PeerIP:Port/SharedDir/DocumentName`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct DocId {
    /// Identifier of the peer that owns/hosts the document.
    pub peer: u32,
    /// Document number local to that peer.
    pub local: u32,
}

impl DocId {
    /// Creates a document identifier.
    pub fn new(peer: u32, local: u32) -> Self {
        DocId { peer, local }
    }

    /// Packs the identifier into a single u64 (used for compact posting lists).
    pub fn as_u64(self) -> u64 {
        (u64::from(self.peer) << 32) | u64::from(self.local)
    }

    /// Unpacks an identifier from its u64 form.
    pub fn from_u64(v: u64) -> Self {
        DocId {
            peer: (v >> 32) as u32,
            local: (v & 0xFFFF_FFFF) as u32,
        }
    }
}

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc{}@peer{}", self.local, self.peer)
    }
}

/// The supported source formats of a published document (the paper's client accepts
/// text, HTML, XML, PDF/Word and the Alvis XML format; multimedia is published through
/// an XML description).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub enum DocumentFormat {
    /// Plain text.
    #[default]
    Text,
    /// HTML page.
    Html,
    /// Generic XML.
    Xml,
    /// PDF (text already extracted).
    Pdf,
    /// Word processor document (text already extracted).
    Word,
    /// Alvis XML description of an external or multimedia resource.
    AlvisDescription,
}

/// A published document.
#[derive(Clone, Debug, PartialEq)]
pub struct Document {
    /// Globally unique identifier.
    pub id: DocId,
    /// Human-readable title shown in result lists.
    pub title: String,
    /// Full text content (or textual description for multimedia resources).
    pub body: String,
    /// URL at which the hosting peer serves the document.
    pub url: String,
    /// Source format.
    pub format: DocumentFormat,
    /// Access rights controlling who may fetch the full document.
    pub access: AccessRights,
}

impl Document {
    /// Creates a plain-text document with open access.
    pub fn new(id: DocId, title: impl Into<String>, body: impl Into<String>) -> Self {
        let title = title.into();
        let url = format!("http://peer{}:8080/shared/{}", id.peer, slugify(&title));
        Document {
            id,
            title,
            body: body.into(),
            url,
            format: DocumentFormat::Text,
            access: AccessRights::Public,
        }
    }

    /// Sets the document format.
    pub fn with_format(mut self, format: DocumentFormat) -> Self {
        self.format = format;
        self
    }

    /// Sets the access rights.
    pub fn with_access(mut self, access: AccessRights) -> Self {
        self.access = access;
        self
    }

    /// Document length in whitespace-separated words (used by BM25 normalisation).
    pub fn word_count(&self) -> usize {
        self.body.split_whitespace().count()
    }

    /// A result snippet: the first `max_chars` characters of the body on a word
    /// boundary.
    pub fn snippet(&self, max_chars: usize) -> String {
        if self.body.chars().count() <= max_chars {
            return self.body.clone();
        }
        let mut out = String::new();
        for word in self.body.split_whitespace() {
            if out.chars().count() + word.chars().count() + 1 > max_chars {
                break;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(word);
        }
        out.push('…');
        out
    }
}

fn slugify(title: &str) -> String {
    let slug: String = title
        .chars()
        .map(|c| {
            if c.is_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    let mut cleaned = String::new();
    let mut prev_dash = false;
    for c in slug.chars() {
        if c == '-' {
            if !prev_dash {
                cleaned.push(c);
            }
            prev_dash = true;
        } else {
            cleaned.push(c);
            prev_dash = false;
        }
    }
    cleaned.trim_matches('-').to_string()
}

/// The peer-local store of published documents (the "shared directory").
#[derive(Clone, Debug, Default)]
pub struct DocumentStore {
    docs: BTreeMap<DocId, Document>,
    next_local: u32,
    peer: u32,
}

impl DocumentStore {
    /// Creates an empty store owned by `peer`.
    pub fn new(peer: u32) -> Self {
        DocumentStore {
            docs: BTreeMap::new(),
            next_local: 0,
            peer,
        }
    }

    /// The owning peer's identifier.
    pub fn peer(&self) -> u32 {
        self.peer
    }

    /// Publishes a document with the next local identifier and returns its id.
    pub fn publish(&mut self, title: impl Into<String>, body: impl Into<String>) -> DocId {
        let id = DocId::new(self.peer, self.next_local);
        self.next_local += 1;
        self.docs.insert(id, Document::new(id, title, body));
        id
    }

    /// Publishes a fully specified document (keeps its id if unused, otherwise
    /// allocates the next local id).
    pub fn publish_document(&mut self, mut doc: Document) -> DocId {
        if doc.id.peer != self.peer || self.docs.contains_key(&doc.id) {
            doc.id = DocId::new(self.peer, self.next_local);
            self.next_local += 1;
        } else {
            self.next_local = self.next_local.max(doc.id.local + 1);
        }
        let id = doc.id;
        self.docs.insert(id, doc);
        id
    }

    /// Removes a document (un-publishing it). Returns the removed document.
    pub fn remove(&mut self, id: DocId) -> Option<Document> {
        self.docs.remove(&id)
    }

    /// Retrieves a document by id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.docs.get(&id)
    }

    /// Number of published documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether no documents are published.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Iterates over all documents in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Document> {
        self.docs.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_id_packs_and_unpacks() {
        let id = DocId::new(7, 12345);
        assert_eq!(DocId::from_u64(id.as_u64()), id);
        assert_eq!(DocId::from_u64(0), DocId::new(0, 0));
        let max = DocId::new(u32::MAX, u32::MAX);
        assert_eq!(DocId::from_u64(max.as_u64()), max);
        assert_eq!(format!("{id}"), "doc12345@peer7");
    }

    #[test]
    fn publish_assigns_sequential_local_ids() {
        let mut store = DocumentStore::new(3);
        let a = store.publish("First", "body one");
        let b = store.publish("Second", "body two");
        assert_eq!(a, DocId::new(3, 0));
        assert_eq!(b, DocId::new(3, 1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(a).unwrap().title, "First");
    }

    #[test]
    fn publish_document_reassigns_foreign_ids() {
        let mut store = DocumentStore::new(1);
        let doc = Document::new(DocId::new(9, 5), "Foreign", "text");
        let id = store.publish_document(doc);
        assert_eq!(id.peer, 1);
        // A document with an unused id of the right peer keeps it.
        let doc2 = Document::new(DocId::new(1, 10), "Kept", "text");
        let id2 = store.publish_document(doc2);
        assert_eq!(id2, DocId::new(1, 10));
        // And the next auto id does not collide.
        let id3 = store.publish("Auto", "text");
        assert_eq!(id3, DocId::new(1, 11));
    }

    #[test]
    fn urls_are_derived_from_peer_and_title() {
        let doc = Document::new(DocId::new(4, 0), "P2P Text Retrieval!", "...");
        assert_eq!(doc.url, "http://peer4:8080/shared/p2p-text-retrieval");
    }

    #[test]
    fn snippet_truncates_on_word_boundaries() {
        let doc = Document::new(
            DocId::new(0, 0),
            "t",
            "alpha beta gamma delta epsilon zeta eta theta",
        );
        let s = doc.snippet(20);
        assert!(s.ends_with('…'));
        assert!(s.chars().count() <= 21);
        assert!(s.starts_with("alpha beta"));
        // Short bodies are returned unchanged.
        let short = Document::new(DocId::new(0, 1), "t", "tiny body");
        assert_eq!(short.snippet(100), "tiny body");
    }

    #[test]
    fn remove_unpublishes() {
        let mut store = DocumentStore::new(0);
        let id = store.publish("Doc", "body");
        assert!(store.remove(id).is_some());
        assert!(store.get(id).is_none());
        assert!(store.remove(id).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn word_count_counts_whitespace_words() {
        let doc = Document::new(DocId::new(0, 0), "t", "one two  three\nfour");
        assert_eq!(doc.word_count(), 4);
    }
}

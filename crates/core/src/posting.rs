//! Truncated posting lists.
//!
//! The second pillar of the AlvisP2P indexing strategy (besides choosing good keys) is
//! that posting lists shipped through the network are **truncated to a bounded number
//! of top-ranked document references**. This caps both the storage at the responsible
//! peer and — crucially — the bytes transferred when a querying peer fetches the list,
//! which is what makes retrieval bandwidth independent of collection size.

use alvisp2p_netsim::WireSize;
use alvisp2p_textindex::DocId;
use std::collections::HashSet;

/// One entry of a (truncated) posting list: a document reference with the relevance
/// score the publisher computed from global collection statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredRef {
    /// The referenced document.
    pub doc: DocId,
    /// BM25 score of the document with respect to the key's terms, computed with
    /// global collection statistics at publication time.
    pub score: f64,
}

impl WireSize for ScoredRef {
    /// Actual encoded length of a stand-alone entry under [`crate::codec`]:
    /// two doc-id varints plus the 2-byte quantized score. In-list entries
    /// are delta-coded smaller still.
    fn wire_size(&self) -> usize {
        crate::codec::entry_wire_size(self)
    }
}

/// A posting list bounded to the top-`capacity` highest-scoring document references.
///
/// The list also remembers the *true* number of matching documents (`full_df`), which
/// may exceed the number of stored references; `is_truncated()` is how the retrieval
/// algorithm decides whether a result is complete (allowing it to prune the dominated
/// part of the query lattice) or merely a top-k approximation.
///
/// A membership set over the stored documents makes the common-case insert — a
/// document not yet in the list — O(log n) instead of the former O(n) linear
/// duplicate scan, so bulk [`TruncatedPostingList::merge`] /
/// [`TruncatedPostingList::from_refs`] are no longer quadratic in list capacity.
#[derive(Clone, Debug, Default)]
pub struct TruncatedPostingList {
    /// Stored references, best score first.
    refs: Vec<ScoredRef>,
    capacity: usize,
    full_df: u64,
    /// Documents currently present in `refs` (derived; never on the wire).
    members: HashSet<DocId>,
}

impl PartialEq for TruncatedPostingList {
    fn eq(&self, other: &Self) -> bool {
        // `members` is derived from `refs`; comparing it would be redundant.
        self.refs == other.refs && self.capacity == other.capacity && self.full_df == other.full_df
    }
}

impl TruncatedPostingList {
    /// Creates an empty list with the given capacity bound.
    pub fn new(capacity: usize) -> Self {
        TruncatedPostingList {
            refs: Vec::new(),
            capacity: capacity.max(1),
            full_df: 0,
            members: HashSet::new(),
        }
    }

    /// Builds a list from an iterator of scored references, keeping the top
    /// `capacity` by score.
    pub fn from_refs(refs: impl IntoIterator<Item = ScoredRef>, capacity: usize) -> Self {
        let mut list = TruncatedPostingList::new(capacity);
        for r in refs {
            list.insert(r);
        }
        list
    }

    /// The stored (top-ranked) references, best first.
    pub fn refs(&self) -> &[ScoredRef] {
        &self.refs
    }

    /// Number of stored references.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether no references are stored.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The true number of matching documents seen so far (≥ `len()`).
    pub fn full_df(&self) -> u64 {
        self.full_df
    }

    /// Whether the list had to drop references because of the capacity bound.
    pub fn is_truncated(&self) -> bool {
        self.full_df > self.refs.len() as u64
    }

    /// Inserts a reference, keeping the list sorted by descending score (ties broken by
    /// ascending document id) and bounded by the capacity. A reference for a document
    /// that is already present replaces the old entry if its score is higher.
    ///
    /// The common case — a document not yet stored — is a hash-set membership
    /// check plus a sorted insert; only re-publications of an already-stored
    /// document fall back to scanning for the old entry.
    pub fn insert(&mut self, r: ScoredRef) {
        if self.members.contains(&r.doc) {
            // Same document published again (e.g. re-indexing): keep the best score.
            let i = self
                .refs
                .iter()
                .position(|x| x.doc == r.doc)
                .expect("membership set out of sync with refs");
            if r.score > self.refs[i].score {
                self.refs.remove(i);
                self.insert_sorted(r);
            }
        } else {
            self.full_df += 1;
            if self.refs.len() < self.capacity {
                self.insert_sorted(r);
                self.members.insert(r.doc);
            } else if let Some(last) = self.refs.last() {
                if r.score > last.score || (r.score == last.score && r.doc < last.doc) {
                    let evicted = self.refs.pop().expect("non-empty at capacity");
                    self.members.remove(&evicted.doc);
                    self.insert_sorted(r);
                    self.members.insert(r.doc);
                }
            }
        }
    }

    fn insert_sorted(&mut self, r: ScoredRef) {
        let pos = self
            .refs
            .partition_point(|x| x.score > r.score || (x.score == r.score && x.doc < r.doc));
        self.refs.insert(pos, r);
    }

    /// Merges another list into this one (used by a responsible peer aggregating the
    /// contributions of many publishing peers). The true document frequency is the sum
    /// of distinct contributions; duplicate documents keep their best score.
    pub fn merge(&mut self, other: &TruncatedPostingList) {
        for r in &other.refs {
            self.insert(*r);
        }
        // `insert` counted the refs it actually saw; add the part of `other` that was
        // already truncated away and therefore invisible to us.
        self.full_df += other.full_df - other.refs.len() as u64;
    }

    /// Removes references owned by the given peer (used when a peer un-publishes its
    /// collection). Returns how many references were removed.
    pub fn remove_peer_docs(&mut self, peer: u32) -> usize {
        let before = self.refs.len();
        self.refs.retain(|r| r.doc.peer != peer);
        self.members.retain(|d| d.peer != peer);
        let removed = before - self.refs.len();
        self.full_df = self.full_df.saturating_sub(removed as u64);
        removed
    }

    /// The best (highest) score in the list, if any.
    pub fn best_score(&self) -> Option<f64> {
        self.refs.first().map(|r| r.score)
    }

    /// The worst stored score (the truncation threshold), if any.
    pub fn worst_score(&self) -> Option<f64> {
        self.refs.last().map(|r| r.score)
    }

    /// Builds a list directly from wire-decoded parts: `refs` already in
    /// canonical order (descending score, ties by ascending doc id), with the
    /// membership set derived. Its one caller is [`crate::codec::decode_list`],
    /// which sorts `refs` first. Rejects the lists no insertion can build:
    /// more entries than the capacity, a `full_df` below the entry count, or a
    /// document listed twice.
    pub(crate) fn from_wire_parts(
        refs: Vec<ScoredRef>,
        capacity: usize,
        full_df: u64,
    ) -> Result<Self, &'static str> {
        if refs.len() > capacity {
            return Err("list has more entries than its capacity");
        }
        if full_df < refs.len() as u64 {
            return Err("list's full_df is below its entry count");
        }
        let members: HashSet<DocId> = refs.iter().map(|r| r.doc).collect();
        if members.len() != refs.len() {
            return Err("list repeats a document");
        }
        Ok(TruncatedPostingList {
            refs,
            capacity: capacity.max(1),
            full_df,
            members,
        })
    }
}

impl WireSize for TruncatedPostingList {
    /// Exact length of the [`crate::codec`] list frame for this list — the
    /// bytes a probe response actually ships (pure arithmetic, no allocation).
    fn wire_size(&self) -> usize {
        crate::codec::encoded_list_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(doc: u32, score: f64) -> ScoredRef {
        ScoredRef {
            doc: DocId::new(0, doc),
            score,
        }
    }

    #[test]
    fn keeps_top_k_by_score() {
        let mut list = TruncatedPostingList::new(3);
        for (i, s) in [(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0), (4, 0.5)] {
            list.insert(r(i, s));
        }
        assert_eq!(list.len(), 3);
        assert_eq!(list.full_df(), 5);
        assert!(list.is_truncated());
        let docs: Vec<u32> = list.refs().iter().map(|x| x.doc.local).collect();
        assert_eq!(docs, vec![1, 3, 2]);
        assert_eq!(list.best_score(), Some(5.0));
        assert_eq!(list.worst_score(), Some(3.0));
    }

    #[test]
    fn untruncated_when_under_capacity() {
        let list = TruncatedPostingList::from_refs([r(0, 1.0), r(1, 2.0)], 10);
        assert_eq!(list.len(), 2);
        assert!(!list.is_truncated());
        assert_eq!(list.full_df(), 2);
    }

    #[test]
    fn duplicate_documents_keep_best_score() {
        let mut list = TruncatedPostingList::new(5);
        list.insert(r(7, 1.0));
        list.insert(r(7, 3.0));
        list.insert(r(7, 2.0));
        assert_eq!(list.len(), 1);
        assert_eq!(list.full_df(), 1);
        assert_eq!(list.refs()[0].score, 3.0);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let refs = [
            r(0, 1.0),
            r(1, 9.0),
            r(2, 5.0),
            r(3, 7.0),
            r(4, 3.0),
            r(5, 8.0),
        ];
        let mut shuffled = refs;
        shuffled.reverse();
        let a = TruncatedPostingList::from_refs(refs, 4);
        let b = TruncatedPostingList::from_refs(shuffled, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn ties_break_by_doc_id() {
        let mut list = TruncatedPostingList::new(2);
        list.insert(r(5, 1.0));
        list.insert(r(1, 1.0));
        list.insert(r(3, 1.0));
        let docs: Vec<u32> = list.refs().iter().map(|x| x.doc.local).collect();
        assert_eq!(docs, vec![1, 3]);
    }

    #[test]
    fn merge_aggregates_contributions() {
        let a = TruncatedPostingList::from_refs([r(0, 1.0), r(1, 2.0)], 3);
        let mut big = TruncatedPostingList::new(3);
        for i in 0..10 {
            big.insert(r(100 + i, f64::from(i)));
        }
        let mut merged = a;
        merged.merge(&big);
        assert_eq!(merged.len(), 3);
        // 2 distinct from a + 10 distinct from big.
        assert_eq!(merged.full_df(), 12);
        assert!(merged.is_truncated());
        // Best scores come from `big`.
        assert_eq!(merged.best_score(), Some(9.0));
    }

    #[test]
    fn remove_peer_docs_filters_by_owner() {
        let mut list = TruncatedPostingList::new(10);
        list.insert(ScoredRef {
            doc: DocId::new(1, 0),
            score: 1.0,
        });
        list.insert(ScoredRef {
            doc: DocId::new(2, 0),
            score: 2.0,
        });
        list.insert(ScoredRef {
            doc: DocId::new(1, 1),
            score: 3.0,
        });
        let removed = list.remove_peer_docs(1);
        assert_eq!(removed, 2);
        assert_eq!(list.len(), 1);
        assert_eq!(list.full_df(), 1);
        assert_eq!(list.refs()[0].doc.peer, 2);
    }

    #[test]
    fn wire_size_is_bounded_by_capacity() {
        let mut list = TruncatedPostingList::new(50);
        for i in 0..1000 {
            list.insert(r(i, f64::from(i)));
        }
        // The wire size is the exact codec frame length, bounded by the
        // codec's worst case for 50 entries — and far below the seed's
        // 12-bytes-per-ref accounting for these clustered doc ids.
        assert_eq!(
            list.wire_size(),
            crate::codec::encode_list(&list, None).len()
        );
        assert!(list.wire_size() <= crate::codec::max_encoded_list_len(50));
        assert!(list.wire_size() < 50 * 12 + 16);
        assert_eq!(list.full_df(), 1000);
    }

    #[test]
    fn duplicate_suppression_survives_eviction() {
        // A document evicted by the capacity bound is no longer "present": a
        // later reference to it counts as a fresh distinct document.
        let mut list = TruncatedPostingList::new(1);
        list.insert(r(1, 1.0));
        list.insert(r(2, 5.0)); // evicts doc 1
        assert_eq!(list.refs()[0].doc.local, 2);
        list.insert(r(1, 9.0)); // doc 1 returns, evicting doc 2
        assert_eq!(list.refs()[0].doc.local, 1);
        assert_eq!(list.full_df(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut list = TruncatedPostingList::new(0);
        list.insert(r(0, 1.0));
        list.insert(r(1, 2.0));
        assert_eq!(list.capacity(), 1);
        assert_eq!(list.len(), 1);
        assert_eq!(list.refs()[0].doc.local, 1);
    }
}

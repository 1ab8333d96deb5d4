//! Indexing keys: term combinations.
//!
//! The central idea of AlvisP2P is to index not only single terms but *carefully
//! chosen term combinations* ("keys"). A [`TermKey`] is a canonicalised (sorted,
//! deduplicated) set of one or more analyzed terms. Keys are hashed onto the DHT ring
//! to find the peer responsible for their posting list, and they are organised in a
//! subset lattice: the query `{a, b, c}` dominates the keys `{a,b}`, `{a,c}`, `{b,c}`,
//! `{a}`, `{b}` and `{c}` (see Figure 1 of the paper).
//!
//! # Representation
//!
//! Keys are built on the process-wide term interner
//! ([`alvisp2p_textindex::intern`]): a key stores the [`TermId`]s of its terms —
//! inline for the dominant 1–3 term case, spilled to a shared `Arc<[TermId]>`
//! beyond that — in **canonical (lexicographic term) order**, together with its
//! 64-bit ring hash and total term byte length, both computed once at
//! construction. Consequences for the hot paths:
//!
//! * [`TermKey::ring_id`] is a field copy — zero hashing, zero allocation;
//! * [`TermKey::clone`] is a `memcpy` (or one atomic increment when spilled);
//! * subset/domination checks compare 4-byte ids, never strings;
//! * [`TermKey::wire_size`] is arithmetic on cached lengths;
//! * the canonical `"a+b"` string only ever materializes for display and reports.
//!
//! Observable behaviour (ordering, equality, hashing onto the ring, lattice
//! enumeration order) is identical to the original `Vec<String>` representation;
//! `tests/proptest_intern.rs` in this crate pins that equivalence against a
//! string-based model.

use alvisp2p_dht::{RingHasher, RingId};
use alvisp2p_netsim::WireSize;
use alvisp2p_textindex::{intern, TermId};
use std::fmt;
use std::sync::Arc;

/// Number of term ids stored inline (no heap indirection). Queries average 2–3
/// terms and indexed keys are bounded by `max_key_len` (2–3 in the paper), so
/// virtually every key in the system fits inline.
const INLINE_TERMS: usize = 3;

/// Construction scratch capacity kept on the stack; longer inputs fall back to a
/// heap buffer (rare: only hand-built keys exceed it, queries are deduplicated).
const SCRATCH_TERMS: usize = 8;

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        /// Only `ids[..len]` is meaningful; padding repeats the first id so the
        /// array never holds an uninitialised-looking value.
        ids: [TermId; INLINE_TERMS],
    },
    Spilled(Arc<[TermId]>),
}

/// A canonical term combination used as an index key.
///
/// Invariants: terms are sorted lexicographically, deduplicated and non-empty;
/// the cached ring hash and byte length always describe exactly those terms.
#[derive(Clone)]
pub struct TermKey {
    repr: Repr,
    /// Ring identifier of the canonical form, computed at construction.
    hash: u64,
    /// Total byte length of the terms (separators excluded).
    str_len: u32,
    /// Length of the [`crate::codec::encode_key`] wire frame (varint term
    /// count + per-term varint length prefix + bytes), computed at
    /// construction so `wire_size` stays a cached-field read.
    wire_len: u32,
}

/// Scratch buffer for canonicalising `(id, term)` pairs during construction.
struct Scratch {
    inline: [(TermId, &'static str); SCRATCH_TERMS],
    len: usize,
    spill: Vec<(TermId, &'static str)>,
}

impl Scratch {
    fn new() -> Self {
        // `TermId::EMPTY` exists from interner construction: padding a scratch
        // array never locks (crucially, not while a resolver session is open).
        Scratch {
            inline: [(TermId::EMPTY, ""); SCRATCH_TERMS],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, entry: (TermId, &'static str)) {
        if self.spill.is_empty() && self.len < SCRATCH_TERMS {
            self.inline[self.len] = entry;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.push(entry);
        }
    }

    fn entries(&mut self) -> &mut [(TermId, &'static str)] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

impl TermKey {
    /// Creates a key from the given terms (they are sorted and deduplicated).
    ///
    /// First use of a term interns it (one allocation, process-wide);
    /// constructing keys over an already-seen vocabulary is allocation-free for
    /// up to 3 distinct terms.
    ///
    /// # Panics
    /// Panics if no terms remain after deduplication.
    pub fn new<I>(terms: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        Self::fill_and_build(terms.into_iter(), |t| TermId::intern_with_str(t.as_ref()))
    }

    /// Creates a single-term key.
    pub fn single(term: impl AsRef<str>) -> Self {
        let entry = TermId::intern_with_str(term.as_ref());
        Self::from_canonical_entries(&[entry])
    }

    /// Creates a key from already-interned terms (they are sorted into canonical
    /// order and deduplicated). This is the fast path used by the query pipeline,
    /// which analyzes straight to [`TermId`]s.
    ///
    /// # Panics
    /// Panics if no ids remain after deduplication.
    pub fn from_term_ids(ids: impl IntoIterator<Item = TermId>) -> Self {
        let resolver = intern::resolver();
        Self::fill_and_build(ids.into_iter(), |id| (id, resolver.resolve(id)))
    }

    /// Shared constructor body: fills the stack scratch with `(id, term)`
    /// entries (spilling to the heap past [`SCRATCH_TERMS`], which only
    /// hand-built keys reach) and canonicalises. Generic over the entry maker
    /// so both constructors monomorphise to the same fused loop.
    ///
    /// Deliberately does **not** go through [`Scratch`]: keeping the buffer in
    /// locals lets the optimiser promote it to registers, which measured ~1.8x
    /// faster than the struct-indirected push path; `Scratch` stays for the
    /// interleaved-push callers (expand/parents/subset enumeration) where
    /// that shape fits.
    fn fill_and_build<T>(
        mut iter: impl Iterator<Item = T>,
        mut to_entry: impl FnMut(T) -> (TermId, &'static str),
    ) -> TermKey {
        let mut buf = [(TermId::EMPTY, ""); SCRATCH_TERMS];
        let mut len = 0usize;
        for t in iter.by_ref() {
            if len == SCRATCH_TERMS {
                let mut spill = buf.to_vec();
                spill.push(to_entry(t));
                spill.extend(iter.map(to_entry));
                return Self::build_canonical(&mut spill);
            }
            buf[len] = to_entry(t);
            len += 1;
        }
        Self::build_canonical(&mut buf[..len])
    }

    /// Sorts `entries` into canonical term order, deduplicates in place and
    /// builds the key.
    ///
    /// # Panics
    /// Panics if no entries remain after deduplication.
    fn build_canonical(entries: &mut [(TermId, &'static str)]) -> TermKey {
        if entries.len() > 1 {
            entries.sort_unstable_by(|a, b| a.1.cmp(b.1));
        }
        let mut dedup_len = 0usize;
        for i in 0..entries.len() {
            if dedup_len == 0 || entries[dedup_len - 1].0 != entries[i].0 {
                entries[dedup_len] = entries[i];
                dedup_len += 1;
            }
        }
        assert!(dedup_len > 0, "a TermKey needs at least one term");
        TermKey::from_canonical_entries(&entries[..dedup_len])
    }

    /// Builds a key from `(id, term)` pairs already in canonical order with no
    /// duplicates, computing the cached hash and lengths in one pass.
    fn from_canonical_entries(entries: &[(TermId, &'static str)]) -> Self {
        debug_assert!(!entries.is_empty());
        debug_assert!(entries.windows(2).all(|w| w[0].1 < w[1].1));
        let mut hasher = RingHasher::new();
        let mut str_len = 0u32;
        for (i, (_, s)) in entries.iter().enumerate() {
            if i > 0 {
                hasher.write_byte(b'+');
            }
            hasher.write(s.as_bytes());
            str_len += u32::try_from(s.len()).expect("term length fits u32");
        }
        let wire_len = crate::codec::key_frame_len(entries.iter().map(|(_, s)| s.len()));
        let repr = if entries.len() <= INLINE_TERMS {
            let mut ids = [entries[0].0; INLINE_TERMS];
            for (slot, (id, _)) in ids.iter_mut().zip(entries) {
                *slot = *id;
            }
            Repr::Inline {
                len: entries.len() as u8,
                ids,
            }
        } else {
            Repr::Spilled(entries.iter().map(|(id, _)| *id).collect())
        };
        TermKey {
            repr,
            hash: hasher.finish().0,
            str_len,
            wire_len: u32::try_from(wire_len).expect("key frame length fits u32"),
        }
    }

    /// The interned term identifiers of the key, in canonical (lexicographic
    /// term) order.
    pub fn term_ids(&self) -> &[TermId] {
        match &self.repr {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Spilled(ids) => ids,
        }
    }

    /// The terms of the key (sorted). Resolves through the interner; hot paths
    /// should prefer [`TermKey::term_ids`].
    pub fn terms(&self) -> Vec<&'static str> {
        let resolver = intern::resolver();
        self.term_ids()
            .iter()
            .map(|id| resolver.resolve(*id))
            .collect()
    }

    /// Number of terms in the key (its "level" in the lattice).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Spilled(ids) => ids.len(),
        }
    }

    /// Whether the key has exactly one term.
    pub fn is_single(&self) -> bool {
        self.len() == 1
    }

    /// Never true (keys are non-empty by construction); provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical string form used for hashing and display, e.g. `"databas+peer"`.
    ///
    /// This *materializes* the string; the hash of the canonical form is already
    /// cached (see [`TermKey::ring_id`]), so only display and report paths need it.
    pub fn canonical(&self) -> String {
        let resolver = intern::resolver();
        let ids = self.term_ids();
        let mut out = String::with_capacity(self.str_len as usize + ids.len().saturating_sub(1));
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            out.push_str(resolver.resolve(*id));
        }
        out
    }

    /// The DHT ring identifier of this key: a copy of the hash computed at
    /// construction. Zero hashing, zero allocation.
    pub fn ring_id(&self) -> RingId {
        RingId(self.hash)
    }

    /// Whether `self` is a (non-strict) subset of `other`.
    pub fn is_subset_of(&self, other: &TermKey) -> bool {
        // Key lengths are tiny (≤ ~6), so the quadratic id scan beats any
        // merge/binary-search bookkeeping — and it never touches a string.
        self.term_ids()
            .iter()
            .all(|id| other.term_ids().contains(id))
    }

    /// Whether `self` is a strict superset of `other` (i.e. `self` *dominates* `other`
    /// in the query lattice).
    pub fn dominates(&self, other: &TermKey) -> bool {
        self.len() > other.len() && other.is_subset_of(self)
    }

    /// Whether the key contains a term.
    pub fn contains(&self, term: &str) -> bool {
        TermId::get(term).is_some_and(|id| self.contains_id(id))
    }

    /// Whether the key contains an interned term.
    fn contains_id(&self, id: TermId) -> bool {
        self.term_ids().contains(&id)
    }

    /// Returns the key extended with one more term, or `None` if the term is already
    /// part of the key. This is the HDK "expansion" operation.
    pub fn expand(&self, term: &str) -> Option<TermKey> {
        let entry = TermId::intern_with_str(term);
        self.expand_entry(entry)
    }

    /// [`TermKey::expand`] for an already-interned term.
    pub fn expand_id(&self, id: TermId) -> Option<TermKey> {
        self.expand_entry((id, id.as_str()))
    }

    fn expand_entry(&self, entry: (TermId, &'static str)) -> Option<TermKey> {
        if self.contains_id(entry.0) {
            return None;
        }
        let resolver = intern::resolver();
        let mut scratch = Scratch::new();
        let mut inserted = false;
        for id in self.term_ids() {
            let s = resolver.resolve(*id);
            if !inserted && entry.1 < s {
                scratch.push(entry);
                inserted = true;
            }
            scratch.push((*id, s));
        }
        if !inserted {
            scratch.push(entry);
        }
        Some(Self::from_canonical_entries(scratch.entries()))
    }

    /// All sub-keys obtained by removing exactly one term (empty when the key is a
    /// single term).
    pub fn parents(&self) -> Vec<TermKey> {
        let ids = self.term_ids();
        if ids.len() <= 1 {
            return Vec::new();
        }
        let resolver = intern::resolver();
        let mut scratch = Scratch::new();
        for id in ids {
            scratch.push((*id, resolver.resolve(*id)));
        }
        let entries: &[(TermId, &'static str)] = scratch.entries();
        (0..entries.len())
            .map(|skip| {
                let mut sub = Scratch::new();
                for (i, e) in entries.iter().enumerate() {
                    if i != skip {
                        sub.push(*e);
                    }
                }
                Self::from_canonical_entries(sub.entries())
            })
            .collect()
    }

    /// All non-empty subsets of the key of exactly `size` terms, in canonical
    /// (lexicographic) order.
    pub fn subsets_of_size(&self, size: usize) -> Vec<TermKey> {
        let mut out = Vec::new();
        self.push_subsets_of_size(size, &intern::resolver(), &mut out);
        out
    }

    /// All non-empty subsets of the key, largest first (the order in which the query
    /// lattice is explored).
    pub fn all_subsets_desc(&self) -> Vec<TermKey> {
        let resolver = intern::resolver();
        let mut out = Vec::new();
        for size in (1..=self.len()).rev() {
            self.push_subsets_of_size(size, &resolver, &mut out);
        }
        out
    }

    /// Appends the `size`-term subsets in canonical order.
    ///
    /// The key's entries are already in canonical term order, so enumerating
    /// index combinations in lexicographic order yields the subsets exactly as
    /// the former sort-by-canonical-string produced them — without building a
    /// string or comparing one.
    fn push_subsets_of_size(
        &self,
        size: usize,
        resolver: &intern::Resolver,
        out: &mut Vec<TermKey>,
    ) {
        let ids = self.term_ids();
        let n = ids.len();
        if size == 0 || size > n {
            return;
        }
        assert!(n <= 32, "subset enumeration supports at most 32 terms");
        let mut scratch = Scratch::new();
        for id in ids {
            scratch.push((*id, resolver.resolve(*id)));
        }
        let entries: &[(TermId, &'static str)] = scratch.entries();
        // Lexicographic k-combination enumeration over entry indices.
        let mut indices = [0usize; 32];
        for (slot, i) in indices.iter_mut().zip(0..size) {
            *slot = i;
        }
        loop {
            let mut sub = Scratch::new();
            for &i in &indices[..size] {
                sub.push(entries[i]);
            }
            out.push(Self::from_canonical_entries(sub.entries()));
            // Advance to the next combination.
            let mut pos = size;
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                if indices[pos] < n - size + pos {
                    break;
                }
            }
            indices[pos] += 1;
            for i in pos + 1..size {
                indices[i] = indices[i - 1] + 1;
            }
        }
    }
}

impl PartialEq for TermKey {
    fn eq(&self, other: &Self) -> bool {
        // ids determine the terms, so comparing hashes first is a cheap reject.
        self.hash == other.hash && self.term_ids() == other.term_ids()
    }
}

impl Eq for TermKey {}

impl PartialOrd for TermKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TermKey {
    /// Lexicographic by term strings, then by length — exactly the ordering the
    /// original `Vec<String>` representation derived, so sorted reports, lattice
    /// enumeration order and `BTreeSet` iteration are unchanged.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Equal ids short-circuit without touching the interner; the resolver
        // session is only opened at the first differing term.
        let mut resolver = None;
        for (a, b) in self.term_ids().iter().zip(other.term_ids()) {
            if a == b {
                continue;
            }
            let r = resolver.get_or_insert_with(intern::resolver);
            match r.resolve(*a).cmp(r.resolve(*b)) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.len().cmp(&other.len())
    }
}

impl std::hash::Hash for TermKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // The cached ring hash already identifies the term set.
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for TermKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TermKey(")?;
        fmt::Display::fmt(self, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for TermKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let resolver = intern::resolver();
        for (i, id) in self.term_ids().iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            f.write_str(resolver.resolve(*id))?;
        }
        Ok(())
    }
}

impl WireSize for TermKey {
    /// Exact length of the [`crate::codec::encode_key`] frame (varint term
    /// count, then per term a varint length prefix plus the UTF-8 bytes),
    /// cached at construction: still a field read, but now it is the length of
    /// bytes the codec really produces rather than a fixed-width model.
    fn wire_size(&self) -> usize {
        self.wire_len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let k = TermKey::new(["peer", "databas", "peer"]);
        assert_eq!(k.terms(), ["databas", "peer"]);
        assert_eq!(k.len(), 2);
        assert_eq!(k.canonical(), "databas+peer");
        assert!(!k.is_single());
        assert!(TermKey::single("x").is_single());
    }

    #[test]
    #[should_panic(expected = "at least one term")]
    fn empty_key_panics() {
        let _ = TermKey::new(Vec::<String>::new());
    }

    #[test]
    fn canonical_is_order_insensitive() {
        let a = TermKey::new(["b", "a", "c"]);
        let b = TermKey::new(["c", "b", "a"]);
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.ring_id(), b.ring_id());
    }

    #[test]
    fn ring_ids_differ_between_keys() {
        assert_ne!(
            TermKey::new(["a", "b"]).ring_id(),
            TermKey::new(["a", "c"]).ring_id()
        );
        assert_ne!(
            TermKey::single("ab").ring_id(),
            TermKey::new(["a", "b"]).ring_id()
        );
    }

    #[test]
    fn cached_ring_id_matches_hashing_the_canonical_string() {
        for terms in [vec!["a"], vec!["peer", "databas"], vec!["x", "y", "z", "w"]] {
            let k = TermKey::new(terms);
            assert_eq!(k.ring_id(), RingId::hash_str(&k.canonical()));
        }
    }

    #[test]
    fn subset_and_dominance() {
        let abc = TermKey::new(["a", "b", "c"]);
        let bc = TermKey::new(["b", "c"]);
        let b = TermKey::single("b");
        let d = TermKey::single("d");
        assert!(bc.is_subset_of(&abc));
        assert!(b.is_subset_of(&bc));
        assert!(!abc.is_subset_of(&bc));
        assert!(!d.is_subset_of(&abc));
        assert!(abc.dominates(&bc));
        assert!(abc.dominates(&b));
        assert!(!abc.dominates(&abc));
        assert!(!bc.dominates(&abc));
        assert!(bc.contains("b"));
        assert!(!bc.contains("a"));
    }

    #[test]
    fn expansion_adds_one_term() {
        let k = TermKey::single("peer");
        let e = k.expand("retriev").unwrap();
        assert_eq!(e.terms(), ["peer", "retriev"]);
        assert!(k.expand("peer").is_none());
        assert!(e.dominates(&k));
        // The id-based expansion is equivalent.
        let id = TermId::intern("retriev");
        assert_eq!(k.expand_id(id).unwrap(), e);
        assert!(e.expand_id(id).is_none());
    }

    #[test]
    fn parents_remove_one_term_each() {
        let abc = TermKey::new(["a", "b", "c"]);
        let parents = abc.parents();
        assert_eq!(parents.len(), 3);
        assert!(parents.contains(&TermKey::new(["a", "b"])));
        assert!(parents.contains(&TermKey::new(["a", "c"])));
        assert!(parents.contains(&TermKey::new(["b", "c"])));
        assert!(TermKey::single("x").parents().is_empty());
    }

    #[test]
    fn subsets_enumeration_matches_figure_1() {
        // The query {a,b,c} of Figure 1: lattice = abc, ab, ac, bc, a, b, c.
        let abc = TermKey::new(["a", "b", "c"]);
        let all = abc.all_subsets_desc();
        assert_eq!(all.len(), 7);
        assert_eq!(all[0], abc);
        let pairs = abc.subsets_of_size(2);
        assert_eq!(pairs.len(), 3);
        let singles = abc.subsets_of_size(1);
        assert_eq!(singles.len(), 3);
        assert!(abc.subsets_of_size(0).is_empty());
        assert!(abc.subsets_of_size(4).is_empty());
        // Descending order by size.
        for w in all.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }

    #[test]
    fn keys_longer_than_the_inline_bound_behave_identically() {
        let big = TermKey::new(["e", "c", "a", "d", "b"]);
        assert_eq!(big.len(), 5);
        assert_eq!(big.canonical(), "a+b+c+d+e");
        assert_eq!(big.ring_id(), RingId::hash_str("a+b+c+d+e"));
        assert!(big.dominates(&TermKey::new(["b", "d", "e"])));
        let all = big.all_subsets_desc();
        assert_eq!(all.len(), 31);
        assert_eq!(all[0], big);
        let clone = big.clone();
        assert_eq!(clone, big);
        assert_eq!(clone.wire_size(), big.wire_size());
    }

    #[test]
    fn ordering_is_lexicographic_by_terms_then_length() {
        let a = TermKey::single("a");
        let ab = TermKey::new(["a", "b"]);
        let b = TermKey::single("b");
        assert!(a < ab, "prefix sorts first");
        assert!(ab < b, "a+b < b lexicographically");
        let mut v = vec![b.clone(), ab.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, ab, b]);
    }

    #[test]
    fn wire_size_is_the_codec_key_frame_length() {
        let k = TermKey::new(["ab", "cde"]);
        // varint(2 terms) + (varint(2) + "ab") + (varint(3) + "cde") + the
        // 4-byte checksum trailer.
        assert_eq!(
            k.wire_size(),
            1 + (1 + 2) + (1 + 3) + crate::codec::FRAME_TRAILER_LEN
        );
        let mut frame = Vec::new();
        crate::codec::encode_key(&mut frame, &k);
        assert_eq!(k.wire_size(), frame.len());
    }

    #[test]
    fn display_and_debug() {
        let k = TermKey::new(["b", "a"]);
        assert_eq!(format!("{k}"), "a+b");
        assert_eq!(format!("{k:?}"), "TermKey(a+b)");
    }

    #[test]
    fn from_term_ids_canonicalises() {
        let ids = [
            TermId::intern("zeta"),
            TermId::intern("alpha"),
            TermId::intern("zeta"),
        ];
        let k = TermKey::from_term_ids(ids);
        assert_eq!(k, TermKey::new(["alpha", "zeta"]));
        assert_eq!(k.term_ids().len(), 2);
    }
}

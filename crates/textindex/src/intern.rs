//! Process-wide term interning.
//!
//! Every layer of the system — the analyzer, the local inverted indexes, the
//! HDK/QDI key machinery and the DHT publish/probe hot paths — manipulates the
//! same (bounded) vocabulary of analyzed terms. Passing those terms around as
//! `String`s means every key construction, comparison and hash re-allocates and
//! re-reads the same bytes. This module maps each distinct analyzed term to a
//! dense [`TermId`] (`u32`) exactly once; everything downstream moves 4-byte
//! copies around instead.
//!
//! The interner is **global and append-only**: interned strings are leaked (via
//! `Box::leak`) so that [`TermId::as_str`] can hand out `&'static str` without
//! holding any lock or reference count. Memory use is bounded by the size of
//! the analyzed vocabulary, which the paper's own scalability argument already
//! requires to be bounded — the same trade-off production interners (e.g.
//! rustc's symbol table, `lasso`'s leaky variant) make.
//!
//! **Untrusted input.** The interner is leaky, so growth must be bounded by
//! the *published* vocabulary, never by what queries happen to mention. The
//! query pipeline therefore resolves terms through the lookup-only
//! [`try_term_id`] / [`resolve_existing`] entry points: a term that was never
//! published cannot match anything, so the query path drops it instead of
//! interning it, and an adversarial query stream of never-seen terms leaves
//! the interner untouched (asserted by `tests/query_path_interning.rs` in
//! `alvisp2p-core`). Only indexing-side paths — which process the bounded
//! analyzed vocabulary the paper's scalability argument already assumes —
//! intern new terms.
//!
//! Thread safety: id → term resolution is **lock-free** (the table is a spine
//! of write-once chunks, two atomic loads per resolve); term → id lookups take
//! a read lock on the Fx-hashed map; interning a *new* term takes the map
//! write lock once. After warm-up (corpus indexed, query vocabulary seen) the
//! write path is never taken again.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// FxHash (the rustc interner's hash): a multiply-rotate per 8-byte word.
/// Terms are short identifiers from a trusted source, so the weaker-but-fast
/// hash is the right trade-off — SipHash costs more than the whole remaining
/// intern lookup on this path.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(*b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.add_word(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// A dense identifier for one interned analyzed term.
///
/// `TermId`s are process-local: they are assigned in first-intern order and
/// must never be persisted or sent over a (real) wire — send the term
/// string instead (which is what [`crate::analyze::TermOccurrence`] holds
/// and the key frames of `alvisp2p-core`'s codec carry).
///
/// The derived `Ord` is **numeric** (assignment order), not lexicographic;
/// canonical (string) ordering is the responsibility of the structures built
/// on top (e.g. `alvisp2p-core`'s `TermKey` stores its ids in canonical term
/// order). Compare [`TermId::as_str`] for lexicographic order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

/// log2 of the ids per table chunk.
const CHUNK_SHIFT: usize = 12;
/// Ids per table chunk.
const CHUNK_LEN: usize = 1 << CHUNK_SHIFT;
/// Maximum number of chunks: bounds the vocabulary at 16M distinct terms.
const MAX_CHUNKS: usize = 1 << 12;

/// The id → term table: a fixed spine of lazily-allocated chunks whose slots
/// are write-once. Both levels are `OnceLock`s, so **resolution is lock-free**
/// — two atomic loads — while appends (serialized by the map's write lock)
/// initialize the chunk and set the slot.
///
/// Ordering: a slot is `set` (release) before the id is published through the
/// map write lock or an atomic `len` store, so any thread that legitimately
/// holds a `TermId` observes its slot initialized (acquire on `get`).
struct Table {
    chunks: [OnceLock<Box<[OnceLock<&'static str>; CHUNK_LEN]>>; MAX_CHUNKS],
    len: AtomicUsize,
}

impl Table {
    #[inline]
    fn resolve(&self, id: u32) -> &'static str {
        let chunk = id as usize >> CHUNK_SHIFT;
        let slot = id as usize & (CHUNK_LEN - 1);
        self.chunks[chunk]
            .get()
            .expect("TermId from a foreign process or forged")[slot]
            .get()
            .expect("TermId slot unset")
    }

    /// Appends a term (caller holds the map write lock, so appends are serial).
    fn push(&self, term: &'static str) -> u32 {
        let id = self.len.load(Ordering::Relaxed);
        assert!(id < CHUNK_LEN * MAX_CHUNKS, "interned vocabulary overflow");
        let chunk = self.chunks[id >> CHUNK_SHIFT]
            .get_or_init(|| Box::new([const { OnceLock::new() }; CHUNK_LEN]));
        chunk[id & (CHUNK_LEN - 1)]
            .set(term)
            .expect("append races are excluded by the map write lock");
        self.len.store(id + 1, Ordering::Release);
        u32::try_from(id).expect("bounded by CHUNK_LEN * MAX_CHUNKS")
    }
}

struct Interner {
    /// term → id. Keys are the same leaked strings the table holds.
    map: RwLock<HashMap<&'static str, u32, FxBuild>>,
    /// id → term, lock-free on the read side.
    table: Table,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let int = Interner {
            map: RwLock::new(HashMap::default()),
            table: Table {
                chunks: [const { OnceLock::new() }; MAX_CHUNKS],
                len: AtomicUsize::new(0),
            },
        };
        // Pre-intern the empty term as id 0 ([`TermId::EMPTY`]) so padding and
        // sentinel uses are valid from the start.
        let id = int.table.push("");
        int.map.write().expect("fresh lock").insert("", id);
        int
    })
}

/// A resolution session over the id → term table. Since resolution is
/// lock-free, this is a zero-sized token; it survives as an explicit handle so
/// batch call sites document their intent (and so a guard could return if the
/// storage strategy ever changes).
pub struct Resolver(());

impl Resolver {
    /// The interned term for `id` (two atomic loads, no locking).
    #[inline]
    pub fn resolve(&self, id: TermId) -> &'static str {
        interner().table.resolve(id.0)
    }
}

/// Opens a resolution session on the interner table.
pub fn resolver() -> Resolver {
    Resolver(())
}

impl TermId {
    /// The pre-interned empty term (id 0). Exists from interner construction,
    /// so it can be used as padding without ever taking a lock.
    pub const EMPTY: TermId = TermId(0);

    /// Interns `term`, returning its stable identifier. The first intern of a
    /// term allocates (and leaks) one copy of it; every subsequent call is a
    /// read-locked hash lookup with no allocation.
    pub fn intern(term: &str) -> TermId {
        Self::intern_with_str(term).0
    }

    /// Like [`TermId::intern`] but also returns the canonical `&'static str`,
    /// saving the resolve round-trip on construction-heavy paths.
    pub fn intern_with_str(term: &str) -> (TermId, &'static str) {
        let int = interner();
        if let Some((&s, &id)) = int
            .map
            .read()
            .expect("interner map poisoned")
            .get_key_value(term)
        {
            return (TermId(id), s);
        }
        let mut map = int.map.write().expect("interner map poisoned");
        // Double-check: another thread may have interned it meanwhile.
        if let Some((&s, &id)) = map.get_key_value(term) {
            return (TermId(id), s);
        }
        let leaked: &'static str = Box::leak(term.to_owned().into_boxed_str());
        let id = int.table.push(leaked);
        map.insert(leaked, id);
        (TermId(id), leaked)
    }

    /// The identifier of an already-interned term, or `None` if the term has
    /// never been seen. Never allocates.
    pub fn get(term: &str) -> Option<TermId> {
        interner()
            .map
            .read()
            .expect("interner map poisoned")
            .get(term)
            .copied()
            .map(TermId)
    }

    /// The interned term. Lock-free (two atomic loads) and never allocates —
    /// the string was leaked at intern time, so no guard or reference count
    /// escapes.
    #[inline]
    pub fn as_str(self) -> &'static str {
        interner().table.resolve(self.0)
    }

    /// The raw dense index (assignment order). Useful for side tables indexed
    /// by term.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TermId({} {:?})", self.0, self.as_str())
    }
}

impl std::fmt::Display for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Number of distinct terms interned so far (process-wide).
pub fn interned_terms() -> usize {
    interner().table.len.load(Ordering::Acquire)
}

/// Lookup-only resolution: the id of an already-interned term, or `None`.
///
/// This is the entry point for **untrusted input paths** (the query pipeline):
/// it never inserts, so a stream of never-seen terms cannot grow the leaky
/// interner. A term that was never interned was never published by any
/// document, so on the query side `None` simply means "cannot match".
/// (Free-function alias of [`TermId::get`], named for discoverability from the
/// ROADMAP item it resolves.)
pub fn try_term_id(term: &str) -> Option<TermId> {
    TermId::get(term)
}

/// Lookup-only variant of resolution by string: the canonical `&'static str`
/// of an already-interned term, or `None`. Never allocates, never inserts.
pub fn resolve_existing(term: &str) -> Option<&'static str> {
    interner()
        .map
        .read()
        .expect("interner map poisoned")
        .get_key_value(term)
        .map(|(&s, _)| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let a1 = TermId::intern("intern-test-alpha");
        let a2 = TermId::intern("intern-test-alpha");
        let b = TermId::intern("intern-test-beta");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.as_str(), "intern-test-alpha");
        assert_eq!(b.as_str(), "intern-test-beta");
    }

    #[test]
    fn get_only_finds_interned_terms() {
        assert_eq!(TermId::get("intern-test-never-interned-zzz"), None);
        let id = TermId::intern("intern-test-gamma");
        assert_eq!(TermId::get("intern-test-gamma"), Some(id));
    }

    #[test]
    fn intern_with_str_returns_the_canonical_string() {
        let (id, s) = TermId::intern_with_str("intern-test-delta");
        assert_eq!(s, "intern-test-delta");
        assert_eq!(id.as_str(), s);
        // The canonical string is pointer-stable across lookups.
        let (_, s2) = TermId::intern_with_str("intern-test-delta");
        assert!(std::ptr::eq(s, s2));
    }

    #[test]
    fn resolver_session_matches_per_call_resolution() {
        let ids: Vec<TermId> = ["intern-test-r1", "intern-test-r2", "intern-test-r3"]
            .iter()
            .map(|t| TermId::intern(t))
            .collect();
        // Resolve through per-call lookups first: recursive read-locking inside
        // the session is not guaranteed by std's RwLock.
        let expected: Vec<&'static str> = ids.iter().map(|id| id.as_str()).collect();
        let r = resolver();
        for (id, want) in ids.iter().zip(expected) {
            assert_eq!(r.resolve(*id), want);
        }
    }

    #[test]
    fn interned_count_grows() {
        let before = interned_terms();
        TermId::intern("intern-test-count-unique-term");
        assert!(interned_terms() > 0);
        assert!(interned_terms() >= before);
    }

    #[test]
    fn display_and_debug_render_the_term() {
        let id = TermId::intern("intern-test-disp");
        assert_eq!(format!("{id}"), "intern-test-disp");
        assert!(format!("{id:?}").contains("intern-test-disp"));
    }
}

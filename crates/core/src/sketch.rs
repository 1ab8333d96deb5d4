//! Per-key provenance sketches and the Alvis document digest.
//!
//! This module is the querier-side *evidence layer* between planning and
//! probing. For every activated key the responsible peer can publish a
//! [`KeySketch`] — a compact, pinned-wire-format summary of its stored
//! posting list — alongside the ranking statistics of
//! [`crate::ranking::GlobalRankingStats`]. Queriers cache the sketches
//! ([`SketchCache`]) and use them to *prove* a probe useless before spending
//! bytes on it:
//!
//! * the exact header (`len`, `full_df`, `capacity`) plus the rounded-up
//!   maximum stored score prove that a probe under the current score floor
//!   would come back with zero kept entries — the executor then synthesises
//!   the byte-identical response locally and never sends the probe
//!   (see [`crate::exec::QueryStream`]);
//! * the doc-id Bloom/range filters of two *complete* single-term sketches
//!   can prove that a multi-term key cannot hold any document
//!   ([`KeySketch::may_intersect`]); and
//! * the quantized score histogram carries real score mass
//!   ([`KeySketch::score_mass`]) where [`crate::plan::GreedyCost`] has only
//!   DF-and-independence estimates.
//!
//! Only the first proof has a reader today (the executor); no planner
//! consults the other two.
//!
//! Whether a sketch is worth maintaining at all is itself a cost decision
//! ([`SketchPolicy`]): each sketch kind's upkeep bytes (frame + envelope,
//! charged to [`alvisp2p_netsim::TrafficCategory::Overlay`], never Retrieval)
//! must be justified by its modeled probe-byte savings, mirroring the
//! Reserve-style accounting `GreedyCost` already does for probes. The default
//! [`SketchPolicy::NoSketches`] publishes nothing and leaves the query path
//! byte-identical to a sketch-free build.
//!
//! # Sketch frame layout (pinned by byte-level golden tests)
//!
//! ```text
//! version          u8       == SKETCH_FORMAT_VERSION
//! flags            u8       bit0 = scores, bit1 = membership (others invalid)
//! publish_version  varint   entry version the sketch summarises (staleness)
//! len              varint   stored references
//! full_df          varint   true document frequency at the responsible peer
//! capacity         varint   truncation capacity of the stored list
//! -- scores (flags bit0, only when len > 0) --
//! max_score        f32 LE   rounded *up*: an upper bound on every stored score
//! min_score        f32 LE   rounded *down*: a lower bound
//! n_buckets        varint
//! counts           varint per bucket, equi-width over [min, max]; sums to len
//! -- membership (flags bit1, only when len > 0) --
//! min_peer         varint   doc-id range of the stored references
//! min_local        varint
//! max_peer         varint
//! max_local        varint
//! n_hashes         u8
//! n_bits           varint
//! bloom            ceil(n_bits / 8) raw bytes
//! ```
//!
//! The frame reuses the [`crate::codec`] varint/f32 primitives, so sketch
//! bytes are charged with the same fidelity as posting-list frames.
//!
//! # The Alvis document digest
//!
//! The module also hosts the *document digest* ([`DocumentDigest`]), the
//! paper's interchange format for plugging external local search engines into
//! a peer: an explicit, serialisable representation of a collection's index
//! (documents → terms → positions). It grew out of the former
//! `textindex::digest` module and is the per-*document* counterpart of the
//! per-*key* sketches above — both are published summaries of local index
//! state, which is why they live together.

use crate::codec::{
    get_f32, get_varint, put_f32, put_varint, sanitize_score, varint_len, widen_down, widen_up,
    CodecError,
};
use crate::key::TermKey;
use crate::posting::TruncatedPostingList;
use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
use alvisp2p_textindex::{Analyzer, DocId, Document, DocumentStore, InvertedIndex, TermOccurrence};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Version byte leading every sketch frame.
pub const SKETCH_FORMAT_VERSION: u8 = 1;

/// Number of equi-width histogram buckets in a score sketch.
pub const SKETCH_BUCKETS: usize = 8;

/// Fixed Bloom filter width. A fixed width keeps every membership sketch
/// AND-compatible with every other (the emptiness proof needs bitwise
/// intersection), and 512 bits over at most `truncation_k ≈ 100` stored
/// references keeps the false-positive rate below ~10%.
pub const SKETCH_BLOOM_BITS: u64 = 512;

/// Number of Bloom hash functions.
pub const SKETCH_BLOOM_HASHES: u8 = 3;

/// Frame flag: the score histogram section is present.
const FLAG_SCORES: u8 = 1;
/// Frame flag: the membership (doc-id range + Bloom) section is present.
const FLAG_MEMBERSHIP: u8 = 1 << 1;

// ---------------------------------------------------------------------------
// Sketch kinds
// ---------------------------------------------------------------------------

/// Which optional sections a [`KeySketch`] carries. The header (`len`,
/// `full_df`, `capacity`, publish version) is always present; it alone proves
/// emptiness (`len == 0`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SketchKinds {
    /// Quantized score histogram + exact min/max score bounds.
    pub scores: bool,
    /// Doc-id range + Bloom filter over the stored references.
    pub membership: bool,
}

impl SketchKinds {
    /// Both kinds.
    pub fn all() -> Self {
        SketchKinds {
            scores: true,
            membership: true,
        }
    }

    /// Neither kind (a header-only sketch).
    pub fn none() -> Self {
        SketchKinds::default()
    }
}

// ---------------------------------------------------------------------------
// KeySketch
// ---------------------------------------------------------------------------

/// The score section of a sketch: rounded-out `[min, max]` bounds plus an
/// equi-width count histogram over that range.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreSketch {
    /// Upper bound on every stored score (`widen_up` of the true `f64` max,
    /// so floor pruning against it is sound).
    pub max: f32,
    /// Lower bound on every stored score.
    pub min: f32,
    /// Per-bucket reference counts; sums to the sketch's `len`.
    pub counts: Vec<u64>,
}

/// The membership section of a sketch: the doc-id range of the stored
/// references and a Bloom filter over them.
#[derive(Clone, Debug, PartialEq)]
pub struct MembershipSketch {
    /// Smallest stored document id (by `(peer, local)`).
    pub min_doc: DocId,
    /// Largest stored document id.
    pub max_doc: DocId,
    /// Number of Bloom hash functions.
    pub hashes: u8,
    /// Bloom width in bits.
    pub bits: u64,
    /// The filter, `ceil(bits / 8)` bytes, bit `i` at byte `i / 8`, mask
    /// `1 << (i % 8)`.
    pub bloom: Vec<u8>,
}

/// A compact, publishable summary of one key's stored posting list.
///
/// Built by the responsible peer at publish time ([`KeySketch::build`]),
/// shipped in the pinned frame format ([`KeySketch::encode`] /
/// [`KeySketch::decode`]) and cached at queriers in a [`SketchCache`]. A
/// sketch is only consulted while its `version` matches the key's current
/// publish version (see
/// [`crate::global_index::GlobalIndex::publish_version`]) — any later
/// publish, activation change or eviction silently retires it.
#[derive(Clone, Debug, PartialEq)]
pub struct KeySketch {
    version: u64,
    len: u64,
    full_df: u64,
    capacity: u64,
    scores: Option<ScoreSketch>,
    membership: Option<MembershipSketch>,
}

/// Total order on document ids by `(peer, local)` — the range-filter order.
fn doc_key(doc: DocId) -> (u32, u32) {
    (doc.peer, doc.local)
}

/// SplitMix64 — the Bloom hash core (deterministic, dependency-free).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `i`-th Bloom bit position for `doc` (double hashing).
fn bloom_bit(doc: DocId, i: u64, bits: u64) -> u64 {
    let x = (u64::from(doc.peer) << 32) | u64::from(doc.local);
    let h1 = splitmix64(x);
    let h2 = splitmix64(x ^ 0xA5A5_5A5A_DEAD_BEEF) | 1;
    h1.wrapping_add(h2.wrapping_mul(i)) % bits
}

/// Histogram bucket of `score` within `[min, max]` over `n` buckets.
fn bucket_of(score: f64, min: f64, max: f64, n: usize) -> usize {
    if max <= min {
        return 0;
    }
    let unit = ((score - min) / (max - min)).clamp(0.0, 1.0);
    ((unit * n as f64) as usize).min(n - 1)
}

impl KeySketch {
    /// Builds a sketch of `postings` carrying the requested `kinds`.
    /// Kinds are only meaningful for non-empty lists; for an empty list the
    /// header alone already proves everything a sketch can prove, so both
    /// sections are omitted regardless of `kinds`.
    pub fn build(version: u64, postings: &TruncatedPostingList, kinds: SketchKinds) -> Self {
        let refs = postings.refs();
        let len = refs.len() as u64;
        let scores = (kinds.scores && !refs.is_empty()).then(|| {
            let max = widen_up(sanitize_score(
                refs.iter().map(|r| r.score).fold(f64::MIN, f64::max),
            ));
            let min = widen_down(sanitize_score(
                refs.iter().map(|r| r.score).fold(f64::MAX, f64::min),
            ));
            let mut counts = vec![0u64; SKETCH_BUCKETS];
            for r in refs {
                counts[bucket_of(
                    sanitize_score(r.score),
                    f64::from(min),
                    f64::from(max),
                    SKETCH_BUCKETS,
                )] += 1;
            }
            ScoreSketch { max, min, counts }
        });
        let membership = (kinds.membership && !refs.is_empty()).then(|| {
            let min_doc = refs.iter().map(|r| r.doc).min_by_key(|d| doc_key(*d));
            let max_doc = refs.iter().map(|r| r.doc).max_by_key(|d| doc_key(*d));
            let mut bloom = vec![0u8; SKETCH_BLOOM_BITS.div_ceil(8) as usize];
            for r in refs {
                for i in 0..u64::from(SKETCH_BLOOM_HASHES) {
                    let bit = bloom_bit(r.doc, i, SKETCH_BLOOM_BITS);
                    bloom[(bit / 8) as usize] |= 1 << (bit % 8);
                }
            }
            MembershipSketch {
                min_doc: min_doc.expect("non-empty refs"),
                max_doc: max_doc.expect("non-empty refs"),
                hashes: SKETCH_BLOOM_HASHES,
                bits: SKETCH_BLOOM_BITS,
                bloom,
            }
        });
        KeySketch {
            version,
            len,
            full_df: postings.full_df(),
            capacity: postings.capacity() as u64,
            scores,
            membership,
        }
    }

    /// The publish version of the entry the sketch summarises.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of stored references the sketch summarises.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the summarised list holds no references.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True document frequency of the summarised entry.
    pub fn full_df(&self) -> u64 {
        self.full_df
    }

    /// Truncation capacity of the summarised list.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The score section, if carried.
    pub fn scores(&self) -> Option<&ScoreSketch> {
        self.scores.as_ref()
    }

    /// The membership section, if carried.
    pub fn membership(&self) -> Option<&MembershipSketch> {
        self.membership.as_ref()
    }

    /// Whether the summarised list is complete (not capacity-truncated) —
    /// the precondition for the membership emptiness proof: only a complete
    /// list's references witness *all* matching documents.
    pub fn is_complete(&self) -> bool {
        self.full_df == self.len
    }

    /// Proves that a probe under `floor` returns zero kept entries: either
    /// the list is empty, or the rounded-up maximum stored score is strictly
    /// below the floor (the codec keeps entries scoring `>= floor`, so every
    /// stored score being `< floor` elides them all). `floor = None` only
    /// prunes empty lists.
    pub fn prunes_all_below(&self, floor: Option<f64>) -> bool {
        if self.len == 0 {
            return true;
        }
        match (floor, &self.scores) {
            (Some(f), Some(s)) => f64::from(s.max) < f,
            _ => false,
        }
    }

    /// The posting list a pruned probe would have decoded: zero references,
    /// with the floor-elided tail subtracted from `full_df` exactly as
    /// [`crate::codec::decode_list`] reconstructs it. Byte-identical inputs
    /// to the lattice (same truncation status, same domination behaviour) —
    /// the executor records this instead of the wire response.
    pub fn pruned_response(&self) -> TruncatedPostingList {
        TruncatedPostingList::from_wire_parts(
            Vec::new(),
            self.capacity as usize,
            self.full_df.saturating_sub(self.len),
        )
    }

    /// Exact byte length of the response frame a pruned probe would have
    /// carried (an all-elided [`crate::codec::encode_list`] frame), used to
    /// keep budget admission byte-identical with and without pruning.
    pub fn pruned_response_len(&self) -> usize {
        1 + varint_len(self.full_df)
            + varint_len(self.capacity)
            + varint_len(self.len)
            + 1
            + crate::codec::FRAME_TRAILER_LEN
    }

    /// Total score mass of the summarised list (sum of bucket counts times
    /// bucket midpoints) — the planner's replacement for DF-and-independence
    /// benefit estimates. `None` without a score section.
    pub fn score_mass(&self) -> Option<f64> {
        let s = self.scores.as_ref()?;
        let (lo, hi) = (f64::from(s.min), f64::from(s.max));
        if hi <= lo {
            return Some(self.len as f64 * lo);
        }
        let step = (hi - lo) / s.counts.len() as f64;
        Some(
            s.counts
                .iter()
                .enumerate()
                .map(|(i, c)| *c as f64 * (lo + (i as f64 + 0.5) * step))
                .sum(),
        )
    }

    /// Whether the two summarised lists can share a document. `false` is a
    /// *proof* of disjointness (Bloom filters have no false negatives and the
    /// doc-id ranges are exact); `true` only means "not disproven". Callers
    /// proving a multi-term key empty must additionally check
    /// [`KeySketch::is_complete`] on both sides — truncated lists do not
    /// witness all matching documents.
    pub fn may_intersect(&self, other: &KeySketch) -> bool {
        if self.len == 0 || other.len == 0 {
            return false;
        }
        let (Some(a), Some(b)) = (&self.membership, &other.membership) else {
            return true;
        };
        if doc_key(a.max_doc) < doc_key(b.min_doc) || doc_key(b.max_doc) < doc_key(a.min_doc) {
            return false;
        }
        if a.bits == b.bits
            && a.hashes == b.hashes
            && a.bloom.iter().zip(&b.bloom).all(|(x, y)| x & y == 0)
        {
            return false;
        }
        true
    }

    /// Estimates `|A ∩ B|` of the two summarised doc sets from the Bloom
    /// filters (inclusion–exclusion over the standard cardinality estimate of
    /// the OR-ed filter), clamped to `[0, min(len)]`. `None` when either side
    /// lacks a membership section or the filters are not AND-compatible.
    pub fn estimate_intersection(&self, other: &KeySketch) -> Option<f64> {
        if self.len == 0 || other.len == 0 {
            return Some(0.0);
        }
        let (a, b) = (self.membership.as_ref()?, other.membership.as_ref()?);
        if a.bits != b.bits || a.hashes != b.hashes {
            return None;
        }
        let m = a.bits as f64;
        let k = f64::from(a.hashes);
        let union_ones: u32 = a
            .bloom
            .iter()
            .zip(&b.bloom)
            .map(|(x, y)| (x | y).count_ones())
            .sum();
        let est_union = if u64::from(union_ones) >= a.bits {
            (self.len + other.len) as f64
        } else {
            -(m / k) * (1.0 - f64::from(union_ones) / m).ln()
        };
        let est = (self.len + other.len) as f64 - est_union;
        Some(est.clamp(0.0, self.len.min(other.len) as f64))
    }

    /// Encodes the sketch into its pinned wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(SKETCH_FORMAT_VERSION);
        let mut flags = 0u8;
        if self.scores.is_some() {
            flags |= FLAG_SCORES;
        }
        if self.membership.is_some() {
            flags |= FLAG_MEMBERSHIP;
        }
        out.push(flags);
        put_varint(&mut out, self.version);
        put_varint(&mut out, self.len);
        put_varint(&mut out, self.full_df);
        put_varint(&mut out, self.capacity);
        if let Some(s) = &self.scores {
            put_f32(&mut out, s.max);
            put_f32(&mut out, s.min);
            put_varint(&mut out, s.counts.len() as u64);
            for c in &s.counts {
                put_varint(&mut out, *c);
            }
        }
        if let Some(m) = &self.membership {
            put_varint(&mut out, u64::from(m.min_doc.peer));
            put_varint(&mut out, u64::from(m.min_doc.local));
            put_varint(&mut out, u64::from(m.max_doc.peer));
            put_varint(&mut out, u64::from(m.max_doc.local));
            out.push(m.hashes);
            put_varint(&mut out, m.bits);
            out.extend_from_slice(&m.bloom);
        }
        out
    }

    /// Exact length of [`KeySketch::encode`] — pure arithmetic.
    pub fn encoded_len(&self) -> usize {
        let mut len = 2
            + varint_len(self.version)
            + varint_len(self.len)
            + varint_len(self.full_df)
            + varint_len(self.capacity);
        if let Some(s) = &self.scores {
            len += 8 + varint_len(s.counts.len() as u64);
            len += s.counts.iter().map(|c| varint_len(*c)).sum::<usize>();
        }
        if let Some(m) = &self.membership {
            len += varint_len(u64::from(m.min_doc.peer))
                + varint_len(u64::from(m.min_doc.local))
                + varint_len(u64::from(m.max_doc.peer))
                + varint_len(u64::from(m.max_doc.local));
            len += 1 + varint_len(m.bits) + m.bloom.len();
        }
        len
    }

    /// Decodes a sketch frame, validating version, flags, section invariants
    /// and the absence of trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<KeySketch, CodecError> {
        let mut pos = 0usize;
        let version_byte = *buf
            .get(pos)
            .ok_or_else(|| CodecError::new("empty sketch frame"))?;
        pos += 1;
        if version_byte != SKETCH_FORMAT_VERSION {
            return Err(CodecError::new(format!(
                "unknown sketch frame version {version_byte}"
            )));
        }
        let flags = *buf
            .get(pos)
            .ok_or_else(|| CodecError::new("sketch frame missing flags"))?;
        pos += 1;
        if flags & !(FLAG_SCORES | FLAG_MEMBERSHIP) != 0 {
            return Err(CodecError::new(format!("unknown sketch flags {flags:#x}")));
        }
        let version = get_varint(buf, &mut pos)?;
        let len = get_varint(buf, &mut pos)?;
        let full_df = get_varint(buf, &mut pos)?;
        let capacity = get_varint(buf, &mut pos)?;
        if len == 0 && flags != 0 {
            return Err(CodecError::new("sketch sections on an empty list"));
        }
        let scores = if flags & FLAG_SCORES != 0 {
            let max = get_f32(buf, &mut pos)?;
            let min = get_f32(buf, &mut pos)?;
            if !(max.is_finite() && min.is_finite()) || max < min {
                return Err(CodecError::new("invalid sketch score bounds"));
            }
            let n_buckets = get_varint(buf, &mut pos)? as usize;
            if n_buckets == 0 || n_buckets > 1024 {
                return Err(CodecError::new("invalid sketch bucket count"));
            }
            let mut counts = Vec::with_capacity(n_buckets);
            let mut total = 0u64;
            for _ in 0..n_buckets {
                let c = get_varint(buf, &mut pos)?;
                total = total
                    .checked_add(c)
                    .ok_or_else(|| CodecError::new("sketch bucket counts overflow"))?;
                counts.push(c);
            }
            if total != len {
                return Err(CodecError::new("sketch bucket counts do not sum to len"));
            }
            Some(ScoreSketch { max, min, counts })
        } else {
            None
        };
        let membership = if flags & FLAG_MEMBERSHIP != 0 {
            let read_doc = |pos: &mut usize| -> Result<DocId, CodecError> {
                let peer = u32::try_from(get_varint(buf, pos)?)
                    .map_err(|_| CodecError::new("sketch doc peer overflows u32"))?;
                let local = u32::try_from(get_varint(buf, pos)?)
                    .map_err(|_| CodecError::new("sketch doc local overflows u32"))?;
                Ok(DocId::new(peer, local))
            };
            let min_doc = read_doc(&mut pos)?;
            let max_doc = read_doc(&mut pos)?;
            if doc_key(max_doc) < doc_key(min_doc) {
                return Err(CodecError::new("sketch doc range is inverted"));
            }
            let hashes = *buf
                .get(pos)
                .ok_or_else(|| CodecError::new("truncated sketch hash count"))?;
            pos += 1;
            let bits = get_varint(buf, &mut pos)?;
            if hashes == 0 || !(8..=1 << 20).contains(&bits) {
                return Err(CodecError::new("invalid sketch bloom geometry"));
            }
            let n_bytes = bits.div_ceil(8) as usize;
            let end = pos
                .checked_add(n_bytes)
                .filter(|end| *end <= buf.len())
                .ok_or_else(|| CodecError::new("truncated sketch bloom"))?;
            let bloom = buf[pos..end].to_vec();
            pos = end;
            Some(MembershipSketch {
                min_doc,
                max_doc,
                hashes,
                bits,
                bloom,
            })
        } else {
            None
        };
        if pos != buf.len() {
            return Err(CodecError::new("trailing bytes after sketch frame"));
        }
        Ok(KeySketch {
            version,
            len,
            full_df,
            capacity,
            scores,
            membership,
        })
    }
}

// ---------------------------------------------------------------------------
// SketchCache
// ---------------------------------------------------------------------------

/// The querier-side cache of published sketches, keyed by [`TermKey`].
///
/// Freshness is version-gated: [`SketchCache::fresh`] only returns a sketch
/// whose recorded publish version equals the caller-supplied current version
/// of the key, so any republish, (de)activation or eviction after the sketch
/// was built silently disables it — stale evidence is never consulted.
#[derive(Clone, Debug, Default)]
pub struct SketchCache {
    map: HashMap<TermKey, KeySketch>,
}

impl SketchCache {
    /// An empty cache.
    pub fn new() -> Self {
        SketchCache::default()
    }

    /// Inserts (or replaces) the sketch for `key`.
    pub fn insert(&mut self, key: TermKey, sketch: KeySketch) {
        self.map.insert(key, sketch);
    }

    /// The cached sketch for `key`, regardless of freshness.
    pub fn get(&self, key: &TermKey) -> Option<&KeySketch> {
        self.map.get(key)
    }

    /// The cached sketch for `key`, only if it still describes the key's
    /// current publish version.
    pub fn fresh(&self, key: &TermKey, current_version: u64) -> Option<&KeySketch> {
        self.map.get(key).filter(|s| s.version() == current_version)
    }

    /// Number of cached sketches.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every cached sketch.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterates over the cached `(key, sketch)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&TermKey, &KeySketch)> {
        self.map.iter()
    }
}

// ---------------------------------------------------------------------------
// SketchPolicy — cost-based selection
// ---------------------------------------------------------------------------

/// The cost model behind [`SketchPolicy::CostBased`]: how many probes a key
/// is expected to receive over the sketch's lifetime and with what prior
/// probability each sketch kind turns one of them into savings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SketchCostModel {
    /// Cold-start prior on expected probes per key while the sketch stays
    /// fresh. Used by the publisher only while the index has never observed a
    /// probe; once any key carries usage statistics, each key's own observed
    /// probe count is projected forward instead (stationary-demand estimate),
    /// so cold keys stop paying for sketches nobody consults.
    pub expected_probes: f64,
    /// Prior probability that a probe for a sketched key is provably below
    /// the querier's running score floor (powers the scores kind).
    pub floor_prune_prior: f64,
    /// Prior probability that the membership section down-ranks a dependent
    /// multi-term probe at the planner (powers the membership kind).
    pub intersect_prior: f64,
}

impl Default for SketchCostModel {
    fn default() -> Self {
        SketchCostModel {
            expected_probes: 4.0,
            floor_prune_prior: 0.25,
            intersect_prior: 0.05,
        }
    }
}

/// A sketch the cost model decided to maintain, with the numbers that
/// justified it.
#[derive(Clone, Debug)]
pub struct PlannedSketch {
    /// The sketch to publish and cache.
    pub sketch: KeySketch,
    /// Its encoded frame (what the wire carries).
    pub frame: Vec<u8>,
    /// Measured upkeep: frame bytes plus the wire envelope, charged to
    /// Overlay at publish time.
    pub upkeep_bytes: usize,
    /// The model's expected probe-byte savings. Always `>= upkeep_bytes` —
    /// the selector refuses to maintain an unprofitable sketch.
    pub modeled_savings: f64,
}

impl SketchCostModel {
    /// Decides which sketch kinds (if any) to maintain for one key, given its
    /// stored postings, the estimated full cost `probe_cost` of one probe for
    /// it (routing + request + response, as
    /// [`crate::global_index::GlobalIndex::estimate_probe_bytes`] bounds it),
    /// and `expected_probes` — the publisher's per-key demand estimate (the
    /// [`SketchCostModel::expected_probes`] prior on a cold index, the key's
    /// observed probe count once usage statistics exist).
    ///
    /// The accounting is Reserve-style and per kind: a kind is selected only
    /// when its expected savings cover its incremental frame bytes, and the
    /// sketch is published only when the summed savings cover the *measured*
    /// total upkeep (frame + envelope). Returns `None` when no sketch pays
    /// for itself.
    pub fn plan(
        &self,
        version: u64,
        postings: &TruncatedPostingList,
        probe_cost: u64,
        expected_probes: f64,
    ) -> Option<PlannedSketch> {
        let probe_cost = probe_cost as f64;
        let mut kinds = SketchKinds::none();
        let base_len = KeySketch::build(version, postings, kinds).encoded_len();
        let mut savings = 0.0;
        if postings.refs().is_empty() {
            // The header alone proves every probe useless.
            savings = expected_probes * probe_cost;
        } else {
            let with_scores = KeySketch::build(
                version,
                postings,
                SketchKinds {
                    scores: true,
                    ..kinds
                },
            )
            .encoded_len();
            let scores_savings = expected_probes * self.floor_prune_prior * probe_cost;
            if scores_savings >= (with_scores - base_len) as f64 {
                kinds.scores = true;
                savings += scores_savings;
            }
            let complete = postings.full_df() == postings.len() as u64;
            if complete {
                let without = KeySketch::build(version, postings, kinds).encoded_len();
                let with_membership = KeySketch::build(
                    version,
                    postings,
                    SketchKinds {
                        membership: true,
                        ..kinds
                    },
                )
                .encoded_len();
                let membership_savings = expected_probes * self.intersect_prior * probe_cost;
                if membership_savings >= (with_membership - without) as f64 {
                    kinds.membership = true;
                    savings += membership_savings;
                }
            }
            if kinds == SketchKinds::none() {
                return None;
            }
        }
        let sketch = KeySketch::build(version, postings, kinds);
        let frame = sketch.encode();
        let upkeep_bytes = frame.len() + ENVELOPE_OVERHEAD;
        if savings < upkeep_bytes as f64 {
            return None;
        }
        Some(PlannedSketch {
            sketch,
            frame,
            upkeep_bytes,
            modeled_savings: savings,
        })
    }
}

/// Whether (and how) a network maintains per-key sketches.
///
/// The default, [`SketchPolicy::NoSketches`], publishes nothing, charges
/// nothing and leaves planning, execution and every byte count identical to a
/// build without the sketch subsystem.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum SketchPolicy {
    /// No sketches are maintained (the pre-sketch behaviour, byte-identical).
    #[default]
    NoSketches,
    /// Sketches are maintained for exactly the keys (and kinds) whose modeled
    /// probe-byte savings cover their measured upkeep bytes.
    CostBased(SketchCostModel),
}

impl SketchPolicy {
    /// The cost-based policy with default model parameters.
    pub fn cost_based() -> Self {
        SketchPolicy::CostBased(SketchCostModel::default())
    }

    /// Whether the policy maintains any sketches at all.
    pub fn enabled(&self) -> bool {
        !matches!(self, SketchPolicy::NoSketches)
    }
}

/// One per-key outcome of the cost-based selector (kept by the build report
/// so experiments can audit the upkeep-vs-savings invariant).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SketchDecision {
    /// Canonical form of the sketched key.
    pub key: String,
    /// Whether the score section was maintained.
    pub scores: bool,
    /// Whether the membership section was maintained.
    pub membership: bool,
    /// Measured upkeep bytes (frame + envelope) charged to Overlay.
    pub upkeep_bytes: u64,
    /// The model's expected probe-byte savings for this key.
    pub modeled_savings: f64,
}

/// Summary of one sketch-publication pass over the activated keys.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SketchBuildReport {
    /// Keys the selector examined (all activated keys).
    pub considered_keys: usize,
    /// Keys for which a sketch was maintained.
    pub sketched_keys: usize,
    /// Total measured upkeep bytes charged to Overlay.
    pub upkeep_bytes: u64,
    /// Total modeled probe-byte savings of the maintained sketches.
    pub modeled_savings: f64,
    /// The per-key decisions, sorted by key.
    pub decisions: Vec<SketchDecision>,
}

impl SketchBuildReport {
    /// The selector's core invariant: no maintained sketch's measured upkeep
    /// exceeds its modeled savings.
    pub fn upkeep_accounted(&self) -> bool {
        self.decisions
            .iter()
            .all(|d| d.modeled_savings >= d.upkeep_bytes as f64)
    }
}

// ---------------------------------------------------------------------------
// The Alvis document digest
// ---------------------------------------------------------------------------

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
    /// Total number of term occurrences in this entry.
    pub fn occurrence_count(&self) -> usize {
        self.terms.iter().map(|t| t.positions.len()).sum()
    }

    /// Flattens the entry into analyzer-style term occurrences.
    pub fn to_occurrences(&self) -> Vec<TermOccurrence> {
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
    use crate::posting::ScoredRef;

    fn list(scores: &[f64], capacity: usize) -> TruncatedPostingList {
        TruncatedPostingList::from_refs(
            scores.iter().enumerate().map(|(i, s)| ScoredRef {
                doc: DocId::new(0, i as u32),
                score: *s,
            }),
            capacity,
        )
    }

    // ------------------------------------------------------------------
    // Sketch frames
    // ------------------------------------------------------------------

    #[test]
    fn golden_header_only_frame() {
        let sketch = KeySketch::build(3, &TruncatedPostingList::new(10), SketchKinds::all());
        let frame = sketch.encode();
        // version, flags (none: the list is empty), publish version, len,
        // full_df, capacity.
        assert_eq!(frame, vec![SKETCH_FORMAT_VERSION, 0, 3, 0, 0, 10]);
        assert_eq!(frame.len(), sketch.encoded_len());
        assert_eq!(KeySketch::decode(&frame).unwrap(), sketch);
    }

    #[test]
    fn golden_scores_frame() {
        let sketch = KeySketch::build(
            1,
            &list(&[2.0, 1.0], 10),
            SketchKinds {
                scores: true,
                membership: false,
            },
        );
        let frame = sketch.encode();
        // 2.0 and 1.0 are exactly f32-representable, so the widened bounds
        // are their plain LE encodings; the two scores land in the top and
        // bottom of the 8 equi-width buckets.
        let expected = [
            vec![SKETCH_FORMAT_VERSION, FLAG_SCORES, 1, 2, 2, 10],
            2.0f32.to_le_bytes().to_vec(),
            1.0f32.to_le_bytes().to_vec(),
            vec![8, 1, 0, 0, 0, 0, 0, 0, 1],
        ]
        .concat();
        assert_eq!(frame, expected);
        assert_eq!(frame.len(), sketch.encoded_len());
        assert_eq!(KeySketch::decode(&frame).unwrap(), sketch);
    }

    #[test]
    fn membership_frame_round_trips_with_fixed_geometry() {
        let sketch = KeySketch::build(7, &list(&[5.0, 4.0, 3.0], 10), SketchKinds::all());
        let m = sketch.membership().unwrap();
        assert_eq!(m.bits, SKETCH_BLOOM_BITS);
        assert_eq!(m.hashes, SKETCH_BLOOM_HASHES);
        assert_eq!(m.bloom.len(), SKETCH_BLOOM_BITS.div_ceil(8) as usize);
        assert_eq!(m.min_doc, DocId::new(0, 0));
        assert_eq!(m.max_doc, DocId::new(0, 2));
        let frame = sketch.encode();
        assert_eq!(frame.len(), sketch.encoded_len());
        assert_eq!(KeySketch::decode(&frame).unwrap(), sketch);
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let good = KeySketch::build(1, &list(&[2.0, 1.0], 10), SketchKinds::all()).encode();
        // Empty / truncated.
        assert!(KeySketch::decode(&[]).is_err());
        assert!(KeySketch::decode(&good[..good.len() - 1]).is_err());
        // Bad version byte.
        let mut bad = good.clone();
        bad[0] = 9;
        assert!(KeySketch::decode(&bad).is_err());
        // Unknown flag bits.
        let mut bad = good.clone();
        bad[1] |= 0x80;
        assert!(KeySketch::decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert!(KeySketch::decode(&bad).is_err());
        // Sections on an empty list.
        assert!(KeySketch::decode(&[SKETCH_FORMAT_VERSION, FLAG_SCORES, 0, 0, 0, 5]).is_err());
        // Bucket counts that do not sum to len.
        let mut bad = KeySketch::build(
            1,
            &list(&[2.0, 1.0], 10),
            SketchKinds {
                scores: true,
                membership: false,
            },
        );
        bad.scores.as_mut().unwrap().counts[0] += 1;
        assert!(KeySketch::decode(&bad.encode()).is_err());
    }

    #[test]
    fn floor_pruning_matches_the_codec_exactly() {
        let postings = list(&[3.0, 2.5, 1.0], 10);
        let sketch = KeySketch::build(
            0,
            &postings,
            SketchKinds {
                scores: true,
                membership: false,
            },
        );
        // Above the max: provably all-elided; the synthesised response equals
        // what encode→decode under the same floor produces.
        assert!(sketch.prunes_all_below(Some(3.5)));
        let wire =
            crate::codec::decode_list(&crate::codec::encode_list(&postings, Some(3.5))).unwrap();
        assert_eq!(sketch.pruned_response(), wire);
        assert_eq!(
            sketch.pruned_response_len(),
            crate::codec::encode_list(&postings, Some(3.5)).len()
        );
        // At or below the max: not provable (the codec keeps `>= floor`).
        assert!(!sketch.prunes_all_below(Some(3.0)));
        assert!(!sketch.prunes_all_below(Some(1.0)));
        assert!(!sketch.prunes_all_below(None));
        // An empty list prunes under any floor, including none.
        let empty = KeySketch::build(0, &TruncatedPostingList::new(4), SketchKinds::none());
        assert!(empty.prunes_all_below(None));
        assert_eq!(
            empty.pruned_response(),
            crate::codec::decode_list(&crate::codec::encode_list(
                &TruncatedPostingList::new(4),
                None
            ))
            .unwrap()
        );
    }

    #[test]
    fn truncated_lists_synthesise_truncated_responses() {
        // 5 stored of 9 matching: the synthesised pruned response must stay
        // truncated, exactly like the wire's all-elided frame.
        let mut postings = TruncatedPostingList::new(5);
        for i in 0..9u32 {
            postings.insert(ScoredRef {
                doc: DocId::new(0, i),
                score: f64::from(9 - i),
            });
        }
        assert!(postings.is_truncated());
        let sketch = KeySketch::build(
            0,
            &postings,
            SketchKinds {
                scores: true,
                membership: false,
            },
        );
        assert!(!sketch.is_complete());
        let synth = sketch.pruned_response();
        let wire =
            crate::codec::decode_list(&crate::codec::encode_list(&postings, Some(100.0))).unwrap();
        assert_eq!(synth, wire);
        assert!(synth.is_truncated());
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let a = list(&[5.0, 4.0, 3.0, 2.0], 10);
        let sketch = KeySketch::build(0, &a, SketchKinds::all());
        // Every stored doc sets all its bits: a singleton sketch of any
        // stored doc must be judged as possibly intersecting.
        for r in a.refs() {
            let single = TruncatedPostingList::from_refs(
                [ScoredRef {
                    doc: r.doc,
                    score: r.score,
                }],
                10,
            );
            let s = KeySketch::build(0, &single, SketchKinds::all());
            assert!(sketch.may_intersect(&s));
            assert!(s.may_intersect(&sketch));
        }
    }

    #[test]
    fn disjoint_doc_sets_are_proven_disjoint() {
        let a = TruncatedPostingList::from_refs(
            (0..4u32).map(|i| ScoredRef {
                doc: DocId::new(1, i),
                score: 1.0,
            }),
            10,
        );
        let b = TruncatedPostingList::from_refs(
            (0..4u32).map(|i| ScoredRef {
                doc: DocId::new(2, i),
                score: 1.0,
            }),
            10,
        );
        let sa = KeySketch::build(0, &a, SketchKinds::all());
        let sb = KeySketch::build(0, &b, SketchKinds::all());
        // Disjoint ranges (peer 1 vs peer 2) prove it outright.
        assert!(!sa.may_intersect(&sb));
        // An empty side proves it too.
        let empty = KeySketch::build(0, &TruncatedPostingList::new(4), SketchKinds::all());
        assert!(!sa.may_intersect(&empty));
        // Without membership sections nothing is provable.
        let blind = KeySketch::build(
            0,
            &b,
            SketchKinds {
                scores: true,
                membership: false,
            },
        );
        assert!(sa.may_intersect(&blind));
    }

    #[test]
    fn intersection_estimate_tracks_real_overlap() {
        let a = TruncatedPostingList::from_refs(
            (0..40u32).map(|i| ScoredRef {
                doc: DocId::new(0, i),
                score: 1.0,
            }),
            100,
        );
        let b = TruncatedPostingList::from_refs(
            (20..60u32).map(|i| ScoredRef {
                doc: DocId::new(0, i),
                score: 1.0,
            }),
            100,
        );
        let sa = KeySketch::build(0, &a, SketchKinds::all());
        let sb = KeySketch::build(0, &b, SketchKinds::all());
        let est = sa.estimate_intersection(&sb).unwrap();
        // True overlap is 20 of 40; the Bloom estimate is approximate but
        // must land in the right ballpark and inside the hard bounds.
        assert!(est > 5.0 && est <= 40.0, "estimate {est}");
        // Identical sets estimate close to their full size.
        let self_est = sa.estimate_intersection(&sa).unwrap();
        assert!(self_est > 30.0, "self estimate {self_est}");
    }

    #[test]
    fn score_mass_reflects_the_histogram() {
        let postings = list(&[4.0, 4.0, 1.0], 10);
        let sketch = KeySketch::build(
            0,
            &postings,
            SketchKinds {
                scores: true,
                membership: false,
            },
        );
        let mass = sketch.score_mass().unwrap();
        let true_mass = 9.0;
        // Bucket midpoints put each score within half a bucket width.
        assert!((mass - true_mass).abs() < 1.0, "mass {mass}");
        // Degenerate range (all scores equal).
        let flat = KeySketch::build(
            0,
            &list(&[2.0, 2.0], 10),
            SketchKinds {
                scores: true,
                membership: false,
            },
        );
        let flat_mass = flat.score_mass().unwrap();
        assert!((flat_mass - 4.0).abs() < 0.1, "flat mass {flat_mass}");
        assert!(KeySketch::build(0, &postings, SketchKinds::none())
            .score_mass()
            .is_none());
    }

    // ------------------------------------------------------------------
    // Cache
    // ------------------------------------------------------------------

    #[test]
    fn cache_is_version_gated() {
        let mut cache = SketchCache::new();
        let key = TermKey::new(["sketch", "cach"]);
        let sketch = KeySketch::build(5, &list(&[1.0], 10), SketchKinds::all());
        cache.insert(key.clone(), sketch);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key).is_some());
        assert!(cache.fresh(&key, 5).is_some());
        assert!(cache.fresh(&key, 6).is_none(), "stale sketches are ignored");
        assert!(cache.fresh(&TermKey::single("other"), 5).is_none());
        cache.clear();
        assert!(cache.is_empty());
    }

    // ------------------------------------------------------------------
    // Cost-based selection
    // ------------------------------------------------------------------

    #[test]
    fn selector_never_maintains_an_unprofitable_sketch() {
        let model = SketchCostModel::default();
        // A worthwhile key: decent probe cost.
        let planned = model
            .plan(1, &list(&[3.0, 2.0, 1.0], 10), 2_000, model.expected_probes)
            .unwrap();
        assert!(planned.modeled_savings >= planned.upkeep_bytes as f64);
        assert_eq!(
            planned.upkeep_bytes,
            planned.frame.len() + ENVELOPE_OVERHEAD
        );
        assert!(planned.sketch.scores().is_some());
        // A probe too cheap to ever pay for a sketch.
        assert!(model
            .plan(1, &list(&[3.0, 2.0, 1.0], 10), 10, model.expected_probes)
            .is_none());
    }

    #[test]
    fn selector_prefers_header_only_for_empty_lists() {
        let model = SketchCostModel::default();
        let planned = model
            .plan(
                2,
                &TruncatedPostingList::new(10),
                500,
                model.expected_probes,
            )
            .unwrap();
        assert!(planned.sketch.is_empty());
        assert!(planned.sketch.scores().is_none());
        assert!(planned.sketch.membership().is_none());
        assert!(planned.modeled_savings >= planned.upkeep_bytes as f64);
    }

    #[test]
    fn selector_skips_membership_for_truncated_lists() {
        let model = SketchCostModel {
            expected_probes: 100.0,
            floor_prune_prior: 0.5,
            intersect_prior: 0.5,
        };
        let mut truncated = TruncatedPostingList::new(3);
        for i in 0..6u32 {
            truncated.insert(ScoredRef {
                doc: DocId::new(0, i),
                score: f64::from(6 - i),
            });
        }
        let planned = model
            .plan(1, &truncated, 5_000, model.expected_probes)
            .unwrap();
        assert!(planned.sketch.scores().is_some());
        assert!(
            planned.sketch.membership().is_none(),
            "truncated lists cannot witness all matching documents"
        );
        // A complete list with the same model does get a membership section.
        let complete = list(&[6.0, 5.0, 4.0], 10);
        let planned = model
            .plan(1, &complete, 5_000, model.expected_probes)
            .unwrap();
        assert!(planned.sketch.membership().is_some());
    }

    #[test]
    fn build_report_audits_the_invariant() {
        let mut report = SketchBuildReport::default();
        report.decisions.push(SketchDecision {
            key: "a".into(),
            scores: true,
            membership: false,
            upkeep_bytes: 50,
            modeled_savings: 200.0,
        });
        assert!(report.upkeep_accounted());
        report.decisions.push(SketchDecision {
            key: "b".into(),
            scores: true,
            membership: false,
            upkeep_bytes: 300,
            modeled_savings: 200.0,
        });
        assert!(!report.upkeep_accounted());
    }

    #[test]
    fn no_sketches_is_the_default_policy() {
        assert_eq!(SketchPolicy::default(), SketchPolicy::NoSketches);
        assert!(!SketchPolicy::default().enabled());
        assert!(SketchPolicy::cost_based().enabled());
    }

    // ------------------------------------------------------------------
    // The document digest (moved from textindex::digest)
    // ------------------------------------------------------------------

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
        assert!(first.occurrence_count() >= 4);
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

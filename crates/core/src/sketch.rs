//! Per-key provenance sketches.
//!
//! This module is the querier-side *evidence layer* between planning and
//! probing. For an activated key the responsible peer can publish a
//! [`KeySketch`] — the header of its stored posting list (`len`, `full_df`,
//! `capacity`) stamped with the key's publish version — alongside the ranking
//! statistics of [`crate::ranking::GlobalRankingStats`]. Queriers cache the
//! sketches and use them to *prove* a probe useless before spending bytes on
//! it: when no stored reference can survive the current score floor, the
//! executor synthesises the byte-identical all-elided response locally and
//! never sends the probe (see [`crate::exec::QueryStream`]).
//!
//! # The one proof
//!
//! [`KeySketch::proves_all_elided`] holds iff the list is empty (`len == 0`)
//! or the key's published maximum score `m` is strictly below the floor `f`.
//! The sketch does not carry `m`: every activated key's maximum is already
//! published once, into [`crate::ranking::GlobalRankingStats`], where
//! [`crate::request::ThresholdMode::RankSafe`] floors read it too — a second
//! copy in the sketch frame would be upkeep bytes buying nothing. The proof is
//! sound because
//!
//! * the serve site keeps exactly the references with `r.score >= f`,
//!   compared on the stored `f64` scores ([`crate::codec::encode_list`]);
//! * the published maximum *is* the stored list's `f64`
//!   [`TruncatedPostingList::best_score`] at the recorded publish version, so
//!   `m < f` implies `r.score <= m < f` for every stored reference — nothing
//!   is kept; and
//! * both pieces of evidence are version-gated: the sketch is consulted only
//!   while its `version` equals the key's current publish version, and the
//!   maximum only through
//!   [`crate::ranking::GlobalRankingStats::key_max_fresh`] at that same
//!   version, so any later publish, (de)activation or eviction retires both.
//!
//! Given the proof, the response is known in advance: zero references, the
//! header fields unchanged ([`KeySketch::pruned_response`]), in a frame of
//! exactly [`KeySketch::pruned_response_len`] bytes.
//!
//! Whether a sketch is worth maintaining at all is itself a cost decision
//! ([`SketchPolicy`], [`PlannedSketch::select`]): its upkeep bytes (frame +
//! envelope, charged to [`alvisp2p_netsim::TrafficCategory::Overlay`], never
//! Retrieval) must be covered by its modeled probe-byte savings, mirroring the
//! Reserve-style accounting `GreedyCost` already does for probes. The default
//! [`SketchPolicy::NoSketches`] publishes nothing and leaves the query path
//! byte-identical to a sketch-free build.
//!
//! # Sketch frame layout (pinned by a byte-level golden test)
//!
//! ```text
//! version          u8       == SKETCH_FORMAT_VERSION
//! publish_version  varint   entry version the sketch summarises (staleness)
//! len              varint   stored references
//! full_df          varint   true document frequency at the responsible peer
//! capacity         varint   truncation capacity of the stored list
//! ```
//!
//! The frame reuses the [`crate::codec`] varint primitives, so sketch bytes
//! are charged with the same fidelity as posting-list frames.

use crate::codec::{get_varint, put_varint, varint_len, CodecError};
use crate::posting::TruncatedPostingList;
use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
use serde::{Deserialize, Serialize};

/// Version byte leading every sketch frame. Version 1 frames (flags byte,
/// optional score-histogram and Bloom sections) are rejected.
pub const SKETCH_FORMAT_VERSION: u8 = 2;

// ---------------------------------------------------------------------------
// KeySketch
// ---------------------------------------------------------------------------

/// A compact, publishable summary of one key's stored posting list: the list
/// header at one publish version.
///
/// Built by the responsible peer at publish time ([`KeySketch::build`]),
/// shipped in the pinned frame format ([`KeySketch::encode`] /
/// [`KeySketch::decode`]) and cached at queriers. A sketch is only consulted
/// while its `version` matches the key's current publish version (see
/// [`crate::global_index::GlobalIndex::publish_version`]) — any later
/// publish, activation change or eviction silently retires it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeySketch {
    version: u64,
    len: u64,
    full_df: u64,
    capacity: u64,
}

impl KeySketch {
    /// Builds the sketch of `postings` at publish `version`.
    pub fn build(version: u64, postings: &TruncatedPostingList) -> Self {
        KeySketch {
            version,
            len: postings.len() as u64,
            full_df: postings.full_df(),
            capacity: postings.capacity() as u64,
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

    /// Proves that a probe under `floor` returns zero kept entries: either
    /// the list is empty, or `key_max` — the key's published maximum stored
    /// score, which the caller must have read *fresh* at this sketch's
    /// version — is strictly below the floor (the codec keeps entries scoring
    /// `>= floor`, so every stored score being `< floor` elides them all; see
    /// the module docs). Without a floor or a maximum only empty lists prove.
    pub fn proves_all_elided(&self, key_max: Option<f64>, floor: Option<f64>) -> bool {
        self.len == 0 || matches!((key_max, floor), (Some(m), Some(f)) if m < f)
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

    /// Encodes the sketch into its pinned wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(SKETCH_FORMAT_VERSION);
        put_varint(&mut out, self.version);
        put_varint(&mut out, self.len);
        put_varint(&mut out, self.full_df);
        put_varint(&mut out, self.capacity);
        out
    }

    /// Exact length of [`KeySketch::encode`] — pure arithmetic.
    pub fn encoded_len(&self) -> usize {
        1 + varint_len(self.version)
            + varint_len(self.len)
            + varint_len(self.full_df)
            + varint_len(self.capacity)
    }

    /// Decodes a sketch frame, validating the format version, the absence of
    /// trailing bytes and that every varint is in its shortest form (so an
    /// accepted frame is exactly what [`KeySketch::encode`] produces).
    pub fn decode(buf: &[u8]) -> Result<KeySketch, CodecError> {
        let format = *buf
            .first()
            .ok_or_else(|| CodecError::new("empty sketch frame"))?;
        if format != SKETCH_FORMAT_VERSION {
            return Err(CodecError::new(format!(
                "unknown sketch frame version {format}"
            )));
        }
        let mut pos = 1usize;
        let version = get_varint(buf, &mut pos)?;
        let len = get_varint(buf, &mut pos)?;
        let full_df = get_varint(buf, &mut pos)?;
        let capacity = get_varint(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(CodecError::new("trailing bytes after sketch frame"));
        }
        let sketch = KeySketch {
            version,
            len,
            full_df,
            capacity,
        };
        if sketch.encoded_len() != buf.len() {
            return Err(CodecError::new("overlong varint in sketch frame"));
        }
        Ok(sketch)
    }
}

// ---------------------------------------------------------------------------
// SketchPolicy — cost-based selection
// ---------------------------------------------------------------------------

/// Cold-start prior on expected probes per key while the sketch stays fresh.
/// Used only while the index has never observed a probe; once any key carries
/// usage statistics, each key's own observed probe count is projected forward
/// instead (stationary-demand estimate), so cold keys stop paying for
/// sketches nobody consults.
const COLD_EXPECTED_PROBES: f64 = 4.0;

/// Prior probability that a probe for a sketched non-empty key is provably
/// below the querier's running score floor.
const FLOOR_PRUNE_PRIOR: f64 = 0.25;

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

impl PlannedSketch {
    /// Decides whether to maintain a sketch for one key, given its stored
    /// postings at publish `version`, the estimated full cost `probe_cost` of
    /// one probe for it (routing + request + response, as
    /// [`crate::global_index::GlobalIndex::estimate_probe_bytes`] bounds it),
    /// and `observed_probes` — the key's observed probe count once the index
    /// carries usage statistics, `None` on a cold index (a uniform prior
    /// stands in).
    ///
    /// The accounting is Reserve-style: the sketch is published only when its
    /// expected savings — every expected probe for an empty list (the header
    /// alone proves each useless), a prior share of them otherwise — cover
    /// the *measured* upkeep (frame + envelope). Returns `None` when the
    /// sketch does not pay for itself.
    pub fn select(
        version: u64,
        postings: &TruncatedPostingList,
        probe_cost: u64,
        observed_probes: Option<u64>,
    ) -> Option<PlannedSketch> {
        let expected = observed_probes.map_or(COLD_EXPECTED_PROBES, |p| p as f64);
        let prune_share = if postings.is_empty() {
            1.0
        } else {
            FLOOR_PRUNE_PRIOR
        };
        let modeled_savings = expected * prune_share * probe_cost as f64;
        let sketch = KeySketch::build(version, postings);
        let upkeep_bytes = sketch.encoded_len() + ENVELOPE_OVERHEAD;
        (modeled_savings >= upkeep_bytes as f64).then(|| PlannedSketch {
            frame: sketch.encode(),
            sketch,
            upkeep_bytes,
            modeled_savings,
        })
    }
}

/// Whether a network maintains per-key sketches.
///
/// The default, [`SketchPolicy::NoSketches`], publishes nothing, charges
/// nothing and leaves planning, execution and every byte count identical to a
/// build without the sketch subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SketchPolicy {
    /// No sketches are maintained (the pre-sketch behaviour, byte-identical).
    #[default]
    NoSketches,
    /// Sketches are maintained for exactly the keys whose modeled probe-byte
    /// savings cover their measured upkeep bytes ([`PlannedSketch::select`]).
    CostBased,
}

impl SketchPolicy {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_list, encode_list};
    use crate::posting::ScoredRef;
    use alvisp2p_textindex::DocId;

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
        let sketch = KeySketch::build(3, &list(&[2.0, 1.0], 10));
        let frame = sketch.encode();
        // format version, publish version, len, full_df, capacity.
        assert_eq!(frame, vec![2, 3, 2, 2, 10]);
        assert_eq!(frame.len(), sketch.encoded_len());
        assert_eq!(KeySketch::decode(&frame).unwrap(), sketch);
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let good = KeySketch::build(300, &list(&[2.0, 1.0], 10)).encode();
        assert!(KeySketch::decode(&good).is_ok());
        // Empty / truncated.
        assert!(KeySketch::decode(&[]).is_err());
        assert!(KeySketch::decode(&good[..good.len() - 1]).is_err());
        // Bad version byte.
        let mut bad = good.clone();
        bad[0] = 9;
        assert!(KeySketch::decode(&bad).is_err());
        // A v1 frame (format 1, flags 0, then the same four varints).
        assert!(KeySketch::decode(&[1, 0, 3, 0, 0, 10]).is_err());
        // Trailing bytes.
        let mut bad = good.clone();
        bad.push(0);
        assert!(KeySketch::decode(&bad).is_err());
        // Truncated varint: the publish version's continuation bit is set but
        // the frame ends.
        assert!(KeySketch::decode(&good[..2]).is_err());
        assert!(KeySketch::decode(&[SKETCH_FORMAT_VERSION, 0x80]).is_err());
        // Overlong varint: `len` 0 spelled in two bytes.
        assert!(KeySketch::decode(&[SKETCH_FORMAT_VERSION, 3, 0x80, 0, 0, 10]).is_err());
    }

    // ------------------------------------------------------------------
    // The proof
    // ------------------------------------------------------------------

    #[test]
    fn floor_pruning_matches_the_codec_exactly() {
        let postings = list(&[3.0, 2.5, 1.0], 10);
        let sketch = KeySketch::build(0, &postings);
        let max = postings.best_score();
        // Above the max: provably all-elided; the synthesised response equals
        // what encode→decode under the same floor produces.
        assert!(sketch.proves_all_elided(max, Some(3.5)));
        let frame = encode_list(&postings, Some(3.5));
        let wire = decode_list(&frame).unwrap();
        assert!(wire.is_empty());
        assert_eq!(sketch.pruned_response(), wire);
        assert_eq!(sketch.pruned_response_len(), frame.len());
        // At or below the max: not provable (the codec keeps `>= floor`).
        assert!(!sketch.proves_all_elided(max, Some(3.0)));
        assert!(!sketch.proves_all_elided(max, Some(1.0)));
        assert!(!sketch.proves_all_elided(max, None));
        // No fresh maximum: nothing is provable about a non-empty list.
        assert!(!sketch.proves_all_elided(None, Some(3.5)));
        // An empty list prunes under any floor, including none.
        let empty = KeySketch::build(0, &TruncatedPostingList::new(4));
        assert!(empty.proves_all_elided(None, None));
        assert_eq!(
            empty.pruned_response(),
            decode_list(&encode_list(&TruncatedPostingList::new(4), None)).unwrap()
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
        let sketch = KeySketch::build(0, &postings);
        let synth = sketch.pruned_response();
        let wire = decode_list(&encode_list(&postings, Some(100.0))).unwrap();
        assert_eq!(synth, wire);
        assert!(synth.is_truncated());
    }

    // ------------------------------------------------------------------
    // Cost-based selection
    // ------------------------------------------------------------------

    #[test]
    fn selector_never_maintains_an_unprofitable_sketch() {
        // A worthwhile key: decent probe cost.
        let planned = PlannedSketch::select(1, &list(&[3.0, 2.0, 1.0], 10), 2_000, None).unwrap();
        assert!(planned.modeled_savings >= planned.upkeep_bytes as f64);
        assert_eq!(
            planned.upkeep_bytes,
            planned.frame.len() + ENVELOPE_OVERHEAD
        );
        assert_eq!(planned.sketch.len(), 3);
        // A probe too cheap to ever pay for a sketch.
        assert!(PlannedSketch::select(1, &list(&[3.0, 2.0, 1.0], 10), 10, None).is_none());
        // Observed demand replaces the cold-start prior: a key nobody probed
        // gets no sketch however expensive its probe.
        assert!(PlannedSketch::select(1, &list(&[3.0, 2.0, 1.0], 10), 2_000, Some(0)).is_none());
    }

    #[test]
    fn selector_prefers_header_only_for_empty_lists() {
        // An empty list's sketch saves every expected probe, not a prior
        // share of them: the same probe cost that cannot carry a non-empty
        // list's sketch carries an empty one's.
        let probe_cost = 20;
        let planned =
            PlannedSketch::select(2, &TruncatedPostingList::new(10), probe_cost, None).unwrap();
        assert!(planned.sketch.is_empty());
        assert!(planned.modeled_savings >= planned.upkeep_bytes as f64);
        assert!(PlannedSketch::select(2, &list(&[1.0], 10), probe_cost, None).is_none());
    }

    #[test]
    fn build_report_audits_the_invariant() {
        let mut report = SketchBuildReport::default();
        report.decisions.push(SketchDecision {
            key: "a".into(),
            upkeep_bytes: 50,
            modeled_savings: 200.0,
        });
        assert!(report.upkeep_accounted());
        report.decisions.push(SketchDecision {
            key: "b".into(),
            upkeep_bytes: 300,
            modeled_savings: 200.0,
        });
        assert!(!report.upkeep_accounted());
    }

    #[test]
    fn no_sketches_is_the_default_policy() {
        assert_eq!(SketchPolicy::default(), SketchPolicy::NoSketches);
        assert!(!SketchPolicy::default().enabled());
        assert!(SketchPolicy::CostBased.enabled());
    }
}

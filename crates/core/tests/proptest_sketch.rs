//! Property tests for the per-key sketch subsystem: the pinned wire frame
//! round-trips exactly, the decoder survives arbitrary bytes, a sketch's
//! floor-pruning proof always agrees with what the posting-list codec would
//! actually ship, and the synthesized pruned response is byte-for-byte what
//! the wire would have carried.

use alvisp2p_core::codec::{decode_list, encode_list};
use alvisp2p_core::posting::{ScoredRef, TruncatedPostingList};
use alvisp2p_core::sketch::{KeySketch, SKETCH_FORMAT_VERSION};
use alvisp2p_textindex::DocId;
use proptest::prelude::*;

fn scored_refs(max: usize) -> impl Strategy<Value = Vec<ScoredRef>> {
    proptest::collection::vec(
        (0u32..40, 0u32..500, 0u64..4_000).prop_map(|(peer, local, s)| ScoredRef {
            doc: DocId::new(peer, local),
            score: s as f64 / 16.0,
        }),
        0..max,
    )
}

proptest! {
    /// `decode(encode(sketch))` is the identity for every postings shape, and
    /// `encoded_len` is the exact frame length.
    #[test]
    fn wire_frame_round_trips_exactly(
        refs in scored_refs(80),
        capacity in 1usize..64,
        version in 0u64..1_000,
    ) {
        let list = TruncatedPostingList::from_refs(refs, capacity);
        let sketch = KeySketch::build(version, &list);
        let frame = sketch.encode();
        prop_assert_eq!(frame.len(), sketch.encoded_len());
        let back = KeySketch::decode(&frame).unwrap();
        prop_assert_eq!(back, sketch);
    }

    /// The decoder never panics on arbitrary bytes — it returns a sketch or a
    /// typed `CodecError` — and whatever it accepts is canonical: re-encoding
    /// yields the same bytes.
    #[test]
    fn decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..12),
        well_versioned in any::<bool>(),
    ) {
        // Half the cases lead with the current format byte so the varint
        // reader, not just the version check, sees the random tail.
        let mut bytes = bytes;
        if well_versioned && !bytes.is_empty() {
            bytes[0] = SKETCH_FORMAT_VERSION;
        }
        if let Ok(sketch) = KeySketch::decode(&bytes) {
            prop_assert_eq!(sketch.encode(), bytes);
        }
    }

    /// Given the list's exact best score as the published maximum, whenever
    /// the proof claims a floor elides everything the codec agrees: the
    /// floored encoding keeps zero entries, and the synthesized pruned
    /// response matches the decoded wire frame field for field — same length
    /// in bytes, same `full_df`, capacity and truncation status. The proof
    /// never fires for a probe whose response would have carried an entry,
    /// and — the maximum being exact — fires for every one that would not.
    #[test]
    fn floor_pruning_always_agrees_with_the_codec(
        refs in scored_refs(80),
        capacity in 1usize..64,
        floor_per_mille in 0u32..1_500,
    ) {
        let list = TruncatedPostingList::from_refs(refs, capacity);
        let sketch = KeySketch::build(3, &list);
        let max = list.best_score();
        let hi = max.unwrap_or(0.0);
        let floor = hi * f64::from(floor_per_mille) / 1_000.0 + 1e-9;
        let frame = encode_list(&list, Some(floor));
        let shipped = decode_list(&frame).unwrap();
        let proven = sketch.proves_all_elided(max, Some(floor));
        prop_assert_eq!(proven, shipped.is_empty(),
            "proof {} but the response carried {} entries", proven, shipped.len());
        if proven {
            let synthesized = sketch.pruned_response();
            prop_assert_eq!(&synthesized, &shipped);
            prop_assert_eq!(frame.len(), sketch.pruned_response_len());
            prop_assert_eq!(synthesized.is_truncated(), shipped.is_truncated());
        }
        // A floor at or below the maximum never proves (the codec keeps
        // `>= floor`), and neither does a missing maximum.
        if let Some(m) = max {
            prop_assert!(!sketch.proves_all_elided(max, Some(m)));
            prop_assert!(!sketch.proves_all_elided(None, Some(floor)));
        }
    }

    /// Version gating is exact: a rebuilt sketch at a new version never passes
    /// for the old one.
    #[test]
    fn versions_are_preserved_through_the_wire(
        refs in scored_refs(30),
        version in 0u64..u64::MAX / 2,
    ) {
        let list = TruncatedPostingList::from_refs(refs, 32);
        let sketch = KeySketch::build(version, &list);
        let back = KeySketch::decode(&sketch.encode()).unwrap();
        prop_assert_eq!(back.version(), version);
    }
}

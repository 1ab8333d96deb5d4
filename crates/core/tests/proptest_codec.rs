//! Property tests for the posting-list wire codec:
//!
//! * `decode(encode(list))` equals the list up to score quantization (same
//!   documents in canonical order, same `full_df`/capacity, per-entry score
//!   error within one quantization step, no rank inversion between entries
//!   more than one step apart);
//! * the decoders survive arbitrary bodies under a valid checksum trailer:
//!   every call returns `Ok` or a typed `CodecError`, never panics, never
//!   allocates more than the frame justifies, and every `Ok` list is
//!   well-formed.

use alvisp2p_core::codec::{
    decode_key, decode_list, encode_list, encoded_list_len, frame_checksum, max_encoded_list_len,
    quantization_step, CodecError, FORMAT_VERSION,
};
use alvisp2p_core::posting::{ScoredRef, TruncatedPostingList};
use alvisp2p_textindex::DocId;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

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
    #[test]
    fn round_trip_equals_the_list_up_to_quantization(
        refs in scored_refs(80),
        capacity in 1usize..64,
    ) {
        let list = TruncatedPostingList::from_refs(refs, capacity);
        let bytes = encode_list(&list, None);
        prop_assert_eq!(bytes.len(), encoded_list_len(&list));
        prop_assert!(bytes.len() <= max_encoded_list_len(list.len()));
        let back = decode_list(&bytes).unwrap();

        prop_assert_eq!(back.len(), list.len());
        prop_assert_eq!(back.full_df(), list.full_df());
        prop_assert_eq!(back.capacity(), list.capacity());
        prop_assert_eq!(back.is_truncated(), list.is_truncated());

        // Same documents; scores within one quantization step. Entries may be
        // locally reordered only where quantization collapsed near-ties, so
        // compare the doc sets and per-doc scores rather than positions.
        let step = match (list.worst_score(), list.best_score()) {
            (Some(lo), Some(hi)) => quantization_step(lo, hi) + 1e-9,
            _ => 0.0,
        };
        let mut original: Vec<(DocId, f64)> =
            list.refs().iter().map(|r| (r.doc, r.score)).collect();
        let mut decoded: Vec<(DocId, f64)> =
            back.refs().iter().map(|r| (r.doc, r.score)).collect();
        original.sort_by_key(|e| e.0);
        decoded.sort_by_key(|e| e.0);
        for ((doc_a, score_a), (doc_b, score_b)) in original.iter().zip(&decoded) {
            prop_assert_eq!(doc_a, doc_b);
            prop_assert!((score_a - score_b).abs() <= step,
                "doc {doc_a:?}: {score_a} decoded as {score_b}, step {step}");
        }

        // Rank-inversion bound: entries whose original scores differ by more
        // than one quantization step keep their relative order.
        for (i, a) in back.refs().iter().enumerate() {
            for b in &back.refs()[i + 1..] {
                let orig_a = list.refs().iter().find(|r| r.doc == a.doc).unwrap().score;
                let orig_b = list.refs().iter().find(|r| r.doc == b.doc).unwrap().score;
                prop_assert!(orig_a >= orig_b - step,
                    "decoded rank inversion beyond one step: {orig_a} before {orig_b}");
            }
        }
    }

    #[test]
    fn encode_side_floor_ships_fewer_bytes_and_the_right_prefix(
        refs in scored_refs(80),
        capacity in 1usize..64,
        floor_per_mille in 0u32..1_200,
    ) {
        let list = TruncatedPostingList::from_refs(refs, capacity);
        let hi = list.best_score().unwrap_or(0.0);
        let floor = hi * f64::from(floor_per_mille) / 1_000.0;
        let full = encode_list(&list, None);
        let floored = encode_list(&list, Some(floor));
        prop_assert!(floored.len() <= full.len());
        let back = decode_list(&floored).unwrap();
        let kept = list.refs().iter().filter(|r| r.score >= floor).count();
        prop_assert_eq!(back.len(), kept);
        for (a, b) in back.refs().iter().zip(list.refs()) {
            prop_assert_eq!(a.doc, b.doc);
        }
        prop_assert_eq!(back.is_truncated(), list.is_truncated());
    }

    /// End-to-end frame integrity: flipping any single bit of a valid frame
    /// is either detected (`decode_list` returns an error — in practice the
    /// checksum trailer catches it, occasionally a structural check does) or
    /// harmless (the decode is byte-for-byte identical to the unflipped one,
    /// possible only when the flip lands in bytes the decoder never reads).
    /// A silently different answer is the one forbidden outcome.
    #[test]
    fn single_bit_flips_never_change_a_decoded_answer_silently(
        refs in scored_refs(40),
        capacity in 1usize..64,
        flip_pick in any::<u64>(),
    ) {
        let list = TruncatedPostingList::from_refs(refs, capacity);
        let bytes = encode_list(&list, None);
        let reference = decode_list(&bytes).unwrap();
        let bit = (flip_pick as usize) % (bytes.len() * 8);
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match decode_list(&flipped) {
            Err(_) => {} // detected: the retryable path the executor takes
            Ok(got) => {
                prop_assert_eq!(got.len(), reference.len(),
                    "bit {} flipped silently changed the entry count", bit);
                prop_assert_eq!(got.full_df(), reference.full_df());
                prop_assert_eq!(got.capacity(), reference.capacity());
                for (a, b) in got.refs().iter().zip(reference.refs()) {
                    prop_assert_eq!(a.doc, b.doc, "bit {} changed a doc silently", bit);
                    prop_assert_eq!(a.score, b.score, "bit {} changed a score silently", bit);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder fuzz: arbitrary bodies under a valid checksum trailer
// ---------------------------------------------------------------------------

// `GlobalAlloc` cannot be implemented without `unsafe`. This allocator only
// delegates to `System` and, while the current thread measures, adds up the
// bytes it hands out. The tally is thread-local, so tests running in parallel
// do not perturb each other.
struct MeasuringAllocator;

thread_local! {
    /// Heap bytes requested on this thread since measuring began, or `None`
    /// when the thread is not measuring.
    static REQUESTED: Cell<Option<usize>> = const { Cell::new(None) };
}

fn tally(bytes: usize) {
    let _ = REQUESTED.try_with(|r| {
        if let Some(n) = r.get() {
            r.set(Some(n + bytes));
        }
    });
}

// SAFETY: delegates verbatim to `System`, which upholds the `GlobalAlloc`
// contract; the tally has no effect on allocation behaviour and never
// allocates itself (a const-initialised `Cell` needs no lazy TLS setup).
unsafe impl GlobalAlloc for MeasuringAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: MeasuringAllocator = MeasuringAllocator;

/// Runs `f` and returns its result with the heap bytes it requested.
fn bytes_requested<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTED.set(Some(0));
    let out = f();
    (out, REQUESTED.replace(None).expect("measuring"))
}

/// What a frame of `len` bytes justifies: a decoded list costs its entries
/// (16 B each), a sort buffer and a sorted copy of their document ids, and
/// every entry takes at least 4 frame bytes — so a fixed multiple of the frame
/// length, plus room for an error message.
fn justified_bytes(len: usize) -> usize {
    32 * len + 256
}

/// Appends `v` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `body` followed by its valid checksum trailer.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = frame_checksum(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// A random body, small bytes (plausible varints) half the time, led by
/// [`FORMAT_VERSION`] in half the cases.
fn raw_body() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        proptest::collection::vec((any::<bool>(), any::<u8>()), 0..48),
    )
        .prop_map(|(versioned, bytes)| {
            let bytes = bytes
                .into_iter()
                .map(|(small, b)| if small { b % 4 } else { b });
            versioned
                .then_some(FORMAT_VERSION)
                .into_iter()
                .chain(bytes)
                .collect()
        })
}

/// A list-frame body with the format's shape but random contents: header
/// counts (`full_df`, capacity, entry count) that agree with the entries in
/// half the cases and are arbitrary in the rest, a finite score range, and
/// entries whose doc-id deltas are often zero.
fn list_body() -> impl Strategy<Value = Vec<u8>> {
    (
        (any::<bool>(), (0u64..6, 0u64..6, 0u64..6)),
        proptest::collection::vec((0u64..4, 0u64..4, any::<u16>()), 0..6),
    )
        .prop_map(|((wild, (a, b, c)), entries)| {
            let n = entries.len() as u64;
            let (full_df, capacity, declared) = if wild { (a, b, c) } else { (n + a, n + b, n) };
            let mut body = vec![FORMAT_VERSION];
            for v in [full_df, capacity, declared] {
                put_varint(&mut body, v);
            }
            if declared > 0 {
                body.extend_from_slice(&2.0f32.to_le_bytes());
                body.extend_from_slice(&1.0f32.to_le_bytes());
            }
            for &(peer, local, q) in &entries {
                put_varint(&mut body, peer);
                put_varint(&mut body, local);
                body.extend_from_slice(&q.to_le_bytes());
            }
            body
        })
}

/// Every decoder on `frame`: `Ok` or a typed error, within the justified
/// allocation, and every `Ok` list bounded by its capacity with distinct
/// documents.
fn assert_decoders_are_safe(frame: &[u8]) {
    let (list, list_bytes) = bytes_requested(|| decode_list(frame));
    let (_, key_bytes) = bytes_requested(|| decode_key(frame));
    for bytes in [list_bytes, key_bytes] {
        let budget = justified_bytes(frame.len());
        assert!(bytes <= budget, "{bytes} B allocated for {frame:?}");
    }
    if let Ok(list) = list {
        let docs: HashSet<DocId> = list.refs().iter().map(|r| r.doc).collect();
        assert!(list.len() <= list.capacity(), "{list:?} from {frame:?}");
        assert_eq!(docs.len(), list.len(), "repeated doc in {frame:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn decoders_survive_arbitrary_bodies_under_a_valid_trailer(
        raw in raw_body(),
        shaped in list_body(),
    ) {
        assert_decoders_are_safe(&seal(raw));
        assert_decoders_are_safe(&seal(shaped));
    }
}

/// Frames the decoders once accepted or over-allocated for. The version 2
/// frames (led by a 2) are rejected by their version byte now; the last three
/// frames pin the same faults in version 3, where the list constructor and
/// the entry-count bound reject them. A `full_df` below the entry count was
/// accepted by the version 2 decoder.
const FUZZ_REGRESSIONS: &[(&str, &[u8])] = &[
    (
        "kept_refs beyond what the body can carry (allocated 64 KiB)",
        &[
            2, 217, 136, 2, 247, 174, 73, 247, 124, 220, 231, 0, 136, 165, 1, 164, 55, 77, 230,
            230, 3, 0, 175, 10, 78, 130,
        ],
    ),
    (
        "one document in two blocks",
        &[
            2, 1, 3, 2, 2, 0, 0, 0, 64, 0, 0, 128, 63, 2, 34, 103, 1, 4, 0, 2, 82, 170, 34, 103, 1,
            4, 0, 2, 82, 170, 36, 4, 195, 43,
        ],
    ),
    (
        "three entries under capacity 1",
        &[
            2, 0, 1, 4, 3, 0, 0, 0, 64, 0, 0, 128, 63, 1, 139, 156, 3, 12, 1, 2, 18, 191, 1, 0,
            153, 88, 2, 3, 234, 253, 243, 5, 14, 55,
        ],
    ),
    (
        "a key frame claiming 5,896 terms (allocated 1.5 KiB)",
        &[
            136, 174, 1, 82, 12, 210, 0, 2, 219, 200, 33, 92, 1, 2, 204, 231, 186, 163, 1, 3, 2, 2,
            1, 3, 0, 1, 2, 105, 60, 81, 8, 223, 149,
        ],
    ),
    (
        "a block whose max_q is not its first entry's score",
        &[
            2, 2, 4, 2, 2, 0, 0, 0, 64, 0, 0, 128, 63, 1, 0, 128, 2, 8, 3, 7, 255, 255, 0, 4, 0, 0,
            163, 3, 223, 33,
        ],
    ),
    (
        "an extra block with no entries",
        &[
            2, 2, 4, 2, 2, 0, 0, 0, 64, 0, 0, 128, 63, 2, 255, 255, 2, 8, 3, 7, 255, 255, 0, 4, 0,
            0, 255, 255, 0, 0, 32, 7, 214, 78,
        ],
    ),
    (
        "v3: two entries under capacity 1",
        &[
            3, 2, 1, 2, 0, 0, 0, 64, 0, 0, 128, 63, 0, 3, 255, 255, 0, 2, 0, 0, 11, 3, 49, 22,
        ],
    ),
    (
        "v3: two entries under a full_df of 0",
        &[
            3, 0, 4, 2, 0, 0, 0, 64, 0, 0, 128, 63, 0, 3, 255, 255, 0, 2, 0, 0, 12, 3, 65, 22,
        ],
    ),
    (
        "v3: one document listed twice",
        &[
            3, 4, 4, 2, 0, 0, 0, 64, 0, 0, 128, 63, 0, 3, 255, 255, 0, 0, 0, 0, 14, 3, 135, 22,
        ],
    ),
    (
        "v3: one document listed twice, apart in score order",
        &[
            3, 4, 4, 3, 0, 0, 0, 64, 0, 0, 128, 63, 0, 3, 255, 255, 0, 2, 0, 128, 0, 1, 0, 0, 146,
            3, 101, 37,
        ],
    ),
    (
        "v3: 65,535 entries declared in a 30-byte frame",
        &[
            3, 255, 255, 3, 255, 255, 3, 255, 255, 3, 0, 0, 0, 64, 0, 0, 128, 63, 0, 3, 255, 255,
            0, 2, 0, 0, 9, 9, 34, 151,
        ],
    ),
];

#[test]
fn decoder_fuzz_regressions_are_rejected() {
    for (what, frame) in FUZZ_REGRESSIONS {
        assert!(
            matches!(decode_list(frame), Err(CodecError::Malformed(_))),
            "{what}"
        );
        assert!(decode_key(frame).is_err(), "{what}");
        assert_decoders_are_safe(frame);
    }
}

//! Property tests for the posting-list wire codec and the threshold-aware
//! probe path:
//!
//! * `decode(encode(list))` equals the list up to score quantization (same
//!   documents in canonical order, same `full_df`/capacity, per-entry score
//!   error within one quantization step, no rank inversion between entries
//!   more than one step apart);
//! * decoding under any `score_floor` yields exactly the monotone prefix of
//!   the fully decoded list at or above the floor;
//! * executing the same query workload with threshold-aware probes on and off
//!   returns the same ranked top-k documents (and never more bytes) across
//!   random corpora and budgets;
//! * the decoders survive arbitrary bodies under a valid checksum trailer:
//!   every call returns `Ok` or a typed `CodecError`, never panics, never
//!   allocates more than the frame justifies, and every `Ok` list is
//!   well-formed.

use alvisp2p_core::codec::{
    decode_key, decode_list, decode_list_above, encode_list, encoded_list_len, frame_checksum,
    max_encoded_list_len, quantization_step, FORMAT_VERSION,
};
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::posting::{ScoredRef, TruncatedPostingList};
use alvisp2p_core::request::{QueryRequest, QueryResponse, ThresholdMode};
use alvisp2p_core::strategy::{Hdk, Qdi, SingleTermFull, Strategy as IndexingStrategy};
use alvisp2p_textindex::{
    CorpusConfig, CorpusGenerator, DocId, QueryLogConfig, QueryLogGenerator, SyntheticCorpus,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

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
    fn floored_decode_is_the_monotone_prefix(
        refs in scored_refs(80),
        capacity in 1usize..64,
        floor_per_mille in 0u32..1_200,
    ) {
        let list = TruncatedPostingList::from_refs(refs, capacity);
        let bytes = encode_list(&list, None);
        let full = decode_list(&bytes).unwrap();
        let hi = full.best_score().unwrap_or(0.0);
        let floor = hi * f64::from(floor_per_mille) / 1_000.0;
        let floored = decode_list_above(&bytes, floor).unwrap();

        // Exactly the prefix of the fully decoded list at or above the floor.
        let expected: Vec<ScoredRef> = full
            .refs()
            .iter()
            .copied()
            .filter(|r| r.score >= floor)
            .collect();
        prop_assert_eq!(floored.len(), expected.len());
        for (a, b) in floored.refs().iter().zip(&expected) {
            prop_assert_eq!(a.doc, b.doc);
            prop_assert_eq!(a.score, b.score);
        }
        // Floor elision never flips the truncation status.
        prop_assert_eq!(floored.is_truncated(), list.is_truncated());
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
/// (16 B each), a sort buffer and a membership set, and every entry takes at
/// least 4 frame bytes — so a fixed multiple of the frame length, plus room
/// for an error message.
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
/// counts that agree with the entries in half the cases and are arbitrary
/// (`kept` above `total` or the capacity) in the rest, a finite score range,
/// and blocks of entries whose doc-id deltas are often zero. The declared
/// block length is usually exact.
fn list_body() -> impl Strategy<Value = Vec<u8>> {
    (
        (any::<bool>(), (0u64..6, 0u64..6, 0u64..6, 0u64..6)),
        (0u64..4, any::<u16>(), 0u64..4),
        proptest::collection::vec((0u64..4, 0u64..4, any::<u16>()), 0..6),
    )
        .prop_map(
            |((wild, (full_df, a, b, c)), (blocks, max_q, slop), entries)| {
                let n = entries.len() as u64;
                let (capacity, total, kept) = if wild {
                    (a, b, c)
                } else {
                    (n + a + b, n + a, n)
                };
                let mut body = vec![FORMAT_VERSION];
                for v in [full_df, capacity, total, kept] {
                    put_varint(&mut body, v);
                }
                body.extend_from_slice(&2.0f32.to_le_bytes());
                body.extend_from_slice(&1.0f32.to_le_bytes());
                // Usually one block; sometimes none, sometimes the block twice.
                let blocks = blocks.div_ceil(2);
                put_varint(&mut body, blocks);
                let mut payload = Vec::new();
                for &(peer, local, q) in &entries {
                    put_varint(&mut payload, peer);
                    put_varint(&mut payload, local);
                    payload.extend_from_slice(&q.to_le_bytes());
                }
                for _ in 0..blocks {
                    body.extend_from_slice(&max_q.to_le_bytes());
                    put_varint(&mut body, n);
                    put_varint(&mut body, payload.len() as u64 + slop / 3);
                    body.extend_from_slice(&payload);
                }
                body
            },
        )
}

/// Every decoder on `frame`: `Ok` or a typed error, within the justified
/// allocation, and every `Ok` list bounded by its capacity with distinct
/// documents.
fn assert_decoders_are_safe(frame: &[u8], floor: f64) {
    let (list, list_bytes) = bytes_requested(|| decode_list(frame));
    let (above, above_bytes) = bytes_requested(|| decode_list_above(frame, floor));
    let (_, key_bytes) = bytes_requested(|| decode_key(frame));
    for bytes in [list_bytes, above_bytes, key_bytes] {
        let budget = justified_bytes(frame.len());
        assert!(bytes <= budget, "{bytes} B allocated for {frame:?}");
    }
    for list in [list, above].into_iter().flatten() {
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
        floor in 0.0f64..3.0,
    ) {
        assert_decoders_are_safe(&seal(raw), floor);
        assert_decoders_are_safe(&seal(shaped), floor);
    }
}

/// Frames the decoder fuzz found before the decoder rejected them: each one
/// was accepted or over-allocated.
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
];

#[test]
fn decoder_fuzz_regressions_are_rejected() {
    for (what, frame) in FUZZ_REGRESSIONS {
        assert!(decode_list(frame).is_err(), "{what}");
        assert!(decode_list_above(frame, 0.0).is_err(), "{what}");
        assert!(decode_key(frame).is_err(), "{what}");
        assert_decoders_are_safe(frame, 0.0);
    }
}

// ---------------------------------------------------------------------------
// Threshold-aware probes: equal top-k, fewer bytes
// ---------------------------------------------------------------------------

fn corpus(num_docs: usize, seed: u64) -> SyntheticCorpus {
    CorpusGenerator::new(
        CorpusConfig {
            num_docs,
            vocab_size: 300,
            num_topics: 6,
            topic_vocab: 50,
            doc_len_mean: 80,
            doc_len_spread: 30,
            ..Default::default()
        },
        seed,
    )
    .generate()
}

fn network(
    corpus: &SyntheticCorpus,
    strategy: Arc<dyn IndexingStrategy>,
    seed: u64,
) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(8)
        .strategy_arc(strategy)
        .seed(seed)
        .corpus(corpus)
        .build_indexed()
        .expect("valid configuration")
}

fn query_texts(corpus: &SyntheticCorpus, n: usize, seed: u64) -> Vec<String> {
    QueryLogGenerator::new(
        QueryLogConfig {
            num_queries: n,
            distinct_queries: (n / 2).max(10),
            min_terms: 2,
            max_terms: 3,
            ..Default::default()
        },
        seed,
    )
    .generate(corpus)
    .queries
    .into_iter()
    .map(|q| q.text)
    .collect()
}

/// Runs `queries` through two identical networks — the default request on
/// one, [`ThresholdMode::Off`] on the other — and asserts the answers are
/// identical in documents, ranks and score bits, the traces probe-for-probe
/// (floor elision only shrinks responses; pruning is preserved), and the
/// default never ships more bytes.
fn assert_default_equals_off(
    ctx: &str,
    with: &mut AlvisNetwork,
    without: &mut AlvisNetwork,
    queries: &[String],
) {
    let peers = with.peer_count();
    for (i, text) in queries.iter().enumerate() {
        let base = QueryRequest::new(text.clone())
            .from_peer(i % peers)
            .top_k(10);
        let on = with.execute(&base).unwrap();
        let off = without
            .execute(&base.threshold_mode(ThresholdMode::Off))
            .unwrap();
        assert_eq!(
            ranked_bits(&on),
            ranked_bits(&off),
            "{ctx} query {i} {text:?}: top-k changed"
        );
        assert_eq!(on.trace.nodes, off.trace.nodes, "{ctx} query {i}");
        assert!(
            on.bytes <= off.bytes,
            "{ctx} query {i}: thresholded probe shipped more bytes"
        );
    }
}

/// Bit-exact view of a response's ranking.
fn ranked_bits(response: &QueryResponse) -> Vec<(DocId, u64)> {
    response
        .results
        .iter()
        .map(|r| (r.doc, r.score.to_bits()))
        .collect()
}

/// The headline equality: a [`QueryRequest`] with no `.threshold_mode(..)`
/// call answers exactly like unthresholded execution — across random corpora
/// and strategies, and on the head-term-pair regime (one mid-frequency term
/// whose matches set a high floor, one head term with a long low-idf list)
/// where the old `θ / (2m)` default returned a different top-10.
/// (Deterministic: seeds are fixed.)
#[test]
fn default_threshold_keeps_the_top_k_exactly() {
    let strategies: Vec<(&str, Arc<dyn IndexingStrategy>)> = vec![
        ("single-term", Arc::new(SingleTermFull)),
        ("hdk", Arc::new(Hdk::default())),
    ];
    for (docs, seed) in [(160usize, 11u64), (320, 23), (240, 57)] {
        let corpus = corpus(docs, seed);
        let queries = query_texts(&corpus, 24, seed ^ 0x9e);
        for (label, strategy) in &strategies {
            let mut with = network(&corpus, Arc::clone(strategy), seed);
            let mut without = network(&corpus, Arc::clone(strategy), seed);
            let ctx = format!("{label} corpus({docs},{seed})");
            assert_default_equals_off(&ctx, &mut with, &mut without, &queries);
        }
    }

    let seed = 20_080_824;
    let head_pairs = CorpusGenerator::new(
        CorpusConfig {
            num_docs: 250,
            vocab_size: 500,
            num_topics: 6,
            topic_vocab: 60,
            doc_len_mean: 80,
            doc_len_spread: 30,
            ..Default::default()
        },
        seed,
    )
    .generate();
    let vocab = &head_pairs.vocabulary;
    let queries: Vec<String> = (0..24)
        .map(|i| format!("{} {}", vocab[80 + 2 * i], vocab[i]))
        .collect();
    let build = || {
        AlvisNetwork::builder()
            .peers(16)
            .strategy(Hdk::default())
            .seed(seed)
            .corpus(&head_pairs)
            .build_indexed()
            .expect("valid configuration")
    };
    assert_default_equals_off("hdk head-term pairs", &mut build(), &mut build(), &queries);
}

/// The headline `RankSafe` invariant: across random corpora × strategies ×
/// byte budgets, rank-safe execution returns top-k documents **and ranks**
/// byte-identical to [`ThresholdMode::Off`] — the merged scores compared as
/// raw bits, not approximately — while never shipping more posting bytes.
/// (Deterministic: seeds are fixed.)
#[test]
fn rank_safe_matches_off_bit_for_bit_across_the_matrix() {
    let strategies: Vec<(&str, Arc<dyn IndexingStrategy>)> = vec![
        ("single-term", Arc::new(SingleTermFull)),
        ("hdk", Arc::new(Hdk::default())),
    ];
    let budgets: [Option<u64>; 3] = [None, Some(1_500), Some(4_000)];
    let planner = alvisp2p_core::plan::GreedyCost;
    for (docs, seed) in [(160usize, 31u64), (320, 43)] {
        let corpus = corpus(docs, seed);
        let queries = query_texts(&corpus, 16, seed ^ 0x5f);
        for (label, strategy) in &strategies {
            for budget in budgets {
                let mut safe = network(&corpus, Arc::clone(strategy), seed);
                let mut off = network(&corpus, Arc::clone(strategy), seed);
                for (i, text) in queries.iter().enumerate() {
                    let mut base = QueryRequest::new(text.clone()).from_peer(i % 8).top_k(10);
                    if let Some(b) = budget {
                        base = base.byte_budget(b);
                    }
                    let safe_req = base.clone().threshold_mode(ThresholdMode::RankSafe);
                    let plan_s = safe.plan_with(&planner, &safe_req).unwrap();
                    let s = safe.run(&plan_s, &safe_req).unwrap();
                    let off_req = base.threshold_mode(ThresholdMode::Off);
                    let plan_o = off.plan_with(&planner, &off_req).unwrap();
                    let o = off.run(&plan_o, &off_req).unwrap();
                    assert_eq!(
                        ranked_bits(&s),
                        ranked_bits(&o),
                        "{label} corpus({docs},{seed}) budget {budget:?} query {i} {text:?}: \
                         rank-safe diverged from off"
                    );
                    assert!(
                        s.bytes <= o.bytes,
                        "{label} budget {budget:?} query {i}: rank-safe shipped more bytes \
                         ({} vs {})",
                        s.bytes,
                        o.bytes
                    );
                }
            }
        }
    }
}

/// The same bit-for-bit equality under QDI's adaptive indexing. Each query
/// runs against fresh identical networks (adaptation from earlier rank-safe
/// queries could otherwise legitimately drift the two indexes apart, which
/// would test adaptation rather than the floors).
#[test]
fn rank_safe_matches_off_under_qdi_activation() {
    let corpus = corpus(200, 77);
    let queries = query_texts(&corpus, 6, 77 ^ 0x5f);
    let planner = alvisp2p_core::plan::GreedyCost;
    for (i, text) in queries.iter().enumerate() {
        let mut safe = network(&corpus, Arc::new(Qdi::default()), 77);
        let mut off = network(&corpus, Arc::new(Qdi::default()), 77);
        let base = QueryRequest::new(text.clone()).from_peer(i % 8).top_k(10);
        let safe_req = base.clone().threshold_mode(ThresholdMode::RankSafe);
        let plan_s = safe.plan_with(&planner, &safe_req).unwrap();
        let s = safe.run(&plan_s, &safe_req).unwrap();
        let off_req = base.threshold_mode(ThresholdMode::Off);
        let plan_o = off.plan_with(&planner, &off_req).unwrap();
        let o = off.run(&plan_o, &off_req).unwrap();
        assert_eq!(ranked_bits(&s), ranked_bits(&o), "qdi query {i} {text:?}");
        assert!(
            s.bytes <= o.bytes,
            "qdi query {i}: rank-safe shipped more bytes"
        );
    }
}

/// Under byte budgets the Reserve guarantee holds in both modes, and whenever
/// the budget is loose enough that neither run was truncated, the equality
/// from the unbudgeted case carries over.
#[test]
fn threshold_probes_respect_budgets_and_agree_when_not_truncated() {
    let corpus = corpus(240, 5);
    let queries = query_texts(&corpus, 16, 99);
    let mut agreements = 0usize;
    for budget in [1_500u64, 6_000, 40_000, u64::MAX / 2] {
        let mut with = network(&corpus, Arc::new(Hdk::default()), 5);
        let mut without = network(&corpus, Arc::new(Hdk::default()), 5);
        for (i, text) in queries.iter().enumerate() {
            let base = QueryRequest::new(text.clone())
                .from_peer(i % 8)
                .top_k(10)
                .byte_budget(budget);
            let plan_on = with
                .plan_with(&alvisp2p_core::plan::GreedyCost, &base)
                .unwrap();
            let on = with.run(&plan_on, &base).unwrap();
            let off_request = base.threshold_mode(ThresholdMode::Off);
            let plan_off = without
                .plan_with(&alvisp2p_core::plan::GreedyCost, &off_request)
                .unwrap();
            let off = without.run(&plan_off, &off_request).unwrap();
            assert!(on.bytes <= budget, "threshold-on exceeded the budget");
            assert!(off.bytes <= budget, "threshold-off exceeded the budget");
            if !on.budget_exhausted && !off.budget_exhausted {
                let on_docs: Vec<_> = on.results.iter().map(|r| r.doc).collect();
                let off_docs: Vec<_> = off.results.iter().map(|r| r.doc).collect();
                assert_eq!(on_docs, off_docs, "budget {budget} query {i}");
                agreements += 1;
            }
        }
    }
    assert!(agreements > 0, "every budget truncated every query");
}

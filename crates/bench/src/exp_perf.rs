//! **P1 — Key/posting hot-path microbenchmarks: the repo's perf trajectory.**
//!
//! The interning PR rebuilt [`alvisp2p_core::key::TermKey`] on the process-wide
//! term interner: term ids inline, ring hash cached at construction, publish and
//! probe free of key/list copies. This experiment quantifies exactly that work
//! and writes the numbers to `BENCH_perf.json`, so every future placement or
//! planner optimisation has a measured baseline to beat.
//!
//! Arms:
//!
//! * `legacy` — a faithful in-bench replica of the seed's `Vec<String>` key
//!   (construction, join-and-hash `ring_id`, per-term `wire_size`, deep clones).
//!   It exercises the *exact* per-operation work the seed implementation
//!   performed on the same inputs.
//! * `interned` — the live [`TermKey`] / [`GlobalIndex`] code paths.
//!
//! `publish_keyops` isolates the per-publish key-side work the seed performed
//! (`ring_id` join+hash, string `wire_size`, key clone, delta posting-list
//! clone) against what the interned path performs today (cached-hash copy,
//! arithmetic `wire_size`, inline key clone, borrowed delta). `publish_e2e`
//! measures the full [`GlobalIndex::publish_postings`] call — its `legacy-model`
//! arm is the same call **plus** the removed key-side work, i.e. what publishing
//! would cost today had the copies stayed.

use alvisp2p_core::codec;
use alvisp2p_core::global_index::GlobalIndex;
use alvisp2p_core::key::TermKey;
use alvisp2p_core::posting::{ScoredRef, TruncatedPostingList};
use alvisp2p_core::request::{QueryRequest, ThresholdMode};
use alvisp2p_core::strategy::Hdk;
use alvisp2p_dht::DhtConfig;
use alvisp2p_netsim::WireSize;
use alvisp2p_textindex::{build_vocabulary, DocId, TermId};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::table::{fmt_f, Table};
use crate::workloads::{self, DEFAULT_SEED};

/// A faithful replica of the seed revision's string-based key, used as the
/// before-arm of the microbenchmarks. The logic mirrors the pre-interning
/// `core::key` byte for byte where it matters: construction sorts and
/// deduplicates owned `String`s, `ring_id` joins the terms and hashes the
/// joined string, `wire_size` walks the strings, and `clone` deep-copies.
pub mod legacy {
    use alvisp2p_dht::RingId;

    /// The seed's `TermKey`: a sorted, deduplicated `Vec<String>`.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct LegacyTermKey {
        terms: Vec<String>,
    }

    impl LegacyTermKey {
        /// Seed `TermKey::new`.
        pub fn new(terms: impl IntoIterator<Item = impl Into<String>>) -> Self {
            let mut terms: Vec<String> = terms.into_iter().map(Into::into).collect();
            terms.sort_unstable();
            terms.dedup();
            assert!(!terms.is_empty(), "a LegacyTermKey needs at least one term");
            LegacyTermKey { terms }
        }

        /// Seed `TermKey::canonical`: joins the terms into a fresh `String`.
        pub fn canonical(&self) -> String {
            self.terms.join("+")
        }

        /// Seed `TermKey::ring_id`: re-joins and re-hashes on every call.
        pub fn ring_id(&self) -> RingId {
            RingId::hash_str(&self.canonical())
        }

        /// Seed `TermKey::wire_size`.
        pub fn wire_size(&self) -> usize {
            4 + self.terms.iter().map(|t| 4 + t.len()).sum::<usize>()
        }

        /// Number of terms.
        pub fn len(&self) -> usize {
            self.terms.len()
        }

        /// Whether the key is empty (never, by construction).
        pub fn is_empty(&self) -> bool {
            self.terms.is_empty()
        }

        /// Seed `TermKey::subsets_of_size`.
        pub fn subsets_of_size(&self, size: usize) -> Vec<LegacyTermKey> {
            if size == 0 || size > self.terms.len() {
                return Vec::new();
            }
            let mut out = Vec::new();
            let n = self.terms.len();
            for mask in 1u32..(1u32 << n) {
                if mask.count_ones() as usize != size {
                    continue;
                }
                let terms: Vec<String> = (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| self.terms[i].clone())
                    .collect();
                out.push(LegacyTermKey { terms });
            }
            out.sort();
            out
        }

        /// Seed `TermKey::all_subsets_desc`.
        pub fn all_subsets_desc(&self) -> Vec<LegacyTermKey> {
            let mut out = Vec::new();
            for size in (1..=self.terms.len()).rev() {
                out.extend(self.subsets_of_size(size));
            }
            out
        }
    }
}

/// One measured benchmark arm.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfRow {
    /// Benchmark name (`key_construct`, `publish_keyops`, …).
    pub bench: String,
    /// Arm (`legacy`, `interned`, `legacy-model`).
    pub arm: String,
    /// Iterations measured.
    pub iters: u64,
    /// Mean nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Speedup of the `interned` arm over this benchmark's `legacy` arm
    /// (present on the interned arm only; 1.0 for single-arm benchmarks).
    pub speedup_vs_legacy: Option<f64>,
}

/// One measured posting-list bytes-per-query arm (the wire comparison the
/// codec PR is about: what the same query workload charges under the PR 3
/// fixed-width accounting vs the codec).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireRow {
    /// Accounting arm (`pr3-f64`, `codec`).
    pub arm: String,
    /// Mean posting-list response bytes per query.
    pub posting_bytes_per_query: f64,
    /// Mean total retrieval bytes per query (requests + routing + responses).
    pub total_bytes_per_query: f64,
    /// Posting-bytes reduction factor vs the `pr3-f64` arm (absent on the
    /// baseline arm itself).
    pub reduction_vs_pr3: Option<f64>,
}

/// Parameters of the perf experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfParams {
    /// Vocabulary size for key-operation inputs.
    pub vocab: usize,
    /// Distinct key shapes per benchmark input pool.
    pub pool: usize,
    /// Posting-list delta size used by the publish benchmarks.
    pub delta_refs: u32,
    /// Peers in the publish/query networks.
    pub peers: usize,
    /// Documents in the planned-query network.
    pub docs: usize,
    /// Minimum measurement time per arm.
    pub measure_ms: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for PerfParams {
    fn default() -> Self {
        PerfParams {
            vocab: 4_000,
            pool: 512,
            delta_refs: 64,
            peers: 64,
            docs: 1_200,
            measure_ms: 600,
            seed: DEFAULT_SEED,
        }
    }
}

impl PerfParams {
    /// Fast smoke-test configuration (`ALVIS_QUICK=1` / `--quick`).
    ///
    /// Only the *network* knobs (peers/docs) and the measurement budget
    /// shrink; the microbenchmark input shapes (vocabulary, key pool, delta
    /// size) stay at their full-run values so every scale-independent arm
    /// performs identical per-op work in quick and full runs — which is what
    /// lets CI's `perf_guard` compare a fresh `--quick` run against the
    /// committed full-run `BENCH_perf.json`.
    pub fn quick() -> Self {
        PerfParams {
            peers: 16,
            docs: 200,
            measure_ms: 60,
            ..Default::default()
        }
    }
}

/// Times `f` repeatedly until `budget` elapses (after one warm-up call) and
/// returns `(iters, mean ns/op)`.
fn measure<O>(budget: Duration, mut f: impl FnMut() -> O) -> (u64, f64) {
    black_box(f());
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        black_box(f());
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    (iters, start.elapsed().as_nanos() as f64 / iters as f64)
}

fn push_pair(rows: &mut Vec<PerfRow>, bench: &str, legacy: (u64, f64), interned: (u64, f64)) {
    rows.push(PerfRow {
        bench: bench.to_string(),
        arm: "legacy".to_string(),
        iters: legacy.0,
        ns_per_op: legacy.1,
        ops_per_sec: 1e9 / legacy.1,
        speedup_vs_legacy: None,
    });
    rows.push(PerfRow {
        bench: bench.to_string(),
        arm: "interned".to_string(),
        iters: interned.0,
        ns_per_op: interned.1,
        ops_per_sec: 1e9 / interned.1,
        speedup_vs_legacy: Some(legacy.1 / interned.1),
    });
}

/// Runs every microbenchmark and returns the measured rows.
pub fn run(params: &PerfParams) -> Vec<PerfRow> {
    let budget = Duration::from_millis(params.measure_ms);
    let mut rows = Vec::new();

    // Input pool: realistic analyzed-vocabulary words, 2–3 terms per key.
    let vocab = build_vocabulary(params.vocab);
    let tuples: Vec<Vec<&str>> = (0..params.pool)
        .map(|i| {
            let a = (i * 7 + 13) % vocab.len();
            let b = (i * 31 + 101) % vocab.len();
            let c = (i * 57 + 229) % vocab.len();
            let mut t = vec![vocab[a].as_str(), vocab[b].as_str()];
            if i % 2 == 0 {
                t.push(vocab[c].as_str());
            }
            t
        })
        .collect();
    // Warm the interner so the interned arm measures the steady state (the
    // indexing phase interns the whole vocabulary long before queries arrive).
    for t in &tuples {
        let _ = TermKey::new(t.iter().copied());
    }

    // --- key_construct: analyzed terms → probe-ready key + ring id ---------
    // Each arm starts from what the analyzer hands its query pipeline: the
    // seed's analyzer emitted `String`s, the interned analyzer emits `TermId`s
    // (`Analyzer::analyze_query_ids`), so each arm constructs from its native
    // representation.
    let string_tuples: Vec<Vec<String>> = tuples
        .iter()
        .map(|t| t.iter().map(|s| (*s).to_string()).collect())
        .collect();
    let id_tuples: Vec<Vec<TermId>> = tuples
        .iter()
        .map(|t| t.iter().map(|s| TermId::intern(s)).collect())
        .collect();
    let legacy = measure(budget, || {
        let mut acc = 0u64;
        for t in &string_tuples {
            let key = legacy::LegacyTermKey::new(t.iter().map(String::as_str));
            acc = acc.wrapping_add(key.ring_id().0);
        }
        acc
    });
    let interned = measure(budget, || {
        let mut acc = 0u64;
        for t in &id_tuples {
            let key = TermKey::from_term_ids(t.iter().copied());
            acc = acc.wrapping_add(key.ring_id().0);
        }
        acc
    });
    push_pair(
        &mut rows,
        "key_construct",
        (legacy.0, legacy.1 / tuples.len() as f64),
        (interned.0, interned.1 / tuples.len() as f64),
    );

    // --- key_construct_from_str: same &str input for both arms -------------
    // Informational: includes the warm intern-map lookup the id path amortises
    // into analysis.
    let legacy = measure(budget, || {
        let mut acc = 0u64;
        for t in &tuples {
            let key = legacy::LegacyTermKey::new(t.iter().copied());
            acc = acc.wrapping_add(key.ring_id().0);
        }
        acc
    });
    let interned = measure(budget, || {
        let mut acc = 0u64;
        for t in &tuples {
            let key = TermKey::new(t.iter().copied());
            acc = acc.wrapping_add(key.ring_id().0);
        }
        acc
    });
    push_pair(
        &mut rows,
        "key_construct_from_str",
        (legacy.0, legacy.1 / tuples.len() as f64),
        (interned.0, interned.1 / tuples.len() as f64),
    );

    // --- ring_id: hash an existing key onto the ring -----------------------
    let legacy_keys: Vec<legacy::LegacyTermKey> = tuples
        .iter()
        .map(|t| legacy::LegacyTermKey::new(t.iter().copied()))
        .collect();
    let interned_keys: Vec<TermKey> = tuples
        .iter()
        .map(|t| TermKey::new(t.iter().copied()))
        .collect();
    let legacy = measure(budget, || {
        let mut acc = 0u64;
        for k in &legacy_keys {
            acc = acc.wrapping_add(k.ring_id().0);
        }
        acc
    });
    let interned = measure(budget, || {
        let mut acc = 0u64;
        for k in &interned_keys {
            acc = acc.wrapping_add(k.ring_id().0);
        }
        acc
    });
    push_pair(
        &mut rows,
        "ring_id",
        (legacy.0, legacy.1 / legacy_keys.len() as f64),
        (interned.0, interned.1 / interned_keys.len() as f64),
    );

    // --- lattice_enum: enumerate the subset lattice of 3-term keys ---------
    let legacy = measure(budget, || {
        let mut acc = 0usize;
        for k in &legacy_keys {
            acc += k.all_subsets_desc().len();
        }
        acc
    });
    let interned = measure(budget, || {
        let mut acc = 0usize;
        for k in &interned_keys {
            acc += k.all_subsets_desc().len();
        }
        acc
    });
    push_pair(
        &mut rows,
        "lattice_enum",
        (legacy.0, legacy.1 / legacy_keys.len() as f64),
        (interned.0, interned.1 / interned_keys.len() as f64),
    );

    // --- publish_keyops: the per-publish key-side work ---------------------
    // Seed per publish: ring_id (join + hash), wire_size (string walk), a deep
    // key clone and a delta posting-list clone crossed into the DHT closure.
    // Interned per publish: cached-hash copy, arithmetic wire_size, an inline
    // key copy; the delta is borrowed (modelled here as no copy).
    let delta = TruncatedPostingList::from_refs(
        (0..params.delta_refs).map(|i| ScoredRef {
            doc: DocId::new(0, i),
            score: f64::from(params.delta_refs - i),
        }),
        params.delta_refs as usize,
    );
    let legacy = measure(budget, || {
        let mut acc = 0u64;
        for k in &legacy_keys {
            acc = acc.wrapping_add(k.ring_id().0);
            acc = acc.wrapping_add(k.wire_size() as u64);
            let key_copy = k.clone();
            let delta_copy = delta.clone();
            acc = acc.wrapping_add(key_copy.len() as u64 + delta_copy.len() as u64);
        }
        acc
    });
    let interned = measure(budget, || {
        let mut acc = 0u64;
        for k in &interned_keys {
            acc = acc.wrapping_add(k.ring_id().0);
            acc = acc.wrapping_add(k.wire_size() as u64);
            let key_copy = k.clone();
            let delta_ref = &delta;
            acc = acc.wrapping_add(key_copy.len() as u64 + delta_ref.len() as u64);
        }
        acc
    });
    push_pair(
        &mut rows,
        "publish_keyops",
        (legacy.0, legacy.1 / legacy_keys.len() as f64),
        (interned.0, interned.1 / interned_keys.len() as f64),
    );

    // --- publish_e2e: the full routed publish call -------------------------
    // `interned` is the live call; `legacy-model` adds back the key-side work
    // the seed performed per call (measured on the same overlay state).
    let mut gi = GlobalIndex::new(DhtConfig::default(), params.seed, params.peers);
    let interned = {
        let mut i = 0usize;
        measure(budget, || {
            let k = &interned_keys[i % interned_keys.len()];
            i += 1;
            gi.publish_postings(i % params.peers, k, &delta, params.delta_refs as usize * 4)
                .expect("publish succeeds")
        })
    };
    let mut gi = GlobalIndex::new(DhtConfig::default(), params.seed, params.peers);
    let legacy_model = {
        let mut i = 0usize;
        measure(budget, || {
            let k = &interned_keys[i % interned_keys.len()];
            let lk = &legacy_keys[i % legacy_keys.len()];
            i += 1;
            // The removed seed work: join+hash, string wire walk, deep copies.
            black_box(lk.ring_id());
            black_box(lk.wire_size());
            black_box(lk.clone());
            black_box(delta.clone());
            gi.publish_postings(i % params.peers, k, &delta, params.delta_refs as usize * 4)
                .expect("publish succeeds")
        })
    };
    rows.push(PerfRow {
        bench: "publish_e2e".to_string(),
        arm: "legacy-model".to_string(),
        iters: legacy_model.0,
        ns_per_op: legacy_model.1,
        ops_per_sec: 1e9 / legacy_model.1,
        speedup_vs_legacy: None,
    });
    rows.push(PerfRow {
        bench: "publish_e2e".to_string(),
        arm: "interned".to_string(),
        iters: interned.0,
        ns_per_op: interned.1,
        ops_per_sec: 1e9 / interned.1,
        speedup_vs_legacy: Some(legacy_model.1 / interned.1),
    });

    // --- codec_encode / codec_decode: the posting-list wire codec ----------
    // A list shaped like a probe response at the default truncation bound:
    // documents scattered over 64 peers, Zipf-flavoured scores. The shape is
    // deliberately independent of `params` so the quick and full runs measure
    // identical per-op work (`perf_guard` compares these arms across runs).
    let wire_list = TruncatedPostingList::from_refs(
        (0..100u32).map(|i| ScoredRef {
            doc: DocId::new(i % 64, i * 7 % 512),
            score: 12.0 / f64::from(i + 1) + f64::from(i % 5) * 0.05,
        }),
        100,
    );
    let encode = measure(budget, || black_box(codec::encode_list(&wire_list, None)));
    rows.push(PerfRow {
        bench: "codec_encode".to_string(),
        arm: "codec".to_string(),
        iters: encode.0,
        ns_per_op: encode.1,
        ops_per_sec: 1e9 / encode.1,
        speedup_vs_legacy: None,
    });
    let frame = codec::encode_list(&wire_list, None);
    let decode = measure(budget, || {
        black_box(codec::decode_list(&frame).expect("frame decodes"))
    });
    rows.push(PerfRow {
        bench: "codec_decode".to_string(),
        arm: "codec".to_string(),
        iters: decode.0,
        ns_per_op: decode.1,
        ops_per_sec: 1e9 / decode.1,
        speedup_vs_legacy: None,
    });
    // Decoding under a floor exercises the block skip path.
    let mid = wire_list.refs()[wire_list.len() / 2].score;
    let floored = measure(budget, || {
        black_box(codec::decode_list_above(&frame, mid).expect("frame decodes"))
    });
    rows.push(PerfRow {
        bench: "codec_decode_floored".to_string(),
        arm: "codec".to_string(),
        iters: floored.0,
        ns_per_op: floored.1,
        ops_per_sec: 1e9 / floored.1,
        speedup_vs_legacy: None,
    });

    // --- planned_query: end-to-end plan + execute latency ------------------
    // Trajectory metric: the number future planner PRs must beat. The
    // `interned` arm is the live default path (codec round-trip + rank-safe
    // threshold probes); `threshold-off` isolates the thresholding cost.
    // Neither arm reports `speedup_vs_legacy` — that field always means "vs
    // the frozen seed replica", and this bench has no such arm.
    let corpus = workloads::corpus(params.docs, params.seed);
    let mut net = workloads::indexed_network(
        &corpus,
        Arc::new(Hdk::new(workloads::default_hdk())),
        params.peers,
        params.seed,
    );
    let log = workloads::query_log(&corpus, 64, false, params.seed);
    let off = {
        let mut i = 0usize;
        measure(budget, || {
            let q = &log.queries[i % log.queries.len()];
            i += 1;
            let request = QueryRequest::new(&q.text)
                .from_peer(i % params.peers)
                .threshold_mode(ThresholdMode::Off);
            net.execute(&request).expect("query succeeds").results.len()
        })
    };
    let (iters, ns) = {
        let mut i = 0usize;
        measure(budget, || {
            let q = &log.queries[i % log.queries.len()];
            i += 1;
            let request = QueryRequest::new(&q.text).from_peer(i % params.peers);
            net.execute(&request).expect("query succeeds").results.len()
        })
    };
    rows.push(PerfRow {
        bench: "planned_query".to_string(),
        arm: "threshold-off".to_string(),
        iters: off.0,
        ns_per_op: off.1,
        ops_per_sec: 1e9 / off.1,
        speedup_vs_legacy: None,
    });
    rows.push(PerfRow {
        bench: "planned_query".to_string(),
        arm: "interned".to_string(),
        iters,
        ns_per_op: ns,
        ops_per_sec: 1e9 / ns,
        speedup_vs_legacy: None,
    });

    rows
}

/// The PR 3 fixed-width accounting for one posting-list response (12 bytes
/// per reference plus a 16-byte list header), kept as the frozen comparison
/// baseline for the wire trajectory.
fn pr3_list_bytes(entries: usize) -> u64 {
    (entries * 12 + 16) as u64
}

/// The PR 3 accounting for a key frame (4-byte length prefixes).
fn pr3_key_bytes(key: &TermKey) -> u64 {
    (4 + key.terms().iter().map(|t| 4 + t.len()).sum::<usize>()) as u64
}

/// Measures posting-list bytes per query on the `planned_query` workload under
/// two arms: the PR 3 fixed-width accounting model replayed over the same
/// responses, and the codec (threshold off).
pub fn run_wire(params: &PerfParams) -> Vec<WireRow> {
    let corpus = workloads::corpus(params.docs, params.seed);
    let log = workloads::query_log(&corpus, 32, false, params.seed);
    let queries: Vec<String> = log.queries.iter().map(|q| q.text.clone()).collect();
    let mut off_net = workloads::indexed_network(
        &corpus,
        Arc::new(Hdk::new(workloads::default_hdk())),
        params.peers,
        params.seed,
    );

    let n = queries.len() as f64;
    let mut posting_codec = 0u64;
    let mut posting_pr3 = 0u64;
    let mut key_delta = 0i64;
    let mut total_off = 0u64;
    for (i, text) in queries.iter().enumerate() {
        let request = QueryRequest::new(text.clone())
            .from_peer(i % params.peers)
            .threshold_mode(ThresholdMode::Off);
        let off = off_net.execute(&request).expect("query succeeds");
        total_off += off.bytes;
        // With thresholding off, every found response shipped exactly the
        // stored list, so the per-arm posting bytes replay from the trace.
        for key in off.trace.found_keys() {
            let stored = &off_net
                .global_index()
                .peek(key)
                .expect("found key is stored")
                .postings;
            posting_codec += stored.wire_size() as u64;
            posting_pr3 += pr3_list_bytes(stored.len());
        }
        for key in off.trace.probed_keys() {
            key_delta += pr3_key_bytes(key) as i64 - key.wire_size() as i64;
        }
    }
    let total_pr3 = (total_off + posting_pr3 - posting_codec) as i64 + key_delta;
    vec![
        WireRow {
            arm: "pr3-f64".to_string(),
            posting_bytes_per_query: posting_pr3 as f64 / n,
            total_bytes_per_query: total_pr3 as f64 / n,
            reduction_vs_pr3: None,
        },
        WireRow {
            arm: "codec".to_string(),
            posting_bytes_per_query: posting_codec as f64 / n,
            total_bytes_per_query: total_off as f64 / n,
            reduction_vs_pr3: Some(posting_pr3 as f64 / posting_codec.max(1) as f64),
        },
    ]
}

/// Prints the result table.
pub fn print(rows: &[PerfRow]) {
    let mut table = Table::new(
        "P1: key/posting hot paths (legacy string keys vs interned keys)",
        &["bench", "arm", "ns/op", "ops/s", "speedup"],
    );
    for r in rows {
        table.row(&[
            r.bench.clone(),
            r.arm.clone(),
            fmt_f(r.ns_per_op, 1),
            fmt_f(r.ops_per_sec, 0),
            r.speedup_vs_legacy
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    table.print();
}

/// Prints the wire bytes-per-query table.
pub fn print_wire(rows: &[WireRow]) {
    let mut table = Table::new(
        "P1-wire: posting-list bytes per query (PR 3 accounting vs codec)",
        &["arm", "posting bytes/query", "total bytes/query", "vs pr3"],
    );
    for r in rows {
        table.row(&[
            r.arm.clone(),
            fmt_f(r.posting_bytes_per_query, 0),
            fmt_f(r.total_bytes_per_query, 0),
            r.reduction_vs_pr3
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    table.print();
}

/// The `BENCH_perf.json` document: parameters plus measured rows.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Experiment identifier.
    pub bench: String,
    /// Whether the quick configuration ran.
    pub quick: bool,
    /// Parameters used.
    pub params: PerfParams,
    /// Measured rows.
    pub rows: Vec<PerfRow>,
    /// Posting-list bytes-per-query arms (PR 3 accounting vs codec).
    pub wire: Vec<WireRow>,
}

/// Serialises a report for `BENCH_perf.json`.
pub fn report(
    params: &PerfParams,
    quick: bool,
    rows: Vec<PerfRow>,
    wire: Vec<WireRow>,
) -> PerfReport {
    PerfReport {
        bench: "perf".to_string(),
        quick,
        params: params.clone(),
        rows,
        wire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_replica_matches_interned_semantics() {
        let terms = ["peer", "retriev", "overlai"];
        let legacy = legacy::LegacyTermKey::new(terms);
        let interned = TermKey::new(terms);
        assert_eq!(legacy.canonical(), interned.canonical());
        assert_eq!(legacy.ring_id(), interned.ring_id());
        // The live key now reports the codec frame length (varint prefixes),
        // strictly below the seed's 4-byte-prefix accounting the replica keeps.
        assert!(interned.wire_size() < legacy.wire_size());
        assert_eq!(legacy.len(), interned.len());
        assert!(!legacy.is_empty());
        let l: Vec<String> = legacy
            .all_subsets_desc()
            .iter()
            .map(|k| k.canonical())
            .collect();
        let i: Vec<String> = interned
            .all_subsets_desc()
            .iter()
            .map(|k| k.canonical())
            .collect();
        assert_eq!(l, i);
    }

    #[test]
    fn perf_smoke_produces_all_benchmarks_with_speedups() {
        let params = PerfParams {
            measure_ms: 2,
            pool: 16,
            vocab: 120,
            peers: 8,
            docs: 60,
            ..PerfParams::quick()
        };
        let rows = run(&params);
        let benches: std::collections::BTreeSet<&str> =
            rows.iter().map(|r| r.bench.as_str()).collect();
        for expected in [
            "key_construct",
            "key_construct_from_str",
            "ring_id",
            "lattice_enum",
            "publish_keyops",
            "publish_e2e",
            "codec_encode",
            "codec_decode",
            "codec_decode_floored",
            "planned_query",
        ] {
            assert!(benches.contains(expected), "missing bench {expected}");
        }
        for r in &rows {
            assert!(r.ns_per_op > 0.0, "{r:?}");
            assert!(r.iters > 0, "{r:?}");
        }
        // Every paired benchmark reports a speedup on its interned arm.
        for bench in ["key_construct", "ring_id", "lattice_enum", "publish_keyops"] {
            let s = rows
                .iter()
                .find(|r| r.bench == bench && r.arm == "interned")
                .and_then(|r| r.speedup_vs_legacy)
                .unwrap_or(0.0);
            assert!(s > 0.0, "{bench} has no speedup recorded");
        }
    }

    #[test]
    fn wire_arms_reduce_posting_bytes_vs_pr3_accounting() {
        let params = PerfParams {
            measure_ms: 2,
            pool: 16,
            vocab: 200,
            peers: 8,
            docs: 150,
            ..PerfParams::quick()
        };
        let rows = run_wire(&params);
        let arm = |name: &str| rows.iter().find(|r| r.arm == name).unwrap();
        assert_eq!(rows.len(), 2);
        // Even at smoke scale the codec beats the fixed-width accounting.
        let pr3 = arm("pr3-f64");
        let codec = arm("codec");
        assert!(codec.posting_bytes_per_query < pr3.posting_bytes_per_query);
        assert!(codec.reduction_vs_pr3.unwrap() > 1.0);
        for r in &rows {
            assert!(r.posting_bytes_per_query > 0.0, "{r:?}");
            assert!(
                r.total_bytes_per_query >= r.posting_bytes_per_query,
                "{r:?}"
            );
        }
    }

    #[test]
    #[ignore = "quick()-scale experiment (minutes in debug); run with `cargo test -- --ignored` (nightly CI job)"]
    fn codec_and_threshold_arms_halve_posting_bytes_at_quick_scale() {
        // The acceptance bar: ≥2x posting-list bytes-per-query reduction vs
        // the PR 3 f64 wire accounting, with top-k equality pinned separately
        // by `alvisp2p-core/tests/proptest_codec.rs`.
        let rows = run_wire(&PerfParams::quick());
        let row = rows.iter().find(|r| r.arm == "codec").unwrap();
        assert!(
            row.reduction_vs_pr3.unwrap() >= 2.0,
            "codec reduction {:?} below the 2x acceptance bar",
            row.reduction_vs_pr3
        );
    }
}

//! Deterministic strict-savings pin for the rank-safe threshold mode on the
//! bandwidth experiment's long-posting-list regime: head-term pair queries
//! over a capped-vocabulary corpus, where every query's pair key is activated
//! and its posting lists are long. Rank-safe execution must return results
//! bit-identical to `ThresholdMode::Off` while eliding a strictly positive
//! number of posting bytes — the measured savings `BENCH_bandwidth.json`
//! commits and `exp_bandwidth::check` enforces, reproduced here at test scale.

use alvisp2p_bench::workloads;
use alvisp2p_core::plan::GreedyCost;
use alvisp2p_core::request::{QueryRequest, ThresholdMode};
use alvisp2p_core::strategy::Hdk;
use alvisp2p_textindex::DocId;
use std::sync::Arc;

#[test]
fn rank_safe_elides_bytes_on_head_term_pair_queries_without_rank_drift() {
    let seed = workloads::DEFAULT_SEED;
    let corpus = workloads::dense_corpus(300, 500, seed);
    let log = workloads::head_query_log(&corpus, 25, seed);
    let strategy = Arc::new(Hdk::new(workloads::default_hdk()));
    let mut safe = workloads::indexed_network(&corpus, strategy.clone(), 8, seed);
    let mut off = workloads::indexed_network(&corpus, strategy, 8, seed);
    let planner = GreedyCost;

    let mut safe_bytes = 0u64;
    let mut off_bytes = 0u64;
    let mut skipped_blocks = 0u64;
    let mut elided = 0u64;
    let mut fallbacks = 0usize;
    for (i, q) in log.queries.iter().enumerate() {
        let base = QueryRequest::new(q.text.clone())
            .from_peer(i % 8)
            .top_k(10)
            .byte_budget(4_000);
        let safe_req = base.clone().threshold_mode(ThresholdMode::RankSafe);
        let plan_s = safe.plan_with(&planner, &safe_req).unwrap();
        let s = safe.run(&plan_s, &safe_req).unwrap();
        let off_req = base.threshold_mode(ThresholdMode::Off);
        let plan_o = off.plan_with(&planner, &off_req).unwrap();
        let o = off.run(&plan_o, &off_req).unwrap();

        let s_ranked: Vec<(DocId, u64)> = s
            .results
            .iter()
            .map(|r| (r.doc, r.score.to_bits()))
            .collect();
        let o_ranked: Vec<(DocId, u64)> = o
            .results
            .iter()
            .map(|r| (r.doc, r.score.to_bits()))
            .collect();
        assert_eq!(s_ranked, o_ranked, "query {i} {:?} diverged", q.text);
        assert!(s.bytes <= o.bytes, "query {i} shipped more bytes");
        safe_bytes += s.bytes;
        off_bytes += o.bytes;
        skipped_blocks += s.trace.skipped_blocks as u64;
        elided += s.trace.elided_bytes;
        fallbacks += s.rank_safe_fallbacks;
    }
    assert!(
        safe_bytes < off_bytes,
        "no strict savings: rank-safe {safe_bytes} vs off {off_bytes}"
    );
    assert!(skipped_blocks > 0, "no whole block was ever skipped");
    assert!(elided > 0, "no posting bytes were elided");
    assert_eq!(
        off_bytes - safe_bytes,
        elided,
        "the byte saving must be exactly the elided posting bytes"
    );
    // A fault-free build leaves every published maximum fresh.
    assert_eq!(fallbacks, 0, "unexpected stale-cap fallbacks");
}

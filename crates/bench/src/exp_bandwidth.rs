//! **E2 — Retrieval bandwidth: single-term baseline vs HDK vs QDI.**
//!
//! The paper's central scalability claim (§1): retrieval with a traditional
//! single-term index "generates unscalable network traffic" because complete posting
//! lists of frequent terms must be shipped to the querying peer, while the AlvisP2P
//! strategies keep the transferred volume bounded by indexing term combinations with
//! truncated posting lists.
//!
//! The experiment sweeps the collection size (and, in a second table, the network
//! size), runs the same multi-keyword query workload under all three strategies and
//! reports the retrieval bytes and messages per query. The expected *shape*: the
//! single-term baseline's bytes/query grow roughly linearly with the collection, while
//! HDK and QDI stay roughly flat.

use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::request::QueryRequest;
use alvisp2p_core::stats::{mean, percentile, recall_at_k};
use alvisp2p_core::strategy::Hdk;
use alvisp2p_textindex::DocId;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

use crate::table::{fmt_bytes, fmt_f, Robustness, Table};
use crate::workloads::{self, DEFAULT_SEED};

/// One row of the E2 output.
#[derive(Clone, Debug, Serialize)]
pub struct BandwidthRow {
    /// Number of documents in the global collection.
    pub docs: usize,
    /// Number of peers.
    pub peers: usize,
    /// Strategy label.
    pub strategy: String,
    /// Mean retrieval bytes per query.
    pub mean_bytes: f64,
    /// 95th-percentile retrieval bytes per query.
    pub p95_bytes: f64,
    /// Mean retrieval messages per query.
    pub mean_messages: f64,
    /// Mean probes (keys requested) per query.
    pub mean_probes: f64,
    /// Aggregated robustness counters (all zeros under the default fault plane).
    pub robustness: Robustness,
}

/// Parameters of the bandwidth experiment.
#[derive(Clone, Debug, Serialize)]
pub struct BandwidthParams {
    /// Collection sizes to sweep (documents).
    pub doc_sweep: Vec<usize>,
    /// Network sizes to sweep (peers) at the largest collection size.
    pub peer_sweep: Vec<usize>,
    /// Peers used during the collection-size sweep.
    pub peers: usize,
    /// Number of measured queries per configuration.
    pub queries: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for BandwidthParams {
    fn default() -> Self {
        BandwidthParams {
            doc_sweep: vec![500, 1_000, 2_000, 4_000, 8_000],
            peer_sweep: vec![16, 32, 64, 128],
            peers: 64,
            queries: 150,
            seed: DEFAULT_SEED,
        }
    }
}

impl BandwidthParams {
    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        BandwidthParams {
            doc_sweep: vec![200, 400],
            peer_sweep: vec![8, 16],
            peers: 16,
            queries: 30,
            seed: DEFAULT_SEED,
        }
    }
}

/// Measures one `(corpus, peers, strategy)` configuration.
pub fn measure(
    net: &mut AlvisNetwork,
    queries: &[String],
    label: &str,
    docs: usize,
    peers: usize,
) -> BandwidthRow {
    let mut bytes = Vec::with_capacity(queries.len());
    let mut messages = Vec::with_capacity(queries.len());
    let mut probes = Vec::with_capacity(queries.len());
    let mut robustness = Robustness::default();
    for (i, q) in queries.iter().enumerate() {
        let request = QueryRequest::new(q.clone()).from_peer(i % peers).top_k(20);
        let outcome = net.execute(&request).expect("query succeeds");
        bytes.push(outcome.bytes as f64);
        messages.push(outcome.messages as f64);
        probes.push(outcome.trace.probes as f64);
        robustness.observe(&outcome);
    }
    BandwidthRow {
        docs,
        peers,
        strategy: label.to_string(),
        mean_bytes: mean(&bytes),
        p95_bytes: percentile(&bytes, 95.0),
        mean_messages: mean(&messages),
        mean_probes: mean(&probes),
        robustness,
    }
}

fn run_config(docs: usize, peers: usize, queries: usize, seed: u64, rows: &mut Vec<BandwidthRow>) {
    let corpus = workloads::corpus(docs, seed);
    let log = workloads::query_log(&corpus, queries * 2, seed);
    let texts: Vec<String> = log.queries.iter().map(|q| q.text.clone()).collect();
    let (warmup, measured) = texts.split_at(queries);

    for (label, strategy) in workloads::all_strategies() {
        let mut net = workloads::indexed_network(&corpus, strategy.clone(), peers, seed);
        // QDI adapts to the query stream: warm it up on the first half of the log so
        // the measured half reflects its steady state (HDK and the baseline are
        // unaffected by the warm-up apart from statistics accumulation).
        if strategy.is_adaptive() {
            for (i, q) in warmup.iter().enumerate() {
                let _ = net.execute(&QueryRequest::new(q.clone()).from_peer(i % peers).top_k(20));
            }
        }
        net.reset_traffic();
        rows.push(measure(&mut net, measured, label, docs, peers));
    }
}

/// Runs the full E2 sweep.
pub fn run(params: &BandwidthParams) -> Vec<BandwidthRow> {
    let mut rows = Vec::new();
    for &docs in &params.doc_sweep {
        run_config(docs, params.peers, params.queries, params.seed, &mut rows);
    }
    // Network-size sweep at the largest collection size.
    if let Some(&docs) = params.doc_sweep.last() {
        for &peers in &params.peer_sweep {
            if peers != params.peers {
                run_config(docs, peers, params.queries, params.seed, &mut rows);
            }
        }
    }
    rows
}

/// Prints the E2 tables (collection-size sweep, then network-size sweep).
pub fn print(params: &BandwidthParams, rows: &[BandwidthRow]) {
    let mut t = Table::new(
        format!(
            "E2a: retrieval traffic per query vs collection size ({} peers)",
            params.peers
        ),
        &[
            "docs",
            "strategy",
            "bytes/query",
            "p95 bytes",
            "msgs/query",
            "probes/query",
        ],
    );
    for r in rows.iter().filter(|r| r.peers == params.peers) {
        t.row(&[
            r.docs.to_string(),
            r.strategy.clone(),
            fmt_bytes(r.mean_bytes as u64),
            fmt_bytes(r.p95_bytes as u64),
            fmt_f(r.mean_messages, 1),
            fmt_f(r.mean_probes, 1),
        ]);
    }
    t.print();

    let mut t2 = Table::new(
        "E2b: retrieval traffic per query vs network size (largest collection)",
        &["peers", "strategy", "bytes/query", "msgs/query"],
    );
    for r in rows.iter().filter(|r| r.peers != params.peers) {
        t2.row(&[
            r.peers.to_string(),
            r.strategy.clone(),
            fmt_bytes(r.mean_bytes as u64),
            fmt_f(r.mean_messages, 1),
        ]);
    }
    if !t2.is_empty() {
        t2.print();
    }
    let mut robustness = Robustness::default();
    for r in rows {
        robustness.absorb(&r.robustness);
    }
    robustness.print();
}

// ---------------------------------------------------------------------------
// E2c — the byte-budget sweep: recall and spend under per-query budgets
// ---------------------------------------------------------------------------

/// One row of the E2c output: the sweep's workload at one byte budget.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlannedBandwidthRow {
    /// The per-query byte budget.
    pub budget: u64,
    /// Mean retrieval bytes per query.
    pub mean_bytes: f64,
    /// Largest retrieval spend of any single query.
    pub max_bytes: u64,
    /// Queries whose spend exceeded the budget (always 0: the Reserve rule).
    pub budget_violations: usize,
    /// Mean recall@10 of the distributed results against the centralized
    /// reference top-10.
    pub mean_recall: f64,
    /// Mean probes per query.
    pub mean_probes: f64,
    /// Aggregated robustness counters (all zeros under the default fault plane).
    pub robustness: Robustness,
}

/// The E2c report committed as `BENCH_bandwidth.json` and guarded by
/// [`check`]: the planned sweep over the default corpus and over the
/// long-posting-list corpus (capped vocabulary).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BandwidthReport {
    /// Whether the report came from a `--quick` run.
    #[serde(default)]
    pub quick: bool,
    /// The E2c sweep over the default corpus.
    pub planned: Vec<PlannedBandwidthRow>,
    /// The same sweep over the capped-vocabulary corpus
    /// ([`PlannedParams::long_lists`]).
    pub long_lists: Vec<PlannedBandwidthRow>,
}

/// Parameters of the E2c byte-budget sweep.
#[derive(Clone, Debug, Serialize)]
pub struct PlannedParams {
    /// Collection size (documents).
    pub docs: usize,
    /// Number of peers.
    pub peers: usize,
    /// Number of measured queries per configuration.
    pub queries: usize,
    /// Per-query byte budgets to sweep.
    pub budgets: Vec<u64>,
    /// Cap the corpus vocabulary at this many terms (`None` keeps the
    /// Heaps-like default). A capped vocabulary concentrates the collection
    /// on fewer, more frequent terms, so posting lists are longer.
    pub vocab_cap: Option<usize>,
    /// Use the head-term pair-query log ([`workloads::head_query_log`])
    /// instead of the generic log: every query's terms are frequent and
    /// co-occur within the HDK proximity window, so its pair key is activated
    /// and its posting lists are long.
    pub head_queries: bool,
    /// Seed.
    pub seed: u64,
}

impl Default for PlannedParams {
    fn default() -> Self {
        PlannedParams {
            docs: 2_000,
            peers: 32,
            queries: 100,
            budgets: vec![2_000, 4_000, 8_000, 16_000],
            vocab_cap: None,
            head_queries: false,
            seed: DEFAULT_SEED,
        }
    }
}

impl PlannedParams {
    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        PlannedParams {
            docs: 300,
            peers: 8,
            queries: 25,
            budgets: vec![1_500, 4_000],
            vocab_cap: None,
            head_queries: false,
            seed: DEFAULT_SEED,
        }
    }

    /// The same sweep over a long-posting-list corpus: the vocabulary is
    /// capped well below the Heaps-like default, so every term is frequent.
    pub fn long_lists(mut self) -> Self {
        self.vocab_cap = Some(500);
        self.head_queries = true;
        self
    }
}

/// Runs the E2c sweep: the same HDK network and query workload under each
/// byte budget.
pub fn run_planned(params: &PlannedParams) -> Vec<PlannedBandwidthRow> {
    let corpus = match params.vocab_cap {
        Some(vocab) => workloads::dense_corpus(params.docs, vocab, params.seed),
        None => workloads::corpus(params.docs, params.seed),
    };
    let log = if params.head_queries {
        workloads::head_query_log(&corpus, params.queries, params.seed)
    } else {
        workloads::query_log(&corpus, params.queries, params.seed)
    };
    let texts: Vec<String> = log.queries.iter().map(|q| q.text.clone()).collect();

    // HDK is non-adaptive (no post-query index changes), but the peers of a
    // network remember where they found each key (routing shortcuts), so a
    // budget that ran after another on the same network would be charged
    // fewer routing bytes for the same probes. Every budget therefore gets an
    // identically seeded network of its own.
    let build = || {
        workloads::indexed_network(
            &corpus,
            Arc::new(Hdk::new(workloads::default_hdk())),
            params.peers,
            params.seed,
        )
    };
    // The centralized reference ranking depends only on the query text, so
    // compute it once per query rather than per budget.
    let reference_net = build();
    let references: Vec<HashSet<DocId>> = texts
        .iter()
        .map(|text| {
            reference_net
                .reference_search(text, 10)
                .iter()
                .map(|r| r.doc)
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    for &budget in &params.budgets {
        let mut net = build();
        let mut bytes = Vec::with_capacity(texts.len());
        let mut probes = Vec::with_capacity(texts.len());
        let mut recalls = Vec::with_capacity(texts.len());
        let mut max_bytes = 0u64;
        let mut violations = 0usize;
        let mut robustness = Robustness::default();
        for (i, text) in texts.iter().enumerate() {
            let request = QueryRequest::new(text.clone())
                .from_peer(i % params.peers)
                .top_k(10)
                .byte_budget(budget);
            let outcome = net.execute(&request).expect("query succeeds");
            robustness.observe(&outcome);
            recalls.push(recall_at_k(&outcome.results, &references[i], 10));
            bytes.push(outcome.bytes as f64);
            probes.push(outcome.trace.probes as f64);
            max_bytes = max_bytes.max(outcome.bytes);
            if outcome.bytes > budget {
                violations += 1;
            }
        }
        rows.push(PlannedBandwidthRow {
            budget,
            mean_bytes: mean(&bytes),
            max_bytes,
            budget_violations: violations,
            mean_recall: mean(&recalls),
            mean_probes: mean(&probes),
            robustness,
        });
    }
    rows
}

/// The Reserve bar, one message per broken invariant: in both sweeps no
/// row spends more than its budget on any query, and each sweep has rows
/// to check. Scale-independent, so it holds for `--quick` and full runs
/// alike.
pub fn check(report: &BandwidthReport) -> Vec<String> {
    let mut failures = Vec::new();
    for (sweep, rows) in [
        ("planned", &report.planned),
        ("long-lists", &report.long_lists),
    ] {
        if rows.is_empty() {
            failures.push(format!("bandwidth: {sweep} has no rows"));
        }
        for r in rows {
            if r.budget_violations > 0 || r.max_bytes > r.budget {
                failures.push(format!(
                    "bandwidth: {sweep} budget {}: broke the Reserve bound \
                     ({} queries over budget, max {} B)",
                    r.budget, r.budget_violations, r.max_bytes
                ));
            }
        }
    }
    failures
}

/// Prints the E2c table.
pub fn print_planned(rows: &[PlannedBandwidthRow]) {
    let mut t = Table::new(
        "E2c: recall and spend under per-query byte budgets",
        &[
            "budget",
            "bytes/query",
            "max bytes",
            "over budget",
            "recall@10",
            "probes/query",
        ],
    );
    for r in rows {
        t.row(&[
            fmt_bytes(r.budget),
            fmt_bytes(r.mean_bytes as u64),
            fmt_bytes(r.max_bytes),
            r.budget_violations.to_string(),
            fmt_f(r.mean_recall, 3),
            fmt_f(r.mean_probes, 1),
        ]);
    }
    t.print();
    let mut robustness = Robustness::default();
    for r in rows {
        robustness.absorb(&r.robustness);
    }
    robustness.print();
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvisp2p_core::strategy::{Hdk, SingleTermFull, Strategy};
    use std::sync::Arc;

    #[test]
    #[ignore = "quick()-scale experiment (minutes in debug); run with `cargo test -- --ignored` (nightly CI job)"]
    fn baseline_ships_more_bytes_than_hdk_and_grows_with_the_collection() {
        // The paper's premise is "queries containing several frequent terms": build the
        // measured queries from frequent vocabulary terms so the posting lists the
        // baseline must ship are the problematic (long) ones, and use a small
        // truncation bound so HDK's lists are visibly bounded even at test scale.
        let hdk_config = alvisp2p_core::hdk::HdkConfig {
            df_max: 20,
            truncation_k: 20,
            ..Default::default()
        };
        let measure_mean = |docs: usize, strategy: Arc<dyn Strategy>| {
            let corpus = workloads::corpus(docs, 3);
            let queries: Vec<String> = (5..20)
                .map(|i| format!("{} {}", corpus.vocabulary[i], corpus.vocabulary[i + 1]))
                .collect();
            let mut net = workloads::indexed_network(&corpus, strategy, 8, 3);
            net.reset_traffic();
            let row = measure(&mut net, &queries, "x", docs, 8);
            row.mean_bytes
        };
        let base_small = measure_mean(150, Arc::new(SingleTermFull));
        let base_large = measure_mean(450, Arc::new(SingleTermFull));
        let hdk_small = measure_mean(150, Arc::new(Hdk::new(hdk_config.clone())));
        let hdk_large = measure_mean(450, Arc::new(Hdk::new(hdk_config)));

        // The untruncated single-term baseline transfers more than HDK, and its
        // per-query traffic grows faster with the collection size.
        assert!(
            base_large > hdk_large,
            "at 450 docs: baseline {base_large:.0} vs hdk {hdk_large:.0}"
        );
        let base_growth = base_large / base_small;
        let hdk_growth = hdk_large / hdk_small;
        assert!(
            base_growth > hdk_growth,
            "baseline growth {base_growth:.2} vs hdk growth {hdk_growth:.2}"
        );
    }

    #[test]
    fn long_list_corpus_keeps_budget_guarantees_and_lengthens_lists() {
        let params = PlannedParams::quick();
        // Compare on the generic workload: the production long-lists arm
        // also switches to head-term pair queries, whose pair keys HDK
        // serves from shorter multi-term lists — that workload effect
        // would mask the corpus effect this test isolates.
        let mut long = params.clone().long_lists();
        long.head_queries = params.head_queries;
        let base_rows = run_planned(&params);
        let long_rows = run_planned(&long);
        assert_eq!(base_rows.len(), long_rows.len());
        // The Reserve guarantee is corpus-independent.
        for r in &long_rows {
            assert_eq!(r.budget_violations, 0);
            assert!(r.max_bytes <= r.budget);
        }
        // A capped vocabulary concentrates the same collection on fewer terms:
        // the unbudgeted wire cost of a probe grows, which shows up as
        // spending at least as much per query at the largest budget (where
        // the budget rarely binds).
        let spend = |rows: &[PlannedBandwidthRow]| {
            let max_budget = rows.iter().map(|r| r.budget).max().unwrap();
            rows.iter()
                .find(|r| r.budget == max_budget)
                .unwrap()
                .mean_bytes
        };
        let base_spend = spend(&base_rows);
        let long_spend = spend(&long_rows);
        assert!(
            long_spend >= base_spend,
            "long-list corpus did not lengthen posting lists \
             ({long_spend:.0} < {base_spend:.0} bytes/query)"
        );
    }

    #[test]
    fn planned_sweep_never_exceeds_its_budgets() {
        let params = PlannedParams::quick();
        let rows = run_planned(&params);
        let budgets: Vec<u64> = rows.iter().map(|r| r.budget).collect();
        assert_eq!(budgets, params.budgets);
        for r in &rows {
            assert_eq!(r.budget_violations, 0, "budget {}", r.budget);
            assert!(r.max_bytes <= r.budget, "budget {}", r.budget);
            assert!(r.mean_probes > 0.0, "budget {}: nothing probed", r.budget);
        }
    }
}

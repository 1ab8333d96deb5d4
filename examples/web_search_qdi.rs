//! Web-search scenario with Query-Driven Indexing.
//!
//! A larger synthetic "web" collection is spread over 32 peers and queried with a
//! Zipfian query log. The network starts with only the single-term (truncated) index;
//! as popular multi-keyword queries repeat, the responsible peers activate the popular
//! term combinations on demand, and retrieval quality measurably improves while the
//! per-query bandwidth stays bounded. Halfway through, query popularity drifts and the
//! index adapts (obsolete keys are evicted, new ones activated).
//!
//! Run with:
//! ```text
//! cargo run --release --example web_search_qdi
//! ```

use alvisp2p::core::stats::{mean, overlap_at_k};
use alvisp2p::prelude::*;

fn main() {
    // --- Workload ---------------------------------------------------------------
    let corpus = CorpusGenerator::new(
        CorpusConfig {
            num_docs: 2_000,
            vocab_size: 4_000,
            num_topics: 20,
            ..Default::default()
        },
        11,
    )
    .generate();
    let log = QueryLogGenerator::new(
        QueryLogConfig {
            num_queries: 1_200,
            distinct_queries: 120,
            popularity_drift: true,
            ..Default::default()
        },
        13,
    )
    .generate(&corpus);

    // --- Network ----------------------------------------------------------------
    let mut net = AlvisNetwork::builder()
        .peers(32)
        .strategy(Qdi::new(QdiConfig {
            activation_threshold: 3,
            truncation_k: 50,
            obsolescence_window: 400,
            eviction_period: 100,
            ..Default::default()
        }))
        .seed(17)
        .corpus(&corpus)
        .build()
        .expect("valid configuration");
    let report = net.build_index();
    println!(
        "initial single-term index: {} keys, {} postings",
        report.activated_keys, report.total_postings
    );

    // --- Query stream -----------------------------------------------------------
    const WINDOW: usize = 200;
    let mut window_overlap: Vec<f64> = Vec::new();
    let mut window_bytes: Vec<f64> = Vec::new();
    println!(
        "\n{:>8} {:>12} {:>14} {:>12} {:>10} {:>10}",
        "queries", "overlap@10", "bytes/query", "multi-hits", "activated", "evicted"
    );
    for (i, q) in log.queries.iter().enumerate() {
        let origin = i % net.peer_count();
        let outcome = net
            .execute(&QueryRequest::new(q.text.clone()).from_peer(origin))
            .expect("query succeeds");
        let reference = net.reference_search(&q.text, 10);
        window_overlap.push(overlap_at_k(&outcome.results, &reference, 10));
        window_bytes.push(outcome.bytes as f64);

        if (i + 1) % WINDOW == 0 {
            let r = net.qdi_report();
            println!(
                "{:>8} {:>12.3} {:>14.0} {:>12} {:>10} {:>10}",
                i + 1,
                mean(&window_overlap),
                mean(&window_bytes),
                r.multi_term_hits,
                r.activations,
                r.evictions
            );
            window_overlap.clear();
            window_bytes.clear();
        }
    }

    let r = net.qdi_report();
    println!(
        "\nfinal QDI state: {} activations, {} evictions, {} bytes of on-demand indexing",
        r.activations, r.evictions, r.acquisition_bytes
    );
    println!(
        "activated multi-term keys now in the index: {}",
        net.global_index()
            .activated_key_list()
            .iter()
            .filter(|k| k.len() > 1)
            .count()
    );
    // --- Budget-planned retrieval over the adapted index -------------------------
    // The cost-based planner spends a tight per-query byte budget on the most
    // valuable keys (the activated combinations and rare singles) and — unlike
    // the best-effort cutoff — never exceeds it.
    let popular = &log.queries[log.queries.len() - 1].text;
    let request = QueryRequest::new(popular.clone()).byte_budget(3_000);
    let plan = net
        .plan_with(&GreedyCost, &request)
        .expect("planning is free");
    let outcome = net.run(&plan, &request).expect("query succeeds");
    let reference = net.reference_search(popular, 10);
    println!(
        "\nbudget-planned query {popular:?}: {} of {} scheduled probes sent, \
         {} bytes (budget 3,000), overlap@10 {:.2}",
        outcome.trace.probes,
        plan.scheduled_probes(),
        outcome.bytes,
        overlap_at_k(&outcome.results, &reference, 10)
    );

    println!("\ntraffic report:\n{}", net.traffic().report());
}

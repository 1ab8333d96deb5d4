//! Integration tests for Query-Driven Indexing: popularity-driven activation
//! without loss of quality, bandwidth reduction after warm-up, and eviction
//! under popularity drift.

use alvisp2p::core::stats::overlap_at_k;
use alvisp2p::prelude::*;

fn workload(
    seed: u64,
    queries: usize,
    drift: bool,
) -> (alvisp2p::textindex::SyntheticCorpus, Vec<String>) {
    let corpus = CorpusGenerator::new(
        CorpusConfig {
            num_docs: 250,
            vocab_size: 700,
            num_topics: 8,
            topic_vocab: 40,
            doc_len_mean: 60,
            doc_len_spread: 30,
            ..Default::default()
        },
        seed,
    )
    .generate();
    let log = QueryLogGenerator::new(
        QueryLogConfig {
            num_queries: queries,
            distinct_queries: 20,
            popularity_drift: drift,
            ..Default::default()
        },
        seed,
    )
    .generate(&corpus);
    let texts = log.queries.iter().map(|q| q.text.clone()).collect();
    (corpus, texts)
}

fn qdi_network(corpus: &alvisp2p::textindex::SyntheticCorpus, config: QdiConfig) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(8)
        .strategy(Qdi::new(config))
        .seed(5)
        .corpus(corpus)
        .build_indexed()
        .expect("valid configuration")
}

#[test]
fn repeated_popular_queries_trigger_on_demand_activation() {
    let (corpus, queries) = workload(71, 120, false);
    let mut net = qdi_network(
        &corpus,
        QdiConfig {
            activation_threshold: 3,
            truncation_k: 15,
            ..Default::default()
        },
    );
    assert_eq!(net.qdi_report().activations, 0);
    let batch: Vec<QueryRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| QueryRequest::new(q.clone()).from_peer(i % 8))
        .collect();
    let responses = net.query_batch(&batch).unwrap();
    let report = net.qdi_report();
    assert!(report.activations > 0, "no key was activated: {report:?}");
    assert!(report.acquisition_bytes > 0);
    // The activated keys are multi-term combinations.
    let multi = net
        .global_index()
        .activated_key_list()
        .iter()
        .filter(|k| k.len() > 1)
        .count();
    assert!(multi > 0);
    assert!(
        report.multi_term_hits > 0,
        "activated keys were never hit: {report:?}"
    );
    // Quality does not degrade as the index adapts: mean overlap@10 with the
    // centralized reference over the last quarter of the stream stays within
    // 0.05 of the first quarter's.
    let window = queries.len() / 4;
    let overlap = |range: std::ops::Range<usize>| {
        range
            .map(|i| {
                overlap_at_k(
                    &responses[i].results,
                    &net.reference_search(&queries[i], 10),
                    10,
                )
            })
            .sum::<f64>()
            / window as f64
    };
    let (first, last) = (
        overlap(0..window),
        overlap(queries.len() - window..queries.len()),
    );
    assert!(
        last >= first - 0.05,
        "overlap@10 fell from {first:.3} to {last:.3}"
    );
}

#[test]
fn warmed_qdi_uses_fewer_probes_for_popular_queries() {
    let (corpus, queries) = workload(81, 100, false);
    // Activation regardless of redundancy: the most popular query can pair a
    // rare term (whose complete single-term list would make the combination
    // redundant) with a common one, and this test is about the warm-up effect,
    // not the redundancy filter.
    let mut net = qdi_network(
        &corpus,
        QdiConfig {
            activation_threshold: 2,
            truncation_k: 15,
            require_nonredundant: false,
            ..Default::default()
        },
    );
    // The most popular query is the most frequent text in the log.
    let mut counts = std::collections::HashMap::new();
    for q in &queries {
        *counts.entry(q.clone()).or_insert(0usize) += 1;
    }
    let popular = counts
        .iter()
        .max_by_key(|(_, c)| **c)
        .map(|(q, _)| q.clone())
        .unwrap();

    let cold = net.execute(&QueryRequest::new(popular.clone())).unwrap();
    // Warm up on the whole stream.
    for (i, q) in queries.iter().enumerate() {
        net.execute(&QueryRequest::new(q.clone()).from_peer(i % 8))
            .unwrap();
    }
    let warm = net
        .execute(&QueryRequest::new(popular.clone()).from_peer(1))
        .unwrap();
    // After warm-up the popular combination is indexed: the query needs at most as
    // many probes (typically fewer, because the full-query key now prunes the
    // lattice) and still returns results.
    assert!(warm.trace.probes <= cold.trace.probes);
    assert!(!warm.results.is_empty());
    let multi_found = warm.trace.found_keys().iter().any(|k| k.len() > 1);
    assert!(
        multi_found,
        "popular multi-term key still not indexed after warm-up"
    );
}

#[test]
fn popularity_drift_causes_evictions_and_new_activations() {
    let (corpus, queries) = workload(91, 300, true);
    let mut net = qdi_network(
        &corpus,
        QdiConfig {
            activation_threshold: 2,
            truncation_k: 15,
            obsolescence_window: 60,
            eviction_period: 20,
            ..Default::default()
        },
    );
    let mut activations_at_half = 0;
    for (i, q) in queries.iter().enumerate() {
        net.execute(&QueryRequest::new(q.clone()).from_peer(i % 8))
            .unwrap();
        if i == queries.len() / 2 {
            activations_at_half = net.qdi_report().activations;
        }
    }
    let report = net.qdi_report();
    assert!(
        activations_at_half > 0,
        "nothing activated before the drift"
    );
    assert!(
        report.activations > activations_at_half,
        "no new activations after the drift: {report:?}"
    );
    assert!(
        report.evictions > 0,
        "no obsolete key was evicted: {report:?}"
    );
}

#[test]
fn hdk_network_never_activates_keys_at_query_time() {
    let (corpus, queries) = workload(99, 60, false);
    let mut net = AlvisNetwork::builder()
        .peers(8)
        .strategy(Hdk::new(HdkConfig {
            df_max: 30,
            truncation_k: 30,
            ..Default::default()
        }))
        .seed(5)
        .corpus(&corpus)
        .build_indexed()
        .expect("valid configuration");
    let keys_before = net.global_index().activated_keys();
    for (i, q) in queries.iter().enumerate() {
        net.execute(&QueryRequest::new(q.clone()).from_peer(i % 8))
            .unwrap();
    }
    assert_eq!(net.qdi_report().activations, 0);
    assert_eq!(net.global_index().activated_keys(), keys_before);
}

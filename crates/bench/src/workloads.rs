//! Shared workload builders for the experiments.
//!
//! All experiments draw their corpora, query logs and networks from these helpers so
//! that the same seeds produce the same workloads across experiments, benches and
//! integration tests.

use alvisp2p_core::hdk::HdkConfig;
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::qdi::QdiConfig;
use alvisp2p_core::strategy::{Hdk, Qdi, SingleTermFull, Strategy};
use alvisp2p_dht::DhtConfig;
use alvisp2p_textindex::{
    CorpusConfig, CorpusGenerator, QueryLog, QueryLogConfig, QueryLogGenerator, SyntheticCorpus,
};
use std::sync::Arc;

/// The default master seed of the experiment harness.
pub const DEFAULT_SEED: u64 = 20080824; // VLDB'08 started on 2008-08-24.

/// Generates a synthetic corpus of `num_docs` documents with a vocabulary that grows
/// sublinearly with the collection (Heaps-like), as real text collections do.
pub fn corpus(num_docs: usize, seed: u64) -> SyntheticCorpus {
    let vocab = ((num_docs as f64).sqrt() * 90.0).max(400.0) as usize;
    let config = CorpusConfig {
        num_docs,
        vocab_size: vocab,
        num_topics: (num_docs / 50).clamp(5, 80),
        topic_vocab: 60,
        doc_len_mean: 110,
        doc_len_spread: 50,
        ..Default::default()
    };
    CorpusGenerator::new(config, seed).generate()
}

/// Like [`corpus`], but with the vocabulary capped at `vocab` terms: the same
/// collection concentrated on fewer, more frequent terms, so every posting
/// list is longer. This is the regime where truncation and threshold-aware
/// elision have the most bytes to save.
pub fn dense_corpus(num_docs: usize, vocab: usize, seed: u64) -> SyntheticCorpus {
    let config = CorpusConfig {
        num_docs,
        vocab_size: vocab,
        num_topics: (num_docs / 50).clamp(5, 80),
        topic_vocab: 60.min(vocab / 4).max(10),
        doc_len_mean: 110,
        doc_len_spread: 50,
        ..Default::default()
    };
    CorpusGenerator::new(config, seed).generate()
}

/// Generates a query log of `num_queries` multi-term queries over `corpus`.
pub fn query_log(corpus: &SyntheticCorpus, num_queries: usize, seed: u64) -> QueryLog {
    let config = QueryLogConfig {
        num_queries,
        distinct_queries: (num_queries / 8).clamp(20, 400),
        min_terms: 2,
        max_terms: 3,
        ..Default::default()
    };
    QueryLogGenerator::new(config, seed ^ 0x51).generate(corpus)
}

/// Generates a strongly skewed (Zipf exponent `s`) query log over `corpus` —
/// the hotspot workload of the skew/replication experiment. A higher exponent
/// concentrates more of the log on the few most popular queries.
pub fn zipf_query_log(corpus: &SyntheticCorpus, num_queries: usize, s: f64, seed: u64) -> QueryLog {
    let config = QueryLogConfig {
        num_queries,
        distinct_queries: (num_queries / 10).clamp(20, 300),
        popularity_exponent: s,
        min_terms: 2,
        max_terms: 3,
        popularity_drift: false,
        min_term_df: None,
        cooccurrence_window: None,
    };
    QueryLogGenerator::new(config, seed ^ 0x5ca1e).generate(corpus)
}

/// Generates a head-term query log: pair queries whose terms are globally
/// *frequent* (document frequency above [`default_hdk`]'s `df_max`) and
/// co-occur within its proximity window in some document — so each query's own
/// pair key is exactly the kind of multi-term key HDK activates. This is the
/// long-posting-list regime of the bandwidth experiment's threshold arms: the
/// lists behind these queries are the ones floor-based elision can shorten.
/// Pair (rather than triple) queries keep every probe family laminar, the
/// regime where the rank-safe floors certify.
pub fn head_query_log(corpus: &SyntheticCorpus, num_queries: usize, seed: u64) -> QueryLog {
    let hdk = default_hdk();
    let config = QueryLogConfig {
        num_queries,
        distinct_queries: (num_queries / 8).clamp(20, 400),
        min_terms: 2,
        max_terms: 2,
        min_term_df: Some(hdk.df_max),
        cooccurrence_window: Some(hdk.proximity_window),
        ..Default::default()
    };
    QueryLogGenerator::new(config, seed ^ 0x4ead).generate(corpus)
}

/// The HDK configuration used by the experiments unless a sweep overrides it.
pub fn default_hdk() -> HdkConfig {
    HdkConfig {
        df_max: 100,
        truncation_k: 100,
        max_key_len: 3,
        proximity_window: 20,
        use_proximity_filter: true,
    }
}

/// The QDI configuration used by the experiments unless a sweep overrides it.
pub fn default_qdi() -> QdiConfig {
    QdiConfig {
        activation_threshold: 3,
        truncation_k: 100,
        max_key_len: 3,
        obsolescence_window: 500,
        eviction_period: 100,
        require_nonredundant: true,
    }
}

/// Builds an AlvisP2P network with the given strategy and peer count, distributes the
/// corpus and builds the distributed index. Returns the ready-to-query network.
pub fn indexed_network(
    corpus: &SyntheticCorpus,
    strategy: Arc<dyn Strategy>,
    peers: usize,
    seed: u64,
) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(peers)
        .dht(DhtConfig::default())
        .strategy_arc(strategy)
        .seed(seed)
        .corpus(corpus)
        .build_indexed()
        .expect("experiment network configuration is valid")
}

/// The three strategies compared throughout the experiments, with shared parameters.
pub fn all_strategies() -> Vec<(&'static str, Arc<dyn Strategy>)> {
    vec![
        ("single-term", Arc::new(SingleTermFull)),
        ("hdk", Arc::new(Hdk::new(default_hdk()))),
        ("qdi", Arc::new(Qdi::new(default_qdi()))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_scales_vocabulary_with_size() {
        let small = corpus(200, 1);
        let large = corpus(2_000, 1);
        assert_eq!(small.len(), 200);
        assert_eq!(large.len(), 2_000);
        assert!(large.vocabulary.len() > small.vocabulary.len());
    }

    #[test]
    fn query_log_is_generated_over_the_corpus() {
        let c = corpus(200, 2);
        let log = query_log(&c, 100, 2);
        assert_eq!(log.len(), 100);
        assert!(log.distinct.len() >= 20);
    }

    #[test]
    fn indexed_network_is_ready_to_query() {
        let c = corpus(120, 3);
        let mut net = indexed_network(&c, Arc::new(Hdk::new(default_hdk())), 8, 3);
        assert_eq!(net.total_documents(), 120);
        assert!(net.global_index().activated_keys() > 0);
        let q = format!("{} {}", c.vocabulary[30], c.vocabulary[31]);
        let outcome = net
            .execute(&alvisp2p_core::request::QueryRequest::new(q))
            .unwrap();
        assert!(outcome.trace.probes > 0);
    }

    #[test]
    fn strategies_cover_all_three() {
        let s = all_strategies();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].0, "single-term");
        assert_eq!(s[1].0, "hdk");
        assert_eq!(s[2].0, "qdi");
    }
}

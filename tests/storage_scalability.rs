//! The HDK index stays scalable (the paper's §1): the number of indexing keys
//! grows with the collection, no key stores more postings than the truncation
//! bound, and the keys spread over the peers. `df_max` and the proximity-window
//! filter decide how many multi-term keys exist.

use alvisp2p::prelude::*;

/// A Heaps-like corpus of `docs` documents (the vocabulary grows sublinearly
/// with the collection), indexed by HDK on 8 peers.
fn hdk_index(docs: usize, config: HdkConfig, seed: u64) -> AlvisNetwork {
    let corpus = CorpusGenerator::new(
        CorpusConfig {
            num_docs: docs,
            vocab_size: ((docs as f64).sqrt() * 90.0).max(400.0) as usize,
            num_topics: (docs / 50).clamp(5, 80),
            topic_vocab: 60,
            doc_len_mean: 110,
            doc_len_spread: 50,
            ..Default::default()
        },
        seed,
    )
    .generate();
    AlvisNetwork::builder()
        .peers(8)
        .strategy(Hdk::new(config))
        .seed(seed)
        .corpus(&corpus)
        .build_indexed()
        .expect("valid configuration")
}

fn hdk(df_max: usize) -> HdkConfig {
    HdkConfig {
        df_max,
        truncation_k: df_max,
        ..Default::default()
    }
}

/// Activated keys of exactly one term and of more than one.
fn single_and_multi_keys(net: &AlvisNetwork) -> (usize, usize) {
    let activated = || net.global_index().entries().filter(|e| e.activated);
    let single = activated().filter(|e| e.key.is_single()).count();
    (single, activated().count() - single)
}

/// Max over mean of the activated keys each peer stores.
fn load_imbalance(net: &AlvisNetwork) -> f64 {
    let keys: Vec<usize> = net
        .global_index()
        .per_peer_load()
        .iter()
        .map(|(k, _)| *k)
        .collect();
    let max = keys.iter().copied().max().unwrap_or(0);
    max as f64 * keys.len() as f64 / keys.iter().sum::<usize>() as f64
}

#[test]
#[ignore = "two HDK index builds (minutes in debug); run with `cargo test --release -- --ignored` (nightly CI job)"]
fn index_grows_with_the_collection_and_stays_distributed() {
    let small = hdk_index(120, hdk(20), 5);
    let large = hdk_index(360, hdk(20), 5);
    let (small_index, large_index) = (small.global_index(), large.global_index());
    assert!(large_index.activated_keys() > small_index.activated_keys());
    assert!(large_index.total_postings() > small_index.total_postings());
    assert!(large_index.total_storage_bytes() > small_index.total_storage_bytes());
    // Single-term keys exist and grow with the vocabulary.
    let (small_singles, _) = single_and_multi_keys(&small);
    let (large_singles, _) = single_and_multi_keys(&large);
    assert!(small_singles > 0);
    assert!(large_singles > small_singles);
    // The truncation bounds the postings per key on average.
    assert!(large_index.total_postings() as f64 / large_index.activated_keys() as f64 <= 20.0);
    // The index is spread over the peers rather than concentrated on one.
    assert!(load_imbalance(&small) < 8.0);
    assert!(load_imbalance(&large) < 8.0);
}

#[test]
#[ignore = "two HDK index builds (minutes in debug); run with `cargo test --release -- --ignored` (nightly CI job)"]
fn smaller_df_max_creates_more_multi_term_keys() {
    let (_, strict) = single_and_multi_keys(&hdk_index(240, hdk(5), 6));
    let (_, loose) = single_and_multi_keys(&hdk_index(240, hdk(60), 6));
    assert!(strict > loose, "strict {strict} vs loose {loose}");
}

#[test]
#[ignore = "two HDK index builds (minutes in debug); run with `cargo test --release -- --ignored` (nightly CI job)"]
fn proximity_filter_contains_the_candidate_explosion() {
    let with = hdk_index(240, hdk(10), 7).global_index().activated_keys();
    let unfiltered = HdkConfig {
        use_proximity_filter: false,
        ..hdk(10)
    };
    let without = hdk_index(240, unfiltered, 7)
        .global_index()
        .activated_keys();
    assert!(without > with, "without filter {without} vs with {with}");
}

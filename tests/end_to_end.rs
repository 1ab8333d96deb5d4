//! End-to-end integration tests: corpus → distributed index → multi-keyword queries,
//! compared against the centralized reference, for all three indexing strategies.

use alvisp2p::core::stats::{overlap_at_k, precision_at_k, reference_relevant};
use alvisp2p::prelude::*;
use alvisp2p_netsim::TrafficCategory;

fn corpus_and_queries(
    docs: usize,
    seed: u64,
) -> (alvisp2p::textindex::SyntheticCorpus, Vec<String>) {
    let corpus = CorpusGenerator::new(
        CorpusConfig {
            num_docs: docs,
            vocab_size: 800,
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
            num_queries: 40,
            distinct_queries: 25,
            ..Default::default()
        },
        seed,
    )
    .generate(&corpus);
    let queries = log.queries.iter().map(|q| q.text.clone()).collect();
    (corpus, queries)
}

fn build(
    strategy: impl Strategy + 'static,
    corpus: &alvisp2p::textindex::SyntheticCorpus,
    peers: usize,
) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(peers)
        .strategy(strategy)
        .seed(99)
        .corpus(corpus)
        .build_indexed()
        .expect("valid configuration")
}

#[test]
fn hdk_retrieval_quality_is_comparable_to_centralized() {
    let (corpus, queries) = corpus_and_queries(300, 11);
    // Per truncation bound, at one df_max: mean precision@10, overlap@10 and
    // bytes/query over the queries the reference can answer.
    let runs: Vec<(f64, f64, f64)> = [10, 50]
        .into_iter()
        .map(|k| {
            let mut net = build(
                Hdk::new(HdkConfig {
                    df_max: 50,
                    truncation_k: k,
                    ..Default::default()
                }),
                &corpus,
                12,
            );
            let (mut precision, mut overlap, mut bytes, mut evaluated) = (0.0, 0.0, 0u64, 0usize);
            for (i, q) in queries.iter().enumerate() {
                let outcome = net
                    .execute(&QueryRequest::new(q.clone()).from_peer(i % 12))
                    .expect("query succeeds");
                let reference = net.reference_search(q, 10);
                if reference.is_empty() {
                    continue;
                }
                let relevant = reference_relevant(&reference, 10);
                precision += precision_at_k(&outcome.results, &relevant, 10);
                overlap += overlap_at_k(&outcome.results, &reference, 10);
                bytes += outcome.bytes;
                evaluated += 1;
            }
            assert!(evaluated >= 20, "too few evaluable queries: {evaluated}");
            let n = evaluated as f64;
            (precision / n, overlap / n, bytes as f64 / n)
        })
        .collect();
    let [(_, small_overlap, small_bytes), (precision, overlap, bytes)] = runs[..] else {
        unreachable!("two truncation bounds")
    };
    assert!(
        precision > 0.75,
        "HDK precision@10 vs centralized reference too low: {precision:.3}"
    );
    // Truncation trades quality for bytes: the larger bound answers at least
    // as well and ships at least as much.
    assert!(
        overlap >= small_overlap,
        "overlap@10 fell as truncation grew: {small_overlap:.3} -> {overlap:.3}"
    );
    assert!(
        bytes >= small_bytes,
        "bytes/query fell as truncation grew: {small_bytes:.0} -> {bytes:.0}"
    );
}

#[test]
fn single_term_baseline_transfers_more_than_hdk_and_grows_faster() {
    // The paper's premise is queries made of *frequent* terms — those are the posting
    // lists the single-term baseline has to ship in full.
    let (small_corpus, _) = corpus_and_queries(150, 21);
    let (large_corpus, _) = corpus_and_queries(450, 21);
    let frequent_queries = |corpus: &alvisp2p::textindex::SyntheticCorpus| -> Vec<String> {
        (5..20)
            .map(|i| format!("{} {}", corpus.vocabulary[i], corpus.vocabulary[i + 1]))
            .collect()
    };

    let mean_bytes = |strategy: std::sync::Arc<dyn Strategy>,
                      corpus: &alvisp2p::textindex::SyntheticCorpus| {
        let queries = frequent_queries(corpus);
        let mut net = AlvisNetwork::builder()
            .peers(8)
            .strategy_arc(strategy)
            .seed(99)
            .corpus(corpus)
            .build_indexed()
            .expect("valid configuration");
        net.reset_traffic();
        let batch: Vec<QueryRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| QueryRequest::new(q.clone()).from_peer(i % 8))
            .collect();
        let responses = net.query_batch(&batch).unwrap();
        let total: u64 = responses.iter().map(|r| r.bytes).sum();
        total as f64 / queries.len() as f64
    };

    let hdk = || -> std::sync::Arc<dyn Strategy> {
        std::sync::Arc::new(Hdk::new(HdkConfig {
            df_max: 20,
            truncation_k: 20,
            ..Default::default()
        }))
    };

    let base_small = mean_bytes(std::sync::Arc::new(SingleTermFull), &small_corpus);
    let base_large = mean_bytes(std::sync::Arc::new(SingleTermFull), &large_corpus);
    let hdk_small = mean_bytes(hdk(), &small_corpus);
    let hdk_large = mean_bytes(hdk(), &large_corpus);

    // At the larger collection the untruncated baseline ships more bytes per query.
    assert!(
        base_large > hdk_large,
        "large: baseline {base_large} vs hdk {hdk_large}"
    );
    // And the baseline's traffic grows faster with the collection size (the paper's
    // unscalability argument), while HDK stays bounded by its truncation constant.
    let base_growth = base_large / base_small;
    let hdk_growth = hdk_large / hdk_small;
    assert!(
        base_growth > hdk_growth,
        "baseline growth {base_growth:.2}x vs hdk growth {hdk_growth:.2}x"
    );
    assert!(
        hdk_growth < 2.0,
        "HDK per-query traffic should stay roughly flat, grew {hdk_growth:.2}x"
    );
}

#[test]
fn untruncated_single_term_baseline_reproduces_the_reference_ranking() {
    let (corpus, queries) = corpus_and_queries(200, 31);
    let mut net = build(SingleTermFull, &corpus, 8);
    for (i, q) in queries.iter().take(15).enumerate() {
        let outcome = net
            .execute(&QueryRequest::new(q.clone()).from_peer(i % 8))
            .unwrap();
        let reference = net.reference_search(q, 10);
        let overlap = overlap_at_k(&outcome.results, &reference, 10);
        assert!(
            overlap > 0.99,
            "query {q:?}: overlap {overlap} should be ~1 for the untruncated baseline"
        );
    }
}

#[test]
fn traffic_is_accounted_per_category_across_the_whole_pipeline() {
    let (corpus, queries) = corpus_and_queries(200, 41);
    let mut net = build(
        Hdk::new(HdkConfig {
            df_max: 30,
            truncation_k: 30,
            ..Default::default()
        }),
        &corpus,
        8,
    );
    // Indexing and ranking traffic happened during build.
    let t = net.traffic_snapshot();
    assert!(t.category(TrafficCategory::Indexing).bytes > 0);
    assert!(t.category(TrafficCategory::Ranking).bytes > 0);
    assert_eq!(t.category(TrafficCategory::Retrieval).bytes, 0);
    // Retrieval traffic only appears once queries run.
    for (i, q) in queries.iter().take(10).enumerate() {
        net.execute(&QueryRequest::new(q.clone()).from_peer(i % 8))
            .unwrap();
    }
    let t2 = net.traffic_snapshot();
    assert!(t2.category(TrafficCategory::Retrieval).bytes > 0);
    assert_eq!(
        t2.category(TrafficCategory::Indexing).bytes,
        t.category(TrafficCategory::Indexing).bytes,
        "HDK must not index anything new at query time"
    );
}

#[test]
fn query_outcome_traces_are_consistent_with_the_lattice() {
    let (corpus, queries) = corpus_and_queries(200, 51);
    let mut net = build(
        Hdk::new(HdkConfig {
            df_max: 30,
            truncation_k: 30,
            ..Default::default()
        }),
        &corpus,
        8,
    );
    for (i, q) in queries.iter().take(10).enumerate() {
        let outcome = net
            .execute(&QueryRequest::new(q.clone()).from_peer(i % 8))
            .unwrap();
        let terms = Analyzer::default().analyze_query(q);
        let lattice_size = (1usize << terms.len()) - 1;
        assert!(outcome.trace.nodes.len() <= lattice_size);
        assert!(outcome.trace.probes <= lattice_size);
        assert!(outcome.trace.probes >= 1);
        // Every found key contributed to the retrieved set, and every result document
        // appears in at least one retrieved posting list.
        let found = outcome.trace.found_keys().len();
        assert!(found <= outcome.trace.probes);
    }
}

#[test]
fn results_point_back_to_hosting_peers_and_documents_are_fetchable() {
    let (corpus, queries) = corpus_and_queries(150, 61);
    let mut net = build(
        Hdk::new(HdkConfig {
            df_max: 30,
            truncation_k: 30,
            ..Default::default()
        }),
        &corpus,
        6,
    );
    let mut fetched = 0;
    for (i, q) in queries.iter().take(10).enumerate() {
        let outcome = net
            .execute(&QueryRequest::new(q.clone()).from_peer(i % 6).top_k(5))
            .unwrap();
        for r in &outcome.results {
            assert!((r.doc.peer as usize) < net.peer_count());
            if let alvisp2p::core::FetchOutcome::Full(doc) =
                net.fetch_document(r.doc, &Credentials::anonymous())
            {
                assert!(!doc.body.is_empty());
                fetched += 1;
            }
        }
    }
    assert!(
        fetched > 0,
        "no documents could be fetched from their owners"
    );
}

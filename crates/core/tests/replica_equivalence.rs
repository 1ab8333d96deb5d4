//! Hot-key replication must be invisible to query semantics: for any corpus,
//! indexing strategy and budget, a network running [`HotKeyReplication`]
//! returns byte-identical answers to one running [`NoReplication`] — same
//! top-k documents and scores, same lattice trace, same retrieval bytes and
//! hops. Replication only moves *where* a probe is served (and charges its
//! own copies to the overlay-maintenance category), never *what* is answered.

use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::plan::GreedyCost;
use alvisp2p_core::request::QueryRequest;
use alvisp2p_core::strategy::{Hdk, Qdi, SingleTermFull, Strategy};
use alvisp2p_dht::{HotKeyReplication, NoReplication, ReplicationPolicy};
use alvisp2p_textindex::{CorpusConfig, CorpusGenerator, SyntheticCorpus};
use std::sync::Arc;

fn corpus(num_docs: usize, seed: u64) -> SyntheticCorpus {
    let config = CorpusConfig {
        num_docs,
        vocab_size: 500,
        num_topics: 6,
        topic_vocab: 60,
        doc_len_mean: 80,
        doc_len_spread: 30,
        ..Default::default()
    };
    CorpusGenerator::new(config, seed).generate()
}

fn network(
    corpus: &SyntheticCorpus,
    strategy: Arc<dyn Strategy>,
    policy: Arc<dyn ReplicationPolicy>,
    budgeted: bool,
    seed: u64,
) -> AlvisNetwork {
    let mut builder = AlvisNetwork::builder()
        .peers(24)
        .strategy_arc(strategy)
        .replication(policy)
        .seed(seed)
        .corpus(corpus);
    if budgeted {
        builder = builder.planner(GreedyCost);
    }
    builder.build_indexed().expect("valid configuration")
}

/// A small skewed query mix: one hot query repeated enough to push its keys
/// over the replication threshold, plus a tail of colder queries.
fn queries(corpus: &SyntheticCorpus) -> Vec<String> {
    let vocab: Vec<&str> = corpus.vocabulary.iter().map(String::as_str).collect();
    let hot = format!("{} {}", vocab[0], vocab[1]);
    let mut out = Vec::new();
    for i in 0..40 {
        out.push(hot.clone());
        if i % 4 == 0 {
            let a = vocab[2 + (i % 7)];
            let b = vocab[10 + (i % 11)];
            out.push(format!("{a} {b}"));
        }
    }
    out
}

fn run(net: &mut AlvisNetwork, queries: &[String], budget: Option<u64>) -> Vec<String> {
    queries
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let mut request = QueryRequest::new(text.clone()).from_peer(i % 24).top_k(10);
            if let Some(bytes) = budget {
                request = request.byte_budget(bytes);
            }
            let response = net.execute(&request).expect("query succeeds");
            // Everything query-visible, serialized for exact comparison.
            format!(
                "docs={:?} trace={:?} hops={} bytes={} exhausted={}",
                response
                    .results
                    .iter()
                    .map(|r| (r.doc, r.score.to_bits()))
                    .collect::<Vec<_>>(),
                response.trace.nodes,
                response.hops,
                response.bytes,
                response.budget_exhausted,
            )
        })
        .collect()
}

fn assert_equivalent(strategy_label: &str, strategy: Arc<dyn Strategy>, budget: Option<u64>) {
    assert_equivalent_with(strategy_label, strategy, budget, true);
}

fn assert_equivalent_with(
    strategy_label: &str,
    strategy: Arc<dyn Strategy>,
    budget: Option<u64>,
    require_replication: bool,
) {
    for seed in [11u64, 29] {
        let c = corpus(250, seed);
        let qs = queries(&c);
        let mut plain = network(
            &c,
            Arc::clone(&strategy),
            Arc::new(NoReplication),
            budget.is_some(),
            seed,
        );
        let mut replicated = network(
            &c,
            Arc::clone(&strategy),
            Arc::new(HotKeyReplication::new(3)),
            budget.is_some(),
            seed,
        );
        let baseline = run(&mut plain, &qs, budget);
        let observed = run(&mut replicated, &qs, budget);
        for (i, (a, b)) in baseline.iter().zip(&observed).enumerate() {
            assert_eq!(
                a, b,
                "{strategy_label} seed {seed} budget {budget:?}: query {i} diverged"
            );
        }
        // The comparison must actually exercise replication: the hot query's
        // keys crossed the threshold and replicas served real probes. (Very
        // tight budgets can legitimately admit too few probes to heat any
        // key; those arms only check equivalence.)
        let stats = replicated.global_index().dht().replication().stats();
        if require_replication {
            assert!(
                stats.replications > 0,
                "{strategy_label} seed {seed}: no key ever replicated — the \
                 equivalence check is vacuous"
            );
            assert!(
                stats.replica_serves > 0,
                "{strategy_label} seed {seed}: no probe was served by a replica"
            );
        }
        assert_eq!(
            plain
                .global_index()
                .dht()
                .replication()
                .stats()
                .replications,
            0,
            "NoReplication must never replicate"
        );
    }
}

#[test]
fn replication_is_result_invisible_for_single_term() {
    assert_equivalent("single-term", Arc::new(SingleTermFull), None);
}

#[test]
fn replication_is_result_invisible_for_hdk() {
    assert_equivalent("hdk", Arc::new(Hdk::default()), None);
}

#[test]
fn replication_is_result_invisible_for_qdi() {
    assert_equivalent("qdi", Arc::new(Qdi::default()), None);
}

#[test]
fn replication_is_result_invisible_under_byte_budgets() {
    assert_equivalent("hdk+reserve", Arc::new(Hdk::default()), Some(6_000));
    assert_equivalent_with("hdk+tight", Arc::new(Hdk::default()), Some(1_500), false);
}

#[test]
fn repair_disabled_default_never_exchanges_a_digest_and_answers_identically() {
    // Anti-entropy repair is opt-in: with the default (disabled) setting, a
    // replicated network — churn included — must never exchange a repair
    // digest or pull a copy, and its answers must be byte-identical to an
    // identical network running with repair enabled. Repair activity may
    // only ever add Overlay upkeep, never change what a query returns.
    let seed = 11u64;
    let c = corpus(250, seed);
    let qs = queries(&c);
    let strategy: Arc<dyn Strategy> = Arc::new(Hdk::default());
    let mut dormant = network(
        &c,
        Arc::clone(&strategy),
        Arc::new(HotKeyReplication::new(3)),
        false,
        seed,
    );
    let mut repairing = network(
        &c,
        Arc::clone(&strategy),
        Arc::new(HotKeyReplication::new(3)),
        false,
        seed,
    );
    repairing.set_repair_enabled(true);

    // Warm both past the replication threshold, then churn one peer in — the
    // churn path triggers a repair round only where repair is enabled.
    let baseline = run(&mut dormant, &qs, None);
    let observed = run(&mut repairing, &qs, None);
    for (i, (a, b)) in baseline.iter().zip(&observed).enumerate() {
        assert_eq!(a, b, "query {i}: repair activity changed the answer");
    }
    dormant
        .global_index_mut()
        .dht_mut()
        .join(alvisp2p_dht::RingId::hash_u64(0xC0FFEE))
        .expect("join");
    repairing
        .global_index_mut()
        .dht_mut()
        .join(alvisp2p_dht::RingId::hash_u64(0xC0FFEE))
        .expect("join");

    let dormant_stats = dormant.global_index().dht().replication().stats();
    assert_eq!(
        dormant_stats.digests_exchanged, 0,
        "repair-disabled default exchanged digests"
    );
    assert_eq!(dormant_stats.repairs_pulled, 0);
    // The enabled arm's churn-time repair round really ran (non-vacuous).
    assert!(
        repairing
            .global_index()
            .dht()
            .replication()
            .stats()
            .digests_exchanged
            > 0,
        "the repair-enabled arm never exchanged a digest — the comparison is vacuous"
    );
}

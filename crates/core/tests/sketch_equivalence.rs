//! Sketch pruning must be invisible to query semantics: for any corpus,
//! indexing strategy, threshold mode and budget, a network publishing
//! cost-based sketches returns the same answers as one running
//! [`SketchPolicy::NoSketches`] — same top-k documents and scores, same
//! lattice trace, same hops, same budget verdicts. Sketches only change *how
//! much crosses the wire*: a pruned probe records the exact posting list the
//! wire would have carried (the all-elided frame) for zero retrieval bytes,
//! and its would-have-been bytes are still admitted against byte budgets so
//! the probe schedule never diverges.

use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::plan::GreedyCost;
use alvisp2p_core::request::{QueryRequest, ThresholdMode};
use alvisp2p_core::sketch::SketchPolicy;
use alvisp2p_core::strategy::{Hdk, Qdi, SingleTermFull, Strategy};
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
    policy: SketchPolicy,
    budgeted: bool,
    seed: u64,
) -> AlvisNetwork {
    let mut builder = AlvisNetwork::builder()
        .peers(24)
        .strategy_arc(strategy)
        .sketch_policy(policy)
        .seed(seed)
        .corpus(corpus);
    if budgeted {
        builder = builder.planner(GreedyCost::default());
    }
    builder.build_indexed().expect("valid configuration")
}

/// A small skewed query mix: one hot query repeated (so adaptive strategies
/// get to mutate the index mid-run and exercise sketch staleness), plus a
/// tail of colder queries.
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

struct Outcome {
    /// Everything query-visible except traffic, serialized for exact
    /// comparison.
    semantic: String,
    bytes: u64,
    pruned: usize,
}

fn run(
    net: &mut AlvisNetwork,
    queries: &[String],
    budget: Option<u64>,
    mode: ThresholdMode,
) -> Vec<Outcome> {
    queries
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let mut request = QueryRequest::new(text.clone())
                .from_peer(i % 24)
                .top_k(10)
                .threshold_mode(mode);
            if let Some(bytes) = budget {
                request = request.byte_budget(bytes);
            }
            let response = net.execute(&request).expect("query succeeds");
            Outcome {
                semantic: format!(
                    "docs={:?} trace={:?} hops={} exhausted={}",
                    response
                        .results
                        .iter()
                        .map(|r| (r.doc, r.score.to_bits()))
                        .collect::<Vec<_>>(),
                    response.trace.nodes,
                    response.hops,
                    response.budget_exhausted,
                ),
                bytes: response.bytes,
                pruned: response.pruned_probes,
            }
        })
        .collect()
}

fn assert_equivalent(
    strategy_label: &str,
    strategy: Arc<dyn Strategy>,
    budget: Option<u64>,
    mode: ThresholdMode,
    require_pruning: bool,
) {
    for seed in [11u64, 29] {
        let c = corpus(250, seed);
        let qs = queries(&c);
        let mut plain = network(
            &c,
            Arc::clone(&strategy),
            SketchPolicy::NoSketches,
            budget.is_some(),
            seed,
        );
        let mut sketched = network(
            &c,
            Arc::clone(&strategy),
            SketchPolicy::CostBased,
            budget.is_some(),
            seed,
        );
        assert!(
            sketched.sketch_report().sketched_keys > 0,
            "{strategy_label} seed {seed}: the cost model maintained no sketch — \
             the equivalence check is vacuous"
        );
        assert!(
            sketched.sketch_report().upkeep_accounted(),
            "{strategy_label} seed {seed}: a maintained sketch's upkeep exceeds \
             its modeled savings"
        );
        let baseline = run(&mut plain, &qs, budget, mode);
        let observed = run(&mut sketched, &qs, budget, mode);
        let mut plain_bytes = 0u64;
        let mut sketch_bytes = 0u64;
        let mut pruned = 0usize;
        for (i, (a, b)) in baseline.iter().zip(&observed).enumerate() {
            assert_eq!(
                a.semantic, b.semantic,
                "{strategy_label} seed {seed} budget {budget:?} {mode:?}: query {i} diverged"
            );
            assert!(
                b.bytes <= a.bytes,
                "{strategy_label} seed {seed}: query {i} spent more with sketches \
                 ({} > {})",
                b.bytes,
                a.bytes
            );
            assert_eq!(
                a.pruned, 0,
                "{strategy_label} seed {seed}: NoSketches must never prune"
            );
            plain_bytes += a.bytes;
            sketch_bytes += b.bytes;
            pruned += b.pruned;
        }
        if require_pruning {
            assert!(
                pruned > 0,
                "{strategy_label} seed {seed} budget {budget:?} {mode:?}: no probe \
                 was ever pruned — the equivalence check is vacuous"
            );
            assert!(
                sketch_bytes < plain_bytes,
                "{strategy_label} seed {seed}: pruning saved no retrieval bytes \
                 ({sketch_bytes} vs {plain_bytes})"
            );
        }
    }
}

#[test]
fn sketches_are_result_invisible_for_single_term() {
    assert_equivalent(
        "single-term",
        Arc::new(SingleTermFull),
        None,
        ThresholdMode::Aggressive,
        true,
    );
}

#[test]
fn sketches_are_result_invisible_for_hdk() {
    assert_equivalent(
        "hdk",
        Arc::new(Hdk::default()),
        None,
        ThresholdMode::Aggressive,
        true,
    );
}

#[test]
fn sketches_are_result_invisible_for_qdi() {
    assert_equivalent(
        "qdi",
        Arc::new(Qdi::default()),
        None,
        ThresholdMode::Aggressive,
        true,
    );
}

#[test]
fn sketches_are_result_invisible_under_conservative_floors() {
    // Conservative floors are lower, so pruning fires less often (possibly
    // never on small corpora); the equivalence itself must still hold.
    assert_equivalent(
        "hdk+conservative",
        Arc::new(Hdk::default()),
        None,
        ThresholdMode::Conservative,
        false,
    );
}

#[test]
fn sketches_are_result_invisible_under_byte_budgets() {
    // Reserve-policy budget admission runs on spent + virtual bytes, so the
    // schedule (and the budget verdict) must not diverge even when pruning
    // saves real bytes.
    assert_equivalent(
        "hdk+reserve",
        Arc::new(Hdk::default()),
        Some(6_000),
        ThresholdMode::Aggressive,
        true,
    );
    assert_equivalent(
        "hdk+tight",
        Arc::new(Hdk::default()),
        Some(1_500),
        ThresholdMode::Aggressive,
        false,
    );
}

//! Pins the executor's lazy θ to the eager semantics it replaced.
//!
//! [`QueryStream`](alvisp2p_core::exec::QueryStream) merges the running top-k
//! only when the request's threshold mode can turn it into a floor. The
//! reference below is the eager executor: it drives the same plan through
//! [`PlanCursor`] and [`GlobalIndex::probe`](alvisp2p_core::GlobalIndex::probe)
//! directly, recomputes the merge after **every** probe in every mode, and
//! derives each floor from it. Both must agree on every floor sent, every
//! running top-k, every byte and hop, and the trace.

use alvisp2p_core::fault::ProbeOutcome;
use alvisp2p_core::lattice::LatticeTrace;
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::plan::{CursorStep, GreedyCost, PlanCursor, QueryPlan};
use alvisp2p_core::ranking::{keys_are_laminar, merge_retrieved};
use alvisp2p_core::request::{rank_safe_floor, QueryRequest, ThresholdMode};
use alvisp2p_core::strategy::Hdk;
use alvisp2p_core::TermKey;
use alvisp2p_netsim::TrafficCategory;
use alvisp2p_textindex::bm25::ScoredDoc;
use alvisp2p_textindex::{CorpusConfig, CorpusGenerator, SyntheticCorpus};

const TOP_K: usize = 10;

fn corpus() -> SyntheticCorpus {
    CorpusGenerator::new(
        CorpusConfig {
            num_docs: 300,
            vocab_size: 300,
            num_topics: 6,
            topic_vocab: 50,
            doc_len_mean: 80,
            doc_len_spread: 30,
            ..Default::default()
        },
        7,
    )
    .generate()
}

fn network(corpus: &SyntheticCorpus) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(8)
        .strategy(Hdk::default())
        .seed(7)
        .corpus(corpus)
        .build_indexed()
        .expect("valid configuration")
}

fn retrieval_bytes(net: &AlvisNetwork) -> u64 {
    net.traffic().category(TrafficCategory::Retrieval).bytes
}

/// Bit-exact view of a ranking.
fn bits(top_k: &[ScoredDoc]) -> Vec<(alvisp2p_textindex::DocId, u64)> {
    top_k.iter().map(|r| (r.doc, r.score.to_bits())).collect()
}

/// What one execution looked like from outside.
struct Observed {
    floors: Vec<Option<u64>>,
    top_ks: Vec<Vec<ScoredDoc>>,
    bytes: u64,
    hops: usize,
    fallbacks: usize,
    trace: LatticeTrace,
}

/// A budgeted [`GreedyCost`] plan: ranked by priority across lattice levels,
/// so nested keys are probed after their subsets — the order in which
/// rank-safe floors become positive. The budget itself never binds.
fn plan(net: &AlvisNetwork, request: &QueryRequest) -> QueryPlan {
    assert_eq!(request.byte_budget, Some(u64::MAX));
    net.plan_with(&GreedyCost, request).unwrap()
}

/// The eager reference executor: a merge after every probe, whatever the mode.
fn eager_reference(net: &mut AlvisNetwork, request: &QueryRequest) -> Observed {
    let plan = plan(net, request);
    let lattice = net.strategy().lattice_config(&net.config().lattice);
    let capacity = net.strategy().truncation_k();
    let seq = net.queries_processed() + 1;
    let keys: Vec<TermKey> = plan.probes().map(|n| n.key.clone()).collect();
    let laminar = keys_are_laminar(&keys);
    let fresh: Vec<Option<f64>> = keys
        .iter()
        .map(|key| {
            let version = net.global_index().publish_version(key);
            net.ranking_stats().key_max_fresh(key, version).or_else(|| {
                (version == 0 && net.ranking_stats().key_max_score(key).is_none()).then_some(0.0)
            })
        })
        .collect();
    let cap = |key: &TermKey| -> Option<(f64, f64)> {
        let i = keys.iter().position(|k| k == key).unwrap();
        let own = fresh[i]?;
        let disjoint_sum = keys
            .iter()
            .enumerate()
            .filter(|(j, other)| {
                *j != i && key.term_ids().iter().all(|t| !other.term_ids().contains(t))
            })
            .map(|(j, _)| fresh[j])
            .sum::<Option<f64>>()?;
        Some((own, disjoint_sum))
    };

    let mut cursor = PlanCursor::new(plan, &lattice, request.byte_budget);
    let before = retrieval_bytes(net);
    let mut theta_lb: Option<f64> = None;
    let mut observed = Observed {
        floors: Vec::new(),
        top_ks: Vec::new(),
        bytes: 0,
        hops: 0,
        fallbacks: 0,
        trace: LatticeTrace::default(),
    };
    while let CursorStep::Probe(key) = cursor.next_key(retrieval_bytes(net) - before) {
        let floor = match request.threshold {
            ThresholdMode::Off => None,
            ThresholdMode::RankSafe if !laminar => None,
            ThresholdMode::RankSafe => match cap(&key) {
                Some((own, disjoint_sum)) => {
                    theta_lb.and_then(|t| rank_safe_floor(t, own + disjoint_sum, own))
                }
                None => {
                    observed.fallbacks += usize::from(theta_lb.is_some());
                    None
                }
            },
        };
        let outcome = net
            .global_index_mut()
            .probe(request.origin, &key, seq, capacity, floor, 0, None)
            .unwrap();
        let ProbeOutcome::Ok(probe) = outcome else {
            panic!("fault-free probe failed: {outcome:?}")
        };
        cursor.record(probe);
        let top_k = merge_retrieved(cursor.retrieved(), TOP_K);
        let theta = (top_k.len() >= TOP_K).then(|| top_k.last().unwrap().score);
        if let (ThresholdMode::RankSafe, true, Some(t)) = (request.threshold, laminar, theta) {
            theta_lb = Some(theta_lb.map_or(t, |lb| lb.max(t)));
        }
        observed.floors.push(floor.map(f64::to_bits));
        observed.top_ks.push(top_k);
    }
    observed.bytes = retrieval_bytes(net) - before;
    observed.trace = cursor.finish().0.trace;
    observed.hops = observed.trace.hops;
    observed
}

/// The same request through the stream, merging only on demand.
fn streamed(net: &mut AlvisNetwork, request: &QueryRequest) -> Observed {
    let plan = plan(net, request);
    let mut stream = net.stream(plan, request.clone()).unwrap();
    let (mut floors, mut top_ks) = (Vec::new(), Vec::new());
    while let Some(event) = stream.next_event() {
        floors.push(event.unwrap().score_floor.map(f64::to_bits));
        top_ks.push(stream.running_top_k());
    }
    let response = stream.finish().unwrap();
    assert_eq!(
        bits(top_ks.last().expect("at least one probe")),
        bits(&response.results),
        "the last running top-k is the response"
    );
    Observed {
        floors,
        top_ks,
        bytes: response.bytes,
        hops: response.hops,
        fallbacks: response.rank_safe_fallbacks,
        trace: response.trace,
    }
}

#[test]
fn lazy_theta_matches_the_eager_reference_in_every_mode() {
    let corpus = corpus();
    let mut lazy = network(&corpus);
    let mut eager = network(&corpus);
    // Frequent vocabulary terms: lists long enough for the top-k to fill.
    let vocab = &corpus.vocabulary;
    for terms in [2usize, 3] {
        for mode in [ThresholdMode::Off, ThresholdMode::RankSafe] {
            let mut floors_sent = 0usize;
            for i in 5..13 {
                let text = vocab[i..i + terms].join(" ");
                let request = QueryRequest::new(text.clone())
                    .from_peer(i % 8)
                    .top_k(TOP_K)
                    .byte_budget(u64::MAX)
                    .threshold_mode(mode);
                let laminar = keys_are_laminar(
                    &plan(&lazy, &request)
                        .probes()
                        .map(|n| n.key.clone())
                        .collect::<Vec<_>>(),
                );
                assert_eq!(laminar, terms == 2, "{text:?}");

                let want = eager_reference(&mut eager, &request);
                let got = streamed(&mut lazy, &request);
                let ctx = format!("{mode:?} {text:?}");
                assert_eq!(got.floors, want.floors, "{ctx}: floors");
                assert_eq!(got.top_ks.len(), want.top_ks.len(), "{ctx}");
                for (g, w) in got.top_ks.iter().zip(&want.top_ks) {
                    assert_eq!(bits(g), bits(w), "{ctx}: running top-k");
                }
                assert_eq!(got.bytes, want.bytes, "{ctx}: bytes");
                assert_eq!(got.hops, want.hops, "{ctx}: hops");
                assert_eq!(got.fallbacks, want.fallbacks, "{ctx}: fallbacks");
                assert_eq!(got.trace.nodes, want.trace.nodes, "{ctx}: trace");
                assert_eq!(got.trace.probes, want.trace.probes, "{ctx}");
                assert_eq!(got.trace.hops, want.trace.hops, "{ctx}");
                assert_eq!(got.trace.skipped_blocks, want.trace.skipped_blocks, "{ctx}");
                assert_eq!(got.trace.elided_bytes, want.trace.elided_bytes, "{ctx}");
                floors_sent += got.floors.iter().flatten().count();
            }
            // Non-vacuous on both sides of the rule: RankSafe over the
            // laminar plans does send floors, everything else never does.
            let want = if mode == ThresholdMode::RankSafe && terms == 2 {
                8
            } else {
                0
            };
            assert_eq!(floors_sent, want, "{mode:?} x {terms} terms");
        }
    }
}

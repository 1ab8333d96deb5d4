//! Pins [`QueryStream`](alvisp2p_core::exec::QueryStream) to a reference
//! executor that drives the same plan through [`PlanCursor`] and
//! [`GlobalIndex::probe`](alvisp2p_core::GlobalIndex::probe) directly and
//! merges after **every** probe. Both must agree on every running top-k,
//! every byte and hop, and every trace node.

use alvisp2p_core::fault::ProbeOutcome;
use alvisp2p_core::lattice::LatticeTrace;
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::plan::{CursorStep, PlanCursor, QueryPlan};
use alvisp2p_core::ranking::merge_retrieved;
use alvisp2p_core::request::QueryRequest;
use alvisp2p_core::strategy::Hdk;
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
    top_ks: Vec<Vec<ScoredDoc>>,
    bytes: u64,
    hops: usize,
    trace: LatticeTrace,
}

/// The request's plan under a budget that never binds: the cursor still
/// checks every probe against it.
fn plan(net: &AlvisNetwork, request: &QueryRequest) -> QueryPlan {
    assert_eq!(request.byte_budget, Some(u64::MAX));
    net.plan(request).unwrap()
}

/// The reference executor: a merge after every probe.
fn reference(net: &mut AlvisNetwork, request: &QueryRequest) -> Observed {
    let plan = plan(net, request);
    let lattice = net.strategy().lattice_config(&net.config().lattice);
    let capacity = net.strategy().truncation_k();
    let seq = net.queries_processed() + 1;
    let mut cursor = PlanCursor::new(plan, &lattice, request.byte_budget);
    let before = retrieval_bytes(net);
    let mut top_ks = Vec::new();
    while let CursorStep::Probe(key) = cursor.next_key(retrieval_bytes(net) - before) {
        let outcome = net
            .global_index_mut()
            .probe(request.origin, &key, seq, capacity, 0, None)
            .unwrap();
        let ProbeOutcome::Ok(probe) = outcome else {
            panic!("fault-free probe failed: {outcome:?}")
        };
        cursor.record(probe);
        top_ks.push(merge_retrieved(cursor.retrieved(), TOP_K));
    }
    let bytes = retrieval_bytes(net) - before;
    let trace = cursor.finish().0.trace;
    Observed {
        top_ks,
        bytes,
        hops: trace.hops,
        trace,
    }
}

/// The same request through the stream, merging only on demand.
fn streamed(net: &mut AlvisNetwork, request: &QueryRequest) -> Observed {
    let plan = plan(net, request);
    let mut stream = net.stream(plan, request.clone()).unwrap();
    let mut top_ks = Vec::new();
    while let Some(event) = stream.next_event() {
        event.unwrap();
        top_ks.push(stream.running_top_k());
    }
    let response = stream.finish().unwrap();
    assert_eq!(
        bits(top_ks.last().expect("at least one probe")),
        bits(&response.results),
        "the last running top-k is the response"
    );
    Observed {
        top_ks,
        bytes: response.bytes,
        hops: response.hops,
        trace: response.trace,
    }
}

#[test]
fn stream_matches_the_plan_cursor_reference() {
    let corpus = corpus();
    let mut streaming = network(&corpus);
    let mut referenced = network(&corpus);
    // Frequent vocabulary terms: lists long enough for the top-k to fill.
    let vocab = &corpus.vocabulary;
    for terms in [2usize, 3] {
        for i in 5..13 {
            let text = vocab[i..i + terms].join(" ");
            let request = QueryRequest::new(text.clone())
                .from_peer(i % 8)
                .top_k(TOP_K)
                .byte_budget(u64::MAX);
            let want = reference(&mut referenced, &request);
            let got = streamed(&mut streaming, &request);
            assert_eq!(got.top_ks.len(), want.top_ks.len(), "{text:?}");
            for (g, w) in got.top_ks.iter().zip(&want.top_ks) {
                assert_eq!(bits(g), bits(w), "{text:?}: running top-k");
            }
            assert_eq!(got.bytes, want.bytes, "{text:?}: bytes");
            assert_eq!(got.hops, want.hops, "{text:?}: hops");
            assert_eq!(got.trace.nodes, want.trace.nodes, "{text:?}: trace");
            assert_eq!(got.trace.probes, want.trace.probes, "{text:?}");
            assert_eq!(got.trace.hops, want.trace.hops, "{text:?}");
        }
    }
}

//! Routing shortcuts must be invisible to query semantics: however a probe's
//! request reaches the key's primary — dialled through a fresh shortcut,
//! routed hop by hop, or routed after a wasted dial to a stale one — the
//! answer is bit-identical. Only the routing bytes and hops charged move — a
//! fresh shortcut's request is the dial and sends no lookup message, a stale
//! one wastes exactly one — and the planner's hop estimate stays an upper
//! bound on what the probe charges.

use alvisp2p_core::exec::ProbeEvent;
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::request::{QueryRequest, QueryResponse};
use alvisp2p_core::strategy::{Hdk, SingleTermFull, Strategy};
use alvisp2p_core::TermKey;
use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
use alvisp2p_textindex::{CorpusConfig, CorpusGenerator, DocId, SyntheticCorpus};
use proptest::prelude::*;
use std::sync::Arc;

const PEERS: usize = 16;

fn corpus(num_docs: usize, seed: u64) -> SyntheticCorpus {
    let config = CorpusConfig {
        num_docs,
        vocab_size: 400,
        num_topics: 6,
        topic_vocab: 60,
        doc_len_mean: 60,
        doc_len_spread: 20,
        ..Default::default()
    };
    CorpusGenerator::new(config, seed).generate()
}

fn network(corpus: &SyntheticCorpus, strategy: Arc<dyn Strategy>, seed: u64) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(PEERS)
        .strategy_arc(strategy)
        .seed(seed)
        .corpus(corpus)
        .build_indexed()
        .expect("valid configuration")
}

/// Two- and three-term queries over the head of the vocabulary, query `i`
/// asked by peer `i % PEERS`.
fn log(corpus: &SyntheticCorpus, queries: usize) -> Vec<QueryRequest> {
    let vocab: Vec<&str> = corpus.vocabulary.iter().map(String::as_str).collect();
    (0..queries)
        .map(|i| {
            let mut text = format!("{} {}", vocab[i % 5], vocab[5 + i % 7]);
            if i % 3 == 0 {
                text.push(' ');
                text.push_str(vocab[12 + i % 4]);
            }
            QueryRequest::new(text).from_peer(i % PEERS).top_k(10)
        })
        .collect()
}

/// One executed query: the response and the probe events behind it.
struct Answered {
    response: QueryResponse,
    events: Vec<ProbeEvent>,
}

impl Answered {
    /// Everything a shortcut must not move: documents, ranks, score bits and
    /// the lattice trace (which probes were sent and what each returned).
    fn answer(&self) -> (Vec<(DocId, u64)>, String, usize) {
        let docs = self
            .response
            .results
            .iter()
            .map(|r| (r.doc, r.score.to_bits()))
            .collect();
        let trace = &self.response.trace;
        (docs, format!("{:?}", trace.nodes), trace.probes)
    }
}

/// Plans and runs `request`, checking on the way that every probe charged at
/// most the hops the planner had estimated for it.
fn execute(net: &mut AlvisNetwork, request: &QueryRequest) -> Answered {
    let plan = net.plan(request).expect("plannable");
    let estimates: Vec<(TermKey, usize)> = plan
        .probes()
        .map(|node| (node.key.clone(), node.est_hops))
        .collect();
    let mut stream = net.stream(plan, request.clone()).expect("valid request");
    let mut events = Vec::new();
    while let Some(event) = stream.next_event() {
        let event = event.expect("fault-free probe");
        let (_, estimated) = estimates
            .iter()
            .find(|(key, _)| *key == event.key)
            .expect("only planned probes are sent");
        assert!(
            event.hops <= *estimated,
            "probe for {} charged {} hops, estimate was {estimated}",
            event.key.canonical(),
            event.hops
        );
        events.push(event);
    }
    let response = stream.finish().expect("query succeeds");
    Answered { response, events }
}

fn strategies() -> [(&'static str, Arc<dyn Strategy>); 2] {
    [
        ("single-term", Arc::new(SingleTermFull)),
        ("hdk", Arc::new(Hdk::default())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A network that has answered the log once already (every probe of the
    /// second pass finds a shortcut) against an identically seeded fresh one.
    #[test]
    fn a_warm_network_answers_like_a_fresh_one(
        corpus_seed in 1u64..100_000,
        docs in 120usize..220,
        queries in 20usize..40,
    ) {
        let corpus = corpus(docs, corpus_seed);
        for (label, strategy) in strategies() {
            let log = log(&corpus, queries);
            let mut fresh = network(&corpus, Arc::clone(&strategy), corpus_seed);
            let mut warm = network(&corpus, Arc::clone(&strategy), corpus_seed);
            for request in &log {
                execute(&mut warm, request);
            }
            let learned = warm.global_index().dht().shortcut_stats();
            let (mut saved_bytes, mut dialled) = (0u64, 0usize);
            for (i, request) in log.iter().enumerate() {
                let cold = execute(&mut fresh, request);
                let hot = execute(&mut warm, request);
                prop_assert_eq!(
                    cold.answer(), hot.answer(),
                    "{}: query {} diverged", label, i
                );
                prop_assert!(hot.response.bytes <= cold.response.bytes);
                prop_assert!(hot.response.hops <= cold.response.hops);
                saved_bytes += cold.response.bytes - hot.response.bytes;
                dialled += hot.events.iter().filter(|e| e.via_shortcut).count();
            }
            // Not vacuous: the second pass really dialled, and saved bytes.
            let stats = warm.global_index().dht().shortcut_stats();
            prop_assert!(stats.hits > learned.hits && dialled > 0);
            prop_assert_eq!(stats.hits - learned.hits, dialled as u64);
            prop_assert_eq!(stats.misses, learned.misses, "second pass missed");
            prop_assert_eq!(stats.stale, 0);
            prop_assert!(saved_bytes > 0);
        }
    }
}

/// Cold pass against warm pass on 64 peers. Answered from empty tables,
/// every probe charges `routed − 1` lookup messages — the request rides the
/// final hop. Answered again, every probe that leaves its origin is a dial
/// and the log sends no lookup message at all. Both passes answer
/// bit-identically to a network whose tables are empty before every query.
#[test]
fn a_warm_pass_sends_no_lookup_and_answers_like_a_cold_one() {
    const WIDE: usize = 64;
    let corpus = corpus(160, 29);
    let strategy: Arc<dyn Strategy> = Arc::new(Hdk::default());
    let build = || {
        AlvisNetwork::builder()
            .peers(WIDE)
            .strategy_arc(Arc::clone(&strategy))
            .seed(29)
            .corpus(&corpus)
            .build_indexed()
            .expect("valid configuration")
    };
    // Every origin asks queries sharing a term (query `i` leads with term
    // `i % 5`), so the first pass also dials keys its origin learned
    // earlier in the pass.
    let log: Vec<QueryRequest> = log(&corpus, 30)
        .into_iter()
        .enumerate()
        .map(|(i, request)| request.from_peer((i % 10) * 6))
        .collect();

    // Tables cleared before every query: a fresh network per query.
    let mut cleared = Vec::new();
    let (mut routed_hops, mut charged_hops) = (0usize, 0usize);
    for request in &log {
        let mut net = build();
        let answered = execute(&mut net, request);
        let dht = net.global_index().dht();
        for event in &answered.events {
            let routed = dht.probe_hops(request.origin, event.key.ring_id()).unwrap();
            assert!(!event.via_shortcut);
            assert_eq!(event.hops, routed.saturating_sub(1), "{}", event.key);
            routed_hops += routed.saturating_sub(1);
        }
        charged_hops += answered.response.hops;
        cleared.push(answered);
    }
    assert_eq!(charged_hops, routed_hops);
    assert!(routed_hops > 0, "no probe was routed beyond one hop");

    let mut net = build();
    let config = net.global_index().dht().config();
    let hop_message = (config.lookup_request_bytes + ENVELOPE_OVERHEAD) as u64;
    let cold: Vec<Answered> = log.iter().map(|r| execute(&mut net, r)).collect();
    let warm: Vec<Answered> = log.iter().map(|r| execute(&mut net, r)).collect();
    for (i, request) in log.iter().enumerate() {
        assert_eq!(cold[i].answer(), cleared[i].answer(), "query {i}: cold");
        assert_eq!(warm[i].answer(), cleared[i].answer(), "query {i}: warm");
        // The warm pass pays requests and responses only.
        assert_eq!(warm[i].response.hops, 0, "query {i}");
        assert_eq!(
            warm[i].response.bytes,
            cleared[i].response.bytes - cleared[i].response.hops as u64 * hop_message,
            "query {i}: routing bytes"
        );
        for event in &warm[i].events {
            let remote = net.global_index().responsible_for(&event.key) != Ok(request.origin);
            assert_eq!((event.hops, event.via_shortcut), (0, remote));
        }
    }
    let cold_hops: usize = cold.iter().map(|a| a.response.hops).sum();
    assert!(
        cold_hops < routed_hops,
        "the cold pass dials what it learned"
    );
}

/// The ROADMAP's poisoned-table test: every peer's table names a
/// wrong-but-live peer for every key the log probes. Answers are
/// bit-identical to a cold network's at exactly one wasted dial per probe
/// that leaves its origin — and the probes repair the tables as they go.
#[test]
fn a_poisoned_table_costs_one_dial_per_probe_and_never_an_answer() {
    let corpus = corpus(200, 17);
    for (label, strategy) in strategies() {
        // One query per origin, so no origin probes a key twice and the cold
        // network never gets to use what it learns.
        let log = log(&corpus, PEERS);
        let mut cold = network(&corpus, Arc::clone(&strategy), 17);
        let mut poisoned = network(&corpus, Arc::clone(&strategy), 17);

        for request in &log {
            let plan = poisoned.plan(request).expect("plannable");
            let index = poisoned.global_index_mut();
            for node in plan.probes() {
                let primary = index.responsible_for(&node.key).expect("live overlay");
                for origin in 0..PEERS {
                    let wrong = (0..PEERS)
                        .find(|p| *p != primary && *p != origin)
                        .expect("more than two peers");
                    index
                        .dht_mut()
                        .learn_shortcut(origin, node.key.ring_id(), wrong);
                }
            }
        }

        let dial = (poisoned.global_index().dht().config().lookup_request_bytes + ENVELOPE_OVERHEAD)
            as u64;
        let non_local = |net: &AlvisNetwork, request: &QueryRequest, events: &[ProbeEvent]| {
            events
                .iter()
                .filter(|e| net.global_index().responsible_for(&e.key) != Ok(request.origin))
                .count()
        };
        let mut wasted = 0usize;
        for (i, request) in log.iter().enumerate() {
            let reference = execute(&mut cold, request);
            let observed = execute(&mut poisoned, request);
            assert_eq!(
                reference.answer(),
                observed.answer(),
                "{label}: query {i} diverged"
            );
            let dials = non_local(&poisoned, request, &observed.events);
            assert_eq!(
                observed.response.bytes,
                reference.response.bytes + dials as u64 * dial,
                "{label}: query {i} bytes"
            );
            assert_eq!(
                observed.response.hops,
                reference.response.hops + dials,
                "{label}: query {i} hops"
            );
            assert!(observed.events.iter().all(|e| !e.via_shortcut));
            wasted += dials;
        }
        assert!(wasted > 0, "{label}: no probe ever left its origin");
        let stats = poisoned.global_index().dht().shortcut_stats();
        assert_eq!((stats.stale, stats.hits), (wasted as u64, 0));

        // The tables are correct afterwards: every probe that leaves its
        // origin is one fresh dial, whose request is the dial itself.
        for request in &log {
            let again = execute(&mut poisoned, request);
            let dials = non_local(&poisoned, request, &again.events);
            assert_eq!(again.response.hops, 0, "{label}: a dial sends no lookup");
            let dialled = again.events.iter().filter(|e| e.via_shortcut).count();
            assert_eq!(dialled, dials, "{label}: every remote probe dials");
        }
        let healed = poisoned.global_index().dht().shortcut_stats();
        assert_eq!(healed.stale, stats.stale);
        assert_eq!(healed.hits, wasted as u64);
    }
}

//! Tests of the public API surface: the fluent builder, user-defined
//! [`Strategy`] implementations, request batching and the unified error
//! hierarchy. This file is the contract of the session-oriented API — if it
//! stops compiling, the public surface broke.

use alvisp2p::core::hdk::HdkLevelReport;
use alvisp2p::core::lattice::LatticeResult;
use alvisp2p::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

#[test]
fn builder_assembles_a_ready_network() {
    let mut net = AlvisNetwork::builder()
        .peers(6)
        .strategy(Hdk::new(HdkConfig {
            df_max: 2,
            truncation_k: 5,
            ..Default::default()
        }))
        .seed(11)
        .documents(demo_corpus())
        .build_indexed()
        .expect("valid configuration");
    assert_eq!(net.peer_count(), 6);
    assert_eq!(net.total_documents(), 12);
    assert!(net.index_built());
    assert_eq!(net.strategy().label(), "hdk");

    let response = net
        .execute(&QueryRequest::new("peer to peer retrieval").top_k(5))
        .unwrap();
    assert!(!response.is_empty());
    assert!(response.results.len() <= 5);
}

#[test]
fn builder_accepts_all_configuration_axes() {
    let net = AlvisNetwork::builder()
        .peers(4)
        .strategy(SingleTermFull)
        .dht(DhtConfig::default())
        .bm25(Default::default())
        .lattice(LatticeConfig::default())
        .seed(3)
        .documents(demo_corpus())
        .build()
        .expect("valid configuration");
    assert!(!net.index_built(), "build() must not build the index");
    assert_eq!(net.strategy().label(), "single-term");
}

#[test]
fn builder_rejects_zero_peers_with_invalid_config() {
    match AlvisNetwork::builder().peers(0).build() {
        Err(AlvisError::InvalidConfig(msg)) => assert!(msg.contains("peer")),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Custom user-defined strategy
// ---------------------------------------------------------------------------

/// A user-defined strategy: single-term index over a bounded capacity, which
/// counts how often the network consulted it after queries. Exercises every
/// trait hook a third-party policy would implement.
#[derive(Debug, Default)]
struct CountingStrategy {
    truncation_k: usize,
    post_query_calls: AtomicUsize,
}

impl Strategy for CountingStrategy {
    fn label(&self) -> &str {
        "counting"
    }

    fn truncation_k(&self) -> usize {
        self.truncation_k
    }

    fn build_index(&self, ctx: &mut IndexerCtx<'_>) -> Vec<HdkLevelReport> {
        vec![ctx.publish_single_term_level(self.truncation_k, self.df_max())]
    }

    fn lattice_config(&self, base: &LatticeConfig) -> LatticeConfig {
        LatticeConfig {
            max_probes: base.max_probes.min(64),
            ..base.clone()
        }
    }

    fn post_query(&self, _ctx: &mut QueryCtx<'_>, _query_key: &TermKey, result: &LatticeResult) {
        assert!(result.trace.probes > 0);
        self.post_query_calls.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn custom_strategies_plug_into_the_network() {
    let strategy = Arc::new(CountingStrategy {
        truncation_k: 8,
        post_query_calls: AtomicUsize::new(0),
    });
    let mut net = AlvisNetwork::builder()
        .peers(4)
        .strategy_arc(strategy.clone())
        .documents(demo_corpus())
        .build_indexed()
        .expect("valid configuration");

    let report = net.last_build_report().expect("index was built").clone();
    assert_eq!(report.strategy, "counting");
    assert!(report.activated_keys > 0);
    assert_eq!(report.levels.len(), 1);

    let response = net
        .execute(&QueryRequest::new("distributed retrieval"))
        .unwrap();
    assert!(!response.results.is_empty());
    assert_eq!(strategy.post_query_calls.load(Ordering::Relaxed), 1);

    // Posting lists respect the custom truncation bound.
    for entry in net.global_index().entries() {
        assert!(entry.postings.len() <= 8);
    }
}

// ---------------------------------------------------------------------------
// Requests, batching and budgets
// ---------------------------------------------------------------------------

#[test]
fn query_batch_preserves_order_and_matches_singles() {
    let mut net = AlvisNetwork::builder()
        .peers(4)
        .strategy(Hdk::new(HdkConfig {
            df_max: 2,
            truncation_k: 5,
            ..Default::default()
        }))
        .documents(demo_corpus())
        .build_indexed()
        .unwrap();

    let texts = [
        "peer to peer retrieval",
        "congestion control overlay",
        "the of and", // analyzes to nothing → empty response, not an error
    ];
    let batch: Vec<QueryRequest> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| QueryRequest::new(*t).from_peer(i % 4).top_k(5))
        .collect();
    let responses = net.query_batch(&batch).unwrap();
    assert_eq!(responses.len(), 3);
    assert!(!responses[0].is_empty());
    assert!(!responses[1].is_empty());
    assert!(responses[2].is_empty());

    // The same requests executed singly return the same document sets.
    let mut net2 = AlvisNetwork::builder()
        .peers(4)
        .strategy(Hdk::new(HdkConfig {
            df_max: 2,
            truncation_k: 5,
            ..Default::default()
        }))
        .documents(demo_corpus())
        .build_indexed()
        .unwrap();
    for (request, batched) in batch.iter().zip(&responses) {
        let single = net2.execute(request).unwrap();
        let batched_docs: Vec<_> = batched.results.iter().map(|r| r.doc).collect();
        let single_docs: Vec<_> = single.results.iter().map(|r| r.doc).collect();
        assert_eq!(batched_docs, single_docs);
    }
}

#[test]
fn batch_stops_at_the_first_error() {
    let mut net = AlvisNetwork::builder()
        .peers(2)
        .strategy(SingleTermFull)
        .documents(demo_corpus())
        .build_indexed()
        .unwrap();
    let batch = vec![
        QueryRequest::new("peer"),
        QueryRequest::new("peer").from_peer(77),
    ];
    match net.query_batch(&batch) {
        Err(AlvisError::NoSuchPeer {
            origin: 77,
            peers: 2,
        }) => {}
        other => panic!("expected NoSuchPeer, got {other:?}"),
    }
}

#[test]
fn refinement_rides_on_the_request() {
    let mut net = AlvisNetwork::builder()
        .peers(3)
        .strategy(Hdk::default())
        .documents(demo_corpus())
        .build_indexed()
        .unwrap();
    let plain = net
        .execute(&QueryRequest::new("truncated posting lists"))
        .unwrap();
    assert!(plain.refined.is_empty());
    let refined = net
        .execute(&QueryRequest::new("truncated posting lists").with_refinement())
        .unwrap();
    assert_eq!(refined.refined.len(), refined.results.len().min(10));
    assert!(refined.refined[0].global_score > 0.0);
}

#[test]
fn byte_budget_truncates_exploration_but_never_errors() {
    let mut net = AlvisNetwork::builder()
        .peers(4)
        .strategy(Hdk::default())
        .documents(demo_corpus())
        .build_indexed()
        .unwrap();
    let tight = net
        .execute(&QueryRequest::new("peer to peer retrieval overlay").byte_budget(1))
        .unwrap();
    assert!(tight.budget_exhausted);
    // No probe fits a 1-byte budget, so none is sent.
    assert_eq!((tight.trace.probes, tight.bytes), (0, 0));
    let loose = net
        .execute(&QueryRequest::new("peer to peer retrieval overlay").byte_budget(10_000_000))
        .unwrap();
    assert!(!loose.budget_exhausted);
    assert!(loose.bytes >= tight.bytes);
}

// ---------------------------------------------------------------------------
// The plan → execute pipeline
// ---------------------------------------------------------------------------

/// `.planner(BestEffort)` is an inert pin: queries have one plan, with or
/// without it.
#[test]
fn the_planner_pin_changes_nothing() {
    let build = |pinned: bool| {
        let builder = AlvisNetwork::builder().peers(4).strategy(Hdk::default());
        let builder = if pinned {
            builder.planner(alvisp2p::core::plan::BestEffort)
        } else {
            builder
        };
        builder.documents(demo_corpus()).build_indexed().unwrap()
    };
    let request = QueryRequest::new("peer to peer retrieval").byte_budget(2_000);
    let (mut pinned, mut plain) = (build(true), build(false));
    let plan = pinned.plan(&request).unwrap();
    assert_eq!(plan.nodes, plain.plan(&request).unwrap().nodes);
    let (a, b) = (
        pinned.execute(&request).unwrap(),
        plain.execute(&request).unwrap(),
    );
    assert_eq!(a.trace.nodes, b.trace.nodes);
    assert_eq!(a.bytes, b.bytes);
}

#[test]
fn plan_run_and_stream_are_part_of_the_public_surface() {
    let mut net = AlvisNetwork::builder()
        .peers(4)
        .strategy(Hdk::new(HdkConfig {
            df_max: 2,
            truncation_k: 5,
            ..Default::default()
        }))
        .documents(demo_corpus())
        .build_indexed()
        .unwrap();

    let request = QueryRequest::new("peer to peer retrieval").top_k(5);
    let plan = net.plan(&request).unwrap();
    assert!(plan.scheduled_probes() > 0);
    // Cost annotations are populated for every scheduled probe.
    for node in plan.probes() {
        assert_eq!(node.decision, PlanDecision::Probe);
        assert!(node.est_bytes > 0);
    }

    // run() executes a plan, repeatably.
    let response = net.run(&plan, &request).unwrap();
    assert!(!response.results.is_empty());
    let response2 = net.run(&plan, &request).unwrap();
    assert_eq!(response.results.len(), response2.results.len());

    // Streams yield one event per probe and finish into the response.
    let mut stream = net.stream(plan.clone(), request.clone()).unwrap();
    let mut seen = 0usize;
    for event in stream.by_ref() {
        assert!(event.bytes > 0);
        seen += 1;
    }
    assert!(stream.running_top_k().len() <= 5);
    let streamed = stream.finish().unwrap();
    assert_eq!(seen, streamed.trace.probes);
}

#[test]
fn routing_shortcuts_are_observable_per_probe_and_per_overlay() {
    let mut net = AlvisNetwork::builder()
        .peers(8)
        .strategy(Hdk::default())
        .documents(demo_corpus())
        .build_indexed()
        .unwrap();
    for pass in 0..2 {
        for origin in 0..8 {
            let request = QueryRequest::new("peer to peer retrieval").from_peer(origin);
            let plan = net.plan(&request).unwrap();
            let events: Vec<_> = net.stream(plan, request).unwrap().collect();
            for event in events {
                // Once a querier has been answered for a key it dials the
                // key's primary with the request itself: no lookup message
                // (and no shortcut when it is the primary itself).
                if pass == 1 {
                    let remote = net.global_index().responsible_for(&event.key) != Ok(origin);
                    assert_eq!((event.hops, event.via_shortcut), (0, remote));
                } else {
                    assert!(!event.via_shortcut);
                }
            }
        }
    }
    let alvisp2p::dht::ShortcutStats {
        hits,
        misses,
        stale,
        evictions,
    } = net.global_index().dht().shortcut_stats();
    assert!(hits > 0 && hits == misses);
    assert_eq!((stale, evictions), (0, 0));
}

#[test]
fn observers_receive_probe_events_and_can_stop() {
    let strategy = Arc::new(CountingStrategy {
        truncation_k: 8,
        post_query_calls: AtomicUsize::new(0),
    });
    let mut net = AlvisNetwork::builder()
        .peers(4)
        .strategy_arc(strategy.clone())
        .documents(demo_corpus())
        .build_indexed()
        .unwrap();
    let request = QueryRequest::new("peer to peer retrieval");
    let plan = net.plan(&request).unwrap();
    let scheduled = plan.scheduled_probes();
    assert!(scheduled > 1);
    let mut stream = net.stream(plan, request).unwrap();
    let mut seen = 0usize;
    while let Some(event) = stream.next_event() {
        assert!(event.unwrap().bytes > 0);
        seen += 1;
        stream.stop();
    }
    let retrieved = stream.running_top_k();
    let response = stream.finish().unwrap();
    assert_eq!(seen, 1);
    assert_eq!(response.trace.probes, 1);
    // The early stop records the remaining probes as skipped, the response is
    // assembled from what was retrieved, and the strategy still sees the query.
    assert_eq!(response.trace.skipped_keys().len(), scheduled - 1);
    assert_eq!(response.results, retrieved);
    assert_eq!(strategy.post_query_calls.load(Ordering::Relaxed), 1);
}

// ---------------------------------------------------------------------------
// Error hierarchy
// ---------------------------------------------------------------------------

#[test]
fn alvis_error_unifies_every_failure_mode() {
    let mut net = AlvisNetwork::builder()
        .peers(2)
        .strategy(SingleTermFull)
        .documents(demo_corpus())
        .build_indexed()
        .unwrap();

    // Request-level validation.
    assert!(matches!(
        net.execute(&QueryRequest::new("peer").top_k(0)),
        Err(AlvisError::InvalidRequest(_))
    ));
    // Unknown origin peer.
    assert!(matches!(
        net.execute(&QueryRequest::new("peer").from_peer(5)),
        Err(AlvisError::NoSuchPeer {
            origin: 5,
            peers: 2
        })
    ));
    // Overlay failures wrap DhtError and keep it inspectable via source().
    net.global_index_mut().dht_mut().leave(1).unwrap();
    let err = net
        .execute(&QueryRequest::new("peer").from_peer(1))
        .unwrap_err();
    match &err {
        AlvisError::Overlay(dht_err) => {
            assert_eq!(*dht_err, DhtError::BadOrigin);
        }
        other => panic!("expected Overlay, got {other:?}"),
    }
    let source = std::error::Error::source(&err).expect("overlay errors carry a source");
    assert!(source.to_string().contains("overlay") || !source.to_string().is_empty());
    // Errors are comparable and printable.
    assert_eq!(err.clone(), AlvisError::Overlay(DhtError::BadOrigin));
    assert!(!format!("{err}").is_empty());
}

//! Integration tests for overlay-level behaviour underneath the IR layers:
//! churn resilience of the distributed index and of the routing shortcuts.

use alvisp2p::core::{KeyIndexEntry, ProbeResult};
use alvisp2p::prelude::*;

fn indexed_network(peers: usize, seed: u64) -> (AlvisNetwork, Vec<String>) {
    let corpus = CorpusGenerator::new(
        CorpusConfig {
            num_docs: 200,
            vocab_size: 600,
            num_topics: 6,
            topic_vocab: 40,
            doc_len_mean: 50,
            doc_len_spread: 25,
            ..Default::default()
        },
        seed,
    )
    .generate();
    let log = QueryLogGenerator::new(
        QueryLogConfig {
            num_queries: 30,
            distinct_queries: 20,
            ..Default::default()
        },
        seed,
    )
    .generate(&corpus);
    let net = AlvisNetwork::builder()
        .peers(peers)
        .strategy(Hdk::new(HdkConfig {
            df_max: 30,
            truncation_k: 30,
            ..Default::default()
        }))
        .seed(seed)
        .corpus(&corpus)
        .build_indexed()
        .expect("valid configuration");
    let queries = log.queries.iter().map(|q| q.text.clone()).collect();
    (net, queries)
}

#[test]
fn graceful_churn_preserves_the_whole_global_index() {
    let (mut net, queries) = indexed_network(20, 7);
    let keys_before = net.global_index().activated_keys();
    let postings_before = net.global_index().total_postings();

    {
        let dht = net.global_index_mut().dht_mut();
        // Two graceful departures and two joins.
        dht.leave(2).unwrap();
        dht.leave(9).unwrap();
        assert!(dht.join(RingId::hash_u64(0x1111)).is_some());
        assert!(dht.join(RingId::hash_u64(0x2222)).is_some());
    }

    assert_eq!(net.global_index().activated_keys(), keys_before);
    assert_eq!(net.global_index().total_postings(), postings_before);

    // Queries from surviving peers keep working (origins 2 and 9 are gone).
    let mut answered = 0;
    for (i, q) in queries.iter().take(10).enumerate() {
        let origin = [0usize, 1, 3, 4, 5][i % 5];
        let outcome = net
            .execute(&QueryRequest::new(q.clone()).from_peer(origin))
            .unwrap();
        if !outcome.results.is_empty() {
            answered += 1;
        }
    }
    assert!(
        answered >= 5,
        "only {answered}/10 queries returned results after churn"
    );
}

#[test]
fn abrupt_failure_loses_only_the_failed_peers_slice() {
    let (mut net, queries) = indexed_network(20, 17);
    let keys_before = net.global_index().activated_keys();

    let lost = {
        let dht = net.global_index_mut().dht_mut();
        dht.fail(5).unwrap()
    };
    let keys_after = net.global_index().activated_keys();
    assert_eq!(keys_before - keys_after, lost);
    assert!(
        (lost as f64) < keys_before as f64 * 0.25,
        "a single failure lost {lost} of {keys_before} keys"
    );

    // The network still answers queries from live peers.
    let mut answered = 0;
    for (i, q) in queries.iter().take(10).enumerate() {
        let origin = [0usize, 1, 2, 3, 4][i % 5];
        if !net
            .execute(&QueryRequest::new(q.clone()).from_peer(origin))
            .unwrap()
            .results
            .is_empty()
        {
            answered += 1;
        }
    }
    assert!(
        answered >= 4,
        "only {answered}/10 queries answered after a failure"
    );
}

#[test]
fn querying_from_a_departed_peer_is_rejected_cleanly() {
    let (mut net, queries) = indexed_network(12, 27);
    net.global_index_mut().dht_mut().leave(3).unwrap();
    let err = net.execute(&QueryRequest::new(queries[0].clone()).from_peer(3));
    assert!(
        matches!(err, Err(AlvisError::Overlay(_))),
        "a departed peer must not be able to originate lookups: {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Routing shortcuts under churn
// ---------------------------------------------------------------------------

/// One fault-free probe for `key` from `origin`.
fn probe(net: &mut AlvisNetwork, origin: usize, key: &TermKey) -> ProbeResult {
    match net
        .global_index_mut()
        .probe(origin, key, 0, 30, None, 0, None)
    {
        Ok(ProbeOutcome::Ok(result)) => result,
        other => panic!("fault-free probe must be served, got {other:?}"),
    }
}

/// Two identically seeded networks, the first of which has a shortcut from
/// `origin` to the primary of `key`; `churn` — a membership change that makes
/// that shortcut stale — is then applied to both. The hinted network's next
/// probe must charge the wasted dial on top of the routed probe's lookups, answer
/// exactly like the network that never had a shortcut, and re-learn.
fn assert_stale_shortcut_is_repaired(
    seed: u64,
    churn: impl Fn(&mut Dht<KeyIndexEntry>, &TermKey, usize),
) {
    let (mut hinted, _) = indexed_network(20, seed);
    let (mut cold, _) = indexed_network(20, seed);
    let key = hinted.global_index().activated_key_list()[0].clone();
    let old_primary = hinted.global_index().responsible_for(&key).unwrap();
    let origin = (0..20).find(|p| *p != old_primary).unwrap();

    assert!(!probe(&mut hinted, origin, &key).via_shortcut);
    assert!(probe(&mut hinted, origin, &key).via_shortcut);

    churn(hinted.global_index_mut().dht_mut(), &key, old_primary);
    churn(cold.global_index_mut().dht_mut(), &key, old_primary);
    let new_primary = hinted.global_index().responsible_for(&key).unwrap();
    assert_ne!(new_primary, old_primary, "the churn must move the key");
    assert_ne!(new_primary, origin);

    let routed = cold
        .global_index()
        .dht()
        .probe_hops(origin, key.ring_id())
        .unwrap();
    // The routed request rides the final hop: `routed − 1` lookup messages,
    // and the wasted dial is one more.
    assert_eq!(
        hinted.global_index().estimate_hops(origin, &key),
        Ok(routed),
        "the estimate must cover the wasted dial"
    );
    let stale = probe(&mut hinted, origin, &key);
    let reference = probe(&mut cold, origin, &key);
    assert_eq!(reference.hops, routed - 1);
    assert_eq!((stale.hops, stale.via_shortcut), (routed, false));
    assert_eq!(stale.responsible, new_primary);
    assert_eq!(stale.postings, reference.postings);
    assert_eq!(hinted.global_index().dht().shortcut_stats().stale, 1);

    // Re-learned from the served response: the next probe's request is the
    // dial, with no lookup message at all.
    let again = probe(&mut hinted, origin, &key);
    assert_eq!((again.hops, again.via_shortcut), (0, true));
    assert_eq!(again.postings, reference.postings);
}

#[test]
fn a_join_that_splits_a_hinted_keys_arc_costs_one_wasted_dial() {
    // The newcomer takes the key's own identifier, so it becomes the key's
    // successor while the old primary stays alive.
    assert_stale_shortcut_is_repaired(7, |dht, key, _| {
        dht.join(key.ring_id()).expect("fresh id");
    });
}

#[test]
fn a_hinted_primary_that_leaves_costs_one_wasted_dial() {
    assert_stale_shortcut_is_repaired(17, |dht, _, primary| dht.leave(primary).unwrap());
}

#[test]
fn a_hinted_primary_that_fails_costs_one_wasted_dial() {
    // The failed peer's slice is lost in both networks: the answers agree on
    // the miss.
    assert_stale_shortcut_is_repaired(27, |dht, _, primary| {
        dht.fail(primary).unwrap();
    });
}

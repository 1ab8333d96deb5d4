//! Overlay robustness.
//!
//! Demonstrations of the layer-2 mechanisms the IR layers depend on:
//!
//! 1. **Churn** — peers join, leave gracefully and fail abruptly while the network
//!    keeps answering queries; graceful departures hand their index slice to their
//!    successor, abrupt failures lose only the failed peer's slice (documents always
//!    stay with their owners and can be re-published).
//! 2. **Hot-key replication** — a Zipf query hotspot pushes the popular keys over the
//!    replication threshold; their posting lists spread onto the ring successors, the
//!    probe serve load spreads with them, answers stay byte-identical, and the hot
//!    keys survive the abrupt failure of their primary.
//! 3. **Fault injection and failover** — a seeded fault plane drops 15% of probe
//!    messages and crashes the replica currently serving the hottest key; without
//!    retries the answer silently degrades (and says so in its completeness report),
//!    while the default retry + replica-failover policy recovers the fault-free
//!    answer at a modest byte overhead.
//! 4. **Lost publications and anti-entropy repair** — a third of the index-build
//!    publications are dropped in flight, leaving the global index incomplete; the
//!    bounded-backoff re-publication schedule drains the un-acked set until queries
//!    match the fault-free build, and a repair round heals a bit-rotted replica
//!    copy that silent corruption left behind.
//!
//! Run with:
//! ```text
//! cargo run --release --example overlay_robustness
//! ```

use alvisp2p::prelude::*;

fn churn_demo() {
    println!("=== churn demo ===");
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(), 3).generate();
    let mut net = AlvisNetwork::builder()
        .peers(24)
        .strategy(Hdk::new(HdkConfig {
            df_max: 10,
            truncation_k: 20,
            ..Default::default()
        }))
        .seed(5)
        .corpus(&corpus)
        .build_indexed()
        .expect("valid configuration");
    let keys_before = net.global_index().activated_keys();
    println!("peers: {}, activated keys: {keys_before}", net.peer_count());

    // Query with two mid-frequency vocabulary terms (head terms can be stopword-like).
    let query = format!("{} {}", corpus.vocabulary[60], corpus.vocabulary[61]);
    let request = QueryRequest::new(query.clone());
    let before = net.execute(&request).unwrap();
    println!(
        "query {query:?} before churn: {} results",
        before.results.len()
    );

    // Graceful departures: their index slices move to the successors.
    {
        let dht = net.global_index_mut().dht_mut();
        dht.leave(3).unwrap();
        dht.leave(11).unwrap();
        // New peers join and take over part of the key space.
        dht.join(RingId::hash_u64(0xABCD));
        dht.join(RingId::hash_u64(0xBEEF));
        // One abrupt failure: that peer's slice of the global index is lost.
        let lost = dht.fail(17).unwrap();
        println!("abrupt failure of peer 17 lost {lost} keys of the global index");
    }

    let keys_after = net.global_index().activated_keys();
    let after = net.execute(&request).unwrap();
    println!(
        "after churn: activated keys {keys_after} (graceful churn preserves them), \
         query returns {} results",
        after.results.len()
    );
    println!("overlay traffic:\n{}", net.traffic().report());
}

fn replication_demo() {
    println!("\n=== hot-key replication demo ===");
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(), 3).generate();
    let build = |policy: std::sync::Arc<dyn ReplicationPolicy>| {
        AlvisNetwork::builder()
            .peers(24)
            .strategy(Hdk::new(HdkConfig {
                df_max: 10,
                truncation_k: 20,
                ..Default::default()
            }))
            .replication(policy)
            .seed(5)
            .corpus(&corpus)
            .build_indexed()
            .expect("valid configuration")
    };
    let mut plain = build(std::sync::Arc::new(NoReplication));
    let mut net = build(std::sync::Arc::new(HotKeyReplication::new(3)));

    // A Zipf-style hotspot: one popular query dominates the log.
    let hot_query = format!("{} {}", corpus.vocabulary[60], corpus.vocabulary[61]);
    let max_served = |net: &AlvisNetwork| {
        let dht = net.global_index().dht();
        dht.live_peer_indices()
            .into_iter()
            .map(|i| dht.peer(i).served_requests)
            .max()
            .unwrap_or(0)
    };
    let mut answers_match = true;
    for i in 0..120 {
        let request = QueryRequest::new(hot_query.clone()).from_peer(i % 24);
        let a = plain.execute(&request).unwrap();
        let b = net.execute(&request).unwrap();
        answers_match &= a.results.iter().map(|r| r.doc).collect::<Vec<_>>()
            == b.results.iter().map(|r| r.doc).collect::<Vec<_>>();
    }
    let replication = net.global_index().dht().replication();
    println!(
        "after 120 hot queries: {} keys replicated, {} probes served by replicas, \
         answers identical to the unreplicated overlay: {answers_match}",
        replication.replicated_keys(),
        replication.stats().replica_serves,
    );
    println!(
        "hottest peer served {} probes without replication vs {} with it",
        max_served(&plain),
        max_served(&net),
    );

    // Fail the hottest key's primary: the replicas recover its posting list.
    let dht = net.global_index_mut().dht_mut();
    let hot_key = dht
        .replication()
        .replicated_key_list()
        .into_iter()
        .max_by(|a, b| {
            dht.replication()
                .key_load(*a)
                .total_cmp(&dht.replication().key_load(*b))
        })
        .expect("the hotspot replicated at least one key");
    let primary = dht.responsible_for(hot_key).unwrap();
    dht.fail(primary).unwrap();
    let recovered = dht.replication().stats().recovered;
    let response = net
        .execute(&QueryRequest::new(hot_query.clone()).from_peer(0))
        .unwrap();
    println!(
        "failed the hot key's primary (peer {primary}): {recovered} replicated keys \
         recovered from their holders, hot query still returns {} results",
        response.results.len()
    );
}

fn fault_tolerance_demo() {
    println!("\n=== fault-injection and failover demo ===");
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(), 3).generate();
    let build = |policy: RetryPolicy| {
        AlvisNetwork::builder()
            .peers(24)
            .strategy(Hdk::new(HdkConfig {
                df_max: 10,
                truncation_k: 20,
                ..Default::default()
            }))
            .replication(std::sync::Arc::new(HotKeyReplication::new(3)))
            .retry_policy(policy)
            .seed(5)
            .corpus(&corpus)
            .build_indexed()
            .expect("valid configuration")
    };
    let mut fragile = build(RetryPolicy::none());
    let mut robust = build(RetryPolicy::default());

    // Warm the hotspot fault-free so replication heats identically in both
    // overlays, and record the fault-free answer as the reference.
    let hot_query = format!("{} {}", corpus.vocabulary[60], corpus.vocabulary[61]);
    let mut reference: Vec<DocId> = Vec::new();
    for i in 0..120 {
        let request = QueryRequest::new(hot_query.clone()).from_peer(i % 24);
        let _ = fragile.execute(&request).unwrap();
        reference = robust
            .execute(&request)
            .unwrap()
            .results
            .iter()
            .map(|r| r.doc)
            .collect();
    }

    // Crash the replica currently serving the hottest key (serve selection is
    // fault-unaware, so probes keep landing on it — failover is the only
    // escape) and drop 15% of probe messages on top.
    let victim = {
        let dht = robust.global_index().dht();
        let hot_key = dht
            .replication()
            .replicated_key_list()
            .into_iter()
            .max_by(|a, b| {
                dht.replication()
                    .key_load(*a)
                    .total_cmp(&dht.replication().key_load(*b))
            })
            .expect("the hotspot replicated at least one key");
        dht.least_loaded_holder(hot_key)
            .unwrap_or_else(|| dht.responsible_for(hot_key).unwrap())
    };
    let plane = || {
        let mut plane = FaultPlane::seeded(7).with_loss(0.15);
        plane.crash(victim);
        plane
    };
    fragile.set_fault_plane(plane());
    robust.set_fault_plane(plane());
    println!("crashed the hot key's serving replica (peer {victim}) and injected 15% loss");

    let report = |label: &str, net: &mut AlvisNetwork| {
        let (mut overlap, mut retries, mut failed, mut completeness) = (0.0, 0, 0, 0.0);
        let rounds = 60;
        for i in 0..rounds {
            let origin = (i % 24 + usize::from(i % 24 == victim)) % 24;
            let request = QueryRequest::new(hot_query.clone()).from_peer(origin);
            let response = net.execute(&request).unwrap();
            let got: Vec<DocId> = response.results.iter().map(|r| r.doc).collect();
            let hits = reference.iter().filter(|d| got.contains(d)).count();
            overlap += hits as f64 / reference.len().max(1) as f64;
            retries += response.retries;
            failed += response.failed_probes;
            completeness += response.completeness.fraction();
        }
        let n = rounds as f64;
        println!(
            "{label:>24}: answer overlap vs fault-free {:.2}, {retries} retries, \
             {failed} failed probes, mean completeness {:.2}",
            overlap / n,
            completeness / n,
        );
    };
    report("no-retry", &mut fragile);
    report("retry+failover (default)", &mut robust);
}

fn control_plane_repair_demo() {
    println!("\n=== lost-publication re-publish and anti-entropy repair demo ===");
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(), 3).generate();
    let build = |plane: FaultPlane| {
        AlvisNetwork::builder()
            .peers(24)
            .strategy(Hdk::new(HdkConfig {
                df_max: 10,
                truncation_k: 20,
                ..Default::default()
            }))
            .replication(std::sync::Arc::new(HotKeyReplication::new(3)))
            .faults(plane)
            .seed(5)
            .corpus(&corpus)
            .build_indexed()
            .expect("valid configuration")
    };
    let hot_query = format!("{} {}", corpus.vocabulary[60], corpus.vocabulary[61]);
    let reference: Vec<DocId> = build(FaultPlane::default())
        .execute(&QueryRequest::new(hot_query.clone()).from_peer(0))
        .unwrap()
        .results
        .iter()
        .map(|r| r.doc)
        .collect();

    // A third of the build's publications are lost in flight: the publisher
    // keeps them pending, and queries run on an incomplete global index.
    let mut net = build(FaultPlane::seeded(21).with_publish_loss(0.35));
    let overlap = |net: &mut AlvisNetwork| {
        let got: Vec<DocId> = net
            .execute(&QueryRequest::new(hot_query.clone()).from_peer(0))
            .unwrap()
            .results
            .iter()
            .map(|r| r.doc)
            .collect();
        reference.iter().filter(|d| got.contains(d)).count() as f64 / reference.len().max(1) as f64
    };
    println!(
        "lossy build: {} publications un-acked, hot-query overlap vs fault-free {:.2}",
        net.pending_publishes(),
        overlap(&mut net),
    );

    // The bounded-backoff schedule re-sends every pending publication (the
    // re-sends are charged to Overlay, not Indexing) until all are acked.
    let mut rounds = 0;
    while net.pending_publishes() > 0 {
        net.republish_round();
        rounds += 1;
    }
    println!(
        "after {rounds} re-publication rounds: 0 pending, overlap {:.2}",
        overlap(&mut net),
    );

    // Heat the hot keys over the replication threshold, bit-rot one replica
    // copy, and let an anti-entropy round find and heal it via checksums.
    for i in 0..120 {
        let _ = net
            .execute(&QueryRequest::new(hot_query.clone()).from_peer(i % 24))
            .unwrap();
    }
    {
        let dht = net.global_index_mut().dht_mut();
        let key = dht
            .replication()
            .replicated_key_list()
            .into_iter()
            .next()
            .expect("the hotspot replicated at least one key");
        let holder = dht.replica_holders(key)[0];
        dht.corrupt_replica_copy(key, holder);
    }
    println!(
        "bit-rotted one replica copy: consistency {:.3}",
        net.replica_consistency()
    );
    let report = net.repair_round();
    println!(
        "one repair round: {} digests exchanged, {} corrupt found, {} repaired, \
         consistency {:.3}",
        report.digests_exchanged,
        report.corrupt,
        report.repaired,
        net.replica_consistency()
    );
}

fn main() {
    churn_demo();
    replication_demo();
    fault_tolerance_demo();
    control_plane_repair_demo();
}

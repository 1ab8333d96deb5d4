//! The fault plane must be invisible until it injects something: a network
//! running the default [`FaultPlane`] with the default [`RetryPolicy`] is
//! byte-identical to one built before the plane existed — same top-k
//! documents and scores, same lattice trace, same retrieval bytes and hops —
//! and reports zero retries, zero failed probes, zero hedged serves and a
//! completeness fraction of exactly `1.0`.
//!
//! Beyond the inert default, this suite pins the robustness behaviour itself:
//! an *active* plane whose faults never fire must still be byte-identical
//! (there is one probe path; a plane that answers "no" charges nothing), a
//! crashed primary mid-schedule must be absorbed by retry + replica failover
//! without changing the answer, and a crashed primary *without* replicas must
//! degrade the answer gracefully instead of erroring out the query.

use alvisp2p_core::fault::{FaultPlane, RetryPolicy};
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::request::QueryRequest;
use alvisp2p_core::strategy::{Hdk, Qdi, SingleTermFull, Strategy};
use alvisp2p_core::TermKey;
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
    replication: Arc<dyn ReplicationPolicy>,
    faults: FaultPlane,
    policy: RetryPolicy,
    seed: u64,
) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(24)
        .strategy_arc(strategy)
        .replication(replication)
        .faults(faults)
        .retry_policy(policy)
        .seed(seed)
        .corpus(corpus)
        .build_indexed()
        .expect("valid configuration")
}

/// The skewed query mix shared with the other equivalence suites: one hot
/// query repeated (heating replication and adaptive strategies), plus a tail
/// of colder queries.
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

/// Everything query-visible, serialized for exact comparison, plus the
/// robustness counters.
fn run(net: &mut AlvisNetwork, queries: &[String]) -> Vec<String> {
    queries
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let request = QueryRequest::new(text.clone()).from_peer(i % 24).top_k(10);
            let response = net.execute(&request).expect("query succeeds");
            format!(
                "docs={:?} trace={:?} hops={} bytes={} exhausted={} \
                 retries={} failed={} hedged={} fraction={}",
                response
                    .results
                    .iter()
                    .map(|r| (r.doc, r.score.to_bits()))
                    .collect::<Vec<_>>(),
                response.trace.nodes,
                response.hops,
                response.bytes,
                response.budget_exhausted,
                response.retries,
                response.failed_probes,
                response.hedged,
                response.completeness.fraction(),
            )
        })
        .collect()
}

fn assert_byte_identical(strategy_label: &str, strategy: Arc<dyn Strategy>, faults: FaultPlane) {
    for seed in [11u64, 29] {
        let c = corpus(250, seed);
        let qs = queries(&c);
        let mut plain = network(
            &c,
            Arc::clone(&strategy),
            Arc::new(NoReplication),
            FaultPlane::default(),
            RetryPolicy::default(),
            seed,
        );
        let mut observed = network(
            &c,
            Arc::clone(&strategy),
            Arc::new(NoReplication),
            faults.clone(),
            RetryPolicy::default(),
            seed,
        );
        let baseline = run(&mut plain, &qs);
        let subject = run(&mut observed, &qs);
        for (i, (a, b)) in baseline.iter().zip(&subject).enumerate() {
            assert_eq!(
                a, b,
                "{strategy_label} seed {seed} plane {faults:?}: query {i} diverged"
            );
            assert!(
                a.contains("retries=0 failed=0 hedged=0 fraction=1"),
                "{strategy_label} seed {seed}: fault-free run reported robustness \
                 activity: {a}"
            );
        }
    }
}

#[test]
fn no_faults_is_byte_identical_for_single_term() {
    assert_byte_identical(
        "single-term",
        Arc::new(SingleTermFull),
        FaultPlane::default(),
    );
}

#[test]
fn no_faults_is_byte_identical_for_hdk() {
    assert_byte_identical("hdk", Arc::new(Hdk::default()), FaultPlane::default());
}

#[test]
fn no_faults_is_byte_identical_for_qdi() {
    assert_byte_identical("qdi", Arc::new(Qdi::default()), FaultPlane::default());
}

#[test]
fn inactive_seeded_plane_is_byte_identical() {
    // A seeded plane with zero rates and nothing crashed is inactive: the
    // executor must keep taking the plain probe path.
    assert_byte_identical(
        "hdk+inactive-seeded",
        Arc::new(Hdk::default()),
        FaultPlane::seeded(99),
    );
}

#[test]
fn active_plane_whose_faults_never_fire_is_byte_identical() {
    // Crashing a peer index that does not exist activates the plane — every
    // probe now runs through the retry loop — but no fault can ever fire.
    // This pins the retry path's per-attempt accounting (routing, request and
    // response charges) to the plain path's, byte for byte.
    let mut faults = FaultPlane::seeded(7);
    faults.crash(9_999);
    assert!(faults.is_active());
    assert_byte_identical(
        "hdk+phantom-crash",
        Arc::new(Hdk::default()),
        faults.clone(),
    );
    assert_byte_identical("qdi+phantom-crash", Arc::new(Qdi::default()), faults);
}

/// Builds two identically-warmed replicated networks, crashes `target` on the
/// second, and returns both networks plus the hot request to compare on.
fn warmed_pair(seed: u64) -> (AlvisNetwork, AlvisNetwork, QueryRequest) {
    let c = corpus(250, seed);
    let qs = queries(&c);
    let build = || {
        network(
            &c,
            Arc::new(Hdk::default()),
            Arc::new(HotKeyReplication::new(3)),
            FaultPlane::default(),
            RetryPolicy::default(),
            seed,
        )
    };
    let mut a = build();
    let mut b = build();
    // Identical warmup heats the hot keys over the replication threshold on
    // both networks, so the fault-free and faulted runs compare like for
    // like.
    run(&mut a, &qs);
    run(&mut b, &qs);
    let hot = qs[0].clone();
    let request = QueryRequest::new(hot).from_peer(0).top_k(10);
    (a, b, request)
}

#[test]
fn crashed_primary_mid_schedule_fails_over_to_a_replica() {
    let (mut fault_free, mut faulted, request) = warmed_pair(11);
    let baseline = fault_free.execute(&request).expect("fault-free query");
    assert!(!baseline.results.is_empty());

    // Pick the crash set deterministically from the plan: for a scheduled
    // probe key with replicas, crash the peer its load-aware serve selection
    // currently lands on *and* its primary (they may coincide), leaving at
    // least one live replica holder. The first serve attempt is guaranteed
    // to hit a crashed peer, and failover is forced onto a non-primary
    // replica — which must serve the probe from its synchronized replica
    // store. The querying peer is never crashed, and every other scheduled
    // key must keep at least one live holder.
    let plan = faulted.plan(&request).expect("plan");
    let probe_keys: Vec<TermKey> = plan.probes().map(|n| n.key.clone()).collect();
    let mut crash_set: Option<Vec<usize>> = None;
    for key in &probe_keys {
        let cands = faulted.global_index().serving_candidates(key);
        let Some(sel) = faulted
            .global_index()
            .dht()
            .least_loaded_holder(key.ring_id())
        else {
            continue;
        };
        let primary = cands[0];
        let mut set = vec![sel];
        if primary != sel {
            set.push(primary);
        }
        if set.contains(&request.origin) || !cands.iter().any(|c| !set.contains(c)) {
            continue;
        }
        let safe = probe_keys.iter().all(|k| {
            let ck = faulted.global_index().serving_candidates(k);
            ck.iter().any(|c| !set.contains(c))
        });
        if safe {
            crash_set = Some(set);
            break;
        }
    }
    let crash_set =
        crash_set.expect("a replicated probed key with a surviving replica holder exists");
    for peer in &crash_set {
        faulted.fault_plane_mut().crash(*peer);
    }
    let recovered = faulted.execute(&request).expect("faulted query succeeds");

    // Retry + failover re-serves every probe the crash hit from a surviving
    // replica holder: the answer is the fault-free answer.
    let docs = |r: &alvisp2p_core::request::QueryResponse| {
        r.results
            .iter()
            .map(|d| (d.doc, d.score.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        docs(&baseline),
        docs(&recovered),
        "failover changed the answer"
    );
    assert_eq!(
        recovered.failed_probes, 0,
        "every probe should have been recovered, not recorded as failed"
    );
    assert_eq!(recovered.completeness.fraction(), 1.0);
    assert!(
        recovered.retries > 0,
        "the crash was never even noticed — the test exercised nothing"
    );
    assert!(
        recovered.hedged > 0,
        "no serve was failed over off the crashed primary"
    );
    assert!(
        recovered.bytes >= baseline.bytes,
        "retries cannot make the query cheaper"
    );
}

#[test]
fn crashed_primary_without_replicas_degrades_instead_of_erroring() {
    let seed = 11u64;
    let c = corpus(250, seed);
    let qs = queries(&c);
    let mut net = network(
        &c,
        Arc::new(Hdk::default()),
        Arc::new(NoReplication),
        FaultPlane::default(),
        RetryPolicy::default(),
        seed,
    );
    run(&mut net, &qs);
    let request = QueryRequest::new(qs[0].clone()).from_peer(0).top_k(10);
    let plan = net.plan(&request).expect("plan");
    let probe_keys: Vec<TermKey> = plan.probes().map(|n| n.key.clone()).collect();
    // Crash the primary of the first scheduled probe that is not the origin:
    // with no replicas, nothing can serve its keys.
    let target = probe_keys
        .iter()
        .filter_map(|k| net.global_index().serving_candidates(k).first().copied())
        .find(|p| *p != request.origin)
        .expect("a non-origin primary exists");
    net.fault_plane_mut().crash(target);

    let degraded = net.execute(&request).expect("query must not error");
    assert!(
        degraded.failed_probes > 0,
        "the crashed primary's probes should be recorded as failed"
    );
    assert!(degraded.completeness.is_degraded());
    assert!(degraded.completeness.fraction() < 1.0);
    assert!(
        !degraded.completeness.failures.is_empty(),
        "per-key failure causes must be reported"
    );
    // The schedule continued past the failures: the trace still covers every
    // planned probe (failed ones included), and the query still has answers
    // from the surviving keys whenever any key was servable.
    assert_eq!(
        degraded.trace.probes,
        probe_keys.len(),
        "failures must not truncate the schedule"
    );
}

#[test]
fn routing_failures_no_longer_abort_the_query_stream() {
    // A routing-level `DhtError::LookupFailed` used to surface as
    // `next_event() -> Err`, zeroing out the whole query over one unreachable
    // key. With a hop budget too tight for some lookups — and *no* fault
    // plane at all — every query must still complete, recording the
    // unreachable keys as per-probe failures with a `PeerDown` cause.
    //
    // `LookupFailed` is downgraded in exactly one place, whatever the plane:
    // the same log under the default plane and under a seeded plane that injects
    // nothing must report the same failures, completeness, bytes and hops.
    let seed = 11u64;
    let c = corpus(250, seed);
    let qs = queries(&c);
    let run = |plane: FaultPlane| {
        let mut net = AlvisNetwork::builder()
            .peers(24)
            .strategy_arc(Arc::new(Hdk::default()) as Arc<dyn Strategy>)
            .dht(alvisp2p_dht::DhtConfig {
                max_hops: 1,
                ..Default::default()
            })
            .faults(plane)
            .seed(seed)
            .corpus(&c)
            .build_indexed()
            .expect("valid configuration");
        assert!(!net.fault_plane().is_active());
        let mut reports = Vec::new();
        for (i, text) in qs.iter().take(12).enumerate() {
            let request = QueryRequest::new(text.clone()).from_peer(i % 24).top_k(10);
            let response = net
                .execute(&request)
                .expect("an unreachable key must degrade the answer, not abort the query");
            for (_, cause) in &response.completeness.failures {
                assert_eq!(*cause, alvisp2p_core::fault::FailureCause::PeerDown);
            }
            assert_eq!(response.retries, 0, "routing failures are not retried");
            reports.push((
                response.failed_probes,
                response.completeness,
                response.bytes,
                response.hops,
            ));
        }
        reports
    };
    let reports = run(FaultPlane::default());
    let failed: usize = reports.iter().map(|r| r.0).sum();
    assert!(
        failed > 0,
        "a 1-hop budget over 24 peers must make some lookups fail — \
         the regression check is vacuous"
    );
    assert_eq!(
        reports,
        run(FaultPlane::seeded(seed)),
        "an all-zero seeded plane diverged from the default plane on routing failures"
    );
}

#[test]
fn corrupt_frames_are_absorbed_by_retries_without_changing_the_answer() {
    // Bit-flip corruption is detected by the frame checksum and surfaces as a
    // retryable probe outcome: the retry draws a clean response, so the
    // ranked answer matches the fault-free baseline exactly — corruption may
    // cost bytes, never correctness.
    let seed = 11u64;
    let c = corpus(250, seed);
    let qs = queries(&c);
    let build = |faults: FaultPlane| {
        network(
            &c,
            Arc::new(Hdk::default()),
            Arc::new(NoReplication),
            faults,
            RetryPolicy::default(),
            seed,
        )
    };
    let mut clean = build(FaultPlane::default());
    let mut corrupted = build(FaultPlane::seeded(5).with_corruption(0.05));
    let mut corrupt_frames = 0usize;
    for (i, text) in qs.iter().enumerate() {
        let request = QueryRequest::new(text.clone()).from_peer(i % 24).top_k(10);
        let baseline = clean.execute(&request).expect("clean query");
        let response = corrupted.execute(&request).expect("corrupted query");
        let docs = |r: &alvisp2p_core::request::QueryResponse| {
            r.results
                .iter()
                .map(|d| (d.doc, d.score.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            docs(&baseline),
            docs(&response),
            "query {i}: a corrupt frame leaked into the answer"
        );
        assert_eq!(response.completeness.fraction(), 1.0);
        assert!(
            response.bytes >= baseline.bytes,
            "query {i}: re-probing a corrupt response cannot be free"
        );
        corrupt_frames += response.corrupt_probes;
    }
    assert!(
        corrupt_frames > 0,
        "a 5% corruption rate over the mix must hit some frames — \
         the equivalence check is vacuous"
    );
}

#[test]
fn publish_machinery_is_inert_under_no_faults() {
    // The versioned-publication path must be invisible until publish loss is
    // injected: a build under the default plane acknowledges every publication inline, so
    // the pending set is empty and a re-publication round is a pure no-op —
    // no resends, no applications, not a single byte charged.
    let seed = 29u64;
    let c = corpus(250, seed);
    let mut net = network(
        &c,
        Arc::new(Hdk::default()),
        Arc::new(NoReplication),
        FaultPlane::default(),
        RetryPolicy::default(),
        seed,
    );
    assert_eq!(net.pending_publishes(), 0);
    let before = net.traffic_snapshot();
    assert_eq!(net.republish_round(), (0, 0));
    let delta = net.traffic_snapshot().since(&before);
    assert_eq!(
        delta.bytes_sent(),
        0,
        "an idle republish round charged bytes"
    );
    assert_eq!(delta.messages_sent(), 0);
}

#[test]
fn message_loss_is_absorbed_by_retries() {
    let seed = 29u64;
    let c = corpus(250, seed);
    let qs = queries(&c);
    let mut net = network(
        &c,
        Arc::new(Hdk::default()),
        Arc::new(NoReplication),
        FaultPlane::seeded(5).with_loss(0.10),
        RetryPolicy::default(),
        seed,
    );
    let mut retries = 0usize;
    let mut fraction_sum = 0.0f64;
    let mut count = 0usize;
    for (i, text) in qs.iter().enumerate() {
        let request = QueryRequest::new(text.clone()).from_peer(i % 24).top_k(10);
        let response = net.execute(&request).expect("lossy query still succeeds");
        retries += response.retries;
        fraction_sum += response.completeness.fraction();
        count += 1;
    }
    assert!(retries > 0, "10% loss over the mix must trigger retries");
    let mean_fraction = fraction_sum / count as f64;
    assert!(
        mean_fraction > 0.99,
        "with 2 retries, p(probe exhausted) ~ 0.1^3; mean completeness was {mean_fraction}"
    );
}

#[test]
fn a_warm_network_takes_the_same_fault_decisions_as_a_cold_one() {
    // Routing shortcuts change how a request reaches the primary, never what
    // happens there: under loss + slow + corrupt replies and a crashed
    // primary with replicas, a network whose queriers already hold a
    // shortcut for every key retries, fails over, rejects frames and reports
    // completeness exactly like one that starts cold, query for query — a
    // crashed primary is not a stale shortcut, so failover runs unchanged.
    // Only bytes and hops differ.
    let seed = 11u64;
    let c = corpus(250, seed);
    let plane = FaultPlane::seeded(5)
        .with_loss(0.08)
        .with_slow(0.05)
        .with_corruption(0.05);
    let build = || {
        network(
            &c,
            Arc::new(Hdk::default()),
            Arc::new(HotKeyReplication::new(3)),
            plane.clone(),
            RetryPolicy::default(),
            seed,
        )
    };
    let (mut cold, mut warm) = (build(), build());

    // Heat the hot query's keys over the replication threshold through the
    // load tracker alone: no probe is sent, so neither network learns a
    // shortcut or consumes a query sequence number (the fault draws'
    // coordinates).
    let hot = QueryRequest::new(queries(&c)[0].clone()).from_peer(0);
    let hot_keys: Vec<TermKey> = cold
        .plan(&hot)
        .expect("plan")
        .probes()
        .map(|n| n.key.clone())
        .collect();
    for net in [&mut cold, &mut warm] {
        for key in &hot_keys {
            let primary = net.global_index().responsible_for(key).expect("live");
            for _ in 0..10 {
                net.global_index_mut()
                    .dht_mut()
                    .record_probe(key.ring_id(), primary);
            }
        }
    }
    let crashed = hot_keys
        .iter()
        .find(|key| !cold.global_index().replica_holders_of(key).is_empty())
        .map(|key| cold.global_index().responsible_for(key).expect("live"))
        .expect("a hot key was replicated");
    cold.fault_plane_mut().crash(crashed);
    warm.fault_plane_mut().crash(crashed);

    let requests: Vec<QueryRequest> = queries(&c)
        .into_iter()
        .enumerate()
        .map(|(i, text)| QueryRequest::new(text).from_peer(i % 24).top_k(10))
        .filter(|request| request.origin != crashed)
        .collect();
    for request in &requests {
        for node in warm.plan(request).expect("plan").probes() {
            let primary = warm
                .global_index()
                .responsible_for(&node.key)
                .expect("live");
            warm.global_index_mut().dht_mut().learn_shortcut(
                request.origin,
                node.key.ring_id(),
                primary,
            );
        }
    }

    let (mut retries, mut corrupt, mut hedged, mut failed) = (0, 0, 0, 0);
    let (mut cold_bytes, mut warm_bytes) = (0u64, 0u64);
    for (i, request) in requests.iter().enumerate() {
        let a = cold.execute(request).expect("cold query");
        let b = warm.execute(request).expect("warm query");
        let decisions = |r: &alvisp2p_core::request::QueryResponse| {
            (
                r.results
                    .iter()
                    .map(|d| (d.doc, d.score.to_bits()))
                    .collect::<Vec<_>>(),
                format!("{:?}", r.trace.nodes),
                (r.retries, r.failed_probes, r.corrupt_probes, r.hedged),
                r.completeness.clone(),
            )
        };
        assert_eq!(decisions(&a), decisions(&b), "query {i} diverged");
        assert!(
            b.bytes <= a.bytes && b.hops <= a.hops,
            "query {i} got dearer"
        );
        retries += a.retries;
        corrupt += a.corrupt_probes;
        hedged += a.hedged;
        failed += a.failed_probes;
        cold_bytes += a.bytes;
        warm_bytes += b.bytes;
    }
    // Every fault class fired, so nothing above held vacuously.
    assert!(
        retries > 0 && corrupt > 0 && hedged > 0,
        "{retries} {corrupt} {hedged}"
    );
    assert!(failed > 0, "no probe ever exhausted its retries");
    assert!(warm_bytes < cold_bytes);
    let stats = warm.global_index().dht().shortcut_stats();
    assert!(stats.hits > 0);
    assert_eq!(stats.stale, 0, "a crashed primary is not a stale shortcut");
}

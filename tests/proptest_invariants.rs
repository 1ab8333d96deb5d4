//! Property-based tests over the public API of every crate in the workspace.
//!
//! These cover the invariants the system's correctness rests on: ring arithmetic and
//! responsibility, lookup termination, truncated-posting-list bounds and
//! order-insensitivity, key-lattice algebra, lattice-exploration pruning soundness,
//! analyzer/stemmer behaviour and digest round-trips.

use alvisp2p::core::lattice::{LatticeConfig, NodeOutcome};
use alvisp2p::core::plan::{CursorStep, PlanCursor, PlanDecision, PlanNode, QueryPlan};
use alvisp2p::core::{DocumentDigest, ProbeResult, ScoredRef, TermKey, TruncatedPostingList};
use alvisp2p::dht::{lookup, Dht, DhtConfig, IdDistribution, Peer, Ring, RingId, RoutingStrategy};
use alvisp2p::netsim::{SimRng, TrafficCategory, WireSize, Zipf};
use alvisp2p::textindex::{stem, tokenize, Analyzer, DocId, DocumentStore, InvertedIndex};
use proptest::prelude::*;
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Ring identifiers and responsibility
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn ring_distance_is_zero_iff_equal(a: u64, b: u64) {
        let (ia, ib) = (RingId(a), RingId(b));
        prop_assert_eq!(ia.distance_to(ib) == 0, a == b);
    }

    #[test]
    fn ring_distances_sum_to_ring_size(a: u64, b: u64) {
        prop_assume!(a != b);
        let (ia, ib) = (RingId(a), RingId(b));
        // d(a,b) + d(b,a) == 2^64 (wrapping to 0).
        prop_assert_eq!(ia.distance_to(ib).wrapping_add(ib.distance_to(ia)), 0);
    }

    #[test]
    fn interval_membership_matches_distance_definition(x: u64, from: u64, to: u64) {
        let (ix, ifrom, ito) = (RingId(x), RingId(from), RingId(to));
        let expected = if from == to {
            true
        } else {
            ifrom.distance_to(ix) <= ifrom.distance_to(ito) && x != from
        };
        prop_assert_eq!(ix.in_interval_open_closed(ifrom, ito), expected);
    }

    #[test]
    fn exactly_one_peer_is_responsible_for_any_key(
        ids in proptest::collection::hash_set(any::<u64>(), 1..40),
        key: u64,
    ) {
        let ring = Ring::from_members(ids.iter().enumerate().map(|(i, id)| (RingId(*id), i)));
        let key = RingId(key);
        let responsible: Vec<_> = ring
            .members()
            .iter()
            .filter(|(id, _)| ring.is_responsible(*id, key))
            .collect();
        prop_assert_eq!(responsible.len(), 1);
        prop_assert_eq!(responsible[0].0, ring.successor_of_key(key).unwrap().0);
    }
}

// ---------------------------------------------------------------------------
// DHT lookups
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lookup_always_terminates_at_the_responsible_peer(
        n in 1usize..200,
        strategy_finger: bool,
        seed: u64,
        key: u64,
        origin_raw: usize,
    ) {
        let strategy = if strategy_finger { RoutingStrategy::Finger } else { RoutingStrategy::HopSpace };
        let config = DhtConfig { strategy, ..Default::default() };
        let dht: Dht<Vec<u8>> = Dht::with_peers(config, seed, n);
        let origin = origin_raw % n;
        let key = RingId(key);
        let hops = dht.probe_hops(origin, key).expect("lookup completes");
        // Never more hops than peers, and logarithmic for hop-space routing.
        prop_assert!(hops < n.max(2));
        if !strategy_finger {
            let bound = (n as f64).log2().ceil() as usize + 2;
            prop_assert!(hops <= bound, "hops {} exceeds {} for n={}", hops, bound, n);
        }
        // The peer found is the ground-truth responsible peer.
        let peers: Vec<Peer<Vec<u8>>> = (0..n).map(|i| dht.peer(i).clone()).collect();
        let result = lookup(&peers, dht.ring(), origin, key, 4 * n + 64).unwrap();
        prop_assert_eq!(result.responsible, dht.responsible_for(key).unwrap());
    }

    #[test]
    fn put_get_round_trip_from_any_origin(
        n in 2usize..64,
        seed: u64,
        key in "[a-z]{1,12}",
        value in proptest::collection::vec(any::<u8>(), 0..64),
        from_raw: usize,
        to_raw: usize,
    ) {
        let mut dht: Dht<Vec<u8>> = Dht::with_peers(
            DhtConfig { id_distribution: IdDistribution::Uniform, ..Default::default() },
            seed,
            n,
        );
        let ring_key = RingId::hash_str(&key);
        dht.put(from_raw % n, ring_key, value.clone(), TrafficCategory::Indexing).unwrap();
        let (_, got) = dht.get(to_raw % n, ring_key, TrafficCategory::Retrieval).unwrap();
        prop_assert_eq!(got, Some(value));
    }
}

// ---------------------------------------------------------------------------
// Truncated posting lists
// ---------------------------------------------------------------------------

fn scored_refs(max: usize) -> impl Strategy<Value = Vec<ScoredRef>> {
    proptest::collection::vec(
        (0u32..200, 0u32..2000, 0u32..10_000).prop_map(|(peer, local, s)| ScoredRef {
            doc: DocId::new(peer, local),
            score: f64::from(s) / 100.0,
        }),
        0..max,
    )
}

proptest! {
    #[test]
    fn truncated_list_is_bounded_sorted_and_counts_df(
        refs in scored_refs(300),
        capacity in 1usize..50,
    ) {
        let list = TruncatedPostingList::from_refs(refs.clone(), capacity);
        prop_assert!(list.len() <= capacity);
        // Sorted by descending score.
        for w in list.refs().windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        // full_df counts distinct matching documents. A document republished after it
        // was already truncated away cannot be recognised as a duplicate (the list
        // deliberately keeps no memory of dropped references), so with duplicate
        // inputs full_df may overcount — but never undercount, and never exceed the
        // number of references seen.
        let distinct: HashSet<_> = refs.iter().map(|r| r.doc).collect();
        prop_assert!(list.full_df() >= distinct.len() as u64);
        prop_assert!(list.full_df() <= refs.len() as u64);
        if distinct.len() == refs.len() {
            prop_assert_eq!(list.full_df(), distinct.len() as u64);
            prop_assert_eq!(list.is_truncated(), distinct.len() > list.len());
        }
        // The stored refs are the top-scored distinct documents: every stored score is
        // >= the best score of any dropped document.
        if let Some(worst) = list.worst_score() {
            let stored: HashSet<_> = list.refs().iter().map(|r| r.doc).collect();
            let mut best_dropped: f64 = f64::NEG_INFINITY;
            for d in &distinct {
                if !stored.contains(d) {
                    let best = refs
                        .iter()
                        .filter(|r| r.doc == *d)
                        .map(|r| r.score)
                        .fold(f64::NEG_INFINITY, f64::max);
                    best_dropped = best_dropped.max(best);
                }
            }
            if best_dropped.is_finite() {
                prop_assert!(worst >= best_dropped);
            }
        }
    }

    #[test]
    fn truncated_list_insertion_is_order_insensitive(
        refs in scored_refs(120),
        capacity in 1usize..40,
        seed: u64,
    ) {
        let forward = TruncatedPostingList::from_refs(refs.clone(), capacity);
        let mut shuffled = refs;
        let mut rng = SimRng::new(seed);
        rng.shuffle(&mut shuffled);
        let reordered = TruncatedPostingList::from_refs(shuffled, capacity);
        prop_assert_eq!(forward.refs(), reordered.refs());
        prop_assert_eq!(forward.full_df(), reordered.full_df());
    }

    #[test]
    fn merge_never_loses_the_best_documents(
        a in scored_refs(80),
        b in scored_refs(80),
        capacity in 1usize..30,
    ) {
        let la = TruncatedPostingList::from_refs(a.clone(), capacity);
        let lb = TruncatedPostingList::from_refs(b.clone(), capacity);
        let mut merged = la.clone();
        merged.merge(&lb);
        prop_assert!(merged.len() <= capacity);
        // The overall best stored score survives the merge.
        let best_either = la
            .best_score()
            .into_iter()
            .chain(lb.best_score())
            .fold(f64::NEG_INFINITY, f64::max);
        if best_either.is_finite() {
            prop_assert_eq!(merged.best_score().unwrap(), best_either);
        }
        // Wire size is the exact codec frame length, bounded by the codec's
        // worst case for a list of this capacity.
        prop_assert!(merged.wire_size() <= alvisp2p::core::codec::max_encoded_list_len(capacity));
    }
}

// ---------------------------------------------------------------------------
// Term keys and the query lattice
// ---------------------------------------------------------------------------

fn term() -> impl Strategy<Value = String> {
    "[a-e]{1,3}"
}

proptest! {
    #[test]
    fn key_canonical_form_is_order_insensitive(
        terms in proptest::collection::vec(term(), 1..5),
        seed: u64,
    ) {
        let key = TermKey::new(terms.clone());
        let mut shuffled = terms;
        let mut rng = SimRng::new(seed);
        rng.shuffle(&mut shuffled);
        let key2 = TermKey::new(shuffled);
        prop_assert_eq!(&key, &key2);
        prop_assert_eq!(key.ring_id(), key2.ring_id());
    }

    #[test]
    fn subset_lattice_is_complete_and_ordered(
        terms in proptest::collection::hash_set(term(), 1..5),
    ) {
        let key = TermKey::new(terms);
        let subsets = key.all_subsets_desc();
        prop_assert_eq!(subsets.len(), (1usize << key.len()) - 1);
        for w in subsets.windows(2) {
            prop_assert!(w[0].len() >= w[1].len());
        }
        // Every subset is dominated by (or equal to) the query key.
        for s in &subsets {
            prop_assert!(s == &key || key.dominates(s));
        }
    }

    #[test]
    fn lattice_exploration_never_probes_a_dominated_node_after_a_complete_result(
        query_terms in proptest::collection::hash_set(term(), 2..5),
        indexed in proptest::collection::vec(
            proptest::collection::hash_set(term(), 1..4),
            0..6
        ),
        complete_flags in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let query = TermKey::new(query_terms);
        // Build a fake index: some keys present, some complete, some truncated.
        let mut table: Vec<(TermKey, bool)> = Vec::new();
        for (i, terms) in indexed.into_iter().enumerate() {
            let complete = complete_flags.get(i).copied().unwrap_or(false);
            table.push((TermKey::new(terms), complete));
        }
        let make_list = |complete: bool| {
            let mut list = TruncatedPostingList::new(2);
            list.insert(ScoredRef { doc: DocId::new(0, 0), score: 1.0 });
            if !complete {
                list.insert(ScoredRef { doc: DocId::new(0, 1), score: 0.9 });
                list.insert(ScoredRef { doc: DocId::new(0, 2), score: 0.8 });
            }
            list
        };
        // Every lattice node scheduled as a probe: the cursor alone prunes.
        let lattice =
            LatticeConfig { max_probe_len: 0, max_probes: 1024, prune_below_truncated: true };
        let plan = QueryPlan {
            query_key: Some(query.clone()),
            nodes: query
                .all_subsets_desc()
                .into_iter()
                .map(|key| PlanNode {
                    key,
                    decision: PlanDecision::Probe,
                    est_hops: 0,
                    est_bytes: 0,
                    est_entries: 0,
                })
                .collect(),
            ..QueryPlan::default()
        };
        let mut cursor = PlanCursor::new(plan, &lattice, None);
        let mut probed: Vec<TermKey> = Vec::new();
        while let CursorStep::Probe(k) = cursor.next_key(0) {
            probed.push(k.clone());
            let entry = table.iter().find(|(tk, _)| *tk == k);
            cursor.record(ProbeResult {
                postings: entry.map(|(_, complete)| make_list(*complete)),
                key: k,
                hops: 1,
                via_shortcut: false,
                responsible: 0,
                served_by: 0,
                replica_set: Vec::new(),
            });
        }
        let (result, _) = cursor.finish();

        // Soundness of pruning: no probed node is a strict subset of a previously
        // *found* node (found nodes always prune their sub-lattice here).
        for (i, node) in probed.iter().enumerate() {
            for earlier in &probed[..i] {
                let found_earlier = result
                    .trace
                    .outcome_of(earlier)
                    .map(|o| matches!(o, NodeOutcome::Found { .. }))
                    .unwrap_or(false);
                if found_earlier {
                    prop_assert!(
                        !earlier.dominates(node),
                        "probed {node:?} although {earlier:?} was already found"
                    );
                }
            }
        }
        // Every lattice node appears exactly once in the trace.
        prop_assert_eq!(result.trace.nodes.len(), (1usize << query.len()) - 1);
    }
}

// ---------------------------------------------------------------------------
// Query planning and budget-aware execution
// ---------------------------------------------------------------------------

/// Words that appear in the demo corpus (plus one that does not), so generated
/// queries exercise found, truncated and missing lattice nodes.
const QUERY_POOL: &[&str] = &[
    "peer",
    "retrieval",
    "index",
    "overlay",
    "network",
    "congestion",
    "posting",
    "truncated",
    "access",
    "rights",
    "quality",
    "library",
    "zebra", // not in the corpus: df 0
];

fn pool_query(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|i| QUERY_POOL[i % QUERY_POOL.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

fn demo_net(strategy_pick: u8, seed: u64) -> alvisp2p::core::AlvisNetwork {
    use alvisp2p::prelude::*;
    let builder = AlvisNetwork::builder()
        .peers(4)
        .seed(seed)
        .documents(demo_corpus());
    let builder = match strategy_pick % 3 {
        0 => builder.strategy(SingleTermFull),
        1 => builder.strategy(Hdk::new(alvisp2p::core::HdkConfig {
            df_max: 2,
            truncation_k: 4,
            ..Default::default()
        })),
        _ => builder.strategy(Qdi::new(alvisp2p::core::QdiConfig {
            activation_threshold: 2,
            truncation_k: 3,
            ..Default::default()
        })),
    };
    builder.build_indexed().expect("valid configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) A query never spends more than its byte budget: the Reserve rule
    /// admits a probe only if its upper-bound cost still fits. The demo
    /// queries spend well under the drawn budget, so each also runs under
    /// one below its unbudgeted spend (the drawn budget modulo that spend),
    /// which must bind.
    #[test]
    fn planned_execution_never_exceeds_budgets(
        strategy_pick: u8,
        picks in proptest::collection::vec(0usize..QUERY_POOL.len(), 1..5),
        byte_budget in 0u64..6_000,
        origin in 0usize..4,
    ) {
        use alvisp2p::prelude::*;
        let request = QueryRequest::new(pool_query(&picks)).from_peer(origin);
        let free = demo_net(strategy_pick, 11).execute(&request).unwrap().bytes;
        for budget in [byte_budget, byte_budget % free.max(1)] {
            let response = demo_net(strategy_pick, 11)
                .execute(&request.clone().byte_budget(budget))
                .unwrap();
            prop_assert!(
                response.bytes <= budget,
                "spent {} bytes with budget {}",
                response.bytes,
                budget
            );
            if budget < free {
                prop_assert!(response.budget_exhausted, "budget {} below {}", budget, free);
            }
        }
    }

    /// (a') A budget that never binds leaves the walk as it is without one:
    /// same trace, same bytes, same documents with the same score bits.
    #[test]
    fn an_unbinding_budget_leaves_the_walk_unchanged(
        strategy_pick: u8,
        picks in proptest::collection::vec(0usize..QUERY_POOL.len(), 1..5),
        origin in 0usize..4,
    ) {
        use alvisp2p::prelude::*;
        let request = QueryRequest::new(pool_query(&picks)).from_peer(origin);
        let free = demo_net(strategy_pick, 13).execute(&request).unwrap();
        let budgeted = demo_net(strategy_pick, 13)
            .execute(&request.clone().byte_budget(u64::MAX))
            .unwrap();
        let bits = |r: &QueryResponse| -> Vec<(DocId, u64)> {
            r.results.iter().map(|d| (d.doc, d.score.to_bits())).collect()
        };
        prop_assert_eq!(&budgeted.trace.nodes, &free.trace.nodes);
        prop_assert_eq!(budgeted.bytes, free.bytes);
        prop_assert_eq!(bits(&budgeted), bits(&free));
        prop_assert!(!budgeted.budget_exhausted);
    }

    /// (a'') Every probe charges at most its plan node's `est_bytes`: the
    /// upper bound the Reserve rule's guarantee rests on.
    #[test]
    fn every_probe_charges_at_most_its_estimate(
        strategy_pick: u8,
        picks in proptest::collection::vec(0usize..QUERY_POOL.len(), 1..5),
        origin in 0usize..4,
    ) {
        use alvisp2p::prelude::*;
        let mut net = demo_net(strategy_pick, 17);
        let request = QueryRequest::new(pool_query(&picks)).from_peer(origin);
        let plan = net.plan(&request).unwrap();
        let mut stream = net.stream(plan.clone(), request).unwrap();
        while let Some(event) = stream.next_event() {
            let event = event.unwrap();
            let node = plan.probes().find(|n| n.key == event.key).unwrap();
            prop_assert!(
                event.bytes <= node.est_bytes,
                "{} charged {} bytes, estimated at most {}",
                event.key,
                event.bytes,
                node.est_bytes
            );
        }
    }

    /// (b) Every plan's probes are a subset of the query's full lattice, cover
    /// it exactly once, and contain no duplicates.
    #[test]
    fn plans_cover_the_lattice_without_duplicates(
        strategy_pick: u8,
        picks in proptest::collection::hash_set(0usize..QUERY_POOL.len(), 1..5),
    ) {
        use alvisp2p::prelude::*;
        let net = demo_net(strategy_pick, 7);
        let picks: Vec<usize> = picks.into_iter().collect();
        let request = QueryRequest::new(pool_query(&picks));
        let plan = net.plan(&request).unwrap();
        let Some(query_key) = plan.query_key.clone() else {
            prop_assert!(plan.nodes.is_empty());
            return;
        };
        let lattice: HashSet<TermKey> = query_key.all_subsets_desc().into_iter().collect();
        // The plan enumerates the full lattice exactly once…
        prop_assert_eq!(plan.nodes.len(), lattice.len());
        let mut seen: HashSet<TermKey> = HashSet::new();
        for node in &plan.nodes {
            prop_assert!(lattice.contains(&node.key), "{} not in lattice", node.key);
            prop_assert!(seen.insert(node.key.clone()), "duplicate node {}", node.key);
        }
        // …and the scheduled probes are a (dedup-free) subset of it.
        prop_assert!(plan.scheduled_probes() <= lattice.len());
    }

    /// (c) Running a plan through the network's stream reproduces a
    /// bare `PlanCursor` walk of the same plan over direct probes, key for
    /// key on budget-free queries: same nodes, same outcomes, same order,
    /// same traffic.
    #[test]
    fn best_effort_reproduces_pre_planner_traces(
        strategy_pick: u8,
        picks in proptest::collection::vec(0usize..QUERY_POOL.len(), 1..5),
        origin in 0usize..4,
    ) {
        use alvisp2p::prelude::*;
        let text = pool_query(&picks);

        // The network's path: plan, run the plan.
        let mut planned_net = demo_net(strategy_pick, 23);
        let request = QueryRequest::new(text).from_peer(origin);
        let plan = planned_net.plan(&request).unwrap();
        let response = planned_net.run(&plan, &request).unwrap();

        // Reference: the same plan walked by a bare `PlanCursor` over direct
        // `GlobalIndex::probe` calls on an identically-built network.
        let mut reference_net = demo_net(strategy_pick, 23);
        let plan = reference_net.plan(&request).unwrap();
        if plan.query_key.is_none() {
            prop_assert!(response.trace.nodes.is_empty());
            return;
        }
        let lattice = reference_net.strategy().lattice_config(&reference_net.config().lattice);
        let capacity = reference_net.strategy().truncation_k();
        let seq = reference_net.queries_processed() + 1;
        let before = reference_net.traffic_snapshot();
        let spent = |net: &AlvisNetwork| {
            net.traffic_snapshot()
                .since(&before)
                .category(TrafficCategory::Retrieval)
                .bytes
        };
        let mut cursor = PlanCursor::new(plan, &lattice, None);
        while let CursorStep::Probe(key) = cursor.next_key(spent(&reference_net)) {
            match reference_net
                .global_index_mut()
                .probe(origin, &key, seq, capacity, 0, None)
                .unwrap()
            {
                ProbeOutcome::Ok(probe) => cursor.record(probe),
                failed => panic!("no fault plane is set: {failed:?}"),
            };
        }
        let reference_bytes = spent(&reference_net);
        let (reference, _) = cursor.finish();

        prop_assert_eq!(&response.trace.nodes, &reference.trace.nodes);
        prop_assert_eq!(response.trace.probes, reference.trace.probes);
        prop_assert_eq!(response.hops, reference.trace.hops);
        prop_assert_eq!(response.bytes, reference_bytes);
    }
}

// ---------------------------------------------------------------------------
// Fault plane defaults
// ---------------------------------------------------------------------------

/// `demo_net` with an explicit fault configuration. With `phantom_active` the
/// plane is *active* (a nonexistent peer is crashed, so every probe runs
/// through the retry loop) but no fault can ever fire.
fn demo_net_with_faults(
    strategy_pick: u8,
    seed: u64,
    phantom_active: bool,
) -> alvisp2p::core::AlvisNetwork {
    use alvisp2p::prelude::*;
    let faults = if phantom_active {
        let mut f = FaultPlane::seeded(seed);
        f.crash(9_999);
        f
    } else {
        FaultPlane::default()
    };
    let builder = AlvisNetwork::builder()
        .peers(4)
        .seed(seed)
        .faults(faults)
        .retry_policy(RetryPolicy::default())
        .documents(demo_corpus());
    let builder = match strategy_pick % 3 {
        0 => builder.strategy(SingleTermFull),
        1 => builder.strategy(Hdk::new(alvisp2p::core::HdkConfig {
            df_max: 2,
            truncation_k: 4,
            ..Default::default()
        })),
        _ => builder.strategy(Qdi::new(alvisp2p::core::QdiConfig {
            activation_threshold: 2,
            truncation_k: 3,
            ..Default::default()
        })),
    };
    builder.build_indexed().expect("valid configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The default plane plus the default `RetryPolicy` is byte-identical to a
    /// network built without any fault configuration — same documents and
    /// score bits, same trace, same bytes and hops — and so is an *active*
    /// plane whose faults never fire (pinning the retry loop's per-attempt
    /// accounting). Robustness counters stay at zero either way.
    #[test]
    fn fault_plane_defaults_are_byte_identical(
        strategy_pick: u8,
        picks in proptest::collection::vec(0usize..QUERY_POOL.len(), 1..5),
        origin in 0usize..4,
        seed in 1u64..64,
        phantom_active: bool,
    ) {
        use alvisp2p::prelude::*;
        let text = pool_query(&picks);
        let mut plain = demo_net(strategy_pick, seed);
        let mut observed = demo_net_with_faults(strategy_pick, seed, phantom_active);
        let request = QueryRequest::new(text).from_peer(origin).top_k(10);
        let a = plain.execute(&request).unwrap();
        let b = observed.execute(&request).unwrap();
        let docs = |r: &QueryResponse| {
            r.results
                .iter()
                .map(|d| (d.doc, d.score.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(docs(&a), docs(&b));
        prop_assert_eq!(&a.trace.nodes, &b.trace.nodes);
        prop_assert_eq!(a.hops, b.hops);
        prop_assert_eq!(a.bytes, b.bytes);
        prop_assert_eq!(a.messages, b.messages);
        for r in [&a, &b] {
            prop_assert_eq!(r.retries, 0);
            prop_assert_eq!(r.failed_probes, 0);
            prop_assert_eq!(r.hedged, 0);
            prop_assert_eq!(r.completeness.fraction(), 1.0);
            prop_assert!(!r.completeness.is_degraded());
        }
    }
}

// ---------------------------------------------------------------------------
// Text analysis, index and digest
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn stemming_shrinks_terminates_and_preserves_the_alphabet(word in "[a-z]{1,15}") {
        // Porter stemming is not idempotent for arbitrary letter strings (e.g. a stem
        // ending in "-se" loses the "e" first and the "s" on a second pass), but it is
        // a contraction: every application either leaves the word alone or produces a
        // word that is no longer, and repeated application reaches a fixed point.
        let once = stem(&word);
        prop_assert!(!once.is_empty());
        prop_assert!(once.len() <= word.len());
        prop_assert!(once.bytes().all(|b| b.is_ascii_lowercase()));
        let mut current = once;
        for _ in 0..word.len() + 1 {
            let next = stem(&current);
            prop_assert!(next.len() <= current.len());
            if next == current {
                break;
            }
            current = next;
        }
        prop_assert_eq!(stem(&current), current.clone(), "stemming never reached a fixed point");
        // Short words are never touched.
        if word.len() <= 2 {
            prop_assert_eq!(stem(&word), word);
        }
    }

    #[test]
    fn tokenizer_positions_are_strictly_increasing(text in ".{0,300}") {
        let tokens = tokenize(&text);
        for w in tokens.windows(2) {
            prop_assert!(w[0].position < w[1].position);
        }
        for t in &tokens {
            prop_assert!(!t.text.is_empty());
            prop_assert!(t.text.chars().all(|c| c.is_alphanumeric()));
        }
    }

    #[test]
    fn index_df_matches_document_membership(
        docs in proptest::collection::vec("[a-d ]{0,60}", 1..12),
    ) {
        let analyzer = Analyzer::plain();
        let mut index = InvertedIndex::new(analyzer.clone());
        for (i, d) in docs.iter().enumerate() {
            index.index_text(DocId::new(0, i as u32), d);
        }
        // For every indexed term, df equals the number of documents whose analyzed
        // term set contains it.
        for term in index.vocabulary().map(str::to_string).collect::<Vec<_>>() {
            let expected = docs
                .iter()
                .filter(|d| analyzer.analyze_distinct(d).contains(&term))
                .count();
            prop_assert_eq!(index.df(&term), expected);
        }
        prop_assert_eq!(index.doc_count(), docs.len());
    }

    #[test]
    fn digest_round_trip_preserves_the_index(
        docs in proptest::collection::vec("[a-f]{1,8}( [a-f]{1,8}){0,20}", 1..8),
    ) {
        let analyzer = Analyzer::default();
        let mut store = DocumentStore::new(3);
        for (i, body) in docs.iter().enumerate() {
            store.publish(format!("doc {i}"), body.clone());
        }
        let digest = DocumentDigest::from_collection(&store, &analyzer);
        let json = digest.to_json().unwrap();
        let parsed = DocumentDigest::from_json(&json).unwrap();
        prop_assert_eq!(&parsed, &digest);

        let mut direct = InvertedIndex::default();
        for (i, doc) in store.iter().enumerate() {
            direct.index_text(DocId::new(9, i as u32), &format!("{} {}", doc.title, doc.body));
        }
        let mut imported = InvertedIndex::default();
        parsed.import_into(&mut imported, 9, 0);
        prop_assert_eq!(imported.doc_count(), direct.doc_count());
        for term in direct.vocabulary().map(str::to_string).collect::<Vec<_>>() {
            prop_assert_eq!(imported.df(&term), direct.df(&term));
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_monotone(n in 1usize..300, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        for r in 1..n {
            prop_assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
    }
}

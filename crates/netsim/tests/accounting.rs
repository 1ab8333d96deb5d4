//! Accounting reconciliation: every byte the upper layers charge against the
//! [`TrafficCategory`] ledger is attributed to the category that caused it.
//!
//! Control-plane recovery traffic — anti-entropy replica repair and
//! lost-publication re-sends — lands in [`TrafficCategory::Overlay`]
//! byte-for-byte, and never leaks into the `Retrieval` (or, for
//! re-publication, `Indexing`) books that the paper's per-query traffic
//! figures are computed from. Publications and probes reconcile message by
//! message against their routes. The dht and core crates are dev-dependencies
//! here (a cycle cargo permits) precisely so this crate can audit what its
//! ledger is told from above.

mod control_plane_ledger {
    //! Repair and re-publication bytes reconcile against the traffic ledger.

    use std::sync::Arc;

    use alvisp2p_core::fault::FaultPlane;
    use alvisp2p_core::{AlvisNetwork, Hdk};
    use alvisp2p_dht::{CopyDigest, Dht, DhtConfig, HotKeyReplication, RingId};
    use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
    use alvisp2p_netsim::{TrafficCategory, WireSize};

    /// Anti-entropy repair traffic reconciles byte-exactly: the Overlay delta
    /// of one repair round equals the digest exchanges plus the repair pulls
    /// the round reports, and not a single repair byte lands in Retrieval.
    #[test]
    fn repair_round_bytes_reconcile_exactly_and_stay_out_of_retrieval() {
        let mut dht: Dht<Vec<u8>> = Dht::with_peers(DhtConfig::default(), 11, 24);
        dht.set_replication_policy(Arc::new(HotKeyReplication::new(3)));
        let key = RingId::hash_str("audited key");
        let stale = vec![1u8; 40];
        let fresh = vec![9u8; 40];
        dht.put(0, key, stale, TrafficCategory::Indexing).unwrap();
        let primary = dht.responsible_for(key).unwrap();
        for _ in 0..10 {
            dht.record_probe(key, primary);
        }
        assert_eq!(dht.replica_holders(key).len(), 3);
        // An update whose replica syncs are all dropped: the three holders
        // keep the stale copy, and the next repair round must pull three.
        dht.put(0, key, fresh.clone(), TrafficCategory::Indexing)
            .unwrap();
        dht.sync_replicas(key, TrafficCategory::Indexing, |_, _| true);

        let before = dht.stats_snapshot();
        let report = dht.repair_round();
        let delta = dht.stats_snapshot().since(&before);

        assert_eq!(report.stale, 3);
        assert_eq!(report.repaired, 3);
        let digest_bytes =
            report.digests_exchanged * 2 * (CopyDigest::WIRE_BYTES + ENVELOPE_OVERHEAD);
        let pull_bytes = report.repaired * (8 + fresh.wire_size() + ENVELOPE_OVERHEAD);
        assert_eq!(
            delta.category(TrafficCategory::Overlay).bytes,
            (digest_bytes + pull_bytes) as u64,
            "every Overlay byte of the round is a digest exchange or a pull"
        );
        assert_eq!(delta.category(TrafficCategory::Retrieval).bytes, 0);
        assert_eq!(delta.category(TrafficCategory::Indexing).bytes, 0);

        // A converged ring still pays for its digest exchanges — and for
        // nothing else.
        let before = dht.stats_snapshot();
        let report = dht.repair_round();
        let delta = dht.stats_snapshot().since(&before);
        assert_eq!(report.repaired, 0);
        assert_eq!(
            delta.category(TrafficCategory::Overlay).bytes,
            (report.digests_exchanged * 2 * (CopyDigest::WIRE_BYTES + ENVELOPE_OVERHEAD)) as u64
        );
        assert_eq!(delta.category(TrafficCategory::Retrieval).bytes, 0);
    }

    /// Draining the re-publication queue after a lossy index build charges
    /// Overlay only: no re-send byte is booked as first-time Indexing traffic
    /// and none leaks into the Retrieval books.
    #[test]
    fn republish_traffic_is_overlay_never_retrieval_or_indexing() {
        let docs = (0..12).map(|i| {
            (
                format!("doc{i}"),
                format!("peer to peer retrieval of distributed document {i} index"),
            )
        });
        let mut net = AlvisNetwork::builder()
            .peers(4)
            .strategy(Hdk::default())
            .seed(7)
            .documents(docs)
            .build()
            .expect("valid configuration");
        net.set_fault_plane(FaultPlane::seeded(9).with_publish_loss(0.4));
        net.build_index();
        assert!(
            net.pending_publishes() > 0,
            "the lossy build must drop some"
        );

        let before = net.traffic_snapshot();
        let mut rounds = 0;
        while net.pending_publishes() > 0 {
            net.republish_round();
            rounds += 1;
            assert!(rounds < 200, "re-publication did not converge");
        }
        let delta = net.traffic_snapshot().since(&before);
        assert!(delta.category(TrafficCategory::Overlay).bytes > 0);
        assert_eq!(delta.category(TrafficCategory::Retrieval).bytes, 0);
        assert_eq!(
            delta.category(TrafficCategory::Indexing).bytes,
            0,
            "a re-send is control-plane traffic, not a fresh publication"
        );
    }
}

mod publish_ledger {
    //! One publication batch's Indexing ledger: per destination, the lookup
    //! messages of one route to the frame's first key plus one frame
    //! carrying every key frame and delta frame bound for that primary.

    use std::collections::BTreeMap;

    use alvisp2p_core::{GlobalIndex, ScoredRef, TermKey, TruncatedPostingList};
    use alvisp2p_dht::DhtConfig;
    use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
    use alvisp2p_netsim::{TrafficCategory, WireSize};
    use alvisp2p_textindex::DocId;

    const PEERS: usize = 32;
    const PUBLISHER: usize = 5;
    const SEED: u64 = 11;

    fn delta(entries: u32) -> TruncatedPostingList {
        TruncatedPostingList::from_refs(
            (0..entries).map(|i| ScoredRef {
                doc: DocId::new(PUBLISHER as u32, i),
                score: f64::from(entries - i) * 0.5,
            }),
            64,
        )
    }

    fn forwarded_lookups(index: &GlobalIndex) -> u64 {
        let dht = index.dht();
        (0..dht.peer_slots())
            .map(|p| dht.peer(p).forwarded_lookups)
            .sum()
    }

    #[test]
    fn a_batch_charges_one_route_and_one_frame_per_destination() {
        let mut index = GlobalIndex::new(DhtConfig::default(), SEED, PEERS);
        let keys: Vec<TermKey> = (0..40)
            .map(|i| TermKey::single(format!("ledger{i}")))
            .collect();
        let deltas: Vec<TruncatedPostingList> = (0..40).map(|i| delta(1 + i % 7)).collect();
        let batch: Vec<(&TermKey, &TruncatedPostingList)> = keys.iter().zip(&deltas).collect();

        // The expected frames: one per primary, routed to its first key.
        let mut frames: BTreeMap<usize, Vec<(&TermKey, &TruncatedPostingList)>> = BTreeMap::new();
        for &(key, delta) in &batch {
            let primary = index.responsible_for(key).unwrap();
            frames.entry(primary).or_default().push((key, delta));
        }
        let m = frames.len();
        assert!(
            1 < m && m < keys.len(),
            "{m} primaries for {} keys",
            keys.len()
        );
        let hop_message = index.dht().config().lookup_request_bytes + ENVELOPE_OVERHEAD;
        assert_eq!(hop_message, 80);
        let mut hops = 0;
        let mut bytes = 0;
        for frame in frames.values() {
            let frame_hops = index
                .dht()
                .probe_hops(PUBLISHER, frame[0].0.ring_id())
                .unwrap();
            let payload: usize = frame
                .iter()
                .map(|(key, delta)| key.wire_size() + delta.wire_size())
                .sum();
            hops += frame_hops;
            bytes += frame_hops * hop_message + ENVELOPE_OVERHEAD + payload;
        }

        let before = index.stats_snapshot();
        let forwarded_before = forwarded_lookups(&index);
        let charged_hops = index.publish_batch(PUBLISHER, &batch, 64).unwrap();
        let delta = index.stats_snapshot().since(&before);
        let indexing = delta.category(TrafficCategory::Indexing);

        assert_eq!(charged_hops, hops);
        assert_eq!(
            indexing.messages,
            (hops + m) as u64,
            "lookups + one frame per destination"
        );
        assert_eq!(indexing.bytes, bytes as u64);
        assert_eq!(
            delta.bytes_sent(),
            indexing.bytes,
            "a publication is Indexing only"
        );
        assert_eq!(forwarded_lookups(&index) - forwarded_before, hops as u64);
        for (key, delta) in &batch {
            let stored = index.peek(key).expect("every key is stored at its primary");
            assert_eq!(stored.postings.refs(), delta.refs());
            assert_eq!(index.publish_version(key), 1);
        }
    }

    #[test]
    fn a_batch_of_one_charges_what_a_lone_publication_always_did() {
        let key = TermKey::new(["ledger", "single"]);
        let lone = delta(9);
        let charge = |publish: fn(&mut GlobalIndex, &TermKey, &TruncatedPostingList)| {
            let mut index = GlobalIndex::new(DhtConfig::default(), SEED, PEERS);
            publish(&mut index, &key, &lone);
            index.stats().category(TrafficCategory::Indexing)
        };
        let single = charge(|index, key, delta| {
            index.publish_postings(PUBLISHER, key, delta, 64).unwrap();
        });
        let batched = charge(|index, key, delta| {
            index.publish_batch(PUBLISHER, &[(key, delta)], 64).unwrap();
        });
        assert_eq!(single, batched);
        // What one routed publication charged before publications were
        // batched, pinned at this seed: 3 lookups of 80 B, then 32 B of
        // envelope around a 77 B key + delta frame.
        assert_eq!(key.wire_size() + lone.wire_size(), 77);
        assert_eq!((single.messages, single.bytes), (4, 349));
    }
}

mod probe_ledger {
    //! One probe attempt's Retrieval ledger, however its request reached the
    //! key: `hops` lookup messages that did not deliver the request, the
    //! request itself, and — when the serving side answered — the response.

    use std::sync::Arc;

    use alvisp2p_core::codec::encode_list;
    use alvisp2p_core::fault::ProbeOutcome;
    use alvisp2p_core::{AlvisNetwork, Hdk, ProbeResult, TermKey};
    use alvisp2p_dht::HotKeyReplication;
    use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
    use alvisp2p_netsim::{TrafficCategory, WireSize};

    const PEERS: usize = 32;

    fn indexed() -> AlvisNetwork {
        let docs = (0..12).map(|i| {
            (
                format!("doc{i}"),
                format!("peer to peer retrieval of distributed document {i} index"),
            )
        });
        AlvisNetwork::builder()
            .peers(PEERS)
            .strategy(Hdk::default())
            .seed(7)
            .documents(docs)
            .build_indexed()
            .expect("valid configuration")
    }

    /// An activated key, an origin its greedy lookup takes at least two hops
    /// from (so a routed probe charges a lookup message at all), and that
    /// hop count.
    fn two_hops_away(net: &AlvisNetwork) -> (TermKey, usize, usize) {
        let index = net.global_index();
        for key in index.activated_key_list() {
            for origin in 0..PEERS {
                let routed = index.dht().probe_hops(origin, key.ring_id()).unwrap();
                if routed >= 2 {
                    return (key, origin, routed);
                }
            }
        }
        panic!("no activated key is two hops from any origin");
    }

    /// Sends one probe attempt for `key` from `origin` and reconciles its
    /// Retrieval delta: `messages == hops + 1 + answered` and
    /// `bytes == hops · 80 + request + response`, where the response is
    /// charged unless the request was lost or met a down server.
    fn reconciled_attempt(
        net: &mut AlvisNetwork,
        origin: usize,
        key: &TermKey,
        attempt: u32,
        serve_override: Option<usize>,
    ) -> ProbeOutcome {
        let before = net.traffic_snapshot();
        let outcome = net
            .global_index_mut()
            .probe(origin, key, 0, 10, None, attempt, serve_override)
            .expect("a live overlay routes every probe");
        let delta = net.traffic_snapshot().since(&before);
        let (hops, answered) = match &outcome {
            ProbeOutcome::Ok(result) => (result.hops, true),
            ProbeOutcome::TimedOut { hops } | ProbeOutcome::Corrupt { hops } => (*hops, true),
            ProbeOutcome::Lost { hops } | ProbeOutcome::PeerDown { hops, .. } => (*hops, false),
        };
        let index = net.global_index();
        let hop_message = index.dht().config().lookup_request_bytes + ENVELOPE_OVERHEAD;
        assert_eq!(hop_message, 80);
        let request = index.probe_request_bytes() + key.wire_size() + ENVELOPE_OVERHEAD;
        let response = if answered {
            let stored = &index.peek(key).expect("an activated key").postings;
            encode_list(stored, None).len() + ENVELOPE_OVERHEAD
        } else {
            0
        };
        let retrieval = delta.category(TrafficCategory::Retrieval);
        assert_eq!(
            retrieval.messages,
            (hops + 1 + usize::from(answered)) as u64,
            "lookups + request + response != messages at {hops} hops: {outcome:?}"
        );
        assert_eq!(
            retrieval.bytes,
            (hops * hop_message + request + response) as u64,
            "lookups + request + response != bytes at {hops} hops: {outcome:?}"
        );
        assert_eq!(
            delta.bytes_sent(),
            retrieval.bytes,
            "a probe is Retrieval only"
        );
        outcome
    }

    /// [`reconciled_attempt`] for a first attempt that must be served.
    fn reconciled_probe(net: &mut AlvisNetwork, origin: usize, key: &TermKey) -> ProbeResult {
        match reconciled_attempt(net, origin, key, 0, None) {
            ProbeOutcome::Ok(result) => result,
            other => panic!("fault-free probe must be served, got {other:?}"),
        }
    }

    #[test]
    fn probe_bytes_split_exactly_on_a_shortcut_hit_miss_and_stale_entry() {
        let mut net = indexed();
        let (key, origin, routed) = two_hops_away(&net);
        let primary = net.global_index().responsible_for(&key).unwrap();
        let wrong = (0..PEERS).find(|p| *p != primary && *p != origin).unwrap();

        // Routed: the request rides the final hop.
        let miss = reconciled_probe(&mut net, origin, &key);
        assert_eq!((miss.hops, miss.via_shortcut), (routed - 1, false));
        // Fresh shortcut: the request is the dial.
        let hit = reconciled_probe(&mut net, origin, &key);
        assert_eq!((hit.hops, hit.via_shortcut), (0, true));
        // Stale shortcut: one wasted dial, then the routed probe.
        net.global_index_mut()
            .dht_mut()
            .learn_shortcut(origin, key.ring_id(), wrong);
        let stale = reconciled_probe(&mut net, origin, &key);
        assert_eq!((stale.hops, stale.via_shortcut), (routed, false));
        // The primary probing its own key sends no lookup message at all.
        let local = reconciled_probe(&mut net, primary, &key);
        assert_eq!((local.hops, local.via_shortcut), (0, false));
        assert_eq!(hit.postings, miss.postings);
        assert_eq!(stale.postings, miss.postings);
        assert_eq!(local.postings, miss.postings);
    }

    #[test]
    fn replica_served_and_failover_attempts_split_exactly() {
        let mut net = indexed();
        let (key, origin, routed) = two_hops_away(&net);
        let primary = net.global_index().responsible_for(&key).unwrap();
        net.global_index_mut()
            .set_replication_policy(Arc::new(HotKeyReplication::new(3)));
        for _ in 0..10 {
            net.global_index_mut()
                .dht_mut()
                .record_probe(key.ring_id(), primary);
        }
        let holders = net.global_index().replica_holders_of(&key);
        assert_eq!(holders.len(), 3);

        // Replica-served: a holder answers, and the request is charged
        // exactly as if the primary had.
        let served = reconciled_probe(&mut net, origin, &key);
        assert!(holders.contains(&served.served_by));
        assert_eq!((served.hops, served.via_shortcut), (routed - 1, false));

        // Failover: the attempt aimed at the crashed primary pays for its
        // lookups and request but gets no response; the re-sent attempt
        // routes the same way and a holder answers from its replica copy.
        net.fault_plane_mut().crash(primary);
        let second = (0..PEERS).find(|p| *p != primary && *p != origin).unwrap();
        let second_routed = net
            .global_index()
            .dht()
            .probe_hops(second, key.ring_id())
            .unwrap();
        let down = reconciled_attempt(&mut net, second, &key, 0, Some(primary));
        let ProbeOutcome::PeerDown { peer, hops } = down else {
            panic!("the crashed primary cannot serve, got {down:?}");
        };
        assert_eq!((peer, hops), (primary, second_routed - 1));
        let failover = match reconciled_attempt(&mut net, second, &key, 1, Some(holders[0])) {
            ProbeOutcome::Ok(result) => result,
            other => panic!("a live holder serves the failover, got {other:?}"),
        };
        assert_eq!(failover.served_by, holders[0]);
        assert_eq!(
            (failover.hops, failover.via_shortcut),
            (second_routed - 1, false)
        );
        assert_eq!(failover.postings, served.postings);
    }
}

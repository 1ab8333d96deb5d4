//! The global distributed index.
//!
//! The global index maps [`TermKey`]s to [`TruncatedPostingList`]s and is physically
//! scattered over all peers: the peer responsible (in DHT terms) for a key's ring
//! identifier stores its posting list, merges the contributions published by the
//! document-owning peers, and — for Query-Driven Indexing — maintains the usage
//! statistics of the key (how often it was requested) that drive on-demand indexing
//! and eviction.
//!
//! [`GlobalIndex`] wraps the [`Dht`] with typed, traffic-accounted operations; every
//! byte that would cross the network in the deployed system is charged to the
//! appropriate [`TrafficCategory`].
//!
//! It owns the simulated wire, and therefore the [`FaultPlane`] that decides
//! what the wire does to a message. There is **one** probe path
//! ([`GlobalIndex::probe`]) and **one** publication path
//! ([`GlobalIndex::publish_batch`], of which
//! [`GlobalIndex::publish_postings`] is the batch of one); both consult the
//! plane at every point a message could be lost, delayed or damaged, and the
//! overlay's replica sync asks this index, which answers with the plane's
//! draw. An inactive plane answers "no" to every question without drawing
//! randomness and charges nothing extra, so the fault-free system is that
//! same path, not a second one.

use crate::fault::{FaultPlane, ProbeOutcome};
use crate::key::TermKey;
use crate::posting::TruncatedPostingList;
use alvisp2p_dht::{Dht, DhtConfig, DhtError, RingId};
use alvisp2p_netsim::{TrafficCategory, TrafficStats, WireSize};
use std::collections::{BTreeMap, HashMap};

/// Usage statistics of a key, maintained by its responsible peer.
///
/// These statistics implement the "decentralized monitoring of query statistics" of
/// the Query-Driven approach: every probe for the key — whether or not the key is
/// indexed — is observed by exactly the peer that would store it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyUsageStats {
    /// Number of times the key was requested by some querying peer.
    pub probes: u64,
    /// Number of requests answered from an activated (indexed) posting list.
    pub hits: u64,
    /// Global query sequence number of the most recent probe (used for eviction).
    pub last_probe: u64,
}

/// The entry stored in the DHT for one key.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyIndexEntry {
    /// The key itself (kept alongside the hashed identifier for introspection).
    pub key: TermKey,
    /// The (truncated) posting list, meaningful only when `activated` is true.
    pub postings: TruncatedPostingList,
    /// Whether the key is actually indexed. Query-Driven Indexing creates entries with
    /// `activated == false` purely to accumulate usage statistics.
    pub activated: bool,
    /// Usage statistics maintained by the responsible peer.
    pub usage: KeyUsageStats,
}

impl KeyIndexEntry {
    /// Creates a statistics-only (not yet activated) entry.
    pub fn stats_only(key: TermKey, capacity: usize) -> Self {
        KeyIndexEntry {
            key,
            postings: TruncatedPostingList::new(capacity),
            activated: false,
            usage: KeyUsageStats::default(),
        }
    }

    /// Creates an activated entry with the given posting list.
    pub fn activated(key: TermKey, postings: TruncatedPostingList) -> Self {
        KeyIndexEntry {
            key,
            postings,
            activated: true,
            usage: KeyUsageStats::default(),
        }
    }
}

impl WireSize for KeyIndexEntry {
    fn wire_size(&self) -> usize {
        self.key.wire_size() + self.postings.wire_size() + 1 + 24
    }

    /// FNV-1a over the entry's *replicated content*: the key identity, the
    /// activation flag, and every posting reference. Usage statistics are
    /// deliberately excluded — they advance at the primary on every probe
    /// without bumping the publish version, so including them would make
    /// perfectly healthy replica copies look corrupt to anti-entropy repair.
    fn content_digest(&self) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        };
        put(self.key.ring_id().0);
        put(u64::from(self.activated));
        put(self.postings.full_df());
        for r in self.postings.refs() {
            put(r.doc.as_u64());
            put(r.score.to_bits());
        }
        h
    }
}

/// The result of probing the global index for a key.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeResult {
    /// The key that was probed.
    pub key: TermKey,
    /// The posting list, if the key is indexed.
    pub postings: Option<TruncatedPostingList>,
    /// Lookup messages that did not deliver the request: `routed − 1` for a
    /// routed probe (the request rides the final hop), `0` for a fresh
    /// shortcut or a local primary, one more for a stale shortcut's wasted
    /// dial (see [`GlobalIndex::probe`]'s **Placement**).
    pub hops: usize,
    /// The request was dialled straight to the primary through a fresh
    /// routing shortcut of the querier (see [`alvisp2p_dht::shortcut`])
    /// instead of being routed hop by hop.
    pub via_shortcut: bool,
    /// Index of the peer responsible for the key (the primary copy).
    pub responsible: usize,
    /// Index of the peer that actually served the response — the primary, or
    /// the least-loaded live replica when the key is hot-replicated.
    pub served_by: usize,
    /// The peers currently holding replica copies of the key (empty unless a
    /// [`alvisp2p_dht::replica::ReplicationPolicy`] has replicated it).
    pub replica_set: Vec<usize>,
}

impl ProbeResult {
    /// Whether the key was found in the global index.
    pub fn found(&self) -> bool {
        self.postings.is_some()
    }
}

/// One publication: a key and the publisher's delta posting list for it.
type Publication<'a> = (&'a TermKey, &'a TruncatedPostingList);

/// Bytes of a publication frame before its envelope: every key frame and
/// delta frame, concatenated.
fn frame_bytes(frame: &[Publication<'_>]) -> usize {
    frame
        .iter()
        .map(|(key, delta)| key.wire_size() + delta.wire_size())
        .sum()
}

/// One un-acked publication: the frame carrying it was dropped in flight,
/// the delta never applied at the responsible peer, and the publisher
/// retries it on its own on a bounded-backoff schedule (see
/// [`GlobalIndex::republish_round`]).
#[derive(Clone, Debug)]
struct PendingPublish {
    from: usize,
    key: TermKey,
    delta: TruncatedPostingList,
    capacity: usize,
    /// The publish sequence number of the frame that carried the original
    /// publication (the coordinates of its deterministic loss draws).
    seq: u64,
    /// Re-publication attempts so far (the original send is attempt `0`).
    attempts: u32,
    /// First [`GlobalIndex::republish_round`] round allowed to retry this
    /// entry (exponential backoff, capped).
    due_round: u64,
}

/// Cap of the exponential re-publication backoff, in rounds.
const MAX_REPUBLISH_BACKOFF_ROUNDS: u64 = 8;

/// A typed, traffic-accounted view of the distributed index.
pub struct GlobalIndex {
    dht: Dht<KeyIndexEntry>,
    /// Size in bytes of a probe request's fixed header (48 B, the originator
    /// address included). [`GlobalIndex::probe`] charges the key frame
    /// (`key.wire_size()`) on top of it.
    probe_request_bytes: usize,
    /// Monotonic per-key publish versions, bumped on every mutation of a
    /// key's stored entry (publish, on-demand store, deactivation, eviction).
    /// Cached evidence about an entry — its published maximum score in
    /// [`crate::ranking::GlobalRankingStats`] — is only valid while its
    /// recorded version matches the current one.
    versions: HashMap<RingId, u64>,
    /// Publications whose application at the responsible peer has not been
    /// acknowledged, awaiting re-publication. Always empty unless the plane
    /// drops publications.
    pending: Vec<PendingPublish>,
    /// Monotonic sequence number carried by every publication (versioned,
    /// acknowledged publications — the coordinates of loss draws).
    publish_seq: u64,
    /// Logical round counter of the bounded-backoff re-publication schedule.
    republish_rounds: u64,
    /// What the simulated wire does to probes and publications.
    faults: FaultPlane,
}

impl GlobalIndex {
    /// Creates a global index over a freshly built overlay of `n_peers` peers.
    pub fn new(dht_config: DhtConfig, seed: u64, n_peers: usize) -> Self {
        Self::from_dht(Dht::with_peers(dht_config, seed, n_peers))
    }

    /// Wraps an existing overlay.
    pub fn from_dht(dht: Dht<KeyIndexEntry>) -> Self {
        GlobalIndex {
            dht,
            probe_request_bytes: 48,
            versions: HashMap::new(),
            pending: Vec::new(),
            publish_seq: 0,
            republish_rounds: 0,
            faults: FaultPlane::default(),
        }
    }

    /// The fault plane every probe and publication consults (see
    /// [`crate::fault`]).
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.faults
    }

    /// In-place edits of the plane: [`FaultPlane::crash`] and
    /// [`FaultPlane::restore`] between (or during) queries. Assigning a whole
    /// plane through this reference is the same as
    /// [`GlobalIndex::set_fault_plane`]: nothing else holds a copy of it.
    pub fn fault_plane_mut(&mut self) -> &mut FaultPlane {
        &mut self.faults
    }

    /// Replaces the fault plane. Probes, publications and the overlay's
    /// replica syncs all draw from it from the next message on.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.faults = plane;
    }

    /// The underlying overlay (read-only).
    pub fn dht(&self) -> &Dht<KeyIndexEntry> {
        &self.dht
    }

    /// The underlying overlay (mutable; used by churn experiments).
    pub fn dht_mut(&mut self) -> &mut Dht<KeyIndexEntry> {
        &mut self.dht
    }

    /// Number of live peers in the overlay.
    pub fn peer_count(&self) -> usize {
        self.dht.live_peers()
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &TrafficStats {
        self.dht.stats()
    }

    /// Snapshot of the traffic statistics (for per-phase differencing).
    pub fn stats_snapshot(&self) -> TrafficStats {
        self.dht.stats_snapshot()
    }

    /// Resets the traffic statistics.
    pub fn reset_stats(&mut self) {
        self.dht.reset_stats();
    }

    // ------------------------------------------------------------------
    // Publication (indexing phase)
    // ------------------------------------------------------------------

    /// Publishes a delta posting list for `key` from peer `from`: the batch
    /// of one of [`GlobalIndex::publish_batch`], which documents the charge,
    /// the merge and the loss handling. Returns the lookup messages charged.
    pub fn publish_postings(
        &mut self,
        from: usize,
        key: &TermKey,
        delta: &TruncatedPostingList,
        capacity: usize,
    ) -> Result<usize, DhtError> {
        self.publish_batch(from, &[(key, delta)], capacity)
    }

    /// Publishes peer `from`'s delta posting lists for a batch of keys. Each
    /// key's responsible peer merges its delta into the stored entry
    /// (activating it), and every byte is charged to
    /// [`TrafficCategory::Indexing`].
    ///
    /// **Frames.** The publications travel **one frame per destination**.
    /// They are grouped by the primary of each key's ring id (the peer
    /// [`GlobalIndex::responsible_for`] names), frames go out in ascending
    /// order of the primary's peer index, and a frame keeps the batch's key
    /// order. Model assumption: the reply to a lookup names the primary's id
    /// range, so the publisher knows which of its keys share that primary
    /// without looking each one up. Each group is one routed frame: the
    /// lookup for its first key, charged one 80 B lookup message per hop,
    /// then one message carrying every key frame and delta frame of the
    /// group plus one 32 B envelope. There is no count prefix, because key
    /// and list frames are self-delimiting, so a frame of one publication
    /// charges exactly what a lone publication always did. With `L` a lookup
    /// message, `P` a one-key publication (envelope + key frame + delta
    /// frame), `F` a frame (envelope + every key frame and delta frame bound
    /// for one primary) and `h` the hops of a route, `n` keys whose
    /// primaries are `m` distinct peers send:
    ///
    /// | | before: one publication per key | now: one frame per destination |
    /// |---|---|---|
    /// | sequence | per key `Lʰ P` | per destination `Lʰ F` |
    /// | routes, envelopes | `n` | `m` |
    /// | key + delta frame bytes | `Σ` over the `n` keys | the same |
    ///
    /// The primary applies the deltas in the frame's key order. Each key
    /// applied counts as one served request of the primary, brings the
    /// key's replica copies level (a no-op unless it is hot-replicated) and
    /// bumps its publish version, exactly as a lone publication does.
    ///
    /// The charge is the exact [`crate::codec`] frame length of each delta, but —
    /// unlike [`GlobalIndex::probe`], which round-trips through the codec so
    /// queriers observe quantized scores — the merge keeps the publisher's
    /// `f64` scores. This is a deliberate modelling simplification: stored
    /// lists are merged from many deltas over time, and re-quantizing at every
    /// publish would compound one grid-step of error per hop without changing
    /// any byte count; the retrieval path (the paper's cost metric) is where
    /// the quantization is made observable.
    ///
    /// **Faults.** Every frame consumes one monotonic publish sequence
    /// number, and the plane draws once per frame, at the first key's ring
    /// id and that number. When the plane's `publish_loss_rate` drops a frame
    /// in flight, its routing and frame bytes are still charged (the
    /// publisher cannot know in advance), no delta is applied, no publish
    /// version advances, and each of its publications is queued un-acked on
    /// its own for [`GlobalIndex::republish_round`].
    ///
    /// Returns the lookup messages charged over all frames. A frame that
    /// cannot be routed (overlay churn) is dropped, uncharged and unqueued;
    /// the other frames are still sent, and the first such error is
    /// returned.
    pub fn publish_batch(
        &mut self,
        from: usize,
        publications: &[(&TermKey, &TruncatedPostingList)],
        capacity: usize,
    ) -> Result<usize, DhtError> {
        let mut hops = 0;
        let mut failed = None;
        for frame in self.frames(publications)? {
            let seq = self.publish_seq;
            self.publish_seq += 1;
            let sent = if self.faults.publish_lost(frame[0].0.ring_id(), seq, 0) {
                let lost = self.send_lost_frame(from, &frame, TrafficCategory::Indexing);
                if lost.is_ok() {
                    for (key, delta) in frame {
                        self.pending.push(PendingPublish {
                            from,
                            key: key.clone(),
                            delta: delta.clone(),
                            capacity,
                            seq,
                            attempts: 0,
                            due_round: self.republish_rounds + 1,
                        });
                    }
                }
                lost
            } else {
                self.apply_frame(from, &frame, capacity, TrafficCategory::Indexing)
            };
            match sent {
                Ok(frame_hops) => hops += frame_hops,
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        failed.map_or(Ok(hops), Err)
    }

    /// `publications` split into frames, one per primary (see
    /// [`GlobalIndex::publish_batch`]'s **Frames**).
    fn frames<'p>(
        &self,
        publications: &[Publication<'p>],
    ) -> Result<Vec<Vec<Publication<'p>>>, DhtError> {
        let mut frames: BTreeMap<usize, Vec<Publication<'p>>> = BTreeMap::new();
        for &publication in publications {
            let primary = self.dht.responsible_for(publication.0.ring_id())?;
            frames.entry(primary).or_default().push(publication);
        }
        Ok(frames.into_values().collect())
    }

    /// A frame that crosses the wire and arrives: the primary merges each
    /// delta in order, then every key's replica copies are brought level (a
    /// no-op unless the key is hot-replicated) and its publish version
    /// advances.
    // Inlined so that each caller's `category` stays a constant through the
    // routed update: out of line, a first publication measures ~7% slower.
    #[inline]
    fn apply_frame(
        &mut self,
        from: usize,
        frame: &[Publication<'_>],
        capacity: usize,
        category: TrafficCategory,
    ) -> Result<usize, DhtError> {
        let ring_keys: Vec<RingId> = frame.iter().map(|(key, _)| key.ring_id()).collect();
        // The closure borrows the keys and deltas: no copy of a key or of a
        // delta posting list is made to cross the (simulated) wire.
        let info =
            self.dht
                .update_many(from, &ring_keys, frame_bytes(frame), category, |i, slot| {
                    let (key, delta) = frame[i];
                    let entry = slot
                        .get_or_insert_with(|| KeyIndexEntry::stats_only(key.clone(), capacity));
                    entry.postings.merge(delta);
                    entry.activated = true;
                })?;
        for ring_key in ring_keys {
            self.sync_replicas(ring_key, category);
            *self.versions.entry(ring_key).or_insert(0) += 1;
        }
        Ok(info.hops)
    }

    /// Brings `ring_key`'s replica copies level with the primary (a no-op
    /// unless the key is hot-replicated). The overlay asks, per recipient,
    /// whether the sync message is lost; the plane answers.
    fn sync_replicas(&mut self, ring_key: RingId, category: TrafficCategory) {
        let faults = &self.faults;
        self.dht
            .sync_replicas(ring_key, category, |seq, recipient| {
                faults.replica_sync_lost(ring_key, seq, recipient)
            });
    }

    /// A frame dropped in flight: it still crossed part of the wire, so its
    /// routing and frame bytes are charged.
    fn send_lost_frame(
        &mut self,
        from: usize,
        frame: &[Publication<'_>],
        category: TrafficCategory,
    ) -> Result<usize, DhtError> {
        let info = self.dht.route(from, frame[0].0.ring_id(), category)?;
        self.dht.charge_external(category, frame_bytes(frame));
        Ok(info.hops)
    }

    /// Number of publications still awaiting acknowledgement (`0` unless
    /// publish loss is being injected).
    pub fn pending_publishes(&self) -> usize {
        self.pending.len()
    }

    /// One round of the bounded-backoff re-publication schedule: every due
    /// un-acked publication is re-sent on its own, as a frame of one (loss
    /// is drawn at its own key, its frame's sequence number and its attempt
    /// count, so publications lost together recover independently); a
    /// re-send that survives the loss draw is applied at the responsible
    /// peer exactly like a first publication and acknowledged, one that is
    /// lost again (or cannot be routed under overlay churn) backs off
    /// exponentially (capped at 2⁸ rounds). All re-publication traffic is
    /// charged to [`TrafficCategory::Overlay`] — control-plane repair, never
    /// Retrieval or first-publication Indexing.
    ///
    /// Returns `(resent, applied)`. A no-op (both zero) when nothing is
    /// pending — in particular always under a plane that drops no
    /// publication.
    pub fn republish_round(&mut self) -> (usize, usize) {
        self.republish_rounds += 1;
        let round = self.republish_rounds;
        let mut resent = 0usize;
        let mut applied = 0usize;
        let mut still_pending = Vec::new();
        for mut p in std::mem::take(&mut self.pending) {
            if p.due_round > round {
                still_pending.push(p);
                continue;
            }
            p.attempts += 1;
            resent += 1;
            let frame = [(&p.key, &p.delta)];
            let acked = if self.faults.publish_lost(p.key.ring_id(), p.seq, p.attempts) {
                // Lost again (a re-send that cannot even be routed charges
                // nothing).
                let _ = self.send_lost_frame(p.from, &frame, TrafficCategory::Overlay);
                false
            } else {
                // A routing failure (overlay churn) keeps it pending.
                self.apply_frame(p.from, &frame, p.capacity, TrafficCategory::Overlay)
                    .is_ok()
            };
            if acked {
                applied += 1;
            } else {
                let backoff = (1u64 << p.attempts.min(8)).min(MAX_REPUBLISH_BACKOFF_ROUNDS);
                p.due_round = round + backoff;
                still_pending.push(p);
            }
        }
        self.pending = still_pending;
        (resent, applied)
    }

    /// Stores a complete, already-merged posting list for `key` (used by the
    /// Query-Driven on-demand indexing step once the responsible peer has acquired the
    /// list). Charged to [`TrafficCategory::Indexing`].
    pub fn store_acquired(
        &mut self,
        responsible: usize,
        key: &TermKey,
        postings: TruncatedPostingList,
    ) {
        // The acquired list is stored locally at the responsible peer; only the
        // acquisition itself (modelled by the caller) crosses the network.
        let ring_key = key.ring_id();
        let entry = KeyIndexEntry {
            key: key.clone(),
            usage: self
                .dht
                .peer(responsible)
                .store
                .get(&ring_key)
                .map(|e| e.usage)
                .unwrap_or_default(),
            postings,
            activated: true,
        };
        self.dht.peer_mut(responsible).store.insert(ring_key, entry);
        self.sync_replicas(ring_key, TrafficCategory::Indexing);
        *self.versions.entry(ring_key).or_insert(0) += 1;
    }

    // ------------------------------------------------------------------
    // Probing (retrieval phase)
    // ------------------------------------------------------------------

    /// One probe attempt for `key` on behalf of peer `from` — the single way a
    /// posting list leaves the index.
    ///
    /// The probe's request reaches the key's primary over the overlay (see
    /// **Placement**; every message charged to
    /// [`TrafficCategory::Retrieval`]); the responsible peer updates the key's usage
    /// statistics (creating a statistics-only entry if the key is unknown, exactly as
    /// QDI prescribes) and returns the posting list if the key is activated. The
    /// response **round-trips through the wire codec** ([`crate::codec`]): the
    /// serving peer encodes its stored list, the encoded length is charged
    /// to [`TrafficCategory::Retrieval`], and the querier decodes it back —
    /// checksum-verified — so the returned scores carry the codec's `u16`
    /// quantization and the simulator charges exactly what the codec produced.
    ///
    /// **Placement.** The request reaches the key's *primary*
    /// ([`alvisp2p_dht::Dht::route_probe`]; a served response teaches `from`
    /// the shortcut). The request message is itself the last overlay step:
    /// an attempt charges one request plus one 80 B lookup message for every
    /// step that does not deliver it, and `hops` counts those lookup
    /// messages. With `L` a lookup message, `R` the request and a route of
    /// `h` hops, the messages one attempt sends before the response:
    ///
    /// | placement | before: sequence, `hops` | now: sequence, `hops` |
    /// |---|---|---|
    /// | `from` is the primary | `R`, 0 | `R`, 0 |
    /// | fresh shortcut | `L R`, 1 | `R` (the request is the dial), 0 |
    /// | no shortcut, routed | `Lʰ R`, `h` | `Lʰ⁻¹ R` (`R` rides hop `h`), `h − 1` |
    /// | stale shortcut | `L Lʰ R`, `h + 1` | `L Lʰ⁻¹ R` (one wasted dial), `h` |
    ///
    /// How the request got there changes the hops and routing
    /// bytes charged and nothing else: everything below runs from `primary`
    /// identically, and a peer the *fault plane* holds down is not stale —
    /// the dial reaches the same dead peer the lookup would. Replication
    /// moves only the *serve*: the usage statistics and the response bytes
    /// come from the primary's canonical copy (replicas are kept
    /// byte-identical by [`alvisp2p_dht::Dht::sync_replicas`]), and who spends
    /// the request-handling capacity is the least-loaded live holder, or
    /// `serve_override`, the executor's failover target — the shortcut names
    /// the primary, never a holder, so it cannot pin load. When the primary
    /// itself is down the override answers from its synchronized replica
    /// copy, and the primary's canonical usage statistics cannot advance —
    /// exactly as in a real deployment.
    ///
    /// **Faults.** `attempt` (`0` for the first send) and `query_seq` are the
    /// coordinates of the plane's deterministic draws. Accounting mirrors what
    /// would really cross the wire:
    ///
    /// * routing + request bytes are charged on **every** attempt (the
    ///   querier cannot know in advance that the serve will fail);
    /// * [`ProbeOutcome::Lost`] / [`ProbeOutcome::PeerDown`] charge **no**
    ///   response bytes and leave the serving side untouched — the request
    ///   never reached a live peer (or vanished with its response);
    /// * [`ProbeOutcome::TimedOut`] charges the full round trip and advances
    ///   the serving side's statistics — the response crossed the wire but
    ///   arrived too late to use;
    /// * [`ProbeOutcome::Corrupt`] charges the full round trip and advances
    ///   the serving side's statistics — the response crossed the wire with a
    ///   flipped bit, the codec's checksum trailer rejected the frame at the
    ///   querier, and the payload is discarded.
    ///
    /// Under an inactive plane the first attempt is always
    /// [`ProbeOutcome::Ok`].
    pub fn probe(
        &mut self,
        from: usize,
        key: &TermKey,
        query_seq: u64,
        stats_capacity: usize,
        attempt: u32,
        serve_override: Option<usize>,
    ) -> Result<ProbeOutcome, DhtError> {
        let ring_key = key.ring_id();
        let (info, via_shortcut) =
            self.dht
                .route_probe(from, ring_key, TrafficCategory::Retrieval)?;
        let hops = info.hops;
        let primary = info.responsible;
        self.dht.charge_external(
            TrafficCategory::Retrieval,
            self.probe_request_bytes + key.wire_size(),
        );
        let replica_set = self.dht.replica_holders(ring_key);
        let served_by = match serve_override {
            Some(s) => s,
            None if replica_set.is_empty() => primary,
            None => self.dht.least_loaded_holder(ring_key).unwrap_or(primary),
        };
        if self.faults.peer_down(served_by) {
            return Ok(ProbeOutcome::PeerDown {
                peer: served_by,
                hops,
            });
        }
        if self.faults.message_lost(ring_key, query_seq, attempt) {
            return Ok(ProbeOutcome::Lost { hops });
        }
        let mut response = None;
        if served_by == primary || !self.faults.peer_down(primary) {
            // Usage statistics and response encoding happen at the primary's
            // canonical copy, whoever ends up serving.
            self.dht
                .peer_mut(primary)
                .store
                .upsert_with(ring_key, |slot| {
                    let entry = slot.get_or_insert_with(|| {
                        KeyIndexEntry::stats_only(key.clone(), stats_capacity)
                    });
                    entry.usage.probes += 1;
                    entry.usage.last_probe = query_seq;
                    if entry.activated {
                        entry.usage.hits += 1;
                        response = Some(crate::codec::encode_list(&entry.postings, None));
                    }
                });
        } else if let Some(entry) = self.dht.peer(served_by).replica_store.get(&ring_key) {
            // Failover serve: the primary is down, so the holder answers from
            // its replica copy — kept byte-identical to the primary's list by
            // `sync_replicas`, so the degraded path never changes the answer.
            if entry.activated {
                response = Some(crate::codec::encode_list(&entry.postings, None));
            }
        }
        self.dht.peer_mut(served_by).served_requests += 1;
        self.dht.record_probe(ring_key, served_by);
        // The encoded posting list travels directly back to the requester (or
        // a one-byte miss notice).
        let response_bytes = response.as_ref().map_or(1, Vec::len);
        self.charge(TrafficCategory::Retrieval, response_bytes);
        if self.faults.reply_timed_out(ring_key, query_seq, attempt) {
            return Ok(ProbeOutcome::TimedOut { hops });
        }
        let postings = match response {
            None => None,
            Some(mut frame) => {
                if let Some(bit) =
                    self.faults
                        .response_corrupt_bit(ring_key, query_seq, attempt, frame.len())
                {
                    // A bit flips in flight; the codec's checksum trailer
                    // catches it at decode below.
                    frame[bit / 8] ^= 1 << (bit % 8);
                }
                match crate::codec::decode_list(&frame) {
                    Ok(list) => Some(list),
                    Err(_) => return Ok(ProbeOutcome::Corrupt { hops }),
                }
            }
        };
        // The response names the primary that answered: next time `from`
        // dials it instead of looking the key up.
        self.dht.learn_shortcut(from, ring_key, primary);
        Ok(ProbeOutcome::Ok(ProbeResult {
            key: key.clone(),
            postings,
            hops,
            via_shortcut,
            responsible: primary,
            served_by,
            replica_set,
        }))
    }

    /// The current publish version of `key`: bumped on every mutation of the
    /// key's stored entry (publish, on-demand store, deactivation, eviction),
    /// `0` for a never-touched key.
    pub fn publish_version(&self, key: &TermKey) -> u64 {
        self.versions.get(&key.ring_id()).copied().unwrap_or(0)
    }

    /// An upper bound on the hops (lookup messages) the next
    /// [`GlobalIndex::probe`] for `key` from peer `from` charges, without
    /// sending anything: the routed hop count less the final hop the request
    /// travels, plus one when `from` holds a stale routing shortcut for the
    /// key (see [`Dht::estimate_hops`]). A fresh shortcut is not credited —
    /// it may be evicted between planning and the run — so budget admission
    /// built on the estimate never overspends. Query plans use this to
    /// cost-annotate probe schedules before spending bandwidth.
    pub fn estimate_hops(&self, from: usize, key: &TermKey) -> Result<usize, DhtError> {
        self.dht.estimate_hops(from, key.ring_id())
    }

    /// Size in bytes of a probe request's fixed header (48 B). A probe's
    /// request charge is this header plus the key frame (`key.wire_size()`)
    /// plus the wire envelope.
    pub fn probe_request_bytes(&self) -> usize {
        self.probe_request_bytes
    }

    /// Upper bound on the retrieval bytes one probe for `key` can charge, given its
    /// hop count and an upper bound on the number of posting references the response
    /// can carry (`max_entries`, e.g. `min(df, truncation_k)`).
    ///
    /// The bound mirrors [`GlobalIndex::probe`]'s accounting exactly: the `hops`
    /// lookup messages that do not deliver the request, the probe request, and
    /// the posting-list response — each with
    /// its wire envelope. The actual charge is never larger as long as the response
    /// really carries at most `max_entries` references (a miss response of 1 byte is
    /// always within the bound).
    pub fn estimate_probe_bytes(&self, key: &TermKey, hops: usize, max_entries: usize) -> u64 {
        use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
        let routing = hops * (self.dht.config().lookup_request_bytes + ENVELOPE_OVERHEAD);
        let request = self.probe_request_bytes + key.wire_size() + ENVELOPE_OVERHEAD;
        // The response-size model is the codec's worst case for a frame
        // carrying `max_entries` references (it also covers the 1-byte miss
        // notice), so Reserve admission reserves against what the codec can
        // actually produce.
        let response = crate::codec::max_encoded_list_len(max_entries) + ENVELOPE_OVERHEAD;
        (routing + request + response) as u64
    }

    /// The peer currently responsible for `key` (no routing, no traffic) —
    /// where a probe for it would land.
    pub fn responsible_for(&self, key: &TermKey) -> Result<usize, DhtError> {
        self.dht.responsible_for(key.ring_id())
    }

    /// Reads a key's entry without routing or traffic (ground truth for tests and
    /// experiment verification).
    pub fn peek(&self, key: &TermKey) -> Option<&KeyIndexEntry> {
        self.dht.peek(key.ring_id())
    }

    /// Reads a key's usage statistics without traffic.
    pub fn usage(&self, key: &TermKey) -> Option<KeyUsageStats> {
        self.peek(key).map(|e| e.usage)
    }

    /// Evicts a key from the index at its responsible peer (a local decision of that
    /// peer, so no network traffic is charged). Returns `true` if something was removed.
    pub fn evict(&mut self, key: &TermKey) -> bool {
        let ring_key = key.ring_id();
        let Ok(responsible) = self.dht.responsible_for(ring_key) else {
            return false;
        };
        self.dht.withdraw_replicas(ring_key);
        let removed = self
            .dht
            .peer_mut(responsible)
            .store
            .remove(&ring_key)
            .is_some();
        if removed {
            *self.versions.entry(ring_key).or_insert(0) += 1;
        }
        removed
    }

    /// Deactivates a key but keeps its usage statistics (QDI's "remove obsolete key"
    /// operation: the statistics keep accumulating so the key can be re-activated).
    pub fn deactivate(&mut self, key: &TermKey) -> bool {
        let ring_key = key.ring_id();
        let Ok(responsible) = self.dht.responsible_for(ring_key) else {
            return false;
        };
        self.dht.withdraw_replicas(ring_key);
        let peer = self.dht.peer_mut(responsible);
        let deactivated = match peer.store.get_mut(&ring_key) {
            Some(entry) if entry.activated => {
                entry.activated = false;
                entry.postings = TruncatedPostingList::new(entry.postings.capacity());
                true
            }
            _ => false,
        };
        if deactivated {
            *self.versions.entry(ring_key).or_insert(0) += 1;
        }
        deactivated
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Total number of **activated** keys in the global index.
    pub fn activated_keys(&self) -> usize {
        self.entries().filter(|e| e.activated).count()
    }

    /// Total number of entries (activated + statistics-only).
    pub fn total_entries(&self) -> usize {
        self.entries().count()
    }

    /// Total number of stored posting references across all activated keys.
    pub fn total_postings(&self) -> usize {
        self.entries()
            .filter(|e| e.activated)
            .map(|e| e.postings.len())
            .sum()
    }

    /// Approximate storage bytes of the whole global index.
    pub fn total_storage_bytes(&self) -> usize {
        self.dht.total_storage_bytes()
    }

    /// Per-peer `(activated keys, storage bytes)` — the load-balancing view.
    pub fn per_peer_load(&self) -> Vec<(usize, usize)> {
        self.dht
            .live_peer_indices()
            .into_iter()
            .map(|i| {
                let peer = self.dht.peer(i);
                let keys = peer.store.iter().filter(|(_, e)| e.activated).count();
                (keys, peer.store.storage_bytes())
            })
            .collect()
    }

    /// Iterates over all index entries (activated and statistics-only).
    pub fn entries(&self) -> impl Iterator<Item = &KeyIndexEntry> {
        self.dht
            .live_peer_indices()
            .into_iter()
            .flat_map(move |i| self.dht.peer(i).store.iter().map(|(_, e)| e))
    }

    /// All activated keys, sorted by canonical form (used by reports and tests).
    pub fn activated_key_list(&self) -> Vec<TermKey> {
        let mut keys: Vec<TermKey> = self
            .entries()
            .filter(|e| e.activated)
            .map(|e| e.key.clone())
            .collect();
        keys.sort();
        keys
    }

    /// Charges `bytes` of traffic in `category` without routing (used for responses
    /// and for modelled exchanges whose routing is already accounted).
    pub fn charge(&mut self, category: TrafficCategory, bytes: usize) {
        self.dht.charge_external(category, bytes);
    }

    // ------------------------------------------------------------------
    // Replication (skew-aware hot-key replicas)
    // ------------------------------------------------------------------

    /// Replaces the overlay's replication policy (see
    /// [`alvisp2p_dht::Dht::set_replication_policy`]).
    pub fn set_replication_policy(
        &mut self,
        policy: std::sync::Arc<dyn alvisp2p_dht::ReplicationPolicy>,
    ) {
        self.dht.set_replication_policy(policy);
    }

    /// The live peers currently holding a replica of `key` (primary excluded).
    pub fn replica_holders_of(&self, key: &TermKey) -> Vec<usize> {
        self.dht.replica_holders(key.ring_id())
    }

    /// The peers that can currently serve `key`: the primary first, followed
    /// by the live replica holders. Empty only on an empty overlay.
    pub fn serving_candidates(&self, key: &TermKey) -> Vec<usize> {
        let ring_key = key.ring_id();
        let Ok(primary) = self.dht.responsible_for(ring_key) else {
            return Vec::new();
        };
        let mut out = vec![primary];
        out.extend(self.dht.replica_holders(ring_key));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posting::ScoredRef;
    use alvisp2p_textindex::DocId;

    fn refs(n: u32) -> TruncatedPostingList {
        TruncatedPostingList::from_refs(
            (0..n).map(|i| ScoredRef {
                doc: DocId::new(0, i),
                score: f64::from(n - i),
            }),
            usize::MAX / 2,
        )
    }

    fn index(peers: usize) -> GlobalIndex {
        GlobalIndex::new(DhtConfig::default(), 5, peers)
    }

    /// The answer of a probe attempt no fault was injected into.
    fn answered(outcome: Result<ProbeOutcome, DhtError>) -> ProbeResult {
        match outcome.unwrap() {
            ProbeOutcome::Ok(probe) => probe,
            failed => panic!("probe attempt failed: {failed:?}"),
        }
    }

    #[test]
    fn publish_then_probe_round_trips() {
        let mut gi = index(16);
        let key = TermKey::new(["peer", "retriev"]);
        gi.publish_postings(0, &key, &refs(5), 100).unwrap();
        let probe = answered(gi.probe(3, &key, 1, 100, 0, None));
        assert!(probe.found());
        assert_eq!(probe.postings.unwrap().len(), 5);
        assert_eq!(gi.activated_keys(), 1);
        // Usage statistics were recorded at the responsible peer.
        let usage = gi.usage(&key).unwrap();
        assert_eq!(usage.probes, 1);
        assert_eq!(usage.hits, 1);
        assert_eq!(usage.last_probe, 1);
    }

    #[test]
    fn probing_unknown_key_records_statistics_only() {
        let mut gi = index(8);
        let key = TermKey::new(["never", "indexed"]);
        let probe = answered(gi.probe(2, &key, 7, 50, 0, None));
        assert!(!probe.found());
        assert_eq!(gi.activated_keys(), 0);
        assert_eq!(gi.total_entries(), 1);
        let usage = gi.usage(&key).unwrap();
        assert_eq!(usage.probes, 1);
        assert_eq!(usage.hits, 0);
        assert_eq!(usage.last_probe, 7);
        // Probing again accumulates.
        answered(gi.probe(3, &key, 9, 50, 0, None));
        assert_eq!(gi.usage(&key).unwrap().probes, 2);
    }

    #[test]
    fn contributions_from_many_peers_merge() {
        let mut gi = index(16);
        let key = TermKey::single("databas");
        for p in 0..4u32 {
            let delta = TruncatedPostingList::from_refs(
                (0..3).map(|i| ScoredRef {
                    doc: DocId::new(p, i),
                    score: f64::from(p * 10 + i),
                }),
                100,
            );
            gi.publish_postings(p as usize, &key, &delta, 100).unwrap();
        }
        let entry = gi.peek(&key).unwrap();
        assert_eq!(entry.postings.len(), 12);
        assert_eq!(entry.postings.full_df(), 12);
        assert!(entry.activated);
        assert_eq!(gi.total_postings(), 12);
    }

    #[test]
    fn truncation_capacity_is_enforced_at_the_responsible_peer() {
        let mut gi = index(8);
        let key = TermKey::single("frequent");
        for p in 0..10u32 {
            let delta = TruncatedPostingList::from_refs(
                (0..10).map(|i| ScoredRef {
                    doc: DocId::new(p, i),
                    score: f64::from(p * 100 + i),
                }),
                10,
            );
            gi.publish_postings(0, &key, &delta, 20).unwrap();
        }
        let entry = gi.peek(&key).unwrap();
        assert_eq!(entry.postings.len(), 20);
        assert_eq!(entry.postings.full_df(), 100);
        assert!(entry.postings.is_truncated());
    }

    #[test]
    fn traffic_is_charged_to_the_right_categories() {
        let mut gi = index(32);
        let key = TermKey::new(["scalabl", "network"]);
        gi.publish_postings(1, &key, &refs(50), 100).unwrap();
        let after_publish = gi.stats_snapshot();
        assert!(after_publish.category(TrafficCategory::Indexing).bytes > 0);
        assert_eq!(after_publish.category(TrafficCategory::Retrieval).bytes, 0);
        answered(gi.probe(9, &key, 1, 100, 0, None));
        let delta = gi.stats_snapshot().since(&after_publish);
        // The probe charges at least the codec frame of the stored list (plus
        // request + routing), and never more than the plan's worst case.
        let frame = gi.peek(&key).unwrap().postings.wire_size() as u64;
        assert!(delta.category(TrafficCategory::Retrieval).bytes > frame);
        assert_eq!(delta.category(TrafficCategory::Indexing).bytes, 0);
    }

    #[test]
    fn probe_round_trips_through_the_codec() {
        let mut gi = index(16);
        let key = TermKey::new(["codec", "probe"]);
        gi.publish_postings(0, &key, &refs(30), 100).unwrap();
        let stored = gi.peek(&key).unwrap().postings.clone();
        let probe = answered(gi.probe(3, &key, 1, 100, 0, None));
        let got = probe.postings.unwrap();
        // Same documents in the same order; scores within one quantization step.
        assert_eq!(got.len(), stored.len());
        assert_eq!(got.full_df(), stored.full_df());
        let step = crate::codec::quantization_step(
            stored.worst_score().unwrap(),
            stored.best_score().unwrap(),
        ) + 1e-9;
        for (a, b) in stored.refs().iter().zip(got.refs()) {
            assert_eq!(a.doc, b.doc);
            assert!((a.score - b.score).abs() <= step);
        }
    }

    #[test]
    fn deactivate_keeps_statistics_but_drops_postings() {
        let mut gi = index(8);
        let key = TermKey::new(["old", "popular"]);
        gi.publish_postings(0, &key, &refs(5), 100).unwrap();
        answered(gi.probe(1, &key, 1, 100, 0, None));
        assert!(gi.deactivate(&key));
        assert!(!gi.deactivate(&key), "already deactivated");
        assert_eq!(gi.activated_keys(), 0);
        let probe = answered(gi.probe(2, &key, 2, 100, 0, None));
        assert!(!probe.found());
        assert_eq!(gi.usage(&key).unwrap().probes, 2);
    }

    #[test]
    fn evict_removes_the_entry_entirely() {
        let mut gi = index(8);
        let key = TermKey::single("gone");
        gi.publish_postings(0, &key, &refs(2), 10).unwrap();
        assert!(gi.evict(&key));
        assert!(!gi.evict(&key));
        assert_eq!(gi.total_entries(), 0);
        assert!(gi.peek(&key).is_none());
    }

    #[test]
    fn store_acquired_places_list_at_responsible_peer() {
        let mut gi = index(16);
        let key = TermKey::new(["on", "demand"]);
        // Build up some probe statistics first.
        answered(gi.probe(0, &key, 1, 50, 0, None));
        answered(gi.probe(1, &key, 2, 50, 0, None));
        let responsible = gi.dht().responsible_for(key.ring_id()).unwrap();
        gi.store_acquired(responsible, &key, refs(7));
        let entry = gi.peek(&key).unwrap();
        assert!(entry.activated);
        assert_eq!(entry.postings.len(), 7);
        // The usage statistics survived the activation.
        assert_eq!(entry.usage.probes, 2);
    }

    #[test]
    fn estimate_probe_bytes_bounds_the_actual_probe_charge() {
        let mut gi = index(32);
        let found = TermKey::new(["cost", "model"]);
        gi.publish_postings(0, &found, &refs(9), 16).unwrap();
        for (key, max_entries) in [(found, 9usize), (TermKey::single("miss"), 0)] {
            let hops = gi.estimate_hops(3, &key).unwrap();
            let bound = gi.estimate_probe_bytes(&key, hops, max_entries);
            let before = gi.stats_snapshot();
            answered(gi.probe(3, &key, 1, 16, 0, None));
            let spent = gi
                .stats_snapshot()
                .since(&before)
                .category(TrafficCategory::Retrieval)
                .bytes;
            assert!(spent <= bound, "probe {key} spent {spent} > bound {bound}");
        }
    }

    #[test]
    fn replicated_probes_move_the_serve_but_not_the_answer() {
        use alvisp2p_dht::HotKeyReplication;
        use std::sync::Arc;
        let mut gi = index(24);
        gi.set_replication_policy(Arc::new(HotKeyReplication::new(3)));
        let key = TermKey::new(["hot", "head"]);
        gi.publish_postings(0, &key, &refs(20), 100).unwrap();
        let baseline = answered(gi.probe(1, &key, 0, 100, 0, None));
        let primary = baseline.responsible;
        let mut served = std::collections::BTreeSet::new();
        for seq in 1..60u64 {
            let p = answered(gi.probe((seq as usize) % 24, &key, seq, 100, 0, None));
            // The answer never changes with placement.
            assert_eq!(p.postings, baseline.postings);
            assert_eq!(p.responsible, primary);
            served.insert(p.served_by);
        }
        assert!(
            served.len() >= 3,
            "hot probes spread over primary + replicas: {served:?}"
        );
        let holders = gi.replica_holders_of(&key);
        assert_eq!(holders.len(), 3);
        assert_eq!(gi.serving_candidates(&key)[0], primary);
        assert!(gi.dht().replication().peer_load(primary) > 0.0);
        // Usage statistics stay canonical at the primary.
        assert_eq!(gi.usage(&key).unwrap().probes, 60);
    }

    #[test]
    fn publish_versions_track_every_entry_mutation() {
        let mut gi = index(16);
        let key = TermKey::new(["version", "track"]);
        assert_eq!(gi.publish_version(&key), 0);
        gi.publish_postings(0, &key, &refs(3), 100).unwrap();
        assert_eq!(gi.publish_version(&key), 1);
        gi.publish_postings(1, &key, &refs(2), 100).unwrap();
        assert_eq!(gi.publish_version(&key), 2);
        // Probes are reads: no version change.
        answered(gi.probe(2, &key, 1, 100, 0, None));
        assert_eq!(gi.publish_version(&key), 2);
        assert!(gi.deactivate(&key));
        assert_eq!(gi.publish_version(&key), 3);
        assert!(!gi.deactivate(&key), "no-op deactivation does not bump");
        assert_eq!(gi.publish_version(&key), 3);
        let responsible = gi.dht().responsible_for(key.ring_id()).unwrap();
        gi.store_acquired(responsible, &key, refs(4));
        assert_eq!(gi.publish_version(&key), 4);
        assert!(gi.evict(&key));
        assert_eq!(gi.publish_version(&key), 5);
        assert!(!gi.evict(&key), "no-op eviction does not bump");
        assert_eq!(gi.publish_version(&key), 5);
    }

    #[test]
    fn lost_publishes_stay_pending_until_republished() {
        let mut gi = index(16);
        gi.set_fault_plane(FaultPlane::seeded(7).with_publish_loss(1.0));
        let key = TermKey::new(["lost", "publish"]);
        let before = gi.stats_snapshot();
        gi.publish_postings(0, &key, &refs(5), 100).unwrap();
        // The message crossed (part of) the wire: Indexing bytes charged,
        // but nothing applied and no version bump.
        let delta = gi.stats_snapshot().since(&before);
        assert!(delta.category(TrafficCategory::Indexing).bytes > 0);
        assert_eq!(gi.activated_keys(), 0);
        assert_eq!(gi.publish_version(&key), 0);
        assert_eq!(gi.pending_publishes(), 1);
        // Re-publication under a now-clean wire applies and acknowledges.
        gi.set_fault_plane(FaultPlane::seeded(7));
        let before = gi.stats_snapshot();
        let (resent, applied) = gi.republish_round();
        assert_eq!((resent, applied), (1, 1));
        assert_eq!(gi.pending_publishes(), 0);
        assert_eq!(gi.activated_keys(), 1);
        assert_eq!(gi.publish_version(&key), 1);
        assert_eq!(gi.peek(&key).unwrap().postings.len(), 5);
        // Re-publication traffic is Overlay, never Retrieval/Indexing.
        let delta = gi.stats_snapshot().since(&before);
        assert!(delta.category(TrafficCategory::Overlay).bytes > 0);
        assert_eq!(delta.category(TrafficCategory::Indexing).bytes, 0);
        assert_eq!(delta.category(TrafficCategory::Retrieval).bytes, 0);
    }

    #[test]
    fn a_lost_frame_loses_all_its_keys_and_republication_recovers_each_one() {
        let mut gi = index(16);
        gi.set_fault_plane(FaultPlane::seeded(7).with_publish_loss(1.0));
        let keys: Vec<TermKey> = (0..24)
            .map(|i| TermKey::single(format!("batch{i}")))
            .collect();
        let deltas: Vec<TruncatedPostingList> = (0..24).map(|i| refs(1 + i % 5)).collect();
        let batch: Vec<(&TermKey, &TruncatedPostingList)> = keys.iter().zip(&deltas).collect();
        // Each frame is routed to the first of its keys.
        let mut first_keys: BTreeMap<usize, &TermKey> = BTreeMap::new();
        for key in &keys {
            first_keys
                .entry(gi.responsible_for(key).unwrap())
                .or_insert(key);
        }
        let m = first_keys.len();
        assert!(1 < m && m < keys.len(), "{m} primaries");
        let lookups: usize = first_keys
            .values()
            .map(|key| gi.dht().probe_hops(0, key.ring_id()).unwrap())
            .sum();

        let before = gi.stats_snapshot();
        gi.publish_batch(0, &batch, 100).unwrap();
        let indexing = gi
            .stats_snapshot()
            .since(&before)
            .category(TrafficCategory::Indexing);
        assert_eq!(indexing.messages, (lookups + m) as u64, "{m} frames");
        assert_eq!(gi.pending_publishes(), keys.len());
        assert_eq!(gi.activated_keys(), 0);
        assert!(keys.iter().all(|key| gi.publish_version(key) == 0));

        // Re-publication under a now-clean wire applies every key.
        gi.set_fault_plane(FaultPlane::seeded(7));
        let before = gi.stats_snapshot();
        assert_eq!(gi.republish_round(), (keys.len(), keys.len()));
        assert_eq!(gi.pending_publishes(), 0);
        for (key, delta) in &batch {
            assert_eq!(gi.peek(key).unwrap().postings.refs(), delta.refs());
            assert_eq!(gi.publish_version(key), 1);
        }
        let delta = gi.stats_snapshot().since(&before);
        assert!(delta.category(TrafficCategory::Overlay).bytes > 0);
        assert_eq!(
            delta.bytes_sent(),
            delta.category(TrafficCategory::Overlay).bytes
        );
    }

    #[test]
    fn republish_backs_off_while_the_wire_stays_lossy() {
        let mut gi = index(16);
        gi.set_fault_plane(FaultPlane::seeded(3).with_publish_loss(1.0));
        let key = TermKey::single("unlucky");
        gi.publish_postings(0, &key, &refs(2), 10).unwrap();
        let mut resent_total = 0;
        for _ in 0..20 {
            let (resent, applied) = gi.republish_round();
            assert_eq!(applied, 0);
            resent_total += resent;
        }
        // Exponential backoff: far fewer re-sends than rounds, but retries
        // never stop entirely.
        assert!((3..10).contains(&resent_total), "got {resent_total}");
        assert_eq!(gi.pending_publishes(), 1);
    }

    #[test]
    fn a_plane_that_injects_nothing_is_the_fault_free_wire() {
        // One path: the plane is data it consults. The default plane and a
        // differently seeded one with every rate zero and nobody crashed
        // must agree to the byte across publish + probe + republish.
        let run = |plane: FaultPlane| {
            let mut gi = index(16);
            gi.set_fault_plane(plane);
            let keys = [
                TermKey::new(["clean", "publish"]),
                TermKey::single("clean"),
                TermKey::single("never-published"),
            ];
            for (i, key) in keys.iter().take(2).enumerate() {
                gi.publish_postings(i, key, &refs(4 + i as u32), 100)
                    .unwrap();
                gi.publish_postings(i + 5, key, &refs(9), 100).unwrap();
            }
            let probes: Vec<ProbeResult> = keys
                .iter()
                .enumerate()
                .map(|(i, key)| answered(gi.probe(i + 2, key, 1, 100, 0, None)))
                .collect();
            assert_eq!(gi.republish_round(), (0, 0));
            assert_eq!(gi.pending_publishes(), 0);
            let versions: Vec<u64> = keys.iter().map(|k| gi.publish_version(k)).collect();
            (format!("{:?}", gi.stats_snapshot()), versions, probes)
        };
        let fault_free = run(FaultPlane::default());
        assert_eq!(fault_free.1, vec![2, 2, 0]);
        assert_eq!(fault_free, run(FaultPlane::seeded(0xA1)));
    }

    #[test]
    fn a_plane_assigned_in_place_drops_replica_syncs_like_an_installed_one() {
        use alvisp2p_dht::HotKeyReplication;
        use std::sync::Arc;
        let key = TermKey::new(["hot", "sync"]);
        let run = |install: fn(&mut GlobalIndex, FaultPlane)| {
            let mut gi = index(24);
            gi.set_replication_policy(Arc::new(HotKeyReplication::new(3)));
            gi.publish_postings(0, &key, &refs(5), 100).unwrap();
            for seq in 0..10u64 {
                answered(gi.probe(seq as usize % 24, &key, seq, 100, 0, None));
            }
            assert_eq!(gi.replica_holders_of(&key).len(), 3);
            install(&mut gi, FaultPlane::seeded(4).with_sync_loss(1.0));
            gi.publish_postings(1, &key, &refs(8), 100).unwrap();
            (
                gi.dht().replica_consistency(),
                format!("{:?}", gi.stats_snapshot()),
            )
        };
        let installed = run(|gi, plane| gi.set_fault_plane(plane));
        assert_eq!(installed.0, 0.0, "every sync to the three holders is lost");
        assert_eq!(installed, run(|gi, plane| *gi.fault_plane_mut() = plane));
    }

    #[test]
    fn corrupted_probe_responses_are_rejected_not_decoded() {
        let mut gi = index(16);
        let key = TermKey::new(["bit", "flip"]);
        gi.publish_postings(0, &key, &refs(10), 100).unwrap();
        gi.set_fault_plane(FaultPlane::seeded(5).with_corruption(1.0));
        let outcome = gi.probe(2, &key, 1, 100, 0, None).unwrap();
        assert!(
            matches!(outcome, ProbeOutcome::Corrupt { .. }),
            "single-bit flips are always caught by the trailer: {outcome:?}"
        );
        // The serve happened (full round trip): statistics advanced.
        assert_eq!(gi.usage(&key).unwrap().probes, 1);
        // A clean attempt at other coordinates still answers.
        gi.set_fault_plane(FaultPlane::seeded(5));
        let outcome = gi.probe(2, &key, 2, 100, 0, None).unwrap();
        assert!(matches!(outcome, ProbeOutcome::Ok(_)));
    }

    #[test]
    fn content_digest_tracks_postings_not_usage() {
        let mut gi = index(16);
        let key = TermKey::new(["digest", "key"]);
        gi.publish_postings(0, &key, &refs(5), 100).unwrap();
        let d1 = gi.peek(&key).unwrap().content_digest();
        // Probes advance usage but not the replicated content.
        answered(gi.probe(1, &key, 1, 100, 0, None));
        assert_eq!(gi.peek(&key).unwrap().content_digest(), d1);
        // Publishing more postings changes the digest.
        gi.publish_postings(1, &key, &refs(7), 100).unwrap();
        assert_ne!(gi.peek(&key).unwrap().content_digest(), d1);
    }

    #[test]
    fn per_peer_load_reports_activated_keys() {
        let mut gi = index(8);
        for i in 0..20 {
            let key = TermKey::single(format!("term{i}"));
            gi.publish_postings(0, &key, &refs(3), 10).unwrap();
        }
        let load = gi.per_peer_load();
        assert_eq!(load.iter().map(|(k, _)| k).sum::<usize>(), 20);
        assert!(load.iter().map(|(_, b)| b).sum::<usize>() > 0);
        assert_eq!(gi.activated_key_list().len(), 20);
    }
}

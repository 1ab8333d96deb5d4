//! Pluggable distributed-indexing strategies.
//!
//! The paper evaluates three indexing policies — the single-term full-list
//! baseline, Highly Discriminative Keys and Query-Driven Indexing. Earlier
//! revisions hard-coded them as a closed enum inside the network driver; this
//! module turns the policy into an object-safe [`Strategy`] trait so that new
//! policies (e.g. skew-aware key placement, see PAPERS.md) plug in without
//! touching `network.rs`:
//!
//! * [`Strategy::build_index`] plans and publishes the keys for every peer's
//!   documents through an [`IndexerCtx`], one batch per peer and level;
//! * [`Strategy::lattice_config`] bounds how the query lattice is explored for
//!   this strategy;
//! * [`Strategy::post_query`] observes every finished query through a
//!   [`QueryCtx`] and may activate or deactivate keys on demand;
//! * [`Strategy::truncation_k`] bounds posting-list truncation.
//!
//! The built-in implementations are [`SingleTermFull`], [`Hdk`] and [`Qdi`].

use crate::global_index::{GlobalIndex, KeyIndexEntry, KeyUsageStats};
use crate::hdk::{self, HdkConfig, HdkLevelReport};
use crate::key::TermKey;
use crate::lattice::{LatticeConfig, LatticeResult, NodeOutcome};
use crate::peer::AlvisPeer;
use crate::posting::TruncatedPostingList;
use crate::qdi::{activation_decision, is_obsolete, QdiConfig, QdiReport};
use crate::ranking::{score_local_postings, GlobalRankingStats};
use alvisp2p_netsim::{TrafficCategory, WireSize};
use alvisp2p_textindex::bm25::Bm25Params;
use alvisp2p_textindex::TermId;
use std::collections::BTreeSet;

/// A distributed indexing policy.
///
/// Object safe: networks hold strategies as `Arc<dyn Strategy>`, so user
/// crates can define their own policies and hand them to
/// [`crate::network::AlvisNetworkBuilder::strategy`].
pub trait Strategy: std::fmt::Debug + Send + Sync {
    /// A short label used in reports and experiment output.
    fn label(&self) -> &str;

    /// The posting-list truncation bound used when storing entries in the
    /// global index (effectively unbounded for the single-term baseline).
    fn truncation_k(&self) -> usize;

    /// The document-frequency bound separating *discriminative* from
    /// *frequent* keys in construction reports. Strategies without the
    /// distinction report everything as discriminative.
    fn df_max(&self) -> u64 {
        u64::MAX
    }

    /// Builds the distributed index: plan the keys each peer publishes for its
    /// documents and publish them through `ctx`. Returns one report per
    /// construction level.
    fn build_index(&self, ctx: &mut IndexerCtx<'_>) -> Vec<HdkLevelReport>;

    /// Adapts the query-lattice exploration parameters to this strategy.
    /// The default uses the network-level configuration unchanged.
    fn lattice_config(&self, base: &LatticeConfig) -> LatticeConfig {
        base.clone()
    }

    /// Observes a finished query; on-demand strategies use this to activate
    /// popular keys and evict obsolete ones. The default does nothing.
    fn post_query(&self, ctx: &mut QueryCtx<'_>, query_key: &TermKey, result: &LatticeResult) {
        let _ = (ctx, query_key, result);
    }

    /// Whether the index adapts to the query stream (via [`Strategy::post_query`]).
    /// Experiments warm adaptive strategies up before measuring their steady state.
    fn is_adaptive(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Contexts handed to strategies
// ---------------------------------------------------------------------------

/// The network state a strategy sees while building the distributed index.
///
/// A strategy publishes through [`IndexerCtx::publish_batch`], handing over
/// one peer's whole key set of a construction level per call: peers publish
/// in order `0..n`, and each call sends one frame per responsible peer (see
/// [`GlobalIndex::publish_batch`]). Between levels a strategy may read what
/// the previous ones stored through [`IndexerCtx::global`], as HDK does to
/// find the frequent keys it expands.
pub struct IndexerCtx<'a> {
    peers: &'a [AlvisPeer],
    global: &'a mut GlobalIndex,
    ranking: &'a GlobalRankingStats,
    bm25: Bm25Params,
}

impl<'a> IndexerCtx<'a> {
    /// Assembles a context (called by the network driver).
    pub fn new(
        peers: &'a [AlvisPeer],
        global: &'a mut GlobalIndex,
        ranking: &'a GlobalRankingStats,
        bm25: Bm25Params,
    ) -> Self {
        IndexerCtx {
            peers,
            global,
            ranking,
            bm25,
        }
    }

    /// The participating peers.
    pub fn peers(&self) -> &[AlvisPeer] {
        self.peers
    }

    /// Read access to the global index under construction.
    pub fn global(&self) -> &GlobalIndex {
        &*self.global
    }

    /// The aggregated global ranking statistics.
    pub fn ranking(&self) -> &GlobalRankingStats {
        self.ranking
    }

    /// The BM25 parameters every scoring component uses.
    pub fn bm25(&self) -> Bm25Params {
        self.bm25
    }

    /// Scores peer `peer_index`'s local postings for `key`, truncated to
    /// `capacity`.
    pub fn score_postings(
        &self,
        peer_index: usize,
        key: &TermKey,
        capacity: usize,
    ) -> TruncatedPostingList {
        score_local_postings(
            self.peers[peer_index].index(),
            key,
            self.ranking,
            self.bm25,
            capacity,
        )
    }

    /// Publishes peer `peer_index`'s contributions for `keys` into the global
    /// index: each key's local postings are scored (truncated to
    /// `capacity`), empty lists are skipped, and the rest go out as one
    /// [`GlobalIndex::publish_batch`] — one frame per responsible peer, not
    /// one routed message per key. A frame the index's fault plane drops is
    /// charged, and its publications are queued and re-published, not
    /// applied. Returns the keys published, in the order given.
    ///
    /// Strategies hand over one peer's whole key set of a construction level
    /// per call: the fewer calls, the fewer frames.
    pub fn publish_batch<'k>(
        &mut self,
        peer_index: usize,
        keys: impl IntoIterator<Item = &'k TermKey>,
        capacity: usize,
    ) -> Vec<&'k TermKey> {
        let scored: Vec<(&TermKey, TruncatedPostingList)> = keys
            .into_iter()
            .map(|key| (key, self.score_postings(peer_index, key, capacity)))
            .filter(|(_, list)| !list.is_empty())
            .collect();
        let publications: Vec<(&TermKey, &TruncatedPostingList)> =
            scored.iter().map(|(key, list)| (*key, list)).collect();
        let _ = self
            .global
            .publish_batch(peer_index, &publications, capacity);
        scored.into_iter().map(|(key, _)| key).collect()
    }

    /// Charges strategy-level coordination traffic to the indexing category.
    pub fn charge_indexing(&mut self, bytes: usize) {
        self.global.charge(TrafficCategory::Indexing, bytes);
    }

    /// Level 1 of every strategy: each peer publishes a posting-list
    /// contribution for every term of its local vocabulary, truncated to
    /// `capacity`, in one [`IndexerCtx::publish_batch`]. Returns the level
    /// report (using `df_max` to separate discriminative from frequent keys).
    pub fn publish_single_term_level(&mut self, capacity: usize, df_max: u64) -> HdkLevelReport {
        let mut candidates = 0usize;
        for peer_index in 0..self.peers.len() {
            let keys = vocabulary_keys(&self.peers[peer_index]);
            // A peer publishes from its own overlay node.
            candidates += self.publish_batch(peer_index, &keys, capacity).len();
        }
        let (discriminative, frequent) = self.level_key_counts(1, df_max);
        HdkLevelReport {
            level: 1,
            candidates,
            discriminative,
            frequent,
        }
    }

    /// Counts the activated keys of `level`, split into discriminative
    /// (`full_df <= df_max`) and frequent ones.
    pub fn level_key_counts(&self, level: usize, df_max: u64) -> (usize, usize) {
        let mut discriminative = 0usize;
        let mut frequent = 0usize;
        for e in self.global.entries() {
            if e.activated && e.key.len() == level {
                if e.postings.full_df() > df_max {
                    frequent += 1;
                } else {
                    discriminative += 1;
                }
            }
        }
        (discriminative, frequent)
    }
}

/// The network state a strategy sees after each query.
pub struct QueryCtx<'a> {
    peers: &'a [AlvisPeer],
    global: &'a mut GlobalIndex,
    ranking: &'a GlobalRankingStats,
    bm25: Bm25Params,
    seq: u64,
    report: &'a mut QdiReport,
}

impl<'a> QueryCtx<'a> {
    /// Assembles a context (called by the network driver).
    pub fn new(
        peers: &'a [AlvisPeer],
        global: &'a mut GlobalIndex,
        ranking: &'a GlobalRankingStats,
        bm25: Bm25Params,
        seq: u64,
        report: &'a mut QdiReport,
    ) -> Self {
        QueryCtx {
            peers,
            global,
            ranking,
            bm25,
            seq,
            report,
        }
    }

    /// The global sequence number of the query that just finished.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// A key's usage statistics, if the responsible peer tracks it.
    pub fn usage(&self, key: &TermKey) -> Option<KeyUsageStats> {
        self.global.usage(key)
    }

    /// Iterates over every entry of the global index.
    pub fn entries(&self) -> impl Iterator<Item = &KeyIndexEntry> {
        self.global.entries()
    }

    /// The strategy/behaviour counters accumulated by the network.
    pub fn report(&mut self) -> &mut QdiReport {
        self.report
    }

    /// The on-demand indexing step: the responsible peer acquires a bounded
    /// top-k posting list for `key` from the peers holding matching documents
    /// and stores it. Acquisition traffic is charged to the indexing category
    /// and the activation counters are updated. Returns whether the key was
    /// stored.
    pub fn activate_key(&mut self, key: &TermKey, capacity: usize) -> bool {
        let mut merged = TruncatedPostingList::new(capacity);
        let mut acquisition_bytes = 0usize;
        for peer in self.peers {
            let list = score_local_postings(peer.index(), key, self.ranking, self.bm25, capacity);
            if list.is_empty() {
                continue;
            }
            // Request to the contributing peer + its response carrying the
            // local top-k.
            acquisition_bytes += 48 + key.wire_size() + list.wire_size();
            merged.merge(&list);
        }
        self.global
            .charge(TrafficCategory::Indexing, acquisition_bytes);
        let Ok(responsible) = self.global.dht().responsible_for(key.ring_id()) else {
            return false;
        };
        self.global.store_acquired(responsible, key, merged);
        self.report.activations += 1;
        self.report.acquisition_bytes += acquisition_bytes as u64;
        true
    }

    /// Deactivates a key (keeping its usage statistics) and counts the
    /// eviction. Returns whether the key was active.
    pub fn deactivate_key(&mut self, key: &TermKey) -> bool {
        let deactivated = self.global.deactivate(key);
        if deactivated {
            self.report.evictions += 1;
        }
        deactivated
    }
}

// ---------------------------------------------------------------------------
// Built-in strategies
// ---------------------------------------------------------------------------

/// The single-term baseline of Zhang & Suel (reference \[11\] of the paper):
/// every term's **complete** posting list is stored in the DHT and shipped to
/// the querying peer. Does not scale in bandwidth — that is the point of
/// comparing against it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SingleTermFull;

/// Effectively unbounded truncation for the baseline (kept well below
/// `usize::MAX` so byte arithmetic cannot overflow).
const UNBOUNDED_K: usize = usize::MAX / 4;

impl Strategy for SingleTermFull {
    fn label(&self) -> &str {
        "single-term"
    }

    fn truncation_k(&self) -> usize {
        UNBOUNDED_K
    }

    fn build_index(&self, ctx: &mut IndexerCtx<'_>) -> Vec<HdkLevelReport> {
        vec![ctx.publish_single_term_level(UNBOUNDED_K, self.df_max())]
    }

    fn lattice_config(&self, base: &LatticeConfig) -> LatticeConfig {
        // The baseline has no multi-term keys: only the single terms are
        // fetched, each with its complete posting list.
        LatticeConfig {
            prune_below_truncated: false,
            max_probe_len: 1,
            max_probes: base.max_probes,
        }
    }
}

/// Highly Discriminative Keys: document-frequency-driven key expansion with
/// truncated posting lists (§3 of the paper).
#[derive(Clone, Debug, Default)]
pub struct Hdk {
    /// The expansion parameters.
    pub config: HdkConfig,
}

impl Hdk {
    /// A strategy with the given configuration.
    pub fn new(config: HdkConfig) -> Self {
        Hdk { config }
    }
}

impl From<HdkConfig> for Hdk {
    fn from(config: HdkConfig) -> Self {
        Hdk { config }
    }
}

impl Strategy for Hdk {
    fn label(&self) -> &str {
        "hdk"
    }

    fn truncation_k(&self) -> usize {
        self.config.truncation_k
    }

    fn df_max(&self) -> u64 {
        self.config.df_max as u64
    }

    fn build_index(&self, ctx: &mut IndexerCtx<'_>) -> Vec<HdkLevelReport> {
        let config = &self.config;
        let mut levels = vec![ctx.publish_single_term_level(config.truncation_k, self.df_max())];
        let frequent_terms = self.notify_frequent_terms(ctx);
        let mut frequent_parents: BTreeSet<TermKey> = hdk::single_term_keys(&frequent_terms);

        for level in 2..=config.max_key_len {
            if frequent_parents.is_empty() {
                break;
            }
            let mut level_candidates: BTreeSet<TermKey> = BTreeSet::new();
            for peer_index in 0..ctx.peers().len() {
                let peer_candidates = self.peer_candidates(
                    &ctx.peers()[peer_index],
                    &frequent_parents,
                    &frequent_terms,
                    level,
                );
                // Publish this peer's contribution for all of its candidates.
                let published =
                    ctx.publish_batch(peer_index, &peer_candidates, config.truncation_k);
                level_candidates.extend(published.into_iter().cloned());
            }

            let (discriminative, frequent) = ctx.level_key_counts(level, self.df_max());
            levels.push(HdkLevelReport {
                level,
                candidates: level_candidates.len(),
                discriminative,
                frequent,
            });
            frequent_parents = self.frequent_keys(ctx, level);
        }
        levels
    }
}

impl Hdk {
    /// The globally frequent single terms (observed by the responsible
    /// peers). Every peer learns which of its local terms are frequent: a
    /// small notification from each responsible peer, piggybacked on the
    /// publication acknowledgement and charged to Indexing.
    fn notify_frequent_terms(&self, ctx: &mut IndexerCtx<'_>) -> BTreeSet<TermId> {
        let frequent_terms: BTreeSet<TermId> = ctx
            .global()
            .entries()
            .filter(|e| e.activated && e.key.is_single() && e.postings.full_df() > self.df_max())
            .map(|e| e.key.term_ids()[0])
            .collect();
        for peer_index in 0..ctx.peers().len() {
            let local_frequent = ctx.peers()[peer_index]
                .index()
                .vocabulary_ids()
                .filter(|t| frequent_terms.contains(t))
                .count();
            ctx.charge_indexing(9 * local_frequent + 16);
        }
        frequent_terms
    }

    /// The level-`level` candidates `peer` generates from its local
    /// documents, in key order.
    fn peer_candidates(
        &self,
        peer: &AlvisPeer,
        frequent_parents: &BTreeSet<TermKey>,
        frequent_terms: &BTreeSet<TermId>,
        level: usize,
    ) -> BTreeSet<TermKey> {
        let index = peer.index();
        index
            .documents()
            .into_iter()
            .flat_map(|doc| {
                hdk::generate_doc_candidates(
                    &index.doc_term_positions(doc),
                    frequent_parents,
                    frequent_terms,
                    level,
                    &self.config,
                )
            })
            .collect()
    }

    /// The frequent keys of `level`: they seed the next level's expansions.
    fn frequent_keys(&self, ctx: &IndexerCtx<'_>, level: usize) -> BTreeSet<TermKey> {
        ctx.global()
            .entries()
            .filter(|e| e.activated && e.key.len() == level && e.postings.full_df() > self.df_max())
            .map(|e| e.key.clone())
            .collect()
    }
}

/// `peer`'s local vocabulary as single-term keys, sorted so the publication
/// sequence (and therefore which publications a seeded fault plane drops)
/// is deterministic — the vocabulary map itself iterates in per-process
/// random order.
fn vocabulary_keys(peer: &AlvisPeer) -> Vec<TermKey> {
    let mut vocabulary: Vec<TermId> = peer.index().vocabulary_ids().collect();
    vocabulary.sort_unstable();
    vocabulary
        .into_iter()
        .map(|term| TermKey::from_term_ids([term]))
        .collect()
}

/// Query-Driven Indexing: single-term truncated index plus on-demand
/// activation of popular term combinations and eviction of obsolete ones
/// (§4 of the paper).
#[derive(Clone, Debug, Default)]
pub struct Qdi {
    /// The activation/eviction parameters.
    pub config: QdiConfig,
}

impl Qdi {
    /// A strategy with the given configuration.
    pub fn new(config: QdiConfig) -> Self {
        Qdi { config }
    }
}

impl From<QdiConfig> for Qdi {
    fn from(config: QdiConfig) -> Self {
        Qdi { config }
    }
}

impl Strategy for Qdi {
    fn label(&self) -> &str {
        "qdi"
    }

    fn truncation_k(&self) -> usize {
        self.config.truncation_k
    }

    fn df_max(&self) -> u64 {
        self.config.truncation_k as u64
    }

    fn build_index(&self, ctx: &mut IndexerCtx<'_>) -> Vec<HdkLevelReport> {
        vec![ctx.publish_single_term_level(self.config.truncation_k, self.df_max())]
    }

    fn post_query(&self, ctx: &mut QueryCtx<'_>, _query_key: &TermKey, result: &LatticeResult) {
        self.activation_pass(ctx, result);
        self.eviction_pass(ctx);
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

impl Qdi {
    /// Checks every probed-but-missing multi-term key for activation.
    fn activation_pass(&self, ctx: &mut QueryCtx<'_>, result: &LatticeResult) {
        let config = &self.config;
        let missing_keys: Vec<TermKey> = result
            .trace
            .nodes
            .iter()
            .filter(|(k, o)| matches!(o, NodeOutcome::Missing) && k.len() >= 2)
            .map(|(k, _)| k.clone())
            .collect();
        for key in missing_keys {
            let Some(usage) = ctx.usage(&key) else {
                continue;
            };
            // Redundancy: are complete results for this key already available
            // from a retrieved subset key?
            let redundant = result
                .retrieved
                .iter()
                .any(|(k2, list)| k2.is_subset_of(&key) && !list.is_truncated());
            let decision = activation_decision(&usage, false, key.len(), Some(!redundant), config);
            if !decision.should_activate() {
                continue;
            }
            ctx.activate_key(&key, config.truncation_k);
        }
    }

    /// Periodically deactivates keys that have not been queried within the
    /// obsolescence window.
    fn eviction_pass(&self, ctx: &mut QueryCtx<'_>) {
        let config = &self.config;
        let seq = ctx.seq();
        if config.eviction_period == 0 || !seq.is_multiple_of(config.eviction_period) {
            return;
        }
        let obsolete: Vec<TermKey> = ctx
            .entries()
            .filter(|e| e.activated && e.key.len() >= 2 && is_obsolete(&e.usage, seq, config))
            .map(|e| e.key.clone())
            .collect();
        for key in obsolete {
            ctx.deactivate_key(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::AlvisNetwork;
    use alvisp2p_netsim::TrafficStats;
    use alvisp2p_textindex::corpus::{CorpusConfig, CorpusGenerator};

    /// The reference build: `Hdk`'s levels, with every key handed to
    /// [`IndexerCtx::publish_batch`] in a call of its own — one routed
    /// publication per key, as before publications were batched. With
    /// `max_key_len == 1` it is the single-term build, and it sends no
    /// frequent-term notification.
    #[derive(Debug)]
    struct KeyAtATime(Hdk);

    /// Hands `keys` to [`IndexerCtx::publish_batch`] one call each.
    fn publish_each<'k>(
        ctx: &mut IndexerCtx<'_>,
        peer_index: usize,
        keys: impl IntoIterator<Item = &'k TermKey>,
        k: usize,
    ) {
        for key in keys {
            ctx.publish_batch(peer_index, [key], k);
        }
    }

    impl Strategy for KeyAtATime {
        fn label(&self) -> &str {
            "key-at-a-time"
        }

        fn truncation_k(&self) -> usize {
            self.0.truncation_k()
        }

        fn build_index(&self, ctx: &mut IndexerCtx<'_>) -> Vec<HdkLevelReport> {
            let hdk = &self.0;
            let k = hdk.config.truncation_k;
            for peer_index in 0..ctx.peers().len() {
                let keys = vocabulary_keys(&ctx.peers()[peer_index]);
                publish_each(ctx, peer_index, &keys, k);
            }
            if hdk.config.max_key_len < 2 {
                return Vec::new();
            }
            let frequent_terms = hdk.notify_frequent_terms(ctx);
            let mut parents = hdk::single_term_keys(&frequent_terms);
            for level in 2..=hdk.config.max_key_len {
                if parents.is_empty() {
                    break;
                }
                for peer_index in 0..ctx.peers().len() {
                    let keys = hdk.peer_candidates(
                        &ctx.peers()[peer_index],
                        &parents,
                        &frequent_terms,
                        level,
                    );
                    publish_each(ctx, peer_index, &keys, k);
                }
                parents = hdk.frequent_keys(ctx, level);
            }
            Vec::new()
        }
    }

    /// Everything a build leaves behind that batching must not move: every
    /// entry's key, content digest and publish version, each peer's served
    /// requests — plus the Indexing traffic it charged.
    fn build(
        strategy: impl Strategy + 'static,
    ) -> (Vec<(TermKey, u64, u64)>, Vec<u64>, TrafficStats) {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(), 3).generate();
        let mut net = AlvisNetwork::builder()
            .peers(16)
            .strategy(strategy)
            .seed(11)
            .corpus(&corpus)
            .build()
            .expect("valid configuration");
        let before = net.traffic_snapshot();
        net.build_index();
        let traffic = net.traffic_snapshot().since(&before);
        let index = net.global_index();
        let mut entries: Vec<(TermKey, u64, u64)> = index
            .entries()
            .map(|e| {
                (
                    e.key.clone(),
                    e.content_digest(),
                    index.publish_version(&e.key),
                )
            })
            .collect();
        entries.sort();
        let dht = index.dht();
        let served = (0..dht.peer_slots())
            .map(|p| dht.peer(p).served_requests)
            .collect();
        (entries, served, traffic)
    }

    /// Builds with `batched` and with `reference`, and checks that batching
    /// moved nothing but the Indexing message count, which it cut. Returns
    /// the batched build's entries.
    fn assert_same_build(
        batched: impl Strategy + 'static,
        reference: KeyAtATime,
    ) -> Vec<(TermKey, u64, u64)> {
        let (entries, served, traffic) = build(batched);
        let (ref_entries, ref_served, ref_traffic) = build(reference);
        assert_eq!(entries, ref_entries, "stored entries or versions moved");
        assert_eq!(served, ref_served, "served requests moved");
        let messages = traffic.category(TrafficCategory::Indexing).messages;
        let ref_messages = ref_traffic.category(TrafficCategory::Indexing).messages;
        assert!(
            messages < ref_messages,
            "{messages} ≥ {ref_messages} Indexing messages"
        );
        entries
    }

    #[test]
    fn a_batched_build_is_the_key_at_a_time_build() {
        let hdk = HdkConfig {
            df_max: 4,
            truncation_k: 8,
            ..HdkConfig::default()
        };
        let entries = assert_same_build(Hdk::new(hdk.clone()), KeyAtATime(Hdk::new(hdk)));
        assert!(
            entries.iter().any(|(key, ..)| key.len() == 3),
            "the corpus must reach HDK's third level"
        );
        let single_term = HdkConfig {
            df_max: usize::MAX,
            truncation_k: UNBOUNDED_K,
            max_key_len: 1,
            ..HdkConfig::default()
        };
        assert_same_build(SingleTermFull, KeyAtATime(Hdk::new(single_term)));
    }
}

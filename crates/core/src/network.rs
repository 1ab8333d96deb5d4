//! The AlvisP2P network: peers + overlay + distributed index, driven as one system.
//!
//! [`AlvisNetwork`] composes every layer of the architecture (Figure 2 of the paper):
//! the simulated transport and DHT overlay (L1–L2, crates `alvisp2p-netsim` /
//! `alvisp2p-dht`), the distributed indexing and retrieval components (L3, modules
//! [`crate::strategy`], [`crate::hdk`], [`crate::qdi`], [`crate::lattice`],
//! [`crate::global_index`]), the distributed ranking component (L4,
//! [`crate::ranking`]) and the per-peer local search engines (L5, [`crate::peer`],
//! crate `alvisp2p-textindex`).
//!
//! It is the entry point used by the examples, the integration tests and the
//! experiment harness: assemble a network with [`AlvisNetworkBuilder`], distribute a
//! corpus, build the distributed index with any [`Strategy`], and execute
//! [`QueryRequest`]s while every byte that would cross the wire is accounted.
//!
//! The indexing policy itself is pluggable: the network never inspects which
//! strategy it runs — construction, lattice bounds and post-query behaviour all go
//! through the [`Strategy`] trait.

use crate::baseline::CentralizedEngine;
use crate::error::AlvisError;
use crate::exec::QueryStream;
use crate::fault::{FaultPlane, RetryPolicy};
use crate::global_index::GlobalIndex;
use crate::hdk::HdkLevelReport;
use crate::key::TermKey;
use crate::lattice::{LatticeConfig, LatticeResult};
use crate::peer::{AlvisPeer, FetchOutcome};
use crate::plan::{BestEffort, QueryPlan};
use crate::qdi::QdiReport;
use crate::ranking::GlobalRankingStats;
use crate::request::{QueryRequest, QueryResponse};
use crate::strategy::{Hdk, IndexerCtx, QueryCtx, Strategy};
use alvisp2p_dht::{DhtConfig, RepairReport, ReplicationPolicy, RingId};
use alvisp2p_netsim::{TrafficCategory, TrafficStats};
use alvisp2p_textindex::bm25::{Bm25Params, ScoredDoc};
use alvisp2p_textindex::{Analyzer, Credentials, SyntheticCorpus};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Configuration of a whole AlvisP2P network.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Number of peers.
    pub peers: usize,
    /// Overlay configuration (routing strategy, identifier distribution, …).
    pub dht: DhtConfig,
    /// Distributed indexing strategy (any [`Strategy`] implementation).
    pub strategy: Arc<dyn Strategy>,
    /// BM25 parameters used by every ranking component.
    pub bm25: Bm25Params,
    /// Query-lattice exploration parameters.
    pub lattice: LatticeConfig,
    /// How the executor responds to failed probe attempts (retries, replica
    /// failover). Inert while no attempt fails.
    pub retry_policy: RetryPolicy,
    /// Master seed for all randomness.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            peers: 32,
            dht: DhtConfig::default(),
            strategy: Arc::new(Hdk::default()),
            bm25: Bm25Params::default(),
            lattice: LatticeConfig::default(),
            retry_policy: RetryPolicy::default(),
            seed: 42,
        }
    }
}

/// Fluent assembly of an [`AlvisNetwork`].
///
/// ```
/// use alvisp2p_core::network::AlvisNetwork;
/// use alvisp2p_core::strategy::Hdk;
/// use alvisp2p_core::hdk::HdkConfig;
/// use alvisp2p_textindex::demo_corpus;
///
/// let mut net = AlvisNetwork::builder()
///     .peers(4)
///     .strategy(Hdk::new(HdkConfig { df_max: 2, ..Default::default() }))
///     .seed(7)
///     .documents(demo_corpus())
///     .build()
///     .unwrap();
/// let report = net.build_index();
/// assert!(report.activated_keys > 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AlvisNetworkBuilder {
    config: NetworkConfig,
    faults: FaultPlane,
    documents: Vec<(String, String)>,
}

impl AlvisNetworkBuilder {
    /// A builder starting from the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of peers.
    pub fn peers(mut self, peers: usize) -> Self {
        self.config.peers = peers;
        self
    }

    /// Sets the indexing strategy (any [`Strategy`] implementation, including
    /// user-defined ones).
    pub fn strategy(mut self, strategy: impl Strategy + 'static) -> Self {
        self.config.strategy = Arc::new(strategy);
        self
    }

    /// Sets an already-shared strategy.
    pub fn strategy_arc(mut self, strategy: Arc<dyn Strategy>) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// A no-op: queries have one plan ([`AlvisNetwork::plan`]). Kept only
    /// because `benchmark/` (outside the workspace) calls it; goes with
    /// ROADMAP item 8.
    pub fn planner(self, _planner: BestEffort) -> Self {
        self
    }

    /// Sets the overlay configuration.
    pub fn dht(mut self, dht: DhtConfig) -> Self {
        self.config.dht = dht;
        self
    }

    /// Sets the overlay's hot-key replication policy (see
    /// [`alvisp2p_dht::replica`]). Defaults to
    /// [`alvisp2p_dht::NoReplication`].
    pub fn replication(mut self, policy: Arc<dyn ReplicationPolicy>) -> Self {
        self.config.dht.replication = policy;
        self
    }

    /// Sets the BM25 ranking parameters.
    pub fn bm25(mut self, bm25: Bm25Params) -> Self {
        self.config.bm25 = bm25;
        self
    }

    /// Sets the query-lattice exploration parameters.
    pub fn lattice(mut self, lattice: LatticeConfig) -> Self {
        self.config.lattice = lattice;
        self
    }

    /// Sets the fault-injection plane the network starts with (see
    /// [`crate::fault`]; handed to [`AlvisNetwork::set_fault_plane`]).
    /// Defaults to [`FaultPlane::default`], under which no message is ever
    /// lost, delayed or damaged.
    pub fn faults(mut self, plane: FaultPlane) -> Self {
        self.faults = plane;
        self
    }

    /// Sets the probe retry policy (see [`crate::fault::RetryPolicy`]).
    /// Defaults to bounded retries with replica failover; inert while no
    /// probe attempt fails.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.config.retry_policy = policy;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Queues `(title, body)` documents for round-robin distribution when the
    /// network is built.
    pub fn documents(mut self, docs: impl IntoIterator<Item = (String, String)>) -> Self {
        self.documents.extend(docs);
        self
    }

    /// Queues a synthetic corpus for distribution when the network is built.
    pub fn corpus(mut self, corpus: &SyntheticCorpus) -> Self {
        self.documents.extend(
            corpus
                .docs
                .iter()
                .map(|d| (d.title.clone(), d.body.clone())),
        );
        self
    }

    /// Builds the network and distributes any queued documents. The
    /// distributed index is *not* built yet (call
    /// [`AlvisNetwork::build_index`], or use [`AlvisNetworkBuilder::build_indexed`]).
    pub fn build(self) -> Result<AlvisNetwork, AlvisError> {
        if self.config.peers == 0 {
            return Err(AlvisError::InvalidConfig(
                "network needs at least one peer".into(),
            ));
        }
        if self.config.strategy.truncation_k() == 0 {
            return Err(AlvisError::InvalidConfig(
                "strategy truncation bound must be positive".into(),
            ));
        }
        let mut net = AlvisNetwork::new(self.config);
        net.set_fault_plane(self.faults);
        if !self.documents.is_empty() {
            net.distribute_documents(self.documents);
        }
        Ok(net)
    }

    /// Builds the network, distributes any queued documents and builds the
    /// distributed index in one step.
    pub fn build_indexed(self) -> Result<AlvisNetwork, AlvisError> {
        let mut net = self.build()?;
        net.build_index();
        Ok(net)
    }
}

/// Summary of a distributed index construction run.
#[derive(Clone, Debug, Default)]
pub struct IndexBuildReport {
    /// Strategy label ("single-term", "hdk", "qdi", or a custom label).
    pub strategy: String,
    /// Number of activated keys in the global index.
    pub activated_keys: usize,
    /// Total posting references stored.
    pub total_postings: usize,
    /// Approximate storage bytes of the global index.
    pub storage_bytes: usize,
    /// Bytes spent on indexing traffic.
    pub indexing_bytes: u64,
    /// Bytes spent publishing/fetching ranking statistics.
    pub ranking_bytes: u64,
    /// Per-level construction summary (single-level for flat strategies).
    pub levels: Vec<HdkLevelReport>,
}

/// A result enriched by the owning peer's local engine (the two-step refinement).
#[derive(Clone, Debug)]
pub struct RefinedResult {
    /// The document.
    pub doc: alvisp2p_textindex::DocId,
    /// The distributed (first-step) score.
    pub global_score: f64,
    /// The owning peer's local score, when its local engine also matched the query.
    pub local_score: Option<f64>,
    /// Result title (if the owner still hosts the document).
    pub title: String,
    /// URL at the hosting peer.
    pub url: String,
    /// Snippet produced by the hosting peer.
    pub snippet: String,
}

/// A complete AlvisP2P network under simulation.
pub struct AlvisNetwork {
    config: NetworkConfig,
    peers: Vec<AlvisPeer>,
    global: GlobalIndex,
    ranking: GlobalRankingStats,
    centralized: CentralizedEngine,
    analyzer: Analyzer,
    query_seq: u64,
    control_seq: u64,
    qdi_report: QdiReport,
    index_built: bool,
    last_build: Option<IndexBuildReport>,
}

impl std::fmt::Debug for AlvisNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlvisNetwork")
            .field("peers", &self.peers.len())
            .field("strategy", &self.config.strategy.label())
            .field("documents", &self.total_documents())
            .field("index_built", &self.index_built)
            .field("queries_processed", &self.query_seq)
            .finish_non_exhaustive()
    }
}

impl AlvisNetwork {
    /// Builds a network of `config.peers` peers with an already-stabilised overlay.
    ///
    /// This is the low-level constructor; [`AlvisNetwork::builder`] reports the
    /// same invariant violations as [`AlvisError::InvalidConfig`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `config.peers == 0` or the strategy's truncation bound is 0.
    pub fn new(config: NetworkConfig) -> Self {
        assert!(config.peers > 0, "network needs at least one peer");
        assert!(
            config.strategy.truncation_k() > 0,
            "strategy truncation bound must be positive"
        );
        let global = GlobalIndex::new(config.dht.clone(), config.seed, config.peers);
        let peers = (0..config.peers)
            .map(|i| AlvisPeer::new(i as u32))
            .collect();
        let centralized = CentralizedEngine::new(config.bm25);
        AlvisNetwork {
            peers,
            global,
            ranking: GlobalRankingStats::new(),
            centralized,
            analyzer: Analyzer::default(),
            query_seq: 0,
            control_seq: 0,
            qdi_report: QdiReport::default(),
            index_built: false,
            last_build: None,
            config,
        }
    }

    /// Starts assembling a network.
    pub fn builder() -> AlvisNetworkBuilder {
        AlvisNetworkBuilder::new()
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The indexing strategy the network runs.
    pub fn strategy(&self) -> &Arc<dyn Strategy> {
        &self.config.strategy
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Immutable access to a peer.
    pub fn peer(&self, index: usize) -> &AlvisPeer {
        &self.peers[index]
    }

    /// Mutable access to a peer (e.g. to publish more documents).
    pub fn peer_mut(&mut self, index: usize) -> &mut AlvisPeer {
        &mut self.peers[index]
    }

    /// The global distributed index.
    pub fn global_index(&self) -> &GlobalIndex {
        &self.global
    }

    /// Mutable access to the global distributed index (used by churn experiments and
    /// examples to drive overlay-level events such as joins, departures and failures).
    pub fn global_index_mut(&mut self) -> &mut GlobalIndex {
        &mut self.global
    }

    /// The centralized reference engine over the same collection.
    pub fn centralized(&self) -> &CentralizedEngine {
        &self.centralized
    }

    /// Accumulated traffic statistics.
    pub fn traffic(&self) -> &TrafficStats {
        self.global.stats()
    }

    /// Snapshot of the traffic statistics.
    pub fn traffic_snapshot(&self) -> TrafficStats {
        self.global.stats_snapshot()
    }

    /// Resets the traffic statistics (e.g. to isolate the retrieval phase).
    pub fn reset_traffic(&mut self) {
        self.global.reset_stats();
    }

    /// The QDI behaviour counters accumulated so far.
    pub fn qdi_report(&self) -> QdiReport {
        self.qdi_report
    }

    /// The global query sequence number (number of queries processed).
    pub fn queries_processed(&self) -> u64 {
        self.query_seq
    }

    /// The fault-injection plane every probe and publication consults (see
    /// [`crate::fault`]); owned by the [`GlobalIndex`], the component that
    /// owns the simulated wire.
    pub fn fault_plane(&self) -> &FaultPlane {
        self.global.fault_plane()
    }

    /// In-place edits of the plane — lets tests and experiments
    /// [`FaultPlane::crash`] or [`FaultPlane::restore`] peers between (or
    /// during) queries (see [`GlobalIndex::fault_plane_mut`]).
    pub fn fault_plane_mut(&mut self) -> &mut FaultPlane {
        self.global.fault_plane_mut()
    }

    /// Replaces the fault plane (see [`GlobalIndex::set_fault_plane`]).
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.global.set_fault_plane(plane);
    }

    /// Enables or disables anti-entropy replica repair in the overlay (see
    /// [`alvisp2p_dht::ReplicaManager`]). Disabled by default — the default
    /// network stays byte-identical to a repair-free one.
    pub fn set_repair_enabled(&mut self, enabled: bool) {
        self.global.dht_mut().set_repair_enabled(enabled);
    }

    /// One anti-entropy repair round over every replicated key, skipping
    /// peers the fault plane has crashed (they cannot answer digest
    /// requests). Digest exchanges and repair pulls are charged to
    /// [`TrafficCategory::Overlay`].
    pub fn repair_round(&mut self) -> RepairReport {
        let crashed = self.fault_plane().crashed().clone();
        self.global.dht_mut().repair_round_excluding(&crashed)
    }

    /// Fraction of replica copies on live, un-crashed holders that are
    /// byte-consistent with their key's canonical content (`1.0` when nothing
    /// is replicated). The convergence metric of the chaos experiments.
    pub fn replica_consistency(&self) -> f64 {
        self.global
            .dht()
            .replica_consistency_excluding(self.fault_plane().crashed())
    }

    /// Number of publications whose acknowledgement is still outstanding
    /// (they were dropped by the plane and await re-publication). Always `0`
    /// under a plane that drops no publication.
    pub fn pending_publishes(&self) -> usize {
        self.global.pending_publishes()
    }

    /// One round of the publisher-side re-publication schedule: every pending
    /// (un-acked) publication whose backoff has elapsed is re-sent, charged to
    /// [`TrafficCategory::Overlay`]. Returns `(resent, applied)`.
    pub fn republish_round(&mut self) -> (usize, usize) {
        self.global.republish_round()
    }

    /// The probe retry policy the executor applies when an attempt fails.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.config.retry_policy
    }

    // ------------------------------------------------------------------
    // Corpus distribution
    // ------------------------------------------------------------------

    /// Distributes `(title, body)` documents round-robin over the peers and indexes
    /// them locally (layer 5). The centralized reference engine indexes the same
    /// documents.
    fn distribute_documents(&mut self, docs: impl IntoIterator<Item = (String, String)>) -> usize {
        let mut count = 0usize;
        let n = self.peers.len();
        for (i, (title, body)) in docs.into_iter().enumerate() {
            let peer_index = i % n;
            let text = format!("{title} {body}");
            let id = self.peers[peer_index].publish(title, body);
            self.centralized.index_text(id, &text);
            count += 1;
        }
        count
    }

    /// Distributes a synthetic corpus round-robin over the peers.
    pub fn distribute_corpus(&mut self, corpus: &SyntheticCorpus) -> usize {
        self.distribute_documents(
            corpus
                .docs
                .iter()
                .map(|d| (d.title.clone(), d.body.clone())),
        )
    }

    /// Total number of documents published across all peers.
    pub fn total_documents(&self) -> usize {
        self.peers.iter().map(|p| p.indexed_documents()).sum()
    }

    // ------------------------------------------------------------------
    // Distributed index construction
    // ------------------------------------------------------------------

    /// How many times one ranking-statistics fragment is sent before the
    /// publisher gives up for this build. With a per-message loss rate `p`
    /// the chance of losing all sends is `p^3` — negligible at realistic
    /// rates, but honest: a fragment that loses every send is genuinely
    /// absent.
    const CONTROL_PUBLISH_ATTEMPTS: u32 = 3;

    /// Publishes every peer's collection statistics to the ranking layer (L4) and
    /// aggregates them into the global statistics used for scoring. Every
    /// send is charged (a dropped message crossed the wire before
    /// vanishing); a send the plane's sync-loss draw drops is immediately
    /// re-sent, up to [`AlvisNetwork::CONTROL_PUBLISH_ATTEMPTS`] sends in
    /// total, and a fragment that loses every send is left out of the
    /// aggregate.
    fn publish_ranking_stats(&mut self) {
        self.ranking = GlobalRankingStats::new();
        for i in 0..self.peers.len() {
            let fragment = self.peers[i].collection_stats();
            let bytes = GlobalRankingStats::fragment_wire_size(&fragment);
            self.control_seq += 1;
            let seq = self.control_seq;
            let arrived = (0..Self::CONTROL_PUBLISH_ATTEMPTS).any(|attempt| {
                self.global.charge(TrafficCategory::Ranking, bytes);
                !self
                    .global
                    .fault_plane()
                    .sync_lost(RingId(i as u64), seq, attempt)
            });
            if arrived {
                self.ranking.merge_fragment(&fragment);
            }
        }
        // Every peer fetches the aggregated summary (doc count + average length).
        for _ in &self.peers {
            self.global.charge(TrafficCategory::Ranking, 24);
        }
    }

    /// Builds the distributed index with the configured [`Strategy`] and returns a
    /// construction report.
    pub fn build_index(&mut self) -> IndexBuildReport {
        let before = self.traffic_snapshot();
        self.publish_ranking_stats();
        let strategy = Arc::clone(&self.config.strategy);
        let mut ctx = IndexerCtx::new(
            &self.peers,
            &mut self.global,
            &self.ranking,
            self.config.bm25,
        );
        let levels = strategy.build_index(&mut ctx);
        self.index_built = true;

        let after = self.traffic_snapshot();
        let delta = after.since(&before);
        let report = IndexBuildReport {
            strategy: strategy.label().to_string(),
            activated_keys: self.global.activated_keys(),
            total_postings: self.global.total_postings(),
            storage_bytes: self.global.total_storage_bytes(),
            indexing_bytes: delta.category(TrafficCategory::Indexing).bytes,
            ranking_bytes: delta.category(TrafficCategory::Ranking).bytes,
            levels,
        };
        self.last_build = Some(report.clone());
        report
    }

    /// Whether [`AlvisNetwork::build_index`] has run.
    pub fn index_built(&self) -> bool {
        self.index_built
    }

    /// The report of the most recent [`AlvisNetwork::build_index`] run, if any.
    pub fn last_build_report(&self) -> Option<&IndexBuildReport> {
        self.last_build.as_ref()
    }

    // ------------------------------------------------------------------
    // Retrieval: the plan → execute pipeline
    // ------------------------------------------------------------------

    /// Validates a request against this network. Guards every entry point of the
    /// query pipeline so an out-of-range origin is always a typed [`AlvisError`],
    /// never a peer-indexing panic.
    fn validate_request(&self, request: &QueryRequest) -> Result<(), AlvisError> {
        if request.top_k == 0 {
            return Err(AlvisError::InvalidRequest("top_k must be positive".into()));
        }
        if request.origin >= self.peers.len() {
            return Err(AlvisError::NoSuchPeer {
                origin: request.origin,
                peers: self.peers.len(),
            });
        }
        Ok(())
    }

    /// Plans one [`QueryRequest`]: analyzes the query and returns the
    /// cost-annotated probe schedule over its term lattice under the
    /// strategy's lattice bounds (see [`crate::plan`]). Planning is free — no
    /// traffic is charged and no network state changes.
    pub fn plan(&self, request: &QueryRequest) -> Result<QueryPlan, AlvisError> {
        self.validate_request(request)?;
        let terms = self.analyzer.analyze_query_ids(&request.text);
        if terms.is_empty() {
            return Ok(QueryPlan {
                origin: request.origin,
                ..QueryPlan::default()
            });
        }
        let strategy = &self.config.strategy;
        Ok(QueryPlan::new(
            &TermKey::from_term_ids(terms),
            request.origin,
            &strategy.lattice_config(&self.config.lattice),
            strategy.truncation_k(),
            &self.ranking,
            &self.global,
        ))
    }

    /// Runs a [`QueryPlan`] to completion and returns the assembled
    /// [`QueryResponse`]. The byte budget is enforced by the Reserve rule
    /// (see [`crate::plan`]). The plan is borrowed so callers can
    /// reuse it; a one-shot caller hands its plan to [`AlvisNetwork::stream`].
    pub fn run(
        &mut self,
        plan: &QueryPlan,
        request: &QueryRequest,
    ) -> Result<QueryResponse, AlvisError> {
        self.stream(plan.clone(), request.clone())?.finish()
    }

    /// Starts a [`QueryStream`] over the plan: the caller drains
    /// [`crate::exec::ProbeEvent`]s at its own pace, may stop early, and then
    /// finishes the stream into the response.
    ///
    /// The request must originate from the peer the plan was made for: the
    /// plan's cost annotations (and therefore the Reserve rule's
    /// never-exceed-the-budget guarantee) are origin-specific, so a mismatch is
    /// an [`AlvisError::InvalidRequest`].
    pub fn stream(
        &mut self,
        plan: QueryPlan,
        request: QueryRequest,
    ) -> Result<QueryStream<'_>, AlvisError> {
        self.validate_request(&request)?;
        if plan.query_key.is_some() && plan.origin != request.origin {
            return Err(AlvisError::InvalidRequest(format!(
                "plan was made for origin {} but the request originates from {}; \
                 re-plan for the new origin (cost annotations are origin-specific)",
                plan.origin, request.origin
            )));
        }
        Ok(QueryStream::new(self, plan, request))
    }

    /// Executes one [`QueryRequest`] and returns the ranked results together with
    /// the exploration trace and the traffic the query consumed.
    ///
    /// Thin wrapper over [`AlvisNetwork::plan`] + [`AlvisNetwork::stream`] +
    /// [`QueryStream::finish`].
    pub fn execute(&mut self, request: &QueryRequest) -> Result<QueryResponse, AlvisError> {
        let plan = self.plan(request)?;
        self.stream(plan, request.clone())?.finish()
    }

    /// Executes a batch of requests in order, stopping at the first error. Each
    /// request is planned and run like [`AlvisNetwork::execute`].
    pub fn query_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<Vec<QueryResponse>, AlvisError> {
        requests.iter().map(|r| self.execute(r)).collect()
    }

    // ------------------------------------------------------------------
    // Crate-internal execution hooks (used by exec::QueryStream)
    // ------------------------------------------------------------------

    /// Current retrieval-category `(bytes, messages)` totals.
    pub(crate) fn retrieval_totals(&self) -> (u64, u64) {
        let c = self.global.stats().category(TrafficCategory::Retrieval);
        (c.bytes, c.messages)
    }

    /// Registers the start of one query and returns its global sequence number.
    pub(crate) fn begin_query(&mut self) -> u64 {
        self.query_seq += 1;
        self.qdi_report.queries += 1;
        self.query_seq
    }

    /// Lets the strategy observe a finished query (QDI activation/eviction) and
    /// updates the behaviour counters.
    pub(crate) fn post_query_hook(
        &mut self,
        query_key: &TermKey,
        result: &LatticeResult,
        seq: u64,
    ) {
        let strategy = Arc::clone(&self.config.strategy);
        let mut ctx = QueryCtx::new(
            &self.peers,
            &mut self.global,
            &self.ranking,
            self.config.bm25,
            seq,
            &mut self.qdi_report,
        );
        strategy.post_query(&mut ctx, query_key, result);
        let multi_hits = result
            .retrieved
            .iter()
            .filter(|(key, _)| key.len() > 1)
            .count() as u64;
        self.qdi_report.multi_term_hits += multi_hits;
    }

    /// Runs the query against the centralized reference engine (quality baseline).
    pub fn reference_search(&self, text: &str, k: usize) -> Vec<ScoredDoc> {
        self.centralized.search(text, k)
    }

    // ------------------------------------------------------------------
    // Two-step refinement and document access
    // ------------------------------------------------------------------

    /// Second retrieval step: forwards the query to the local engines of the peers
    /// hosting the first-step results and enriches each result with the owner's local
    /// score, title, URL and snippet. Runs automatically for requests built with
    /// [`QueryRequest::with_refinement`].
    pub fn refine(&mut self, query: &str, results: &[ScoredDoc], k: usize) -> Vec<RefinedResult> {
        let mut owners: BTreeSet<u32> = results.iter().take(k).map(|r| r.doc.peer).collect();
        owners.retain(|p| (*p as usize) < self.peers.len());
        // Forward the query to each owner and receive its local ranking.
        for owner in &owners {
            let request = 32 + query.len();
            self.global.charge(TrafficCategory::Retrieval, request);
            let response = 64
                * results
                    .iter()
                    .take(k)
                    .filter(|r| r.doc.peer == *owner)
                    .count();
            self.global.charge(TrafficCategory::Retrieval, response);
        }
        results
            .iter()
            .take(k)
            .map(|r| {
                let owner = r.doc.peer as usize;
                let (local_score, title, url, snippet) = if owner < self.peers.len() {
                    let peer = &self.peers[owner];
                    let local = peer
                        .local_search(query, k.max(20))
                        .into_iter()
                        .find(|s| s.doc == r.doc)
                        .map(|s| s.score);
                    let (title, url) = peer
                        .documents()
                        .get(r.doc)
                        .map(|d| (d.title.clone(), d.url.clone()))
                        .unwrap_or_else(|| (String::new(), String::new()));
                    (local, title, url, peer.snippet(r.doc))
                } else {
                    (None, String::new(), String::new(), String::new())
                };
                RefinedResult {
                    doc: r.doc,
                    global_score: r.score,
                    local_score,
                    title,
                    url,
                    snippet,
                }
            })
            .collect()
    }

    /// Fetches a result document from its hosting peer, enforcing access rights. The
    /// request and response are charged to [`TrafficCategory::Retrieval`].
    pub fn fetch_document(
        &mut self,
        doc: alvisp2p_textindex::DocId,
        credentials: &Credentials,
    ) -> FetchOutcome {
        let owner = doc.peer as usize;
        if owner >= self.peers.len() {
            return FetchOutcome::NotFound;
        }
        self.global.charge(TrafficCategory::Retrieval, 48);
        let outcome = self.peers[owner].fetch(doc, credentials);
        let response_bytes = match &outcome {
            FetchOutcome::Full(d) => d.body.len() + d.title.len() + 32,
            FetchOutcome::Metadata {
                snippet,
                title,
                url,
            } => snippet.len() + title.len() + url.len(),
            _ => 8,
        };
        self.global
            .charge(TrafficCategory::Retrieval, response_bytes);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdk::HdkConfig;
    use crate::qdi::QdiConfig;
    use crate::request::ThresholdMode;
    use crate::strategy::{Qdi, SingleTermFull};
    use alvisp2p_textindex::demo_corpus;

    fn demo_network(strategy: impl Strategy + 'static, peers: usize) -> AlvisNetwork {
        AlvisNetwork::builder()
            .peers(peers)
            .strategy(strategy)
            .seed(7)
            .documents(demo_corpus())
            .build()
            .expect("valid configuration")
    }

    /// What a fault-free build charges to the ranking layer: each peer's
    /// statistics fragment once, plus each peer's 24 B summary fetch, each
    /// message in its wire envelope.
    fn expected_ranking_bytes(net: &AlvisNetwork) -> u64 {
        use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
        let fragments: usize = (0..net.peer_count())
            .map(|i| GlobalRankingStats::fragment_wire_size(&net.peer(i).collection_stats()))
            .sum();
        (fragments + (24 + 2 * ENVELOPE_OVERHEAD) * net.peer_count()) as u64
    }

    #[test]
    fn distribute_spreads_documents_round_robin() {
        let net = {
            let mut n = demo_network(Hdk::default(), 4);
            assert_eq!(n.total_documents(), 12);
            n.build_index();
            n
        };
        for i in 0..4 {
            assert_eq!(net.peer(i).indexed_documents(), 3);
        }
        assert_eq!(net.centralized().doc_count(), 12);
        assert!(net.index_built());
    }

    #[test]
    fn builder_rejects_invalid_configurations() {
        let err = AlvisNetwork::builder().peers(0).build().unwrap_err();
        assert!(matches!(err, AlvisError::InvalidConfig(_)));
        let err = AlvisNetwork::builder()
            .strategy(Hdk::new(HdkConfig {
                truncation_k: 0,
                ..Default::default()
            }))
            .build()
            .unwrap_err();
        assert!(matches!(err, AlvisError::InvalidConfig(_)));
    }

    #[test]
    fn hdk_query_finds_relevant_documents() {
        let mut net = demo_network(
            Hdk::new(HdkConfig {
                df_max: 2,
                truncation_k: 5,
                ..Default::default()
            }),
            4,
        );
        let report = net.build_index();
        assert!(report.activated_keys > 10);
        assert!(report.indexing_bytes > 0);
        assert_eq!(report.ranking_bytes, expected_ranking_bytes(&net));
        assert_eq!(report.strategy, "hdk");
        assert!(!report.levels.is_empty());

        let outcome = net
            .execute(&QueryRequest::new("posting list truncated"))
            .unwrap();
        assert!(!outcome.results.is_empty());
        assert!(outcome.bytes > 0);
        assert!(outcome.trace.probes > 0);
        // The top result should also be in the centralized reference's top results.
        let reference = net.reference_search("posting list truncated", 10);
        let ref_docs: Vec<_> = reference.iter().map(|r| r.doc).collect();
        assert!(ref_docs.contains(&outcome.results[0].doc));
    }

    #[test]
    fn single_term_baseline_reaches_reference_quality_with_more_bytes() {
        let mut baseline = demo_network(SingleTermFull, 4);
        let report = baseline.build_index();
        // The ranking layer's charge does not depend on the strategy.
        assert_eq!(report.ranking_bytes, expected_ranking_bytes(&baseline));
        let mut hdk = demo_network(
            Hdk::new(HdkConfig {
                df_max: 2,
                truncation_k: 3,
                ..Default::default()
            }),
            4,
        );
        hdk.build_index();

        let request = QueryRequest::new("peer retrieval index").from_peer(1);
        let b = baseline.execute(&request).unwrap();
        let h = hdk.execute(&request).unwrap();
        let reference = baseline.reference_search(&request.text, 10);
        assert!(!b.results.is_empty());
        // The untruncated baseline reproduces the reference ranking's document set.
        let ref_set: std::collections::HashSet<_> = reference.iter().map(|r| r.doc).collect();
        let base_set: std::collections::HashSet<_> = b.results.iter().map(|r| r.doc).collect();
        assert_eq!(ref_set, base_set);
        // Both answered the query; the HDK network used bounded posting lists.
        assert!(h.bytes > 0 && b.bytes > 0);
    }

    #[test]
    fn qdi_activates_popular_keys_and_improves_hits() {
        // A very small truncation bound forces even the tiny demo corpus to produce
        // truncated single-term lists, so multi-term keys are non-redundant and can be
        // activated on demand.
        let mut net = demo_network(
            Qdi::new(QdiConfig {
                activation_threshold: 2,
                truncation_k: 2,
                ..Default::default()
            }),
            4,
        );
        net.build_index();
        let query = "query driven indexing";
        // Initially the multi-term key is not indexed.
        let first = net.execute(&QueryRequest::new(query)).unwrap();
        assert!(!first.results.is_empty());
        assert_eq!(net.qdi_report().activations, 0);
        // After enough repetitions the popular combination gets activated.
        let batch: Vec<QueryRequest> = (1..3)
            .map(|origin| QueryRequest::new(query).from_peer(origin))
            .collect();
        let responses = net.query_batch(&batch).unwrap();
        assert_eq!(responses.len(), 2);
        assert!(net.qdi_report().activations >= 1, "{:?}", net.qdi_report());
        // Subsequent queries hit the activated multi-term key.
        let later = net.execute(&QueryRequest::new(query).from_peer(3)).unwrap();
        let multi_found = later.trace.found_keys().iter().any(|k| k.len() > 1);
        assert!(multi_found, "trace: {:?}", later.trace.nodes);
        assert!(net.qdi_report().multi_term_hits >= 1);
    }

    #[test]
    fn empty_query_and_bad_requests_are_handled() {
        let mut net = demo_network(Hdk::default(), 2);
        net.build_index();
        let empty = net.execute(&QueryRequest::new("the of and")).unwrap();
        assert!(empty.results.is_empty());
        assert_eq!(empty.bytes, 0);
        assert!(matches!(
            net.execute(&QueryRequest::new("peer").from_peer(99)),
            Err(AlvisError::NoSuchPeer {
                origin: 99,
                peers: 2
            })
        ));
        assert!(matches!(
            net.execute(&QueryRequest::new("peer").top_k(0)),
            Err(AlvisError::InvalidRequest(_))
        ));
    }

    #[test]
    fn refinement_enriches_results_with_owner_metadata() {
        let mut net = demo_network(Hdk::default(), 3);
        net.build_index();
        let outcome = net
            .execute(
                &QueryRequest::new("congestion control overlay")
                    .top_k(5)
                    .with_refinement(),
            )
            .unwrap();
        assert!(!outcome.results.is_empty());
        let refined = &outcome.refined;
        assert_eq!(refined.len(), outcome.results.len().min(5));
        let top = &refined[0];
        assert!(!top.title.is_empty());
        assert!(top.url.starts_with("http://peer"));
        assert!(!top.snippet.is_empty());
        assert!(top.local_score.is_some());
        assert!(top.global_score > 0.0);
    }

    #[test]
    fn fetch_document_respects_access_rights_through_the_network() {
        let mut net = demo_network(Hdk::default(), 2);
        net.build_index();
        let outcome = net
            .execute(&QueryRequest::new("access rights shared documents").top_k(5))
            .unwrap();
        assert!(!outcome.results.is_empty());
        let doc = outcome.results[0].doc;
        match net.fetch_document(doc, &Credentials::anonymous()) {
            FetchOutcome::Full(d) => assert!(!d.body.is_empty()),
            other => panic!("expected full document, got {other:?}"),
        }
        assert!(matches!(
            net.fetch_document(
                alvisp2p_textindex::DocId::new(99, 0),
                &Credentials::anonymous()
            ),
            FetchOutcome::NotFound
        ));
    }

    #[test]
    fn index_load_is_distributed_over_peers() {
        let mut net = demo_network(
            Hdk::new(HdkConfig {
                df_max: 2,
                ..Default::default()
            }),
            6,
        );
        net.build_index();
        let load = net.global_index().per_peer_load();
        assert_eq!(load.len(), 6);
        let peers_with_keys = load.iter().filter(|(k, _)| *k > 0).count();
        assert!(peers_with_keys >= 3, "load: {load:?}");
    }

    #[test]
    fn budgets_bound_exploration_and_are_reported() {
        let mut net = demo_network(Hdk::default(), 4);
        net.build_index();
        // A tiny byte budget stops probing almost immediately.
        let tight = net
            .execute(&QueryRequest::new("peer to peer retrieval").byte_budget(1))
            .unwrap();
        assert!(tight.budget_exhausted);
        // A generous budget changes nothing.
        let loose = net
            .execute(&QueryRequest::new("peer to peer retrieval").byte_budget(u64::MAX))
            .unwrap();
        assert!(!loose.budget_exhausted);
        assert!(!loose.results.is_empty());
    }

    #[test]
    fn exhausting_the_lattice_exactly_at_the_budget_is_not_truncation() {
        // budget_exhausted means "a budget withheld a probe", not "the budget
        // happened to be fully spent": a budget equal to the plan's estimated
        // total admits every probe (each estimate bounds its probe's charge),
        // so it holds back nothing and is not reported as truncation.
        let mut reference = demo_network(Hdk::default(), 4);
        reference.build_index();
        let request = QueryRequest::new("peer to peer retrieval");
        let free = reference.execute(&request).unwrap();

        let mut net = demo_network(Hdk::default(), 4);
        net.build_index();
        let budget = net.plan(&request).unwrap().est_total_bytes;
        let exact = net.execute(&request.clone().byte_budget(budget)).unwrap();
        assert_eq!(exact.trace.nodes, free.trace.nodes);
        assert_eq!(exact.bytes, free.bytes);
        assert!(!exact.budget_exhausted);
    }

    // ------------------------------------------------------------------
    // The plan → execute pipeline
    // ------------------------------------------------------------------

    #[test]
    fn plan_then_run_matches_execute_exactly() {
        let mut planned = demo_network(Hdk::default(), 4);
        planned.build_index();
        let mut direct = demo_network(Hdk::default(), 4);
        direct.build_index();

        let request = QueryRequest::new("peer to peer retrieval").from_peer(2);
        let plan = planned.plan(&request).unwrap();
        assert!(plan.est_total_bytes > 0);
        let via_plan = planned.run(&plan, &request).unwrap();
        let via_execute = direct.execute(&request).unwrap();

        assert_eq!(via_plan.trace.nodes, via_execute.trace.nodes);
        assert_eq!(via_plan.bytes, via_execute.bytes);
        assert_eq!(via_plan.hops, via_execute.hops);
        let plan_docs: Vec<_> = via_plan.results.iter().map(|r| r.doc).collect();
        let exec_docs: Vec<_> = via_execute.results.iter().map(|r| r.doc).collect();
        assert_eq!(plan_docs, exec_docs);
    }

    #[test]
    fn planning_is_free_and_annotates_costs() {
        let mut net = demo_network(Hdk::default(), 4);
        net.build_index();
        net.reset_traffic();
        let request = QueryRequest::new("peer to peer retrieval");
        let plan = net.plan(&request).unwrap();
        assert_eq!(net.traffic_snapshot().bytes_sent(), 0, "planning is free");
        assert!(plan.scheduled_probes() > 0);
        for node in plan.probes() {
            assert!(node.est_bytes > 0);
        }
        let total: u64 = plan.probes().map(|n| n.est_bytes).sum();
        assert_eq!(plan.est_total_bytes, total);
    }

    #[test]
    fn reserve_rule_never_exceeds_budgets() {
        for budget in [1u64, 300, 800, 2_000, 10_000] {
            let mut net = demo_network(Hdk::default(), 4);
            net.build_index();
            net.reset_traffic();
            let request =
                QueryRequest::new("peer to peer retrieval overlay network").byte_budget(budget);
            let response = net.execute(&request).unwrap();
            assert!(
                response.bytes <= budget,
                "spent {} with byte budget {budget}",
                response.bytes
            );
        }
    }

    #[test]
    fn stream_yields_per_probe_events_with_running_top_k() {
        let mut net = demo_network(Hdk::default(), 4);
        net.build_index();
        let request = QueryRequest::new("peer to peer retrieval").top_k(5);
        let plan = net.plan(&request).unwrap();
        let scheduled = plan.scheduled_probes();
        let mut stream = net.stream(plan, request).unwrap();
        let mut events = Vec::new();
        let mut last_top_k = Vec::new();
        while let Some(event) = stream.next_event() {
            events.push(event.unwrap());
            last_top_k = stream.running_top_k();
            assert!(last_top_k.len() <= 5);
        }
        let response = stream.finish().unwrap();
        assert!(!events.is_empty());
        assert!(events.len() <= scheduled);
        assert_eq!(events.len(), response.trace.probes);
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.index, i);
            assert_eq!(event.planned, scheduled);
            assert!(event.bytes > 0);
            assert!(event.spent_bytes >= event.bytes);
        }
        // The running top-k after the last event equals the final ranking.
        let last_docs: Vec<_> = last_top_k.iter().map(|r| r.doc).collect();
        let final_docs: Vec<_> = response.results.iter().map(|r| r.doc).collect();
        assert_eq!(last_docs, final_docs);
        // Cumulative spend adds up to the response's first-step bytes.
        assert_eq!(events.last().unwrap().spent_bytes, response.bytes);
    }

    #[test]
    fn observer_can_stop_once_the_top_k_stabilises() {
        let mut full = demo_network(Hdk::default(), 4);
        full.build_index();
        let request = QueryRequest::new("peer to peer retrieval");
        let plan = full.plan(&request).unwrap();
        let unbounded = full.run(&plan, &request).unwrap();
        assert!(unbounded.trace.probes > 1);

        // Stopping after the first event records the rest as skipped and
        // the response is assembled from what was retrieved.
        let mut net = demo_network(Hdk::default(), 4);
        net.build_index();
        let plan = net.plan(&request).unwrap();
        let scheduled = plan.scheduled_probes();
        let mut stream = net.stream(plan, request.clone()).unwrap();
        stream.next_event().unwrap().unwrap();
        let retrieved_so_far = stream.running_top_k();
        stream.stop();
        assert!(stream.next_event().is_none());
        let stopped = stream.finish().unwrap();
        assert_eq!(stopped.trace.probes, 1);
        assert!(stopped.trace.skipped_keys().len() >= scheduled - 1);
        assert!(stopped.bytes < unbounded.bytes);
        assert_eq!(stopped.results, retrieved_so_far);

        // The built-in stabilisation policy terminates too (possibly at the
        // natural end of the plan) and never changes the result set ordering
        // rules.
        let mut net = demo_network(Hdk::default(), 4);
        net.build_index();
        let plan = net.plan(&request).unwrap();
        let mut stable = crate::exec::StableTopK::new(2);
        let mut stream = net.stream(plan, request).unwrap();
        while let Some(event) = stream.next_event() {
            event.unwrap();
            if stable.observe(&stream.running_top_k()) {
                stream.stop();
            }
        }
        let observed = stream.finish().unwrap();
        assert!(!observed.results.is_empty());
        assert!(observed.trace.probes <= unbounded.trace.probes);
    }

    #[test]
    fn lost_publications_are_republished_until_the_index_converges() {
        let mut reference = demo_network(Hdk::default(), 4);
        reference.build_index();
        let request = QueryRequest::new("peer to peer retrieval");
        let want: Vec<_> = reference
            .execute(&request)
            .unwrap()
            .results
            .iter()
            .map(|r| r.doc)
            .collect();

        let mut net = demo_network(Hdk::default(), 4);
        net.set_fault_plane(FaultPlane::seeded(9).with_publish_loss(0.4));
        net.build_index();
        let dropped = net.pending_publishes();
        assert!(dropped > 0, "a 40% publish-loss build should drop some");
        // The bounded-backoff re-publication schedule drains the pending set.
        let mut rounds = 0;
        while net.pending_publishes() > 0 {
            net.republish_round();
            rounds += 1;
            assert!(rounds < 200, "re-publication did not converge");
        }
        // Re-publication traffic is Overlay, never Retrieval.
        assert!(
            net.traffic_snapshot()
                .category(TrafficCategory::Overlay)
                .bytes
                > 0
        );
        // Once every publication landed, the index answers like the
        // fault-free build.
        let got: Vec<_> = net
            .execute(&request)
            .unwrap()
            .results
            .iter()
            .map(|r| r.doc)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn threshold_mode_pins_are_inert() {
        // `ThresholdMode`, `ProbeEvent::score_floor` and the trace's
        // `skipped_blocks` / `elided_bytes` stay only for `benchmark/`: both
        // modes run the same floor-free execution on twin networks.
        let build = || {
            let mut net = demo_network(Hdk::default(), 4);
            net.build_index();
            net
        };
        let (mut off_net, mut safe_net) = (build(), build());
        let queries = [
            "peer to peer retrieval",
            "distributed hash table",
            "posting list index",
            "query driven indexing",
            "network peers index",
        ];
        let run = |net: &mut AlvisNetwork, request: QueryRequest| {
            let plan = net.plan(&request).unwrap();
            let mut stream = net.stream(plan, request).unwrap();
            let mut events = Vec::new();
            while let Some(event) = stream.next_event() {
                events.push(event.unwrap());
            }
            (events, stream.finish().unwrap())
        };
        for (i, text) in queries.iter().enumerate() {
            let base = QueryRequest::new(*text).from_peer(i % 4).top_k(3);
            let (off_events, off) = run(
                &mut off_net,
                base.clone().threshold_mode(ThresholdMode::Off),
            );
            let (safe_events, safe) =
                run(&mut safe_net, base.threshold_mode(ThresholdMode::RankSafe));
            let bits = |r: &QueryResponse| -> Vec<_> {
                r.results
                    .iter()
                    .map(|d| (d.doc, d.score.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&safe), bits(&off), "query {text:?} diverged");
            assert_eq!(safe.bytes, off.bytes, "{text:?}");
            assert_eq!(safe.trace.nodes, off.trace.nodes, "{text:?}");
            assert!(!off_events.is_empty(), "{text:?} sent no probe");
            for event in off_events.iter().chain(&safe_events) {
                assert_eq!(event.score_floor, None, "{text:?}: {:?}", event.key);
            }
            for response in [&off, &safe] {
                assert_eq!(response.trace.skipped_blocks, 0, "{text:?}");
                assert_eq!(response.trace.elided_bytes, 0, "{text:?}");
            }
        }
    }

    #[test]
    fn repair_api_is_inert_without_replication() {
        let mut net = demo_network(Hdk::default(), 4);
        net.build_index();
        assert_eq!(net.replica_consistency(), 1.0);
        net.set_repair_enabled(true);
        let report = net.repair_round();
        assert_eq!(report.keys_checked, 0);
        assert_eq!(report.digests_exchanged, 0);
        assert_eq!(net.pending_publishes(), 0);
    }

    #[test]
    fn invalid_requests_fail_identically_across_entry_points() {
        let mut net = demo_network(Hdk::default(), 2);
        net.build_index();
        let bad_origin = QueryRequest::new("peer").from_peer(99);
        assert!(matches!(
            net.plan(&bad_origin),
            Err(AlvisError::NoSuchPeer {
                origin: 99,
                peers: 2
            })
        ));
        let ok_plan = net.plan(&QueryRequest::new("peer")).unwrap();
        assert!(matches!(
            net.stream(ok_plan.clone(), bad_origin.clone()),
            Err(AlvisError::NoSuchPeer { .. })
        ));
        assert!(matches!(
            net.run(&ok_plan, &bad_origin),
            Err(AlvisError::NoSuchPeer { .. })
        ));
        assert!(matches!(
            net.plan(&QueryRequest::new("peer").top_k(0)),
            Err(AlvisError::InvalidRequest(_))
        ));
        // A plan is origin-specific: running it for a different (valid) origin
        // would void its cost annotations, so it is rejected.
        assert!(matches!(
            net.run(&ok_plan, &QueryRequest::new("peer").from_peer(1)),
            Err(AlvisError::InvalidRequest(_))
        ));
        // Empty queries plan to an empty schedule and run to an empty response.
        let empty_plan = net.plan(&QueryRequest::new("the of and")).unwrap();
        assert!(empty_plan.is_empty());
        let response = net
            .run(&empty_plan, &QueryRequest::new("the of and"))
            .unwrap();
        assert!(response.is_empty());
        assert_eq!(response.bytes, 0);
    }
}

//! # AlvisP2P (reproduction)
//!
//! A from-scratch Rust reproduction of **"AlvisP2P: Scalable Peer-to-Peer Text
//! Retrieval in a Structured P2P Network"** (Luu et al., VLDB 2008).
//!
//! This crate is a thin facade over the workspace:
//!
//! * [`netsim`] (`alvisp2p-netsim`) — the transport layer's byte accounting, seeded
//!   RNG and workload distributions; there is no simulated clock (layer 1);
//! * [`dht`] (`alvisp2p-dht`) — structured overlay with skew-tolerant hop-space
//!   routing, storage, churn and hot-key replication (layer 2);
//! * [`textindex`] (`alvisp2p-textindex`) — the local search-engine substrate:
//!   analysis pipeline, positional inverted index, BM25, corpora, query logs
//!   (layer 5);
//! * [`core`] (`alvisp2p-core`) — the paper's contribution: HDK and Query-Driven
//!   distributed indexing, query-lattice retrieval and distributed ranking
//!   (layers 3–4).
//!
//! The public API is session-oriented and strategy-pluggable: assemble a network
//! with [`prelude::AlvisNetworkBuilder`], pick any [`prelude::Strategy`]
//! implementation (the paper's [`prelude::SingleTermFull`], [`prelude::Hdk`] and
//! [`prelude::Qdi`] are built in), and run [`prelude::QueryRequest`]s — singly via
//! `execute` or in batches via `query_batch`. Every fallible call returns the
//! unified [`prelude::AlvisError`].
//!
//! The [`prelude`] re-exports the handful of types most applications need.
//!
//! ```
//! use alvisp2p::prelude::*;
//!
//! let mut net = AlvisNetwork::builder()
//!     .peers(4)
//!     .strategy(Hdk::new(HdkConfig { df_max: 2, ..Default::default() }))
//!     .documents(demo_corpus())
//!     .build_indexed()
//!     .unwrap();
//! let hits = net
//!     .execute(&QueryRequest::new("peer to peer retrieval").top_k(5))
//!     .unwrap();
//! assert!(!hits.results.is_empty());
//! ```
//!
//! ## Plan / execute / stream
//!
//! Query execution is an explicit two-phase pipeline underneath `execute`:
//! a [`prelude::Planner`] first turns the request into a [`prelude::QueryPlan`]
//! — an ordered, cost-annotated probe schedule over the query's term lattice,
//! using per-key document-frequency estimates and traffic-free DHT hop
//! estimates — and the network then runs the plan, yielding results
//! incrementally.
//!
//! * [`prelude::BestEffort`] (the default) reproduces the fixed-order,
//!   budget-cutoff semantics of the classic `execute` path.
//! * [`prelude::GreedyCost`] plans against the request's byte budget:
//!   provably useless probes are dropped, the rest are prioritised by
//!   benefit/cost, and probes are only sent while their worst-case cost still
//!   fits — the spend never exceeds the budget.
//!
//! Results stream: [`prelude::AlvisNetwork::stream`] pulls one
//! [`prelude::ProbeEvent`] per probe (key, outcome, bytes), merges the running
//! top-k on demand ([`prelude::QueryStream::running_top_k`]) and may be
//! stopped early ([`prelude::QueryStream::stop`]) — e.g. once the built-in
//! [`prelude::StableTopK`] reports that the top-k stopped changing.
//!
//! ```
//! use alvisp2p::prelude::*;
//!
//! let mut net = AlvisNetwork::builder()
//!     .peers(4)
//!     .strategy(Hdk::new(HdkConfig { df_max: 2, ..Default::default() }))
//!     .planner(GreedyCost)
//!     .documents(demo_corpus())
//!     .build_indexed()
//!     .unwrap();
//!
//! // Plan: a cost-annotated schedule, free of network traffic.
//! let request = QueryRequest::new("truncated posting lists").byte_budget(50_000);
//! let plan = net.plan(&request).unwrap();
//! assert!(plan.scheduled_probes() > 0 && plan.est_total_bytes > 0);
//!
//! // Execute: stream per-probe events, then finish into the response.
//! let mut stream = net.stream(plan.clone(), request.clone()).unwrap();
//! let mut probes_seen = 0;
//! while let Some(event) = stream.next_event() {
//!     let event = event.unwrap();
//!     probes_seen += 1;
//!     assert!(event.spent_bytes <= 50_000); // GreedyCost never exceeds the budget
//! }
//! let response = stream.finish().unwrap();
//! assert_eq!(probes_seen, response.trace.probes);
//! assert!(response.bytes <= 50_000);
//!
//! // Or stop early once the top-k stabilises.
//! let mut stable = StableTopK::new(2);
//! let mut stream = net.stream(plan, request).unwrap();
//! while let Some(event) = stream.next_event() {
//!     event.unwrap();
//!     if stable.observe(&stream.running_top_k()) {
//!         stream.stop();
//!     }
//! }
//! assert!(!stream.finish().unwrap().results.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use alvisp2p_core as core;
pub use alvisp2p_dht as dht;
pub use alvisp2p_netsim as netsim;
pub use alvisp2p_textindex as textindex;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    // The network and its fluent assembly.
    pub use alvisp2p_core::network::{
        AlvisNetwork, AlvisNetworkBuilder, IndexBuildReport, NetworkConfig, RefinedResult,
    };
    // The session-oriented query API.
    pub use alvisp2p_core::request::{QueryRequest, QueryResponse, ThresholdMode};
    // The plan → execute pipeline: planners, plans and streaming execution.
    pub use alvisp2p_core::exec::{ProbeEvent, QueryStream, StableTopK};
    pub use alvisp2p_core::plan::{
        BestEffort, BudgetPolicy, GreedyCost, PlanCtx, PlanDecision, PlanHints, PlanNode, Planner,
        QueryPlan,
    };
    // The document digest.
    pub use alvisp2p_core::digest::DocumentDigest;
    // Fault injection and the policy that survives it.
    pub use alvisp2p_core::fault::{
        Completeness, FailureCause, FaultPlane, ProbeOutcome, RetryPolicy,
    };
    // The unified error hierarchy.
    pub use alvisp2p_core::error::AlvisError;
    // The pluggable indexing strategies and their configurations.
    pub use alvisp2p_core::hdk::HdkConfig;
    pub use alvisp2p_core::lattice::LatticeConfig;
    pub use alvisp2p_core::qdi::QdiConfig;
    pub use alvisp2p_core::strategy::{Hdk, IndexerCtx, Qdi, QueryCtx, SingleTermFull, Strategy};
    // Core data types.
    pub use alvisp2p_core::{
        CentralizedEngine, FetchOutcome, ScoredRef, TermKey, TruncatedPostingList,
    };
    // Overlay and simulation.
    pub use alvisp2p_dht::{
        Dht, DhtConfig, DhtError, HotKeyReplication, IdDistribution, NoReplication,
        ReplicationPolicy, RingId, RoutingStrategy,
    };
    pub use alvisp2p_netsim::{SimRng, TrafficCategory};
    // Text substrate.
    pub use alvisp2p_textindex::{
        demo_corpus, Analyzer, CorpusConfig, CorpusGenerator, Credentials, DocId, QueryLogConfig,
        QueryLogGenerator,
    };
}

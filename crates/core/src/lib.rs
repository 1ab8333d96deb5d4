//! # alvisp2p-core
//!
//! The core of the AlvisP2P reproduction: the paper's primary contribution — scalable
//! full-text retrieval in a structured P2P network through **carefully chosen indexing
//! term combinations** with **truncated posting lists** — implemented as layers 3 and 4
//! of the architecture on top of the `alvisp2p-dht` overlay and the
//! `alvisp2p-textindex` local search engine.
//!
//! * [`key`] — term-combination keys and their subset lattice;
//! * [`posting`] — truncated posting lists (bounded top-k document references);
//! * [`codec`] — the wire codec for posting lists and key frames
//!   (one score-descending run of delta-varint document ids with
//!   `u16`-quantized scores); `WireSize` for retrieval frames is the exact
//!   length of what this codec produces;
//! * [`global_index`] — the distributed key → posting-list index with per-key usage
//!   statistics, scattered over the overlay;
//! * [`strategy`] — the pluggable [`Strategy`] trait with the paper's three
//!   policies ([`SingleTermFull`], [`Hdk`], [`Qdi`]) as built-in implementations;
//! * [`hdk`] — Highly Discriminative Keys: document-frequency-driven key expansion;
//! * [`qdi`] — Query-Driven Indexing: popularity-driven on-demand key activation and
//!   eviction;
//! * [`lattice`] — the bounds and trace of the query-lattice walk of Figure 1
//!   (the walk itself is [`PlanCursor`]);
//! * [`plan`] — query planning: one ordered, cost-annotated [`QueryPlan`]
//!   over the term lattice (largest combinations first), and the Reserve
//!   rule that keeps a query within its byte budget;
//! * [`exec`] — plan execution with streaming results: [`QueryStream`]s
//!   with per-probe events, an on-demand running top-k and early
//!   termination;
//! * [`fault`] — the deterministic fault-injection plane ([`FaultPlane`],
//!   the one authority on injected faults: seeded message loss, crashed
//!   peers, late and corrupt replies, lost publications and replica syncs)
//!   and the [`RetryPolicy`] (bounded retries, replica failover) that lets
//!   queries degrade gracefully instead of aborting;
//! * [`ranking`] — the distributed BM25 ranking layer (global statistics, result
//!   merging);
//! * [`peer`] — an AlvisP2P participant: shared documents, local engine, access
//!   control, digests;
//! * [`network`] — the full system: assemble a network with
//!   [`AlvisNetworkBuilder`], distribute a corpus, build the index with any
//!   strategy, and run [`QueryRequest`]s — in one shot via `execute`, or as an
//!   explicit plan → run pipeline — with full traffic accounting;
//! * [`request`] — the [`QueryRequest`]/[`QueryResponse`] pair;
//! * [`digest`] — the Alvis document digest ([`DocumentDigest`]) for plugging
//!   external local engines into a peer;
//! * [`error`] — the unified [`AlvisError`] hierarchy;
//! * [`baseline`] — the centralized reference engine;
//! * [`stats`] — retrieval-quality metrics used by the experiments.
//!
//! ```
//! use alvisp2p_core::network::AlvisNetwork;
//! use alvisp2p_core::request::QueryRequest;
//! use alvisp2p_core::strategy::Hdk;
//! use alvisp2p_core::hdk::HdkConfig;
//! use alvisp2p_textindex::demo_corpus;
//!
//! // A 4-peer network indexing the demo corpus with Highly Discriminative Keys.
//! let mut net = AlvisNetwork::builder()
//!     .peers(4)
//!     .strategy(Hdk::new(HdkConfig { df_max: 2, ..Default::default() }))
//!     .documents(demo_corpus())
//!     .build_indexed()
//!     .unwrap();
//! let outcome = net.execute(&QueryRequest::new("peer retrieval")).unwrap();
//! assert!(!outcome.results.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Keys are cheap to copy now, but a clone that could be a borrow is still a
// smell on the hot paths this crate owns; CI runs clippy with `-D warnings`.
#![warn(clippy::redundant_clone)]

pub mod baseline;
pub mod codec;
pub mod digest;
pub mod error;
pub mod exec;
pub mod fault;
pub mod global_index;
pub mod hdk;
pub mod key;
pub mod lattice;
pub mod network;
pub mod peer;
pub mod plan;
pub mod posting;
pub mod qdi;
pub mod ranking;
pub mod request;
pub mod stats;
pub mod strategy;

pub use baseline::CentralizedEngine;
pub use codec::{decode_list, encode_list, max_encoded_list_len, quantization_step, CodecError};
pub use digest::{DigestDocument, DigestTerm, DocumentDigest};
pub use error::AlvisError;
pub use exec::{ProbeEvent, QueryStream, StableTopK};
pub use fault::{Completeness, FailureCause, FaultPlane, ProbeOutcome, RetryPolicy};
pub use global_index::{GlobalIndex, KeyIndexEntry, KeyUsageStats, ProbeResult};
pub use hdk::{HdkConfig, HdkLevelReport};
pub use key::TermKey;
pub use lattice::{LatticeConfig, LatticeResult, LatticeTrace, NodeOutcome};
pub use network::{
    AlvisNetwork, AlvisNetworkBuilder, IndexBuildReport, NetworkConfig, RefinedResult,
};
pub use peer::{AlvisPeer, FetchOutcome};
pub use plan::{BestEffort, PlanCursor, PlanDecision, PlanNode, QueryPlan};
pub use posting::{ScoredRef, TruncatedPostingList};
pub use qdi::{ActivationDecision, QdiConfig, QdiReport};
pub use ranking::{merge_retrieved, score_local_postings, GlobalRankingStats};
pub use request::{QueryRequest, QueryResponse, ThresholdMode};
pub use stats::{overlap_at_k, precision_at_k, recall_at_k};
pub use strategy::{Hdk, IndexerCtx, Qdi, QueryCtx, SingleTermFull, Strategy};

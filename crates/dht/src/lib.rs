//! # alvisp2p-dht
//!
//! The structured P2P overlay (**layer 2**) of the AlvisP2P reproduction:
//!
//! * a 64-bit identifier **ring** with successor-based key responsibility ([`ring`]);
//! * **skew-tolerant hop-space routing tables** (Klemm et al., P2P 2007) and a
//!   Chord-style finger-table baseline ([`routing`]);
//! * greedy O(log n) **lookup** ([`mod@lookup`]);
//! * per-querier **routing shortcuts** that dial a key's primary instead of
//!   looking it up again ([`shortcut`]);
//! * routed, traffic-accounted **storage operations** over the overlay ([`network`]);
//! * peer **churn**: joins, graceful departures, abrupt failures ([`churn`]);
//! * the per-destination **AIMD congestion window** (Klemm et al., NCA 2006),
//!   a pure controller no query path drives yet ([`congestion`]);
//! * **skew-aware replication** of hot keys onto ring successor sets, with
//!   load-tracked probe routing to the least-loaded replica ([`replica`]).
//!
//! The distributed IR layers (crate `alvisp2p-core`) sit directly on [`Dht`].
//!
//! ```
//! use alvisp2p_dht::{Dht, DhtConfig, RingId};
//! use alvisp2p_netsim::TrafficCategory;
//!
//! // A 64-peer overlay storing posting-list-like values.
//! let mut dht: Dht<Vec<u64>> = Dht::with_peers(DhtConfig::default(), 7, 64);
//! let key = RingId::hash_str("peer-to-peer retrieval");
//! dht.put(0, key, vec![1, 2, 3], TrafficCategory::Indexing).unwrap();
//! let (info, value) = dht.get(42, key, TrafficCategory::Retrieval).unwrap();
//! assert_eq!(value, Some(vec![1, 2, 3]));
//! assert!(info.hops <= 10); // O(log n) routing
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod congestion;
pub mod id;
pub mod lookup;
pub mod network;
pub mod node;
pub mod replica;
pub mod ring;
pub mod routing;
pub mod shortcut;
pub mod storage;

pub use congestion::{AimdController, CongestionConfig};
pub use id::{RingHasher, RingId};
pub use lookup::{lookup, LookupResult};
pub use network::{Dht, DhtConfig, DhtError, IdDistribution, RouteInfo};
pub use node::Peer;
pub use replica::{
    CopyDigest, HotKeyReplication, NoReplication, ReconvergeReport, RepairReport, ReplicaManager,
    ReplicaStats, ReplicationPolicy,
};
pub use ring::Ring;
pub use routing::{
    build_routing_table, build_routing_table_with, RoutingEntry, RoutingStrategy, RoutingTable,
    SUCCESSOR_LIST_LEN,
};
pub use shortcut::{ShortcutStats, SHORTCUT_CAPACITY};
pub use storage::LocalStore;

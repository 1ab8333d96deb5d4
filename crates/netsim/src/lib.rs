//! # alvisp2p-netsim
//!
//! The **transport layer (L1)** of the AlvisP2P reproduction: byte accounting
//! and seeded randomness, with no clock.
//!
//! The original AlvisP2P prototype ran on TCP/UDP across a live Internet deployment.
//! The quantities the paper reasons about — messages exchanged, bytes transferred,
//! routing hops — are independent of wall-clock latencies, so the upper layers
//! charge every message they would send against a ledger instead of a wire; a
//! query's latency is priced in rounds of messages, not in simulated time:
//!
//! * [`wire`] — the [`WireSize`] trait used for byte accounting of every payload.
//! * [`stats`] — [`TrafficStats`]: message/byte counters broken down by category.
//! * [`rng`] — seeded random number generation shared by every crate in the workspace.
//! * [`dist`] — discrete distributions (Zipf, power-law) used to generate skewed
//!   workloads (term frequencies, query popularity, peer identifier skew).
//!
//! # Example
//!
//! ```
//! use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
//! use alvisp2p_netsim::{TrafficCategory, TrafficStats, WireSize};
//!
//! let mut stats = TrafficStats::new();
//! let payload: Vec<u64> = vec![1, 2, 3];
//! stats.record(TrafficCategory::Retrieval, payload.wire_size() + ENVELOPE_OVERHEAD);
//! assert_eq!(stats.messages_sent(), 1);
//! assert_eq!(stats.bytes_sent(), (4 + 3 * 8 + ENVELOPE_OVERHEAD) as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod rng;
pub mod stats;
pub mod wire;

pub use dist::{PowerLaw, Zipf};
pub use rng::SimRng;
pub use stats::{TrafficCategory, TrafficStats};
pub use wire::WireSize;

//! The session-oriented query API: [`QueryRequest`] in, [`QueryResponse`] out.
//!
//! Replaces the earlier positional `query(origin, text, k)` calls with a
//! self-describing request value: where the query originates, how many results
//! to return, whether the two-step refinement runs, and an optional byte
//! budget bounding how much the exploration may spend. Requests compose into
//! batches via [`crate::network::AlvisNetwork::query_batch`].

use crate::fault::Completeness;
use crate::lattice::LatticeTrace;
use crate::network::RefinedResult;
use alvisp2p_textindex::bm25::ScoredDoc;

/// Kept only because `benchmark/` (outside the workspace) reads it; goes with
/// ROADMAP item 5. Both variants run the same floor-free execution: no probe
/// carries a score floor (see [`QueryRequest::threshold_mode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThresholdMode {
    /// No score floor is sent.
    Off,
    /// The same as [`ThresholdMode::Off`].
    RankSafe,
}

/// One query, fully described.
///
/// ```
/// use alvisp2p_core::request::QueryRequest;
///
/// let request = QueryRequest::new("peer to peer retrieval")
///     .from_peer(3)
///     .top_k(5)
///     .with_refinement()
///     .byte_budget(64 * 1024);
/// assert_eq!(request.origin, 3);
/// assert_eq!(request.top_k, 5);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// The raw query text (analyzed by the network's analyzer).
    pub text: String,
    /// Index of the peer the query originates from.
    pub origin: usize,
    /// Number of ranked results to return.
    pub top_k: usize,
    /// Whether to run the two-step refinement (forwarding the query to the
    /// owners of the first-step results for local re-scoring and snippets).
    pub refine: bool,
    /// Optional bound on the retrieval bytes the exploration may spend; once
    /// exceeded, no further probes are sent and the response is marked
    /// [`QueryResponse::budget_exhausted`].
    pub byte_budget: Option<u64>,
}

impl QueryRequest {
    /// A request for `text` with the defaults: origin peer 0, top-10 results,
    /// no refinement, no budgets.
    pub fn new(text: impl Into<String>) -> Self {
        QueryRequest {
            text: text.into(),
            origin: 0,
            top_k: 10,
            refine: false,
            byte_budget: None,
        }
    }

    /// Sets the originating peer.
    pub fn from_peer(mut self, origin: usize) -> Self {
        self.origin = origin;
        self
    }

    /// Sets the number of results to return.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Enables the two-step refinement.
    pub fn with_refinement(mut self) -> Self {
        self.refine = true;
        self
    }

    /// Bounds the retrieval bytes the exploration may spend.
    pub fn byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget = Some(bytes);
        self
    }

    /// A no-op. Kept only because `benchmark/` (outside the workspace) reads
    /// it; goes with ROADMAP item 5.
    pub fn threshold_mode(self, _mode: ThresholdMode) -> Self {
        self
    }
}

/// The outcome of one query.
#[derive(Clone, Debug, Default)]
pub struct QueryResponse {
    /// Final ranked results (top-k).
    pub results: Vec<ScoredDoc>,
    /// Refined results (owner-local scores, titles, URLs, snippets); empty
    /// unless the request asked for refinement.
    pub refined: Vec<RefinedResult>,
    /// The lattice-exploration trace (what was probed, found, skipped).
    pub trace: LatticeTrace,
    /// First-step retrieval bytes this query consumed (requests, routing,
    /// posting-list responses). Refinement traffic is charged to the network's
    /// traffic statistics but not included here, so the field is comparable
    /// across requests with and without refinement.
    pub bytes: u64,
    /// Retrieval messages this query consumed.
    pub messages: u64,
    /// Lookup messages that did not deliver a probe's request, summed over
    /// all probes (see [`crate::global_index::ProbeResult::hops`]); `0` once
    /// every probe is dialled through a routing shortcut.
    pub hops: usize,
    /// Whether the byte budget **truncated the probe schedule**: `true` iff at
    /// least one probe that would otherwise have been sent was withheld because
    /// the budget blocked it. Exhausting the lattice exactly at the budget
    /// boundary (nothing left to probe) does *not* set this flag. When set, the
    /// results are best-effort over what was retrieved within the budget,
    /// which the spend never exceeds (the Reserve rule, see [`crate::plan`]).
    pub budget_exhausted: bool,
    /// Total probe re-sends across the query (each failed attempt that the
    /// [`crate::fault::RetryPolicy`] followed up on counts once). Always `0`
    /// under the default [`crate::fault::FaultPlane`].
    pub retries: usize,
    /// Number of scheduled probes that exhausted the retry policy and were
    /// recorded as failed instead of aborting the query. Always `0` under
    /// the default [`crate::fault::FaultPlane`].
    pub failed_probes: usize,
    /// Number of probe responses discarded because their frame failed the
    /// codec's checksum verification (a bit-flip in flight). Each corrupt
    /// response also counts as a failed attempt the retry policy may follow
    /// up on. Always `0` under the default [`crate::fault::FaultPlane`].
    pub corrupt_probes: usize,
    /// Number of probes whose serve was failed over to a non-primary replica
    /// holder after the primary proved unresponsive. Always `0` under
    /// the default [`crate::fault::FaultPlane`].
    pub hedged: usize,
    /// How much of the planned document-frequency mass the answer actually
    /// covers, with per-key failure causes — the "gracefully degraded answer"
    /// report. [`Completeness::fraction`] is `1.0` on a fault-free run.
    pub completeness: Completeness,
}

impl QueryResponse {
    /// Whether any results were returned.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_setters_compose() {
        let r = QueryRequest::new("alpha beta")
            .from_peer(7)
            .top_k(3)
            .with_refinement()
            .byte_budget(1024);
        assert_eq!(r.text, "alpha beta");
        assert_eq!(r.origin, 7);
        assert_eq!(r.top_k, 3);
        assert!(r.refine);
        assert_eq!(r.byte_budget, Some(1024));
    }

    #[test]
    fn defaults_are_sensible() {
        let r = QueryRequest::new("x");
        assert_eq!(r.origin, 0);
        assert_eq!(r.top_k, 10);
        assert!(!r.refine);
        assert_eq!(r.byte_budget, None);
    }
}

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

/// Whether the executor feeds the running k-th merged score `θ` back into
/// subsequent probes as a score floor (threshold-aware probes; the policy
/// itself lives in [`crate::exec::QueryStream`]). Exact or off — there is no
/// lossy rung:
///
/// * [`ThresholdMode::Off`] never sends a floor: the byte baseline, and the
///   reference every exactness test compares against.
/// * [`ThresholdMode::RankSafe`] (the default) is the Block-Max-WAND-style
///   operating point: the floor sent to key *i* is
///   `θ_LB − Σ_{j≠i} max_score(j)` (see [`rank_safe_floor`]), derived from
///   per-key maximum scores that ride every publication into
///   [`crate::ranking::GlobalRankingStats`] and from a *monotone lower bound*
///   on `θ` (per-document first-list scores, immune to the coverage-weighted
///   merge's non-monotonicity). A document elided under such a floor provably
///   could not have entered the final top-k, so this mode returns the exact
///   documents, ranks *and scores* of `Off` at no more posting bytes — the
///   proptest-pinned headline invariant (1,834 vs 1,936 B/query on
///   `BENCH_bandwidth.json`'s long-lists arm). A probe whose own cached
///   maximum, or that of a key disjoint from it, is stale (older than the
///   list's current publish version, possible under lossy publications) goes
///   out floor-free; [`QueryResponse::rank_safe_fallbacks`] counts those
///   probes.
///
/// Two inexact floors, `θ / (2m)` ("conservative", once the default and
/// documented rank-exact "empirically") and `θ / m` ("aggressive"), and the
/// per-key sketch layer that pre-pruned probes against them, were deleted:
/// a skip is admissible only when the answer over the kept data is identical.
/// Measured on 300 mid-term + head-term pair queries over HDK (250-doc-scale
/// corpus, `top_k` 10; answers compared with the `Off` run's):
///
/// | mode | retrieval B/query | with sketches: pruned, net | answers ≠ `Off` (score bits) | top-10 doc set ≠ `Off` | mean overlap@10 |
/// |---|---|---|---|---|---|
/// | `Off` | 2,377 | 0 pruned, −0.2% | — | — | — |
/// | `RankSafe` | 2,377 | 0 pruned, −0.2% | 0 / 300 | 0 / 300 | 1.0000 |
/// | `θ / (2m)` | 1,848 | 181 pruned, +12.0% | 187 / 300 | 26 / 300 | 0.9653 |
/// | `θ / m` | 1,834 | 189 pruned, +12.6% | 189 / 300 | 28 / 300 | 0.9547 |
///
/// The sketch proof `key_max < floor` is unsatisfiable under an exact floor
/// for any non-empty list (`floor < cap(i)` always), hence the zero prunes.
/// The lossy levers the paper itself has — posting-list truncation and
/// [`QueryRequest::byte_budget`] with [`QueryResponse::budget_exhausted`] —
/// stay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ThresholdMode {
    /// No score floor is ever sent.
    Off,
    /// Provably rank-safe per-probe floors from published per-key max scores:
    /// byte-identical top-k documents, ranks and scores to
    /// [`ThresholdMode::Off`] at no more posting bytes.
    #[default]
    RankSafe,
}

/// The rank-safe floor for one probe: `θ_LB − Σ_{j≠i} cap(j)`, widened down
/// by one quantization step, clamped to `None` when non-positive.
///
/// `theta` must be a *monotone lower bound* on the final k-th merged score
/// (the running k-th merged score is one over a laminar key family — see
/// [`crate::ranking::keys_are_laminar`]), `cap_sum` the sum of
/// per-term score caps over all query terms, and `own_cap` the cap of the
/// probed key's own cheapest term. A document elided by the returned floor
/// contributes `< floor` from this key and at most `cap_sum − own_cap` from
/// every other term combined, hence merges to `< θ_LB ≤ θ_final` — it could
/// never have displaced a top-k member.
///
/// The widening is needed because encode-side elision compares raw `f64`
/// scores but the querier ranks *decoded* (quantized) scores, which sit
/// within one grid step of raw. Subtracting one step of a grid spanning
/// `[0, max(θ, cap_sum)]` — at least as coarse as any single frame's grid,
/// since every frame's score range is bounded by one term's cap — keeps the
/// floor safe against that rounding, and never costs more than one step of
/// floor height (pinned by the edge-case tests).
pub fn rank_safe_floor(theta: f64, cap_sum: f64, own_cap: f64) -> Option<f64> {
    if !(theta.is_finite() && cap_sum.is_finite() && own_cap.is_finite()) {
        return None;
    }
    let margin = crate::codec::quantization_step(0.0, theta.max(cap_sum));
    let floor = theta - (cap_sum - own_cap) - margin;
    (floor > 0.0).then_some(floor)
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
    /// Threshold-aware probing mode: whether the executor feeds the running
    /// k-th merged score back into subsequent probes as a score floor,
    /// letting responsible peers elide posting entries that provably cannot
    /// enter the top-k. Defaults to [`ThresholdMode::RankSafe`].
    pub threshold: ThresholdMode,
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
            threshold: ThresholdMode::default(),
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

    /// Sets the threshold-aware probing mode.
    pub fn threshold_mode(mut self, mode: ThresholdMode) -> Self {
        self.threshold = mode;
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
    /// results are best-effort over what was retrieved within the budget; how
    /// strictly the budget bounds the actual spend depends on the plan's
    /// [`crate::plan::BudgetPolicy`] (`Cutoff` may overshoot by one probe,
    /// `Reserve` never exceeds the budget).
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
    /// Under [`ThresholdMode::RankSafe`] only: the number of probes that went
    /// out floor-free, although the running top-k was full, because a
    /// published maximum their floor depends on was stale — cached at a
    /// version older than the key's current publish version (possible under
    /// lossy publications). Rank-safety is preserved either way; fallbacks
    /// only cost elision. Always `0` under [`ThresholdMode::Off`].
    pub rank_safe_fallbacks: usize,
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
        assert_eq!(ThresholdMode::default(), ThresholdMode::RankSafe);
        assert_eq!(r.threshold, ThresholdMode::RankSafe);
        assert_eq!(
            QueryRequest::new("x")
                .threshold_mode(ThresholdMode::Off)
                .threshold,
            ThresholdMode::Off
        );
    }

    /// Single-term query: every term's cap is the probe's own cap, so the
    /// floor is θ itself — less the one-step quantization widening, and never
    /// more than θ.
    #[test]
    fn single_term_floor_is_theta_within_one_widening_step() {
        let theta = 7.25;
        let cap = 9.0;
        let step = crate::codec::quantization_step(0.0, cap);
        let floor = rank_safe_floor(theta, cap, cap).expect("positive floor");
        assert!(
            floor <= theta,
            "widening must never raise the floor above θ"
        );
        assert!(
            theta - floor <= step * (1.0 + 1e-12),
            "single-term floor {floor} sits more than one step {step} below θ {theta}"
        );
    }

    /// When every other term's cap already covers θ, the margin is negative
    /// for this key and the floor clamps to `None`: the probe ships the full
    /// list rather than a floor that could elide a top-k contender.
    #[test]
    fn all_negative_margins_clamp_to_none() {
        // θ = 3, other caps sum to 10: 3 - 10 < 0.
        assert_eq!(rank_safe_floor(3.0, 12.0, 2.0), None);
        // Exactly zero margin also clamps (the floor must be strictly
        // positive to elide anything soundly).
        assert_eq!(rank_safe_floor(10.0, 10.0, 0.0), None);
        // Degenerate inputs never produce a floor.
        assert_eq!(rank_safe_floor(f64::NAN, 1.0, 1.0), None);
        assert_eq!(rank_safe_floor(1.0, f64::INFINITY, 1.0), None);
    }

    /// The quantization widening is exactly one step of the caps-scale grid:
    /// the ideal floor minus the returned floor equals
    /// `quantization_step(0, max(θ, Σcaps))`, never more.
    #[test]
    fn widening_never_exceeds_one_step() {
        for &(theta, cap_sum, own_cap) in &[
            (5.0f64, 6.0, 2.5),
            (5.0, 4.0, 1.0),
            (0.75, 0.8, 0.4),
            (123.0, 400.0, 300.0),
        ] {
            let ideal = theta - (cap_sum - own_cap);
            let step = crate::codec::quantization_step(0.0, theta.max(cap_sum));
            match rank_safe_floor(theta, cap_sum, own_cap) {
                Some(floor) => {
                    assert!(floor < ideal, "floor must widen strictly downward");
                    assert!(
                        ideal - floor <= step * (1.0 + 1e-9),
                        "widening {} exceeds one step {} for θ={theta}",
                        ideal - floor,
                        step
                    );
                }
                None => assert!(
                    ideal <= step,
                    "clamping is only allowed within one step of zero (ideal {ideal}, step {step})"
                ),
            }
        }
    }
}

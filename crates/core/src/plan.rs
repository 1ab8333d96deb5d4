//! Budget-aware query planning: choose *which* lattice keys to probe **before**
//! paying network cost.
//!
//! The original executor enforced [`crate::request::QueryRequest`] budgets by
//! chopping the lattice walk off mid-flight: probes were sent in fixed lattice order
//! until the budget ran dry, so under tight budgets the spend went to whatever
//! happened to come first. Cost-based selection (Liu, "Cost-based Selection of Provenance Sketches")
//! and skew-aware placement (Beame et al.) argue the opposite discipline: estimate
//! what each candidate costs and buys, then spend the budget on the best ones.
//!
//! This module splits retrieval into an explicit **plan → execute** pipeline:
//!
//! * [`QueryPlan`] — an ordered, cost-annotated probe schedule over the query's term
//!   lattice. Every lattice node appears exactly once, either as a scheduled probe
//!   (with hop/byte estimates and a priority) or as a planned skip, so executing a
//!   plan still yields a complete [`crate::lattice::LatticeTrace`].
//! * [`Planner`] — the object-safe seam producing plans. Built-ins:
//!   [`BestEffort`] reproduces PR 1's fixed-order cutoff semantics key-for-key (the
//!   comparability baseline), while [`GreedyCost`] uses per-key posting-size/DF
//!   estimates from [`GlobalRankingStats`] plus traffic-free DHT hop estimates
//!   ([`crate::global_index::GlobalIndex::estimate_hops`]) to drop provably useless
//!   probes, prioritise cost-effective ones, and admit probes against the budget so
//!   the spend **never** exceeds it.
//! * [`PlanHints`] — what a [`crate::strategy::Strategy`] tells planners about the
//!   index shape (longest indexed key, whether probing missing keys has value).
//! * [`PlanCursor`] — the deterministic execution state machine behind
//!   [`crate::exec::QueryStream`] / [`crate::network::AlvisNetwork::run`], and
//!   the one lattice walker: it walks a plan, applies dynamic domination pruning
//!   and budget admission, and accumulates the trace.

use crate::global_index::{GlobalIndex, ProbeResult};
use crate::key::TermKey;
use crate::lattice::{LatticeConfig, LatticeResult, NodeOutcome};
use crate::posting::TruncatedPostingList;
use crate::ranking::GlobalRankingStats;

// ---------------------------------------------------------------------------
// Hints from the strategy
// ---------------------------------------------------------------------------

/// What an indexing strategy tells query planners about the shape of its index,
/// via [`crate::strategy::Strategy::plan_hints`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanHints {
    /// The longest key length the strategy may have indexed. Probing longer
    /// combinations can never return postings.
    pub max_indexed_len: usize,
    /// Whether probing a key that is *not* indexed still has value. Query-driven
    /// strategies say `true`: every probe feeds the responsible peer's usage
    /// statistics, which is what triggers on-demand activation.
    pub probe_unindexed: bool,
    /// Prior probability that a multi-term candidate within `max_indexed_len` is
    /// actually indexed (single terms with non-zero df always are). Cost-based
    /// planners use it to discount the expected benefit of multi-term probes.
    pub multi_term_prior: f64,
}

impl Default for PlanHints {
    fn default() -> Self {
        PlanHints {
            max_indexed_len: usize::MAX,
            probe_unindexed: false,
            multi_term_prior: 0.5,
        }
    }
}

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// What the planner decided to do with one lattice node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanDecision {
    /// Send the probe (subject to run-time pruning and budget admission).
    Probe,
    /// Do not probe: the combination exceeds the probe-length bound. Recorded as
    /// [`NodeOutcome::TooLong`] in the trace.
    SkipTooLong,
    /// Do not probe for a planner-specific reason (cannot be indexed, zero
    /// document-frequency upper bound, strategy probes single terms only).
    /// Recorded as [`NodeOutcome::Skipped`] in the trace.
    Skip,
}

/// One lattice node in a [`QueryPlan`]: the key, the planner's decision and the
/// cost annotation backing it.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanNode {
    /// The lattice key.
    pub key: TermKey,
    /// What to do with it.
    pub decision: PlanDecision,
    /// Upper bound on the lookup messages that do not deliver the probe's
    /// request, while routing tables are converged (a probe dialled through a
    /// routing shortcut charges none; see [`GlobalIndex::estimate_hops`]).
    pub est_hops: usize,
    /// Upper bound on the retrieval bytes the probe can charge
    /// (see [`GlobalIndex::estimate_probe_bytes`]).
    pub est_bytes: u64,
    /// Upper bound on the posting references the response can carry
    /// (`min(df upper bound, truncation capacity)`).
    pub est_entries: usize,
    /// The planner's benefit/cost score (higher = scheduled earlier). Zero for
    /// planners that keep the fixed lattice order.
    pub priority: f64,
}

/// How the executor enforces the request's byte budget while running a plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// PR 1 semantics: keep probing while the budget is not yet exhausted. The
    /// last probe may overshoot the budget (it is sent as long as *any* budget
    /// remains beforehand).
    #[default]
    Cutoff,
    /// Admission control: a probe is sent only if its worst-case cost still fits
    /// into the remaining budget, so the actual spend never exceeds the budget.
    /// Unaffordable probes are skipped individually — a later, cheaper probe may
    /// still fit.
    Reserve,
}

/// An ordered, cost-annotated probe schedule over a query's term lattice.
///
/// Produced by a [`Planner`], executed by
/// [`crate::network::AlvisNetwork::run`] / [`crate::exec::QueryStream`]. The
/// schedule covers the **whole** lattice: nodes the planner declined to probe are
/// kept as planned skips so traces stay complete and comparable across planners.
#[derive(Clone, Debug, Default)]
pub struct QueryPlan {
    /// The analyzed query key, or `None` when the query text analyzed to nothing
    /// (the plan is then empty and executing it returns an empty response).
    pub query_key: Option<TermKey>,
    /// The peer the query originates from.
    pub origin: usize,
    /// The schedule, in execution order.
    pub nodes: Vec<PlanNode>,
    /// How budgets are enforced at run time.
    pub budget_policy: BudgetPolicy,
    /// Label of the planner that produced the plan.
    pub planner: String,
    /// Sum of the scheduled probes' byte upper bounds.
    pub est_total_bytes: u64,
    /// Sum of the scheduled probes' hop estimates.
    pub est_total_hops: usize,
}

impl QueryPlan {
    /// An empty plan (used for queries that analyze to nothing).
    pub fn empty(planner: &str, origin: usize) -> Self {
        QueryPlan {
            query_key: None,
            origin,
            nodes: Vec::new(),
            budget_policy: BudgetPolicy::Cutoff,
            planner: planner.to_string(),
            est_total_bytes: 0,
            est_total_hops: 0,
        }
    }

    /// Whether the plan schedules no probes at all.
    pub fn is_empty(&self) -> bool {
        self.scheduled_probes() == 0
    }

    /// The nodes the planner scheduled for probing, in execution order.
    pub fn probes(&self) -> impl Iterator<Item = &PlanNode> {
        self.nodes
            .iter()
            .filter(|n| n.decision == PlanDecision::Probe)
    }

    /// Number of scheduled probes.
    pub fn scheduled_probes(&self) -> usize {
        self.probes().count()
    }
}

// ---------------------------------------------------------------------------
// The planner seam
// ---------------------------------------------------------------------------

/// Everything a planner may consult: the query, the origin, the strategy's view
/// of the lattice, global ranking statistics for document-frequency estimates,
/// and the global index for traffic-free hop estimation.
pub struct PlanCtx<'a> {
    /// The analyzed query key.
    pub query_key: &'a TermKey,
    /// The originating peer.
    pub origin: usize,
    /// The strategy-resolved lattice exploration bounds.
    pub lattice: LatticeConfig,
    /// The strategy's hints about the index shape.
    pub hints: PlanHints,
    /// The posting-list truncation capacity of the strategy.
    pub capacity: usize,
    /// Aggregated global collection statistics (per-term document frequencies).
    pub ranking: &'a GlobalRankingStats,
    /// The global index (hop estimation and cost constants only — planning must
    /// not probe).
    pub global: &'a GlobalIndex,
    /// The request's byte budget, if any.
    pub byte_budget: Option<u64>,
}

impl PlanCtx<'_> {
    /// Upper bound on the number of documents matching every term of `key`: the
    /// smallest global document frequency among its terms (an intersection can
    /// never be larger than its smallest member).
    pub fn df_upper_bound(&self, key: &TermKey) -> u64 {
        key.term_ids()
            .iter()
            .map(|t| self.ranking.df_id(*t))
            .min()
            .unwrap_or(0)
    }

    /// Cost-annotates `key`: traffic-free hop estimate plus the worst-case byte
    /// charge of probing it.
    pub fn annotate(&self, key: &TermKey) -> (usize, u64, usize) {
        let hops = self.global.estimate_hops(self.origin, key).unwrap_or(0);
        let entries = (self.df_upper_bound(key) as usize).min(self.capacity);
        let bytes = self.global.estimate_probe_bytes(key, hops, entries);
        (hops, bytes, entries)
    }
}

/// A query planner: turns a query into a [`QueryPlan`].
///
/// Object safe — networks hold planners as `Arc<dyn Planner>`, so user crates can
/// implement their own scheduling policies and hand them to
/// [`crate::network::AlvisNetworkBuilder::planner`].
pub trait Planner: std::fmt::Debug + Send + Sync {
    /// A short label used in reports and experiment output.
    fn label(&self) -> &str;

    /// Produces the probe schedule for one query.
    fn plan(&self, ctx: &PlanCtx<'_>) -> QueryPlan;
}

fn finalize(mut plan: QueryPlan) -> QueryPlan {
    plan.est_total_bytes = plan.probes().map(|n| n.est_bytes).sum();
    plan.est_total_hops = plan.probes().map(|n| n.est_hops).sum();
    plan
}

// ---------------------------------------------------------------------------
// Built-in planners
// ---------------------------------------------------------------------------

/// The comparability baseline: schedules the lattice in the exact order and with
/// the exact skip/probe decisions of the PR 1 `execute` path, and enforces
/// budgets with the same mid-flight [`BudgetPolicy::Cutoff`]. Budget-free
/// executions reproduce PR 1 traces key-for-key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BestEffort;

impl Planner for BestEffort {
    fn label(&self) -> &str {
        "best-effort"
    }

    fn plan(&self, ctx: &PlanCtx<'_>) -> QueryPlan {
        let query = ctx.query_key;
        let single_term_only = ctx.lattice.max_probe_len == 1;
        let mut nodes = Vec::new();
        for key in query.all_subsets_desc() {
            let decision = if ctx.lattice.max_probe_len > 0
                && key.len() > ctx.lattice.max_probe_len
                && key != *query
            {
                // Never probe over-long combinations — except the query itself,
                // which is always tried first per the paper.
                PlanDecision::SkipTooLong
            } else if single_term_only && key.len() > 1 {
                // Only the single terms exist in the index, each complete.
                PlanDecision::Skip
            } else {
                PlanDecision::Probe
            };
            let (est_hops, est_bytes, est_entries) = if decision == PlanDecision::Probe {
                ctx.annotate(&key)
            } else {
                (0, 0, 0)
            };
            nodes.push(PlanNode {
                key,
                decision,
                est_hops,
                est_bytes,
                est_entries,
                priority: 0.0,
            });
        }
        finalize(QueryPlan {
            query_key: Some(query.clone()),
            origin: ctx.origin,
            nodes,
            budget_policy: BudgetPolicy::Cutoff,
            planner: self.label().to_string(),
            est_total_bytes: 0,
            est_total_hops: 0,
        })
    }
}

/// Cost-based greedy planner: spends the budget on the probes that buy the most.
///
/// Compared to [`BestEffort`] it
///
/// 1. **drops provably useless probes** — keys containing a term with global
///    document frequency 0 cannot match anything, keys longer than the strategy's
///    [`PlanHints::max_indexed_len`] cannot be indexed (they are still scheduled
///    when the strategy is query-driven, because those probes feed activation
///    statistics);
/// 2. **orders the schedule by benefit/cost** — benefit is the expected posting
///    count (an independence estimate of the key's term intersection, capped by
///    the truncation capacity) weighted by the key's summed inverse document
///    frequency and the strategy's multi-term prior; cost is the probe's
///    worst-case bytes. Under a budget the whole schedule is sorted by this
///    ratio, so the budget goes to the most valuable probes first. Without a
///    budget there is nothing to ration and the planner keeps the lattice's
///    largest-first level order (within-level reordering only), which preserves
///    the full power of the paper's domination pruning;
/// 3. **enforces budgets by admission** ([`BudgetPolicy::Reserve`]): a probe is
///    sent only when its worst-case cost still fits, so planned executions never
///    exceed `byte_budget`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GreedyCost;

impl GreedyCost {
    /// Expected number of postings a probe for `key` returns if the key is
    /// indexed: an independence estimate of the intersection size
    /// (`N · Π df_t/N`), capped by the worst-case entry bound.
    fn expected_entries(ctx: &PlanCtx<'_>, key: &TermKey, entries_upper_bound: usize) -> f64 {
        let n = ctx.ranking.doc_count() as f64;
        if n <= 0.0 {
            return 0.0;
        }
        let mut expected = n;
        for t in key.term_ids() {
            expected *= ctx.ranking.df_id(*t) as f64 / n;
        }
        expected.min(entries_upper_bound as f64)
    }

    /// The planner's benefit estimate for probing `key`: expected retrieved
    /// score mass, approximated as (expected posting count) × (per-entry score
    /// estimate) × (probability the key is indexed).
    ///
    /// The per-entry estimate prefers the key's published maximum score when
    /// one is cached in `GlobalRankingStats`: a measurement of what the key's
    /// entries score, taken over the real stored list. Only keys never published —
    /// where no measurement exists — fall back to the original DF-and-
    /// independence proxy (summed idf of the key's terms). Staleness is
    /// irrelevant here: a somewhat-outdated measurement still beats the
    /// blind proxy, and planning priorities need no soundness guarantee.
    fn benefit(ctx: &PlanCtx<'_>, key: &TermKey, entries_upper_bound: usize) -> f64 {
        let n = ctx.ranking.doc_count() as f64;
        let per_entry = match ctx.ranking.key_max_score(key) {
            Some(max) if max > 0.0 => max,
            _ => key
                .term_ids()
                .iter()
                .map(|t| (1.0 + n / (1.0 + ctx.ranking.df_id(*t) as f64)).ln())
                .sum(),
        };
        let p_indexed = if key.is_single() {
            1.0
        } else {
            ctx.hints.multi_term_prior.clamp(0.0, 1.0)
        };
        Self::expected_entries(ctx, key, entries_upper_bound) * per_entry * p_indexed
    }
}

impl Planner for GreedyCost {
    fn label(&self) -> &str {
        "greedy-cost"
    }

    fn plan(&self, ctx: &PlanCtx<'_>) -> QueryPlan {
        let query = ctx.query_key;
        let single_term_only = ctx.lattice.max_probe_len == 1;
        let mut nodes = Vec::new();
        for key in query.all_subsets_desc() {
            let too_long = ctx.lattice.max_probe_len > 0 && key.len() > ctx.lattice.max_probe_len;
            if too_long && key != *query {
                nodes.push(PlanNode {
                    key,
                    decision: PlanDecision::SkipTooLong,
                    est_hops: 0,
                    est_bytes: 0,
                    est_entries: 0,
                    priority: 0.0,
                });
                continue;
            }
            let df_ub = ctx.df_upper_bound(&key);
            // A key longer than the strategy's indexable bound can neither be
            // indexed nor activated on demand (QDI rejects over-long keys), so
            // probing it buys nothing — not even usage statistics. This is also
            // the cost-based criterion for the paper's query-first probe: the
            // over-long query key is kept exactly when the strategy could still
            // index or activate it (unlike BestEffort, which always probes it).
            let useless = df_ub == 0                   // nothing can match
                || (single_term_only && key.len() > 1) // strategy has singles only
                || key.len() > ctx.hints.max_indexed_len; // cannot exist or activate
            if useless {
                nodes.push(PlanNode {
                    key,
                    decision: PlanDecision::Skip,
                    est_hops: 0,
                    est_bytes: 0,
                    est_entries: 0,
                    priority: 0.0,
                });
                continue;
            }
            let (est_hops, est_bytes, est_entries) = ctx.annotate(&key);
            let priority = Self::benefit(ctx, &key, est_entries.max(1)) / est_bytes.max(1) as f64;
            nodes.push(PlanNode {
                key,
                decision: PlanDecision::Probe,
                est_hops,
                est_bytes,
                est_entries,
                priority,
            });
        }
        // Under a budget, rank the whole schedule by benefit/cost so the budget
        // goes to the most valuable probes first. Without one, keep the lattice's
        // largest-first level order (within-level reordering only: same-length
        // keys can never prune each other, so it is semantics-preserving) to
        // retain the full power of domination pruning. Canonical order as the
        // tiebreak keeps plans deterministic.
        nodes.sort_by(|a, b| {
            let level = if ctx.byte_budget.is_some() {
                std::cmp::Ordering::Equal
            } else {
                b.key.len().cmp(&a.key.len())
            };
            level
                .then(b.priority.total_cmp(&a.priority))
                .then(a.key.cmp(&b.key))
        });
        finalize(QueryPlan {
            query_key: Some(query.clone()),
            origin: ctx.origin,
            nodes,
            budget_policy: BudgetPolicy::Reserve,
            planner: self.label().to_string(),
            est_total_bytes: 0,
            est_total_hops: 0,
        })
    }
}

// ---------------------------------------------------------------------------
// Plan execution state machine
// ---------------------------------------------------------------------------

/// What [`PlanCursor::next_key`] decided.
#[derive(Clone, Debug, PartialEq)]
pub enum CursorStep {
    /// Send a probe for this key (then feed the result to [`PlanCursor::record`]).
    Probe(TermKey),
    /// The plan is exhausted (or the execution was stopped).
    Done,
}

/// The deterministic state machine that executes a [`QueryPlan`]: walks the
/// schedule, applies dynamic domination pruning, the probe cap and budget
/// admission, and accumulates the [`crate::lattice::LatticeTrace`].
///
/// The cursor is transport-agnostic: callers alternate [`PlanCursor::next_key`]
/// (handing it the retrieval bytes spent so far) with the actual probe and
/// [`PlanCursor::record`]. [`crate::exec::QueryStream`] drives it over the
/// network; tests drive it over a fake index or direct
/// [`GlobalIndex::probe`] calls.
#[derive(Debug)]
pub struct PlanCursor {
    plan: QueryPlan,
    byte_budget: Option<u64>,
    prune_below_truncated: bool,
    max_probes: usize,
    index: usize,
    excluders: Vec<TermKey>,
    result: LatticeResult,
    budget_exhausted: bool,
    stopped: bool,
}

impl PlanCursor {
    /// Starts executing `plan` under the given lattice bounds and byte budget.
    pub fn new(plan: QueryPlan, lattice: &LatticeConfig, byte_budget: Option<u64>) -> Self {
        PlanCursor {
            plan,
            byte_budget,
            prune_below_truncated: lattice.prune_below_truncated,
            max_probes: lattice.max_probes,
            index: 0,
            excluders: Vec::new(),
            result: LatticeResult::default(),
            budget_exhausted: false,
            stopped: false,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Stops the execution: every remaining scheduled probe is recorded as
    /// skipped (used for caller-driven early termination).
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Lookup messages that did not deliver a probe's request, summed over
    /// the probes recorded so far (the trace's hop count).
    pub fn hops_spent(&self) -> usize {
        self.result.trace.hops
    }

    /// The retrieved `(key, postings)` pairs so far.
    pub fn retrieved(&self) -> &[(TermKey, TruncatedPostingList)] {
        &self.result.retrieved
    }

    /// Advances to the next probe that should actually be sent, recording every
    /// skipped node on the way. `spent_bytes` is the retrieval bytes this query
    /// has charged so far (live counter — budgets are enforced against it).
    pub fn next_key(&mut self, spent_bytes: u64) -> CursorStep {
        while self.index < self.plan.nodes.len() {
            let node = &self.plan.nodes[self.index];
            let outcome = match node.decision {
                PlanDecision::SkipTooLong => Some(NodeOutcome::TooLong),
                PlanDecision::Skip => Some(NodeOutcome::Skipped),
                PlanDecision::Probe => {
                    if self.stopped
                        || self.excluders.iter().any(|e| e.dominates(&node.key))
                        || self.result.trace.probes >= self.max_probes
                    {
                        Some(NodeOutcome::Skipped)
                    } else if !self.budget_admits(node, spent_bytes) {
                        // A budget withheld a probe that would otherwise have
                        // been sent: the plan was truly truncated.
                        self.budget_exhausted = true;
                        Some(NodeOutcome::Skipped)
                    } else {
                        None
                    }
                }
            };
            match outcome {
                Some(o) => {
                    let key = node.key.clone();
                    self.index += 1;
                    self.result.trace.nodes.push((key, o));
                }
                None => return CursorStep::Probe(node.key.clone()),
            }
        }
        CursorStep::Done
    }

    fn budget_admits(&self, node: &PlanNode, spent_bytes: u64) -> bool {
        self.byte_budget
            .is_none_or(|b| match self.plan.budget_policy {
                BudgetPolicy::Cutoff => spent_bytes < b,
                BudgetPolicy::Reserve => spent_bytes.saturating_add(node.est_bytes) <= b,
            })
    }

    /// Records the result of the probe [`PlanCursor::next_key`] handed out and
    /// returns the outcome entered into the trace.
    pub fn record(&mut self, probe: ProbeResult) -> NodeOutcome {
        let node = &self.plan.nodes[self.index];
        debug_assert_eq!(probe.key, node.key);
        self.index += 1;
        self.result.trace.probes += 1;
        self.result.trace.hops += probe.hops;
        let key = probe.key;
        let outcome = match probe.postings {
            Some(list) => {
                let truncated = list.is_truncated();
                if !truncated || self.prune_below_truncated {
                    self.excluders.push(key.clone());
                }
                self.result.retrieved.push((key.clone(), list));
                NodeOutcome::Found { truncated }
            }
            None => NodeOutcome::Missing,
        };
        self.result.trace.nodes.push((key, outcome.clone()));
        outcome
    }

    /// Records a probe whose every attempt failed (see [`crate::fault`]): the
    /// node enters the trace as [`NodeOutcome::Failed`] and the lookup
    /// messages its attempts spent are added to the trace, but the key is
    /// **not** pushed onto the excluder set — so [`PlanCursor::next_key`]'s
    /// runtime domination check still hands out the failed key's subset keys,
    /// which is exactly the degraded-substitution behaviour the lattice gives
    /// for free.
    pub fn record_failure(&mut self, key: TermKey, cause: crate::fault::FailureCause, hops: usize) {
        let node = &self.plan.nodes[self.index];
        debug_assert_eq!(key, node.key);
        self.index += 1;
        self.result.trace.probes += 1;
        self.result.trace.hops += hops;
        self.result
            .trace
            .nodes
            .push((key, NodeOutcome::Failed { cause }));
    }

    /// Finishes the execution: drains any remaining nodes as skipped and returns
    /// the accumulated result plus whether a budget truncated the plan.
    pub fn finish(mut self) -> (LatticeResult, bool) {
        self.stopped = true;
        let step = self.next_key(u64::MAX);
        debug_assert!(matches!(step, CursorStep::Done));
        (self.result, self.budget_exhausted)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::ProbeOutcome;
    use crate::posting::ScoredRef;
    use alvisp2p_dht::DhtConfig;
    use alvisp2p_netsim::TrafficCategory;
    use alvisp2p_textindex::{CollectionStats, DocId};
    use std::collections::BTreeMap;

    fn stats(dfs: &[(&str, u64)]) -> GlobalRankingStats {
        let fragment = CollectionStats {
            doc_count: 100,
            total_terms: 10_000,
            doc_frequencies: dfs
                .iter()
                .map(|(t, d)| (t.to_string(), *d))
                .collect::<BTreeMap<String, u64>>(),
        };
        GlobalRankingStats::aggregate([&fragment])
    }

    fn ctx<'a>(
        query: &'a TermKey,
        ranking: &'a GlobalRankingStats,
        global: &'a GlobalIndex,
        lattice: LatticeConfig,
        hints: PlanHints,
    ) -> PlanCtx<'a> {
        PlanCtx {
            query_key: query,
            origin: 0,
            lattice,
            hints,
            capacity: 10,
            ranking,
            global,
            byte_budget: None,
        }
    }

    #[test]
    fn best_effort_schedules_the_full_lattice_in_order() {
        let query = TermKey::new(["a", "b", "c"]);
        let ranking = stats(&[("a", 3), ("b", 4), ("c", 4)]);
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        let plan = BestEffort.plan(&ctx(
            &query,
            &ranking,
            &global,
            LatticeConfig::default(),
            PlanHints::default(),
        ));
        assert_eq!(plan.nodes.len(), 7);
        assert_eq!(plan.scheduled_probes(), 7);
        assert_eq!(plan.budget_policy, BudgetPolicy::Cutoff);
        // Exact lattice order: abc, ab, ac, bc, a, b, c.
        let order: Vec<String> = plan.nodes.iter().map(|n| n.key.canonical()).collect();
        assert_eq!(order, vec!["a+b+c", "a+b", "a+c", "b+c", "a", "b", "c"]);
        assert!(plan.est_total_bytes > 0);
    }

    #[test]
    fn best_effort_respects_single_term_and_length_bounds() {
        let query = TermKey::new(["a", "b", "c", "d"]);
        let ranking = stats(&[("a", 3), ("b", 4), ("c", 4), ("d", 1)]);
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        // max_probe_len = 1: only the singles are probed, the rest planned-skipped.
        let plan = BestEffort.plan(&ctx(
            &query,
            &ranking,
            &global,
            LatticeConfig {
                max_probe_len: 1,
                ..Default::default()
            },
            PlanHints::default(),
        ));
        assert_eq!(plan.scheduled_probes(), 4);
        for n in &plan.nodes {
            match n.key.len() {
                1 => assert_eq!(n.decision, PlanDecision::Probe),
                // The query itself is skipped (not TooLong) per PR 1 semantics.
                4 => assert_eq!(n.decision, PlanDecision::Skip),
                _ => assert_eq!(n.decision, PlanDecision::SkipTooLong),
            }
        }
        // max_probe_len = 2: the query is still probed first despite its length.
        let plan = BestEffort.plan(&ctx(
            &query,
            &ranking,
            &global,
            LatticeConfig {
                max_probe_len: 2,
                ..Default::default()
            },
            PlanHints::default(),
        ));
        assert_eq!(plan.nodes[0].key, query);
        assert_eq!(plan.nodes[0].decision, PlanDecision::Probe);
        let too_long = plan
            .nodes
            .iter()
            .filter(|n| n.decision == PlanDecision::SkipTooLong)
            .count();
        assert_eq!(too_long, 4); // the four 3-term subsets
    }

    #[test]
    fn greedy_cost_drops_zero_df_and_unindexable_probes() {
        let query = TermKey::new(["a", "b", "ghost"]);
        let ranking = stats(&[("a", 50), ("b", 2)]); // "ghost" has df 0
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        let plan = GreedyCost.plan(&ctx(
            &query,
            &ranking,
            &global,
            LatticeConfig::default(),
            PlanHints {
                max_indexed_len: 2,
                probe_unindexed: false,
                multi_term_prior: 0.5,
            },
        ));
        // Every node containing "ghost" is skipped; the 3-term query is over the
        // indexable length and the strategy is not query-driven, so it is skipped
        // too. Remaining probes: ab, a, b.
        let probed: Vec<String> = plan.probes().map(|n| n.key.canonical()).collect();
        assert_eq!(probed, vec!["a+b", "a", "b"]);
        // The full lattice is still traced.
        assert_eq!(plan.nodes.len(), 7);
        assert_eq!(plan.budget_policy, BudgetPolicy::Reserve);
        // Every scheduled probe is a lattice subset; no duplicates.
        let mut seen = std::collections::BTreeSet::new();
        for n in plan.probes() {
            assert!(n.key.is_subset_of(&query));
            assert!(seen.insert(n.key.clone()), "duplicate probe {}", n.key);
        }
    }

    #[test]
    fn greedy_cost_keeps_activatable_query_probes_for_query_driven_strategies() {
        let query = TermKey::new(["a", "b", "c"]);
        let ranking = stats(&[("a", 50), ("b", 2), ("c", 7)]);
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        // The query exceeds the probe-length bound, but a query-driven strategy
        // could still activate it on demand (max_indexed_len >= 3): the probe
        // must be kept — it feeds the responsible peer's usage statistics.
        let tight_lattice = LatticeConfig {
            max_probe_len: 2,
            ..Default::default()
        };
        let plan = GreedyCost.plan(&ctx(
            &query,
            &ranking,
            &global,
            tight_lattice.clone(),
            PlanHints {
                max_indexed_len: 3,
                probe_unindexed: true, // QDI: probes feed activation statistics
                multi_term_prior: 0.3,
            },
        ));
        assert!(plan.probes().any(|n| n.key == query));
        // Once the strategy cannot index or activate the key at all, probing it
        // buys nothing and it is dropped (unlike BestEffort's query-first probe).
        let plan = GreedyCost.plan(&ctx(
            &query,
            &ranking,
            &global,
            tight_lattice,
            PlanHints {
                max_indexed_len: 2,
                probe_unindexed: true,
                multi_term_prior: 0.3,
            },
        ));
        assert!(plan.probes().all(|n| n.key != query));
        assert_eq!(
            plan.nodes.iter().find(|n| n.key == query).unwrap().decision,
            PlanDecision::Skip
        );
    }

    #[test]
    fn greedy_cost_orders_within_levels_by_priority() {
        let query = TermKey::new(["rare", "common"]);
        // Similar posting sizes after truncation (9 vs 10 entries at capacity 10),
        // so the rare term's far higher idf dominates the benefit/cost ratio.
        let ranking = stats(&[("rare", 9), ("common", 90)]);
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        let plan = GreedyCost.plan(&ctx(
            &query,
            &ranking,
            &global,
            LatticeConfig::default(),
            PlanHints::default(),
        ));
        // Levels stay largest-first; within the singles, the rare (cheap, high-idf)
        // term outranks the common one.
        let order: Vec<String> = plan.probes().map(|n| n.key.canonical()).collect();
        assert_eq!(order[0], "common+rare");
        assert_eq!(order[1], "rare");
        assert_eq!(order[2], "common");
        for pair in plan.nodes.windows(2) {
            assert!(pair[0].key.len() >= pair[1].key.len());
        }
    }

    /// `n` postings of documents `offset..offset + n`, best first, bounded to
    /// `capacity` (truncated when `n > capacity`).
    fn postings(n: u32, offset: u32, capacity: usize) -> TruncatedPostingList {
        let refs = (0..n).map(|i| ScoredRef {
            doc: DocId::new(0, offset + i),
            score: f64::from(n - i),
        });
        TruncatedPostingList::from_refs(refs, capacity)
    }

    /// A fake index's two-hop answer for `key`: `Some((docs, capacity))` is
    /// a list of [`postings`], `None` a miss.
    fn answer(key: &TermKey, list: Option<(u32, usize)>) -> ProbeResult {
        ProbeResult {
            key: key.clone(),
            postings: list.map(|(docs, capacity)| postings(docs, 0, capacity)),
            hops: 2,
            via_shortcut: false,
            responsible: 0,
            served_by: 0,
            replica_set: Vec::new(),
        }
    }

    /// A key from its canonical form (`"b+c"`).
    fn key(canonical: &str) -> TermKey {
        TermKey::new(canonical.split('+'))
    }

    /// The canonical forms of `keys`, in order.
    fn names<'a>(keys: impl IntoIterator<Item = &'a TermKey>) -> Vec<String> {
        keys.into_iter().map(TermKey::canonical).collect()
    }

    /// One lattice walk: the query, the indexed keys as `(key, docs,
    /// capacity)`, the bounds, and what walking a [`BestEffort`] plan must do.
    /// Keys are canonical strings, lists in trace order.
    struct Walk {
        name: &'static str,
        query: &'static str,
        indexed: &'static [(&'static str, u32, usize)],
        lattice: LatticeConfig,
        probed: &'static [&'static str],
        skipped: &'static [&'static str],
        found: &'static [&'static str],
        probes_hops: (usize, usize),
    }

    fn walks() -> Vec<Walk> {
        let abc_all = &["a+b+c", "a+b", "a+c", "b+c", "a", "b", "c"];
        vec![
            // The paper's scenario: bc (truncated) and the singles are indexed;
            // the truncated bc prunes b and c, the result is bc ∪ a.
            Walk {
                name: "figure 1",
                query: "a+b+c",
                indexed: &[("b+c", 10, 5), ("a", 3, 5), ("b", 4, 5), ("c", 4, 5)],
                lattice: LatticeConfig::default(),
                probed: &["a+b+c", "a+b", "a+c", "b+c", "a"],
                skipped: &["b", "c"],
                found: &["b+c", "a"],
                probes_hops: (5, 10),
            },
            Walk {
                name: "a complete query key prunes everything",
                query: "a+b+c",
                indexed: &[("a+b+c", 5, 100)],
                lattice: LatticeConfig::default(),
                probed: &["a+b+c"],
                skipped: &["a+b", "a+c", "b+c", "a", "b", "c"],
                found: &["a+b+c"],
                probes_hops: (1, 2),
            },
            Walk {
                name: "truncated keys do not prune when told not to",
                query: "a+b+c",
                indexed: &[("b+c", 10, 5), ("b", 4, 5), ("c", 4, 5)],
                lattice: LatticeConfig {
                    prune_below_truncated: false,
                    ..Default::default()
                },
                probed: abc_all,
                skipped: &[],
                found: &["b+c", "b", "c"],
                probes_hops: (7, 14),
            },
            Walk {
                name: "a single-term query probes once",
                query: "databas",
                indexed: &[("databas", 2, 10)],
                lattice: LatticeConfig::default(),
                probed: &["databas"],
                skipped: &[],
                found: &["databas"],
                probes_hops: (1, 2),
            },
            Walk {
                name: "nothing indexed",
                query: "a+b+c",
                indexed: &[],
                lattice: LatticeConfig::default(),
                probed: abc_all,
                skipped: &[],
                found: &[],
                probes_hops: (7, 14),
            },
            // The 3-term subsets exceed the bound; the query itself is still
            // probed first.
            Walk {
                name: "max_probe_len spares the query",
                query: "a+b+c+d",
                indexed: &[],
                lattice: LatticeConfig {
                    max_probe_len: 2,
                    max_probes: 1_000,
                    ..Default::default()
                },
                probed: &[
                    "a+b+c+d", "a+b", "a+c", "a+d", "b+c", "b+d", "c+d", "a", "b", "c", "d",
                ],
                skipped: &[],
                found: &[],
                probes_hops: (11, 22),
            },
            Walk {
                name: "max_probes caps the walk",
                query: "a+b+c+d",
                indexed: &[],
                lattice: LatticeConfig {
                    max_probes: 3,
                    max_probe_len: 0,
                    ..Default::default()
                },
                probed: &["a+b+c+d", "a+b+c", "a+b+d"],
                skipped: &[
                    "a+c+d", "b+c+d", "a+b", "a+c", "a+d", "b+c", "b+d", "c+d", "a", "b", "c", "d",
                ],
                found: &[],
                probes_hops: (3, 6),
            },
        ]
    }

    /// Walks a [`BestEffort`] plan of `walk` with a [`PlanCursor`] against
    /// its fake index and checks every expectation of the row.
    fn check(walk: &Walk) {
        let name = walk.name;
        let query = key(walk.query);
        let ranking = stats(&[]);
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        let plan = BestEffort.plan(&ctx(
            &query,
            &ranking,
            &global,
            walk.lattice.clone(),
            PlanHints::default(),
        ));
        let mut cursor = PlanCursor::new(plan, &walk.lattice, None);
        let mut sent = Vec::new();
        while let CursorStep::Probe(probed) = cursor.next_key(0) {
            sent.push(probed.canonical());
            let list = walk
                .indexed
                .iter()
                .find(|(k, ..)| key(k) == probed)
                .map(|&(_, docs, capacity)| (docs, capacity));
            cursor.record(answer(&probed, list));
        }
        let (result, exhausted) = cursor.finish();
        let trace = &result.trace;
        assert!(!exhausted, "{name}");
        assert_eq!(sent, walk.probed, "{name}: probes sent");
        assert_eq!(names(trace.probed_keys()), walk.probed, "{name}: probed");
        assert_eq!(names(trace.skipped_keys()), walk.skipped, "{name}: skipped");
        assert_eq!(names(trace.found_keys()), walk.found, "{name}: found");
        let retrieved = names(result.retrieved.iter().map(|(k, _)| k));
        assert_eq!(retrieved, walk.found, "{name}: retrieved");
        assert_eq!((trace.probes, trace.hops), walk.probes_hops, "{name}");
        // The trace covers the lattice once; a node neither probed nor
        // skipped is a non-query key longer than the bound.
        assert_eq!(trace.nodes.len(), (1 << query.len()) - 1, "{name}");
        for (k, outcome) in &trace.nodes {
            match outcome {
                NodeOutcome::TooLong => {
                    assert!(
                        k.len() > walk.lattice.max_probe_len && *k != query,
                        "{name}"
                    )
                }
                NodeOutcome::Found { truncated } => {
                    let &(_, docs, capacity) =
                        walk.indexed.iter().find(|(c, ..)| key(c) == *k).unwrap();
                    assert_eq!(*truncated, docs as usize > capacity, "{name}: {k}");
                }
                _ => {}
            }
        }
    }

    /// Checks the row of [`walks`] called `name`; the `lattice` module's
    /// tests pin one row each.
    pub(crate) fn check_walk(name: &str) {
        let walk = walks().into_iter().find(|w| w.name == name);
        check(&walk.unwrap_or_else(|| panic!("no lattice walk named {name:?}")));
    }

    #[test]
    fn cursor_walks_the_query_lattice() {
        for walk in walks() {
            check(&walk);
        }
    }

    /// Plans Figure 1's query from peer 1 with `planner` under `byte_budget`
    /// and `lattice` and runs it over a 16-peer index holding `b+c`
    /// truncated (12 matches, capacity 5) and the single terms complete: the
    /// walk's result, the retrieval bytes spent, and whether the budget
    /// withheld a probe.
    fn walk_figure_1(
        planner: &dyn Planner,
        lattice: &LatticeConfig,
        byte_budget: u64,
    ) -> (LatticeResult, u64, bool) {
        let mut index = GlobalIndex::new(DhtConfig::default(), 1, 16);
        for (k, n, offset) in [("b+c", 12, 100), ("a", 3, 0), ("b", 4, 200), ("c", 4, 300)] {
            let list = postings(n, offset, 5);
            index.publish_postings(0, &key(k), &list, 5).unwrap();
        }
        let fragment = CollectionStats {
            doc_count: 23,
            total_terms: 1_000,
            doc_frequencies: [("a", 3u64), ("b", 12), ("c", 12)]
                .into_iter()
                .map(|(t, df)| (t.to_string(), df))
                .collect(),
        };
        let ranking = GlobalRankingStats::aggregate([&fragment]);
        let query = key("a+b+c");
        let plan = planner.plan(&PlanCtx {
            origin: 1,
            capacity: 5,
            byte_budget: Some(byte_budget),
            ..ctx(
                &query,
                &ranking,
                &index,
                lattice.clone(),
                PlanHints::default(),
            )
        });
        let retrieval =
            |index: &GlobalIndex| index.stats().category(TrafficCategory::Retrieval).bytes;
        let base = retrieval(&index);
        let mut cursor = PlanCursor::new(plan, lattice, Some(byte_budget));
        while let CursorStep::Probe(k) = cursor.next_key(retrieval(&index) - base) {
            match index.probe(1, &k, 1, 5, 0, None).unwrap() {
                ProbeOutcome::Ok(probe) => cursor.record(probe),
                failed => unreachable!("no fault plane is set: {failed:?}"),
            };
        }
        let (result, exhausted) = cursor.finish();
        (result, retrieval(&index) - base, exhausted)
    }

    /// [`walk_figure_1`] under the default lattice bounds: the retrieved
    /// keys, the retrieval bytes spent, and whether the budget withheld a
    /// probe.
    fn run_figure_1(planner: &dyn Planner, byte_budget: u64) -> (Vec<String>, u64, bool) {
        let (result, bytes, exhausted) =
            walk_figure_1(planner, &LatticeConfig::default(), byte_budget);
        let retrieved = names(result.retrieved.iter().map(|(k, _)| k));
        (retrieved, bytes, exhausted)
    }

    #[test]
    fn reproduces_figure_1_pattern() {
        let (result, _, _) = walk_figure_1(&BestEffort, &LatticeConfig::default(), 1_000_000);
        let outcomes: Vec<(String, NodeOutcome)> = result
            .trace
            .nodes
            .iter()
            .map(|(k, o)| (k.canonical(), o.clone()))
            .collect();
        let found = |truncated| NodeOutcome::Found { truncated };
        let expected = [
            ("a+b+c", NodeOutcome::Missing),
            ("a+b", NodeOutcome::Missing),
            ("a+c", NodeOutcome::Missing),
            ("b+c", found(true)),
            ("a", found(false)),
            ("b", NodeOutcome::Skipped),
            ("c", NodeOutcome::Skipped),
        ]
        .map(|(k, o)| (k.to_string(), o));
        assert_eq!(outcomes, expected);
        // The result union comes from bc and a, exactly as in the paper.
        let retrieved = names(result.retrieved.iter().map(|(k, _)| k));
        assert_eq!(retrieved, vec!["b+c", "a"]);
    }

    #[test]
    fn without_pruning_the_singles_are_probed() {
        let lattice = LatticeConfig {
            prune_below_truncated: false,
            ..Default::default()
        };
        let (result, _, _) = walk_figure_1(&BestEffort, &lattice, 1_000_000);
        assert!(result.trace.skipped_keys().is_empty());
        assert_eq!(names(result.trace.found_keys()), vec!["b+c", "a", "b", "c"]);
    }

    #[test]
    fn greedy_cost_retrieves_figure_1_within_a_budget_best_effort_wastes() {
        // Generous budget: both planners end with the Figure 1 result union.
        let (best_loose, _, _) = run_figure_1(&BestEffort, 1_000_000);
        let (mut greedy_loose, _, greedy_exhausted) = run_figure_1(&GreedyCost, 1_000_000);
        assert_eq!(best_loose, vec!["b+c", "a"]);
        greedy_loose.sort();
        assert_eq!(greedy_loose, vec!["a", "b+c"]);
        assert!(!greedy_exhausted);

        // Tight budget (roughly two and a half probes): the cost-based plan
        // spends it on the keys that are actually indexed and still
        // retrieves the full union, while the fixed-order cutoff burns it on
        // the missing multi-term prefixes. Reserve admission never exceeds
        // the budget. Greedy's admission needs 600 B for both keys (it
        // spends 556 B); best-effort's three missing prefixes spend 768 B,
        // so any budget in 600..=768 makes the point.
        let budget = 700;
        let (best, _, _) = run_figure_1(&BestEffort, budget);
        let (greedy, greedy_bytes, _) = run_figure_1(&GreedyCost, budget);
        assert!(greedy_bytes <= budget, "greedy spent {greedy_bytes}");
        assert!(
            greedy.len() >= best.len(),
            "greedy {greedy:?} vs best-effort {best:?}"
        );
        assert!(greedy.contains(&"a".to_string()));
        assert!(greedy.contains(&"b+c".to_string()));
        assert!(best.is_empty());
    }

    #[test]
    fn reserve_policy_admits_only_affordable_probes() {
        let query = TermKey::new(["a", "b"]);
        let ranking = stats(&[("a", 8), ("b", 8)]);
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        let plan = GreedyCost.plan(&ctx(
            &query,
            &ranking,
            &global,
            LatticeConfig::default(),
            PlanHints::default(),
        ));
        let max_est = plan.probes().map(|n| n.est_bytes).max().unwrap();
        // A budget below every estimate admits nothing and marks truncation.
        let mut cursor = PlanCursor::new(plan.clone(), &LatticeConfig::default(), Some(1));
        assert_eq!(cursor.next_key(0), CursorStep::Done);
        let (result, exhausted) = cursor.finish();
        assert!(exhausted);
        assert_eq!(result.trace.probes, 0);
        // A budget covering the worst single probe admits at least one.
        let mut cursor = PlanCursor::new(plan, &LatticeConfig::default(), Some(max_est));
        assert!(matches!(cursor.next_key(0), CursorStep::Probe(_)));
    }

    #[test]
    fn exhausting_the_plan_exactly_is_not_budget_truncation() {
        let query = TermKey::single("only");
        let ranking = stats(&[("only", 4)]);
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        let plan = BestEffort.plan(&ctx(
            &query,
            &ranking,
            &global,
            LatticeConfig::default(),
            PlanHints::default(),
        ));
        // Budget exactly equal to the spend after the only probe: the cutoff check
        // never blocks a remaining probe, so the plan is not "truncated".
        let mut cursor = PlanCursor::new(plan, &LatticeConfig::default(), Some(500));
        let CursorStep::Probe(key) = cursor.next_key(0) else {
            panic!("first probe admitted")
        };
        cursor.record(answer(&key, Some((4, 10))));
        assert_eq!(cursor.next_key(500), CursorStep::Done);
        let (_, exhausted) = cursor.finish();
        assert!(!exhausted);
    }
}

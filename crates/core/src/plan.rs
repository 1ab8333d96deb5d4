//! Query planning: the probe schedule over a query's term lattice, and the
//! one rule that holds a query to its byte budget.
//!
//! Retrieval is an explicit **plan → execute** pipeline:
//!
//! * [`QueryPlan`] — the query's term lattice in the paper's fixed order,
//!   largest combinations first (Figure 1). Every lattice node appears
//!   exactly once, either as a scheduled probe (with hop, byte and entry
//!   upper bounds) or as a planned skip, so executing a plan yields a
//!   complete [`crate::lattice::LatticeTrace`]. The annotations read the
//!   global document frequencies and the overlay's traffic-free hop
//!   estimate ([`GlobalIndex::estimate_hops`]); planning sends nothing.
//! * [`PlanCursor`] — the deterministic execution state machine behind
//!   [`crate::exec::QueryStream`] / [`crate::network::AlvisNetwork::run`], and
//!   the one lattice walker: it walks a plan, skips a subkey once a retrieved
//!   superkey covers it (domination pruning), applies the probe cap and the
//!   byte budget, and accumulates the trace.
//!
//! **The byte budget** has one rule, *Reserve*: a probe is sent only if
//! `spent + est_bytes ≤ budget`, where `spent` is the retrieval bytes the
//! query has charged so far. A probe that does not fit is skipped, and a
//! later, cheaper one may still be sent. A query therefore never spends more
//! than its budget, because `est_bytes` is an upper bound on what a probe
//! charges ([`GlobalIndex::estimate_probe_bytes`] mirrors the probe's
//! accounting with the codec's worst-case frame). The bound covers one
//! attempt: re-sends under an active [`crate::fault::FaultPlane`] are
//! charged on top.

use crate::global_index::{GlobalIndex, ProbeResult};
use crate::key::TermKey;
use crate::lattice::{LatticeConfig, LatticeResult, NodeOutcome};
use crate::posting::TruncatedPostingList;
use crate::ranking::GlobalRankingStats;

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// What the plan does with one lattice node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanDecision {
    /// Send the probe (subject to run-time pruning and the byte budget).
    Probe,
    /// Do not probe: the combination exceeds the probe-length bound. Recorded as
    /// [`NodeOutcome::TooLong`] in the trace.
    SkipTooLong,
    /// Do not probe: the strategy indexes single terms only. Recorded as
    /// [`NodeOutcome::Skipped`] in the trace.
    Skip,
}

/// One lattice node in a [`QueryPlan`]: the key, the plan's decision and the
/// cost annotation of the probe.
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
}

/// An ordered, cost-annotated probe schedule over a query's term lattice.
///
/// Made by [`crate::network::AlvisNetwork::plan`], executed by
/// [`crate::network::AlvisNetwork::run`] / [`crate::exec::QueryStream`]. The
/// schedule covers the **whole** lattice: nodes the plan does not probe are
/// kept as planned skips so traces stay complete.
#[derive(Clone, Debug, Default)]
pub struct QueryPlan {
    /// The analyzed query key, or `None` when the query text analyzed to nothing
    /// (the plan is then empty and executing it returns an empty response).
    pub query_key: Option<TermKey>,
    /// The peer the query originates from.
    pub origin: usize,
    /// The schedule, in execution order.
    pub nodes: Vec<PlanNode>,
    /// Sum of the scheduled probes' byte upper bounds.
    pub est_total_bytes: u64,
    /// Sum of the scheduled probes' hop estimates.
    pub est_total_hops: usize,
}

impl QueryPlan {
    /// Plans `query` from `origin`: its lattice largest-first, each node
    /// probed unless it exceeds `lattice.max_probe_len` (the query itself is
    /// always tried first, per the paper) or the strategy indexes single
    /// terms only, and each probe annotated with its traffic-free cost
    /// bounds for a response of at most `capacity` references.
    pub(crate) fn new(
        query: &TermKey,
        origin: usize,
        lattice: &LatticeConfig,
        capacity: usize,
        ranking: &GlobalRankingStats,
        global: &GlobalIndex,
    ) -> Self {
        let single_term_only = lattice.max_probe_len == 1;
        let nodes: Vec<PlanNode> = query
            .all_subsets_desc()
            .into_iter()
            .map(|key| {
                let decision = if lattice.max_probe_len > 0
                    && key.len() > lattice.max_probe_len
                    && key != *query
                {
                    PlanDecision::SkipTooLong
                } else if single_term_only && key.len() > 1 {
                    // Only the single terms exist in the index, each complete.
                    PlanDecision::Skip
                } else {
                    PlanDecision::Probe
                };
                let (est_hops, est_bytes, est_entries) = if decision == PlanDecision::Probe {
                    let hops = global.estimate_hops(origin, &key).unwrap_or(0);
                    let entries = (df_upper_bound(ranking, &key) as usize).min(capacity);
                    (
                        hops,
                        global.estimate_probe_bytes(&key, hops, entries),
                        entries,
                    )
                } else {
                    (0, 0, 0)
                };
                PlanNode {
                    key,
                    decision,
                    est_hops,
                    est_bytes,
                    est_entries,
                }
            })
            .collect();
        let mut plan = QueryPlan {
            query_key: Some(query.clone()),
            origin,
            nodes,
            est_total_bytes: 0,
            est_total_hops: 0,
        };
        plan.est_total_bytes = plan.probes().map(|n| n.est_bytes).sum();
        plan.est_total_hops = plan.probes().map(|n| n.est_hops).sum();
        plan
    }

    /// Whether the plan schedules no probes at all.
    pub fn is_empty(&self) -> bool {
        self.scheduled_probes() == 0
    }

    /// The nodes the plan schedules for probing, in execution order.
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

/// Upper bound on the number of documents matching every term of `key`: the
/// smallest global document frequency among its terms (an intersection can
/// never be larger than its smallest member).
fn df_upper_bound(ranking: &GlobalRankingStats, key: &TermKey) -> u64 {
    key.term_ids()
        .iter()
        .map(|t| ranking.df_id(*t))
        .min()
        .unwrap_or(0)
}

/// A no-op pin: [`QueryPlan`] has one schedule, the one this name always
/// stood for. Kept only because `benchmark/` (outside the workspace) passes
/// it to [`crate::network::AlvisNetworkBuilder::planner`]; goes with ROADMAP
/// item 8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BestEffort;

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
/// schedule, applies dynamic domination pruning, the probe cap and the
/// Reserve rule, and accumulates the [`crate::lattice::LatticeTrace`].
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

    /// The Reserve rule: the probe's upper-bound cost still fits the budget.
    fn budget_admits(&self, node: &PlanNode, spent_bytes: u64) -> bool {
        self.byte_budget
            .is_none_or(|b| spent_bytes.saturating_add(node.est_bytes) <= b)
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

    /// Plans `query` from peer 0 with truncation capacity 10.
    fn plan_of(
        query: &TermKey,
        ranking: &GlobalRankingStats,
        global: &GlobalIndex,
        lattice: LatticeConfig,
    ) -> QueryPlan {
        QueryPlan::new(query, 0, &lattice, 10, ranking, global)
    }

    #[test]
    fn best_effort_schedules_the_full_lattice_in_order() {
        let query = TermKey::new(["a", "b", "c"]);
        let ranking = stats(&[("a", 3), ("b", 4), ("c", 4)]);
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        let plan = plan_of(&query, &ranking, &global, LatticeConfig::default());
        assert_eq!(plan.nodes.len(), 7);
        assert_eq!(plan.scheduled_probes(), 7);
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
        let plan = plan_of(
            &query,
            &ranking,
            &global,
            LatticeConfig {
                max_probe_len: 1,
                ..Default::default()
            },
        );
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
        let plan = plan_of(
            &query,
            &ranking,
            &global,
            LatticeConfig {
                max_probe_len: 2,
                ..Default::default()
            },
        );
        assert_eq!(plan.nodes[0].key, query);
        assert_eq!(plan.nodes[0].decision, PlanDecision::Probe);
        let too_long = plan
            .nodes
            .iter()
            .filter(|n| n.decision == PlanDecision::SkipTooLong)
            .count();
        assert_eq!(too_long, 4); // the four 3-term subsets
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
        let plan = plan_of(&query, &ranking, &global, walk.lattice.clone());
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

    /// Plans Figure 1's query from peer 1 under `lattice` and runs it, with
    /// the byte budget `budget` picks for the plan, over a 16-peer index
    /// holding `b+c` truncated (12 matches, capacity 5) and the single terms
    /// complete: the walk's result, the retrieval bytes spent, and whether
    /// the budget withheld a probe.
    fn walk_figure_1(
        lattice: &LatticeConfig,
        budget: impl FnOnce(&QueryPlan) -> Option<u64>,
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
        let plan = QueryPlan::new(&key("a+b+c"), 1, lattice, 5, &ranking, &index);
        let byte_budget = budget(&plan);
        let retrieval =
            |index: &GlobalIndex| index.stats().category(TrafficCategory::Retrieval).bytes;
        let base = retrieval(&index);
        let mut cursor = PlanCursor::new(plan, lattice, byte_budget);
        while let CursorStep::Probe(k) = cursor.next_key(retrieval(&index) - base) {
            match index.probe(1, &k, 1, 5, 0, None).unwrap() {
                ProbeOutcome::Ok(probe) => cursor.record(probe),
                failed => unreachable!("no fault plane is set: {failed:?}"),
            };
        }
        let (result, exhausted) = cursor.finish();
        (result, retrieval(&index) - base, exhausted)
    }

    #[test]
    fn reproduces_figure_1_pattern() {
        let (result, _, _) = walk_figure_1(&LatticeConfig::default(), |_| None);
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
        let (result, _, _) = walk_figure_1(&lattice, |_| None);
        assert!(result.trace.skipped_keys().is_empty());
        assert_eq!(names(result.trace.found_keys()), vec!["b+c", "a", "b", "c"]);
    }

    #[test]
    fn reserve_policy_admits_only_affordable_probes() {
        let query = TermKey::new(["a", "b"]);
        let ranking = stats(&[("a", 8), ("b", 8)]);
        let global = GlobalIndex::new(DhtConfig::default(), 1, 8);
        let plan = plan_of(&query, &ranking, &global, LatticeConfig::default());
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
        // Over a real index no budget is ever exceeded, and one too small
        // for the whole walk withholds a probe.
        let lattice = LatticeConfig::default();
        let (_, unbudgeted, _) = walk_figure_1(&lattice, |_| None);
        for budget in [0, 300, 700, 1_000, unbudgeted - 1, unbudgeted, 10_000] {
            let (_, spent, exhausted) = walk_figure_1(&lattice, |_| Some(budget));
            assert!(spent <= budget, "spent {spent} with byte budget {budget}");
            if budget < unbudgeted {
                assert!(exhausted, "byte budget {budget}");
            }
        }
    }

    #[test]
    fn reserve_skips_an_unaffordable_probe_and_sends_a_later_cheaper_one() {
        let node = |k: &str, est_bytes| PlanNode {
            key: key(k),
            decision: PlanDecision::Probe,
            est_hops: 2,
            est_bytes,
            est_entries: 1,
        };
        let plan = QueryPlan {
            query_key: Some(key("a+b")),
            nodes: vec![node("a+b", 500), node("a", 100), node("b", 150)],
            ..QueryPlan::default()
        };
        let lattice = LatticeConfig::default();
        let mut cursor = PlanCursor::new(plan, &lattice, Some(300));
        // `a+b` does not fit; `a` does, and a miss leaves `b` to probe, which
        // no longer fits beside what `a` charged.
        assert_eq!(cursor.next_key(0), CursorStep::Probe(key("a")));
        cursor.record(answer(&key("a"), None));
        assert_eq!(cursor.next_key(200), CursorStep::Done);
        let (result, exhausted) = cursor.finish();
        assert!(exhausted);
        let outcomes: Vec<(String, NodeOutcome)> = result
            .trace
            .nodes
            .iter()
            .map(|(k, o)| (k.canonical(), o.clone()))
            .collect();
        let expected = [
            ("a+b", NodeOutcome::Skipped),
            ("a", NodeOutcome::Missing),
            ("b", NodeOutcome::Skipped),
        ]
        .map(|(k, o)| (k.to_string(), o));
        assert_eq!(outcomes, expected);
    }

    #[test]
    fn exhausting_the_plan_exactly_is_not_budget_truncation() {
        // A budget equal to the plan's estimated total admits every
        // scheduled probe: each estimate bounds what its probe charges.
        let lattice = LatticeConfig::default();
        let (free, free_bytes, _) = walk_figure_1(&lattice, |_| None);
        let (exact, exact_bytes, exhausted) =
            walk_figure_1(&lattice, |plan| Some(plan.est_total_bytes));
        assert!(!exhausted);
        assert_eq!(exact.trace.nodes, free.trace.nodes);
        assert_eq!(exact_bytes, free_bytes);
    }
}

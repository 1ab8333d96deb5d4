//! **E1 — Figure 1: query-lattice processing.**
//!
//! Reproduces the paper's Figure 1 exactly: the query `{a, b, c}` is processed against
//! a global index in which the key `bc` is indexed with a *truncated* posting list and
//! the single terms are indexed too. The experiment prints, for every node of the
//! query lattice, whether it was probed, found (truncated or complete), missing or
//! skipped — the expected output is the probed/skipped pattern of the figure
//! (`abc, ab, ac, bc, a` probed; `b, c` skipped; result = union of `bc` and `a`).

use alvisp2p_core::fault::ProbeOutcome;
use alvisp2p_core::global_index::{GlobalIndex, ProbeResult};
use alvisp2p_core::key::TermKey;
use alvisp2p_core::lattice::{explore_lattice, LatticeConfig, NodeOutcome};
use alvisp2p_core::plan::{
    BestEffort, CursorStep, GreedyCost, PlanCtx, PlanCursor, PlanDecision, PlanHints, Planner,
};
use alvisp2p_core::posting::{ScoredRef, TruncatedPostingList};
use alvisp2p_core::ranking::GlobalRankingStats;
use alvisp2p_dht::{DhtConfig, DhtError};
use alvisp2p_netsim::TrafficCategory;
use alvisp2p_textindex::{CollectionStats, DocId};
use serde::Serialize;
use std::collections::BTreeMap;

use crate::table::Table;

/// One row of the E1 output: a lattice node and what happened to it.
#[derive(Clone, Debug, Serialize)]
pub struct LatticeRow {
    /// The lattice node (canonical key form).
    pub key: String,
    /// Outcome label: "found (truncated)", "found (complete)", "missing", "skipped".
    pub outcome: String,
    /// Whether this key's posting list contributes to the final result union.
    pub in_result: bool,
}

/// Parameters of the Figure 1 scenario.
#[derive(Clone, Debug, Serialize)]
pub struct LatticeParams {
    /// Number of peers in the overlay.
    pub peers: usize,
    /// How many documents match the key `bc` (more than `capacity`, so it truncates).
    pub bc_matches: u32,
    /// Posting-list capacity (the truncation bound).
    pub capacity: usize,
    /// Whether the lattice below truncated keys is pruned (the Figure 1 approximation).
    pub prune_below_truncated: bool,
}

impl Default for LatticeParams {
    fn default() -> Self {
        LatticeParams {
            peers: 16,
            bc_matches: 12,
            capacity: 5,
            prune_below_truncated: true,
        }
    }
}

/// Builds the Figure 1 index: key `bc` activated with a truncated posting list,
/// the single terms activated too, everything else missing.
fn build_figure1_index(params: &LatticeParams) -> GlobalIndex {
    let mut index = GlobalIndex::new(DhtConfig::default(), 1, params.peers);

    let list = |n: u32, offset: u32| {
        TruncatedPostingList::from_refs(
            (0..n).map(|i| ScoredRef {
                doc: DocId::new(0, offset + i),
                score: f64::from(n - i),
            }),
            params.capacity,
        )
    };
    // bc: more matches than the capacity → truncated.
    index
        .publish_postings(
            0,
            &TermKey::new(["b", "c"]),
            &list(params.bc_matches, 100),
            params.capacity,
        )
        .unwrap();
    // The single-term index always exists.
    index
        .publish_postings(0, &TermKey::single("a"), &list(3, 0), params.capacity)
        .unwrap();
    index
        .publish_postings(0, &TermKey::single("b"), &list(4, 200), params.capacity)
        .unwrap();
    index
        .publish_postings(0, &TermKey::single("c"), &list(4, 300), params.capacity)
        .unwrap();
    index
}

/// One probe from peer 1 over the fault-free wire of the Figure 1 index.
fn probe(index: &mut GlobalIndex, key: &TermKey, capacity: usize) -> Result<ProbeResult, DhtError> {
    index
        .probe(1, key, 1, capacity, None, 0, None)
        .map(|outcome| match outcome {
            ProbeOutcome::Ok(probe) => probe,
            failed => unreachable!("no fault plane is set: {failed:?}"),
        })
}

/// Builds the Figure 1 index and runs the query `{a, b, c}` through the lattice.
pub fn run(params: &LatticeParams) -> Vec<LatticeRow> {
    let mut index = build_figure1_index(params);

    let config = LatticeConfig {
        prune_below_truncated: params.prune_below_truncated,
        ..Default::default()
    };
    let query = TermKey::new(["a", "b", "c"]);
    let result = explore_lattice(&query, &config, |k| probe(&mut index, k, params.capacity))
        .expect("exploration succeeds");

    let retrieved: Vec<String> = result
        .retrieved
        .iter()
        .map(|(k, _)| k.canonical())
        .collect();
    result
        .trace
        .nodes
        .iter()
        .map(|(key, outcome)| LatticeRow {
            key: key.canonical(),
            outcome: match outcome {
                NodeOutcome::Found { truncated: true } => "found (truncated)".to_string(),
                NodeOutcome::Found { truncated: false } => "found (complete)".to_string(),
                NodeOutcome::Missing => "missing".to_string(),
                NodeOutcome::Skipped => "skipped".to_string(),
                NodeOutcome::TooLong => "not probed (too long)".to_string(),
                NodeOutcome::Failed { cause } => format!("failed ({cause})"),
            },
            in_result: retrieved.contains(&key.canonical()),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E1b — planned-vs-best-effort arm: the same Figure 1 scenario through the
// plan → execute pipeline, under a byte budget.
// ---------------------------------------------------------------------------

/// One row of the E1b output: a scheduled lattice node of one planner's plan and
/// what executing it did.
#[derive(Clone, Debug, Serialize)]
pub struct PlannedLatticeRow {
    /// Planner label ("best-effort" or "greedy-cost").
    pub planner: String,
    /// Position in the schedule.
    pub position: usize,
    /// The lattice node (canonical key form).
    pub key: String,
    /// The planner's decision ("probe" or "skip").
    pub decision: String,
    /// Worst-case byte estimate of the probe.
    pub est_bytes: u64,
    /// The planner's benefit/cost priority.
    pub priority: f64,
    /// What executing the schedule did to the node.
    pub outcome: String,
}

/// Summary of one planner's budgeted execution of the Figure 1 scenario.
#[derive(Clone, Debug, Serialize)]
pub struct PlannedSummary {
    /// Planner label.
    pub planner: String,
    /// The byte budget.
    pub byte_budget: u64,
    /// Probes actually sent.
    pub probes: usize,
    /// Retrieval bytes actually spent.
    pub bytes: u64,
    /// Keys whose posting lists were retrieved (the result union).
    pub retrieved: Vec<String>,
    /// Whether a budget withheld at least one probe.
    pub budget_exhausted: bool,
}

/// Synthetic global ranking statistics consistent with the Figure 1 index, so
/// the cost-based planner has document frequencies to estimate with.
fn figure1_stats(params: &LatticeParams) -> GlobalRankingStats {
    let fragment = CollectionStats {
        doc_count: u64::from(params.bc_matches) + 11,
        total_terms: 1_000,
        doc_frequencies: [
            ("a".to_string(), 3u64),
            ("b".to_string(), u64::from(params.bc_matches)),
            ("c".to_string(), u64::from(params.bc_matches)),
        ]
        .into_iter()
        .collect::<BTreeMap<String, u64>>(),
    };
    GlobalRankingStats::aggregate([&fragment])
}

/// Plans and executes the Figure 1 query with `planner` under `byte_budget`,
/// returning the schedule rows and the execution summary.
pub fn run_planned(
    params: &LatticeParams,
    planner: &dyn Planner,
    byte_budget: u64,
) -> (Vec<PlannedLatticeRow>, PlannedSummary) {
    let mut index = build_figure1_index(params);
    let ranking = figure1_stats(params);
    let query = TermKey::new(["a", "b", "c"]);
    let lattice = LatticeConfig {
        prune_below_truncated: params.prune_below_truncated,
        ..Default::default()
    };
    let ctx = PlanCtx {
        query_key: &query,
        origin: 1,
        lattice: lattice.clone(),
        hints: PlanHints::default(),
        capacity: params.capacity,
        ranking: &ranking,
        global: &index,
        byte_budget: Some(byte_budget),
        hop_budget: None,
    };
    let plan = planner.plan(&ctx);

    let base = index.stats().category(TrafficCategory::Retrieval).bytes;
    let mut cursor = PlanCursor::new(plan.clone(), &lattice, Some(byte_budget), None);
    loop {
        let spent = index.stats().category(TrafficCategory::Retrieval).bytes - base;
        match cursor.next_key(spent) {
            CursorStep::Done => break,
            CursorStep::Probe(key) => {
                let probe = probe(&mut index, &key, params.capacity).expect("probe succeeds");
                cursor.record(probe);
            }
        }
    }
    let (result, budget_exhausted) = cursor.finish();

    let rows = plan
        .nodes
        .iter()
        .enumerate()
        .map(|(position, node)| PlannedLatticeRow {
            planner: plan.planner.clone(),
            position,
            key: node.key.canonical(),
            decision: match node.decision {
                PlanDecision::Probe => "probe".to_string(),
                PlanDecision::Skip | PlanDecision::SkipTooLong => "skip".to_string(),
            },
            est_bytes: node.est_bytes,
            priority: node.priority,
            outcome: result
                .trace
                .outcome_of(&node.key)
                .map(|o| match o {
                    NodeOutcome::Found { truncated: true } => "found (truncated)".to_string(),
                    NodeOutcome::Found { truncated: false } => "found (complete)".to_string(),
                    NodeOutcome::Missing => "missing".to_string(),
                    NodeOutcome::Skipped => "skipped".to_string(),
                    NodeOutcome::TooLong => "not probed (too long)".to_string(),
                    NodeOutcome::Failed { cause } => format!("failed ({cause})"),
                })
                .unwrap_or_default(),
        })
        .collect();
    let summary = PlannedSummary {
        planner: plan.planner.clone(),
        byte_budget,
        probes: result.trace.probes,
        bytes: index.stats().category(TrafficCategory::Retrieval).bytes - base,
        retrieved: result
            .retrieved
            .iter()
            .map(|(k, _)| k.canonical())
            .collect(),
        budget_exhausted,
    };
    (rows, summary)
}

/// Prints the E1b schedule and summary tables for both planners.
pub fn print_planned(params: &LatticeParams, byte_budget: u64) -> Vec<PlannedSummary> {
    let mut summaries = Vec::new();
    let mut t = Table::new(
        format!("E1b: planned execution of {{a,b,c}} under a {byte_budget}-byte budget"),
        &[
            "planner",
            "#",
            "node",
            "decision",
            "est bytes",
            "priority",
            "outcome",
        ],
    );
    for planner in [&BestEffort as &dyn Planner, &GreedyCost::default()] {
        let (rows, summary) = run_planned(params, planner, byte_budget);
        for r in &rows {
            t.row(&[
                r.planner.clone(),
                r.position.to_string(),
                r.key.clone(),
                r.decision.clone(),
                r.est_bytes.to_string(),
                format!("{:.4}", r.priority),
                r.outcome.clone(),
            ]);
        }
        summaries.push(summary);
    }
    t.print();
    let mut s = Table::new(
        "E1b summary: probes / bytes / retrieved union per planner",
        &[
            "planner",
            "budget",
            "probes",
            "bytes",
            "retrieved",
            "truncated by budget",
        ],
    );
    for sum in &summaries {
        s.row(&[
            sum.planner.clone(),
            sum.byte_budget.to_string(),
            sum.probes.to_string(),
            sum.bytes.to_string(),
            sum.retrieved.join(" "),
            if sum.budget_exhausted { "yes" } else { "no" }.to_string(),
        ]);
    }
    s.print();
    summaries
}

/// Prints the E1 table.
pub fn print(rows: &[LatticeRow]) {
    let mut t = Table::new(
        "E1 / Figure 1: processing of the query {a,b,c} with key bc indexed (truncated)",
        &["lattice node", "outcome", "in result union"],
    );
    for r in rows {
        t.row(&[
            r.key.clone(),
            r.outcome.clone(),
            if r.in_result { "yes" } else { "" }.to_string(),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_figure_1_pattern() {
        let rows = run(&LatticeParams::default());
        assert_eq!(rows.len(), 7);
        let outcome_of = |key: &str| {
            rows.iter()
                .find(|r| r.key == key)
                .map(|r| r.outcome.clone())
                .unwrap_or_default()
        };
        assert_eq!(outcome_of("a+b+c"), "missing");
        assert_eq!(outcome_of("a+b"), "missing");
        assert_eq!(outcome_of("a+c"), "missing");
        assert_eq!(outcome_of("b+c"), "found (truncated)");
        assert_eq!(outcome_of("a"), "found (complete)");
        assert_eq!(outcome_of("b"), "skipped");
        assert_eq!(outcome_of("c"), "skipped");
        // The result union comes from bc and a, exactly as in the paper.
        let in_result: Vec<&str> = rows
            .iter()
            .filter(|r| r.in_result)
            .map(|r| r.key.as_str())
            .collect();
        assert_eq!(in_result, vec!["b+c", "a"]);
    }

    #[test]
    fn without_pruning_the_singles_are_probed() {
        let rows = run(&LatticeParams {
            prune_below_truncated: false,
            ..Default::default()
        });
        let skipped = rows.iter().filter(|r| r.outcome == "skipped").count();
        assert_eq!(skipped, 0);
        let found = rows
            .iter()
            .filter(|r| r.outcome.starts_with("found"))
            .count();
        assert_eq!(found, 4); // bc, a, b, c
    }

    #[test]
    fn planned_arm_greedy_retrieves_the_union_within_a_budget_best_effort_wastes() {
        let params = LatticeParams::default();
        // Generous budget: both planners end with the Figure 1 result union.
        let (_, best_loose) = run_planned(&params, &BestEffort, 1_000_000);
        let (_, greedy_loose) = run_planned(&params, &GreedyCost::default(), 1_000_000);
        assert_eq!(best_loose.retrieved, vec!["b+c", "a"]);
        let mut greedy_sorted = greedy_loose.retrieved.clone();
        greedy_sorted.sort();
        assert_eq!(greedy_sorted, vec!["a", "b+c"]);
        assert!(!greedy_loose.budget_exhausted);

        // Tight budget (enough for roughly two probes under the codec's byte
        // accounting): the cost-based plan spends it on the keys that are
        // actually indexed and still retrieves the full union, while the
        // fixed-order cutoff burns it on the missing multi-term prefixes. The
        // Reserve policy also never exceeds the budget, whereas the cutoff may
        // overshoot.
        let budget = 800;
        let (_, best) = run_planned(&params, &BestEffort, budget);
        let (_, greedy) = run_planned(&params, &GreedyCost::default(), budget);
        assert!(greedy.bytes <= budget, "greedy spent {}", greedy.bytes);
        assert!(
            greedy.retrieved.len() >= best.retrieved.len(),
            "greedy {:?} vs best-effort {:?}",
            greedy.retrieved,
            best.retrieved
        );
        assert!(greedy.retrieved.contains(&"a".to_string()));
        assert!(greedy.retrieved.contains(&"b+c".to_string()));
        assert!(best.retrieved.is_empty());
    }
}

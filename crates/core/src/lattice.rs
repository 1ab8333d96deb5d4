//! Query-lattice retrieval (Figure 1 of the paper).
//!
//! To answer a multi-keyword query, the querying peer explores the lattice of query
//! term combinations **in decreasing combination-size order**, starting with the query
//! itself. For every lattice node it probes the global index; when a probe returns a
//! posting list that is **not truncated**, the part of the lattice dominated by that
//! key is excluded from further exploration (its results would be redundant). As an
//! additional approximation — the one Figure 1 illustrates with the skipped keys `b`
//! and `c` — the lattice below a key with a *truncated* posting list can be pruned
//! too, trading a marginal loss of precision for fewer probes and better load balance.
//!
//! This module holds the walk's bounds ([`LatticeConfig`]) and its record
//! ([`LatticeTrace`], [`LatticeResult`]); the walk itself is
//! [`crate::plan::PlanCursor`], which executes a planned schedule over the
//! lattice and applies the pruning described above.

use crate::key::TermKey;
use crate::posting::TruncatedPostingList;

/// Configuration of the lattice exploration.
#[derive(Clone, Debug)]
pub struct LatticeConfig {
    /// Prune the lattice below keys whose posting list is truncated (the Figure 1
    /// approximation). When `false` only complete (non-truncated) results prune.
    pub prune_below_truncated: bool,
    /// Upper bound on the number of probes per query (safety valve for very long
    /// queries; the lattice of a q-term query has `2^q - 1` nodes).
    pub max_probes: usize,
    /// Maximum key length ever probed (longer combinations cannot be indexed, so
    /// probing them would be wasted traffic). `0` disables the bound.
    pub max_probe_len: usize,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        LatticeConfig {
            prune_below_truncated: true,
            max_probes: 64,
            max_probe_len: 3,
        }
    }
}

/// What happened to one lattice node during exploration.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeOutcome {
    /// The key was probed and an activated posting list was returned.
    Found {
        /// Whether the returned list was truncated.
        truncated: bool,
    },
    /// The key was probed but is not indexed.
    Missing,
    /// The key was skipped because a previously retrieved key dominates it.
    Skipped,
    /// The key was not probed because it exceeds the probe-length bound.
    TooLong,
    /// The key was probed but every attempt failed (loss, timeout or an
    /// unresponsive peer — see [`crate::fault`]); the retry policy was
    /// exhausted and the schedule continued without it. Never recorded under
    /// the default [`crate::fault::FaultPlane`].
    Failed {
        /// Why the final attempt failed.
        cause: crate::fault::FailureCause,
    },
}

/// The trace of a lattice exploration: every node of the query lattice together with
/// its outcome, in exploration order. The `plan` module's
/// `reproduces_figure_1_pattern` test pins Figure 1's trace, and
/// `tests/end_to_end.rs` checks the traces of real queries.
#[derive(Clone, Debug, Default)]
pub struct LatticeTrace {
    /// `(key, outcome)` in exploration order.
    pub nodes: Vec<(TermKey, NodeOutcome)>,
    /// Number of probes actually sent.
    pub probes: usize,
    /// Lookup messages that did not deliver a probe's request, summed over
    /// all probes (see [`crate::global_index::ProbeResult::hops`]).
    pub hops: usize,
    /// Always `0`: list frames have no blocks to skip (the codec's format 3
    /// is one flat entry run), and nothing writes it. Kept only because
    /// `benchmark/` (outside the workspace) reads it; goes with ROADMAP item 5.
    pub skipped_blocks: usize,
    /// Always `0`: no floor elides entries and no block layer exists to skip
    /// them, and nothing writes it. Kept only because `benchmark/` (outside
    /// the workspace) reads it; goes with ROADMAP item 5.
    pub elided_bytes: u64,
}

impl LatticeTrace {
    /// Keys that were probed (sent to the network).
    pub fn probed_keys(&self) -> Vec<&TermKey> {
        self.nodes
            .iter()
            .filter(|(_, o)| !matches!(o, NodeOutcome::Skipped | NodeOutcome::TooLong))
            .map(|(k, _)| k)
            .collect()
    }

    /// Keys that were skipped thanks to lattice pruning.
    pub fn skipped_keys(&self) -> Vec<&TermKey> {
        self.nodes
            .iter()
            .filter(|(_, o)| matches!(o, NodeOutcome::Skipped))
            .map(|(k, _)| k)
            .collect()
    }

    /// Keys for which a posting list was retrieved.
    pub fn found_keys(&self) -> Vec<&TermKey> {
        self.nodes
            .iter()
            .filter(|(_, o)| matches!(o, NodeOutcome::Found { .. }))
            .map(|(k, _)| k)
            .collect()
    }

    /// Keys whose probe was exhausted by faults, with the final failure
    /// cause (empty under the default [`crate::fault::FaultPlane`]).
    pub fn failed_probes(&self) -> Vec<(&TermKey, crate::fault::FailureCause)> {
        self.nodes
            .iter()
            .filter_map(|(k, o)| match o {
                NodeOutcome::Failed { cause } => Some((k, *cause)),
                _ => None,
            })
            .collect()
    }

    /// The outcome recorded for a specific key, if it is part of the trace.
    pub fn outcome_of(&self, key: &TermKey) -> Option<&NodeOutcome> {
        self.nodes.iter().find(|(k, _)| k == key).map(|(_, o)| o)
    }
}

/// The result of exploring the lattice for one query: the retrieved posting lists
/// (with the key they came from) plus the exploration trace.
#[derive(Clone, Debug, Default)]
pub struct LatticeResult {
    /// Retrieved `(key, posting list)` pairs in exploration order (largest keys first).
    pub retrieved: Vec<(TermKey, TruncatedPostingList)>,
    /// The exploration trace.
    pub trace: LatticeTrace,
}

/// The walk's pruning rules, one row each of the `plan` module's table of
/// [`crate::plan::PlanCursor`] walks.
#[cfg(test)]
mod tests {
    use crate::plan::tests::check_walk;

    #[test]
    fn figure_1_scenario() {
        check_walk("figure 1");
    }

    #[test]
    fn complete_result_for_the_full_query_prunes_everything_else() {
        check_walk("a complete query key prunes everything");
    }

    #[test]
    fn without_pruning_truncated_keys_do_not_exclude_their_sublattice() {
        check_walk("truncated keys do not prune when told not to");
    }

    #[test]
    fn single_term_query_probes_once() {
        check_walk("a single-term query probes once");
    }

    #[test]
    fn nothing_indexed_probes_everything_and_finds_nothing() {
        check_walk("nothing indexed");
    }

    #[test]
    fn max_probe_len_skips_long_combinations_but_not_the_query() {
        check_walk("max_probe_len spares the query");
    }

    #[test]
    fn probe_budget_is_respected() {
        check_walk("max_probes caps the walk");
    }
}

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

use crate::global_index::ProbeResult;
use crate::key::TermKey;
use crate::posting::TruncatedPostingList;
use serde::{Deserialize, Serialize};

/// Configuration of the lattice exploration.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
    /// [`crate::fault::FaultPlane::NoFaults`].
    Failed {
        /// Why the final attempt failed.
        cause: crate::fault::FailureCause,
    },
}

/// The trace of a lattice exploration: every node of the query lattice together with
/// its outcome, in exploration order. This is what experiment E1 prints to reproduce
/// Figure 1.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LatticeTrace {
    /// `(key, outcome)` in exploration order.
    pub nodes: Vec<(TermKey, NodeOutcome)>,
    /// Number of probes actually sent.
    pub probes: usize,
    /// Total overlay hops across all probes.
    pub hops: usize,
    /// Whole codec blocks score floors elided from response frames across all
    /// probes (see [`crate::codec::ElisionStats`]); `0` when no floors were
    /// sent. Absent in traces serialized before floor accounting existed.
    #[serde(default)]
    pub skipped_blocks: usize,
    /// Response-frame bytes score floors saved across all probes versus
    /// shipping the full stored lists.
    #[serde(default)]
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
    /// cause (empty under [`crate::fault::FaultPlane::NoFaults`]).
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

/// Explores the query lattice for `query`, probing the global index through the
/// `probe` callback (which performs the routed network request and returns the
/// outcome). The callback is only invoked for keys that are not pruned.
pub fn explore_lattice<E>(
    query: &TermKey,
    config: &LatticeConfig,
    mut probe: impl FnMut(&TermKey) -> Result<ProbeResult, E>,
) -> Result<LatticeResult, E> {
    let mut result = LatticeResult::default();
    // Keys whose dominated sub-lattice is excluded from further exploration.
    let mut excluders: Vec<TermKey> = Vec::new();

    for node in query.all_subsets_desc() {
        if config.max_probe_len > 0 && node.len() > config.max_probe_len && node != *query {
            // Never probe over-long combinations — except the query itself, which is
            // always tried first per the paper ("starting with the query itself").
            result.trace.nodes.push((node, NodeOutcome::TooLong));
            continue;
        }
        if excluders.iter().any(|e| e.dominates(&node)) {
            result.trace.nodes.push((node, NodeOutcome::Skipped));
            continue;
        }
        if result.trace.probes >= config.max_probes {
            result.trace.nodes.push((node, NodeOutcome::Skipped));
            continue;
        }

        let probe_result = probe(&node)?;
        if probe_result.skipped {
            result.trace.nodes.push((node, NodeOutcome::Skipped));
            continue;
        }
        result.trace.probes += 1;
        result.trace.hops += probe_result.hops;
        result.trace.skipped_blocks += probe_result.skipped_blocks;
        result.trace.elided_bytes += probe_result.elided_bytes as u64;
        match probe_result.postings {
            Some(list) => {
                let truncated = list.is_truncated();
                if !truncated || config.prune_below_truncated {
                    excluders.push(node.clone());
                }
                result
                    .trace
                    .nodes
                    .push((node.clone(), NodeOutcome::Found { truncated }));
                result.retrieved.push((node, list));
            }
            None => {
                result.trace.nodes.push((node, NodeOutcome::Missing));
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posting::ScoredRef;
    use alvisp2p_textindex::DocId;
    use std::collections::HashMap;
    use std::convert::Infallible;

    /// A fake global index for exercising the exploration logic in isolation.
    struct FakeIndex {
        lists: HashMap<TermKey, TruncatedPostingList>,
        probes: Vec<TermKey>,
    }

    impl FakeIndex {
        fn new() -> Self {
            FakeIndex {
                lists: HashMap::new(),
                probes: Vec::new(),
            }
        }

        fn with_key(mut self, key: TermKey, docs: u32, capacity: usize) -> Self {
            let list = TruncatedPostingList::from_refs(
                (0..docs).map(|i| ScoredRef {
                    doc: DocId::new(0, i),
                    score: f64::from(docs - i),
                }),
                capacity,
            );
            self.lists.insert(key, list);
            self
        }

        fn probe(&mut self, key: &TermKey) -> Result<ProbeResult, Infallible> {
            self.probes.push(key.clone());
            Ok(ProbeResult {
                key: key.clone(),
                postings: self.lists.get(key).cloned(),
                hops: 2,
                via_shortcut: false,
                responsible: 0,
                served_by: 0,
                replica_set: Vec::new(),
                skipped: false,
                skipped_blocks: 0,
                elided_bytes: 0,
            })
        }
    }

    fn abc() -> TermKey {
        TermKey::new(["a", "b", "c"])
    }

    #[test]
    fn figure_1_scenario() {
        // Keys bc (truncated) and the singles a, b, c are indexed; ab, ac, abc are not.
        let mut index = FakeIndex::new()
            .with_key(TermKey::new(["b", "c"]), 10, 5) // truncated
            .with_key(TermKey::single("a"), 3, 5)
            .with_key(TermKey::single("b"), 4, 5)
            .with_key(TermKey::single("c"), 4, 5);
        let config = LatticeConfig::default();
        let result = explore_lattice(&abc(), &config, |k| index.probe(k)).unwrap();

        // Probed: abc, ab, ac, bc, a. Skipped: b, c (dominated by truncated bc).
        let probed: Vec<String> = result
            .trace
            .probed_keys()
            .iter()
            .map(|k| k.canonical())
            .collect();
        assert_eq!(probed, vec!["a+b+c", "a+b", "a+c", "b+c", "a"]);
        let skipped: Vec<String> = result
            .trace
            .skipped_keys()
            .iter()
            .map(|k| k.canonical())
            .collect();
        assert_eq!(skipped, vec!["b", "c"]);
        // Retrieved: bc and a (the union the paper describes).
        let found: Vec<String> = result
            .retrieved
            .iter()
            .map(|(k, _)| k.canonical())
            .collect();
        assert_eq!(found, vec!["b+c", "a"]);
        assert_eq!(result.trace.probes, 5);
        assert_eq!(result.trace.hops, 10);
        assert_eq!(
            result.trace.outcome_of(&TermKey::new(["b", "c"])),
            Some(&NodeOutcome::Found { truncated: true })
        );
    }

    #[test]
    fn complete_result_for_the_full_query_prunes_everything_else() {
        let mut index = FakeIndex::new().with_key(abc(), 5, 100); // complete
        let result =
            explore_lattice(&abc(), &LatticeConfig::default(), |k| index.probe(k)).unwrap();
        assert_eq!(result.trace.probes, 1);
        assert_eq!(result.retrieved.len(), 1);
        // All six remaining nodes are skipped.
        assert_eq!(result.trace.skipped_keys().len(), 6);
    }

    #[test]
    fn without_pruning_truncated_keys_do_not_exclude_their_sublattice() {
        let mut index = FakeIndex::new()
            .with_key(TermKey::new(["b", "c"]), 10, 5) // truncated
            .with_key(TermKey::single("b"), 4, 5)
            .with_key(TermKey::single("c"), 4, 5);
        let config = LatticeConfig {
            prune_below_truncated: false,
            ..Default::default()
        };
        let result = explore_lattice(&abc(), &config, |k| index.probe(k)).unwrap();
        // b and c are now probed (and found).
        let found: Vec<String> = result
            .retrieved
            .iter()
            .map(|(k, _)| k.canonical())
            .collect();
        assert_eq!(found, vec!["b+c", "b", "c"]);
        assert_eq!(result.trace.probes, 7);
        assert!(result.trace.skipped_keys().is_empty());
    }

    #[test]
    fn single_term_query_probes_once() {
        let mut index = FakeIndex::new().with_key(TermKey::single("databas"), 2, 10);
        let q = TermKey::single("databas");
        let result = explore_lattice(&q, &LatticeConfig::default(), |k| index.probe(k)).unwrap();
        assert_eq!(result.trace.probes, 1);
        assert_eq!(result.retrieved.len(), 1);
    }

    #[test]
    fn nothing_indexed_probes_everything_and_finds_nothing() {
        let mut index = FakeIndex::new();
        let result =
            explore_lattice(&abc(), &LatticeConfig::default(), |k| index.probe(k)).unwrap();
        assert!(result.retrieved.is_empty());
        assert_eq!(result.trace.probes, 7);
        assert!(result
            .trace
            .nodes
            .iter()
            .all(|(_, o)| matches!(o, NodeOutcome::Missing)));
    }

    #[test]
    fn max_probe_len_skips_long_combinations_but_not_the_query() {
        let q = TermKey::new(["a", "b", "c", "d", "e"]);
        let mut index = FakeIndex::new();
        let config = LatticeConfig {
            max_probe_len: 3,
            max_probes: 1000,
            ..Default::default()
        };
        let result = explore_lattice(&q, &config, |k| index.probe(k)).unwrap();
        // The query itself (5 terms) is probed, 4-term combinations are not.
        assert!(index.probes.contains(&q));
        assert!(index.probes.iter().all(|k| k.len() <= 3 || *k == q));
        let too_long = result
            .trace
            .nodes
            .iter()
            .filter(|(_, o)| matches!(o, NodeOutcome::TooLong))
            .count();
        assert_eq!(too_long, 5); // the five 4-term subsets
    }

    #[test]
    fn probe_budget_is_respected() {
        let q = TermKey::new(["a", "b", "c", "d"]);
        let mut index = FakeIndex::new();
        let config = LatticeConfig {
            max_probes: 3,
            max_probe_len: 0,
            ..Default::default()
        };
        let result = explore_lattice(&q, &config, |k| index.probe(k)).unwrap();
        assert_eq!(result.trace.probes, 3);
        assert_eq!(index.probes.len(), 3);
    }

    #[test]
    fn probe_errors_propagate() {
        let q = TermKey::new(["a", "b"]);
        let result: Result<LatticeResult, &str> =
            explore_lattice(&q, &LatticeConfig::default(), |_| Err("network down"));
        assert_eq!(result.unwrap_err(), "network down");
    }
}

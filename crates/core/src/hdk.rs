//! Highly Discriminative Keys (HDK).
//!
//! The HDK indexing strategy (Podnar et al., ICDE 2007) populates the distributed
//! index with term combinations chosen from observed **document frequencies**:
//!
//! * every single term is indexed, but the posting list a responsible peer stores and
//!   ships is truncated to the top-ranked references;
//! * a key whose global posting list exceeds `df_max` is *frequent* (not
//!   discriminative). Frequent keys are **expanded**: new keys with one more term are
//!   generated from term combinations that actually co-occur within a proximity window
//!   in some document, up to a maximum key length;
//! * keys with document frequency at or below `df_max` are *highly discriminative*:
//!   their complete posting list fits the size bound, so retrieval through them is both
//!   cheap and exact.
//!
//! This module contains the pure per-document candidate-generation logic and the
//! proximity-window machinery; the cross-peer orchestration (aggregate global document
//! frequencies, iterate levels) lives in [`crate::network`].

use crate::key::TermKey;
use alvisp2p_textindex::TermId;
use std::collections::BTreeSet;

/// Configuration of the HDK indexing strategy.
#[derive(Clone, Debug)]
pub struct HdkConfig {
    /// Document-frequency threshold: keys with a larger global df are "frequent" and
    /// trigger expansion.
    pub df_max: usize,
    /// Posting lists stored in / shipped through the network are truncated to this
    /// many top-ranked references.
    pub truncation_k: usize,
    /// Maximum number of terms per key (the paper and companion papers use 2–3).
    pub max_key_len: usize,
    /// Terms of a multi-term key must co-occur within a window of this many word
    /// positions in at least one document for the key to be generated there.
    pub proximity_window: u32,
    /// Ablation switch: when `false`, the proximity filter is skipped and every
    /// combination of frequent terms present in a document becomes a candidate
    /// (dramatically increasing the number of keys — the root
    /// `tests/storage_scalability.rs` checks this).
    pub use_proximity_filter: bool,
}

impl Default for HdkConfig {
    fn default() -> Self {
        HdkConfig {
            df_max: 200,
            truncation_k: 200,
            max_key_len: 3,
            proximity_window: 20,
            use_proximity_filter: true,
        }
    }
}

/// Summary of one level of HDK index construction (reported in
/// [`crate::network::IndexBuildReport::levels`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct HdkLevelReport {
    /// Key length at this level (1 = single terms).
    pub level: usize,
    /// Number of candidate keys generated at this level.
    pub candidates: usize,
    /// Number of keys whose global df stayed at or below `df_max` (true HDKs).
    pub discriminative: usize,
    /// Number of keys that remained frequent (and were truncated / expanded further).
    pub frequent: usize,
}

/// The smallest window (in word positions) that covers at least one occurrence of
/// every term, given each term's sorted position list. Returns `None` if any list is
/// empty.
///
/// This is the classic k-way "minimum covering window" sweep; `k` is at most the key
/// length (≤ 3–4), and position lists are short, so the simple O(total · k) scan is
/// plenty fast.
pub fn min_cover_window(position_lists: &[&[u32]]) -> Option<u32> {
    if position_lists.is_empty() || position_lists.iter().any(|l| l.is_empty()) {
        return None;
    }
    if position_lists.len() == 1 {
        return Some(0);
    }
    let mut cursors = vec![0usize; position_lists.len()];
    let mut best: Option<u32> = None;
    loop {
        let mut min_val = u32::MAX;
        let mut max_val = 0u32;
        let mut min_list = 0usize;
        for (i, list) in position_lists.iter().enumerate() {
            let v = list[cursors[i]];
            if v < min_val {
                min_val = v;
                min_list = i;
            }
            if v > max_val {
                max_val = v;
            }
        }
        let spread = max_val - min_val;
        best = Some(best.map_or(spread, |b| b.min(spread)));
        // Advance the cursor of the list holding the minimum; when it is exhausted the
        // window cannot shrink further.
        cursors[min_list] += 1;
        if cursors[min_list] >= position_lists[min_list].len() {
            return best;
        }
    }
}

/// Whether all terms of a candidate key co-occur within `window` positions in the
/// document described by `doc_terms` (an id-sorted `(term, positions)` view, as
/// produced by [`alvisp2p_textindex::InvertedIndex::doc_term_positions`]).
pub fn cooccurs_within_window(
    doc_terms: &[(TermId, Vec<u32>)],
    key: &TermKey,
    window: u32,
) -> bool {
    let mut lists: Vec<&[u32]> = Vec::with_capacity(key.len());
    for term in key.term_ids() {
        match doc_terms.binary_search_by_key(term, |(t, _)| *t) {
            Ok(i) => lists.push(&doc_terms[i].1),
            Err(_) => return false,
        }
    }
    match min_cover_window(&lists) {
        Some(spread) => spread <= window,
        None => false,
    }
}

/// Generates the level-`target_len` candidate keys contributed by a single document.
///
/// `doc_terms` is the document's sorted `(term, positions)` view (see
/// [`alvisp2p_textindex::InvertedIndex::doc_term_positions`]); `frequent_parents` is
/// the set of level-`target_len - 1` keys whose **global** posting list exceeded
/// `df_max` and must therefore be expanded; `frequent_terms` is the set of single
/// terms that are globally frequent (expansion only combines frequent terms — a rare
/// term is already discriminative on its own, so combining it would only create
/// redundant keys).
pub fn generate_doc_candidates(
    doc_terms: &[(TermId, Vec<u32>)],
    frequent_parents: &BTreeSet<TermKey>,
    frequent_terms: &BTreeSet<TermId>,
    target_len: usize,
    config: &HdkConfig,
) -> Vec<TermKey> {
    if target_len < 2 || target_len > config.max_key_len {
        return Vec::new();
    }
    // Terms of this document that are globally frequent.
    let doc_frequent: Vec<TermId> = doc_terms
        .iter()
        .map(|(t, _)| *t)
        .filter(|t| frequent_terms.contains(t))
        .collect();
    if doc_frequent.len() < target_len {
        return Vec::new();
    }

    let mut out: BTreeSet<TermKey> = BTreeSet::new();
    for parent in frequent_parents {
        if parent.len() + 1 != target_len {
            continue;
        }
        // The parent's terms must all occur in this document.
        if !parent
            .term_ids()
            .iter()
            .all(|t| doc_terms.binary_search_by_key(t, |(dt, _)| *dt).is_ok())
        {
            continue;
        }
        for term in &doc_frequent {
            let Some(candidate) = parent.expand_id(*term) else {
                continue;
            };
            if out.contains(&candidate) {
                continue;
            }
            if !config.use_proximity_filter
                || cooccurs_within_window(doc_terms, &candidate, config.proximity_window)
            {
                out.insert(candidate);
            }
        }
    }
    out.into_iter().collect()
}

/// Convenience: the level-1 "parents" (single-term keys) of a set of frequent terms.
pub fn single_term_keys(frequent_terms: &BTreeSet<TermId>) -> BTreeSet<TermKey> {
    frequent_terms
        .iter()
        .map(|t| TermKey::from_term_ids([*t]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(terms: &[(&str, &[u32])]) -> Vec<(TermId, Vec<u32>)> {
        let mut v: Vec<(TermId, Vec<u32>)> = terms
            .iter()
            .map(|(t, p)| (TermId::intern(t), p.to_vec()))
            .collect();
        v.sort_unstable_by_key(|(t, _)| *t);
        v
    }

    fn set(terms: &[&str]) -> BTreeSet<TermId> {
        terms.iter().map(|t| TermId::intern(t)).collect()
    }

    #[test]
    fn min_cover_window_basic() {
        assert_eq!(min_cover_window(&[&[1, 10, 20], &[12, 30]]), Some(2));
        assert_eq!(min_cover_window(&[&[1], &[100]]), Some(99));
        assert_eq!(min_cover_window(&[&[5, 6], &[6, 7], &[4, 8]]), Some(2));
        assert_eq!(min_cover_window(&[&[3]]), Some(0));
        assert_eq!(min_cover_window(&[&[1, 2], &[]]), None);
        assert_eq!(min_cover_window(&[]), None);
    }

    #[test]
    fn min_cover_window_finds_exact_overlap() {
        // All terms at the same position → window 0.
        assert_eq!(min_cover_window(&[&[7, 90], &[7, 50], &[7]]), Some(0));
    }

    #[test]
    fn cooccurrence_respects_window() {
        let d = doc(&[
            ("peer", &[0, 50]),
            ("retriev", &[3, 200]),
            ("network", &[100]),
        ]);
        let close = TermKey::new(["peer", "retriev"]);
        let far = TermKey::new(["retriev", "network"]);
        assert!(cooccurs_within_window(&d, &close, 5));
        assert!(!cooccurs_within_window(&d, &far, 5));
        assert!(cooccurs_within_window(&d, &far, 100));
        // A key with a term missing from the document never co-occurs.
        let missing = TermKey::new(["peer", "absent"]);
        assert!(!cooccurs_within_window(&d, &missing, 1000));
    }

    #[test]
    fn level2_candidates_require_frequent_parent_and_proximity() {
        let d = doc(&[
            ("peer", &[0, 10]),
            ("retriev", &[2]),
            ("network", &[11]),
            ("rare", &[3]),
        ]);
        let frequent_terms = set(&["peer", "retriev", "network"]);
        let parents = single_term_keys(&frequent_terms);
        let config = HdkConfig {
            proximity_window: 5,
            ..Default::default()
        };
        let cands = generate_doc_candidates(&d, &parents, &frequent_terms, 2, &config);
        // peer+retriev (distance 2) and peer+network (distance 1 via positions 10, 11)
        // qualify; retriev+network are 9 apart -> excluded; "rare" is not frequent.
        assert!(cands.contains(&TermKey::new(["peer", "retriev"])));
        assert!(cands.contains(&TermKey::new(["network", "peer"])));
        assert!(!cands.contains(&TermKey::new(["network", "retriev"])));
        assert!(!cands.iter().any(|k| k.contains("rare")));
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn disabling_the_proximity_filter_adds_more_candidates() {
        let d = doc(&[("a", &[0]), ("b", &[100]), ("c", &[200])]);
        let frequent_terms = set(&["a", "b", "c"]);
        let parents = single_term_keys(&frequent_terms);
        let with_filter = generate_doc_candidates(
            &d,
            &parents,
            &frequent_terms,
            2,
            &HdkConfig {
                proximity_window: 10,
                ..Default::default()
            },
        );
        let without_filter = generate_doc_candidates(
            &d,
            &parents,
            &frequent_terms,
            2,
            &HdkConfig {
                proximity_window: 10,
                use_proximity_filter: false,
                ..Default::default()
            },
        );
        assert!(with_filter.is_empty());
        assert_eq!(without_filter.len(), 3);
    }

    #[test]
    fn level3_candidates_expand_frequent_pairs_only() {
        let d = doc(&[("a", &[0]), ("b", &[1]), ("c", &[2]), ("d", &[3])]);
        let frequent_terms = set(&["a", "b", "c", "d"]);
        let mut frequent_pairs = BTreeSet::new();
        frequent_pairs.insert(TermKey::new(["a", "b"]));
        let config = HdkConfig::default();
        let cands = generate_doc_candidates(&d, &frequent_pairs, &frequent_terms, 3, &config);
        // Only expansions of the frequent pair {a,b}: abc and abd.
        assert_eq!(cands.len(), 2);
        assert!(cands.contains(&TermKey::new(["a", "b", "c"])));
        assert!(cands.contains(&TermKey::new(["a", "b", "d"])));
    }

    #[test]
    fn target_len_bounds_are_enforced() {
        let d = doc(&[("a", &[0]), ("b", &[1])]);
        let frequent_terms = set(&["a", "b"]);
        let parents = single_term_keys(&frequent_terms);
        let config = HdkConfig {
            max_key_len: 2,
            ..Default::default()
        };
        assert!(generate_doc_candidates(&d, &parents, &frequent_terms, 1, &config).is_empty());
        assert!(generate_doc_candidates(&d, &parents, &frequent_terms, 3, &config).is_empty());
        assert_eq!(
            generate_doc_candidates(&d, &parents, &frequent_terms, 2, &config).len(),
            1
        );
    }

    #[test]
    fn documents_without_enough_frequent_terms_yield_nothing() {
        let d = doc(&[("a", &[0]), ("x", &[1])]);
        let frequent_terms = set(&["a", "b"]);
        let parents = single_term_keys(&frequent_terms);
        let cands =
            generate_doc_candidates(&d, &parents, &frequent_terms, 2, &HdkConfig::default());
        assert!(cands.is_empty());
    }

    #[test]
    fn parent_terms_must_be_present_in_the_document() {
        // The frequent pair {a,b} cannot be expanded in a document lacking `b`.
        let d = doc(&[("a", &[0]), ("c", &[1])]);
        let frequent_terms = set(&["a", "b", "c"]);
        let mut parents = BTreeSet::new();
        parents.insert(TermKey::new(["a", "b"]));
        let cands =
            generate_doc_candidates(&d, &parents, &frequent_terms, 3, &HdkConfig::default());
        assert!(cands.is_empty());
    }
}

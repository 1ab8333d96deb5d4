//! Experiment metrics.
//!
//! Retrieval-quality measures (precision, recall, overlap against the centralized
//! reference) and small numeric helpers (means, percentiles)
//! used by the integration tests and the benchmark harness.

use alvisp2p_textindex::bm25::ScoredDoc;
use alvisp2p_textindex::DocId;
use std::collections::HashSet;

/// Precision@k of `results` against a set of relevant documents: the fraction of the
/// top-k results that are relevant. Returns 0 when `results` is empty.
pub fn precision_at_k(results: &[ScoredDoc], relevant: &HashSet<DocId>, k: usize) -> f64 {
    let top: Vec<&ScoredDoc> = results.iter().take(k).collect();
    if top.is_empty() {
        return 0.0;
    }
    let hits = top.iter().filter(|r| relevant.contains(&r.doc)).count();
    hits as f64 / top.len() as f64
}

/// Recall@k of `results` against a set of relevant documents: the fraction of relevant
/// documents present in the top-k. Returns 1 when there are no relevant documents.
pub fn recall_at_k(results: &[ScoredDoc], relevant: &HashSet<DocId>, k: usize) -> f64 {
    if relevant.is_empty() {
        return 1.0;
    }
    let top: HashSet<DocId> = results.iter().take(k).map(|r| r.doc).collect();
    let hits = relevant.iter().filter(|d| top.contains(d)).count();
    hits as f64 / relevant.len() as f64
}

/// Overlap@k between a system's results and a reference ranking: the fraction of the
/// reference's top-k that also appears in the system's top-k. This is the measure the
/// companion papers use to compare the P2P rankings against the centralized engine.
pub fn overlap_at_k(results: &[ScoredDoc], reference: &[ScoredDoc], k: usize) -> f64 {
    let ref_top: HashSet<DocId> = reference.iter().take(k).map(|r| r.doc).collect();
    if ref_top.is_empty() {
        return 1.0;
    }
    let sys_top: HashSet<DocId> = results.iter().take(k).map(|r| r.doc).collect();
    let hits = ref_top.iter().filter(|d| sys_top.contains(d)).count();
    hits as f64 / ref_top.len() as f64
}

/// The set of documents the reference ranking considers relevant (its top-k) — the
/// usual proxy for relevance judgements when no human assessments exist.
pub fn reference_relevant(reference: &[ScoredDoc], k: usize) -> HashSet<DocId> {
    reference.iter().take(k).map(|r| r.doc).collect()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The p-th percentile (0–100) of a slice, using nearest-rank on a sorted copy.
/// Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(ids: &[u32]) -> Vec<ScoredDoc> {
        ids.iter()
            .enumerate()
            .map(|(i, id)| ScoredDoc {
                doc: DocId::new(0, *id),
                score: 100.0 - i as f64,
            })
            .collect()
    }

    fn relevant(ids: &[u32]) -> HashSet<DocId> {
        ids.iter().map(|i| DocId::new(0, *i)).collect()
    }

    #[test]
    fn precision_counts_relevant_fraction() {
        let results = docs(&[1, 2, 3, 4]);
        let rel = relevant(&[1, 3, 9]);
        assert!((precision_at_k(&results, &rel, 4) - 0.5).abs() < 1e-9);
        assert!((precision_at_k(&results, &rel, 2) - 0.5).abs() < 1e-9);
        assert_eq!(precision_at_k(&[], &rel, 10), 0.0);
    }

    #[test]
    fn recall_counts_found_fraction() {
        let results = docs(&[1, 2, 3]);
        let rel = relevant(&[1, 3, 9, 10]);
        assert!((recall_at_k(&results, &rel, 10) - 0.5).abs() < 1e-9);
        assert_eq!(recall_at_k(&results, &HashSet::new(), 10), 1.0);
        assert_eq!(recall_at_k(&[], &rel, 10), 0.0);
    }

    #[test]
    fn overlap_compares_against_reference_ranking() {
        let reference = docs(&[1, 2, 3, 4, 5]);
        let identical = docs(&[1, 2, 3, 4, 5]);
        let reordered = docs(&[5, 4, 3, 2, 1]);
        let half = docs(&[1, 2, 9, 10, 11]);
        assert_eq!(overlap_at_k(&identical, &reference, 5), 1.0);
        assert_eq!(overlap_at_k(&reordered, &reference, 5), 1.0);
        assert!((overlap_at_k(&half, &reference, 5) - 0.4).abs() < 1e-9);
        assert_eq!(overlap_at_k(&[], &reference, 5), 0.0);
        assert_eq!(overlap_at_k(&half, &[], 5), 1.0);
    }

    #[test]
    fn numeric_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        let values = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 50.0), 5.0);
        assert_eq!(percentile(&values, 100.0), 9.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}

//! **E7 — Query-Driven Indexing adapts the index to query popularity.**
//!
//! §2 of the paper: "the processing of new queries triggers the indexing of popular
//! term combinations, which, in turn, increases the overall retrieval quality. At the
//! same time, obsolete keys can be removed, resulting in an efficient indexing
//! structure adaptive to the current query popularity distribution."
//!
//! The experiment replays a Zipfian query log (optionally with a popularity drift half
//! way through) against a QDI network and reports, per window of queries: the overlap
//! with the centralized reference, the retrieval bytes per query, the number of
//! activated multi-term keys, the cumulative activations and evictions. Expected
//! shape: quality rises and bytes/query falls as popular combinations get indexed;
//! after the drift the index turns over (evictions rise, new activations appear) and
//! quality recovers.

use alvisp2p_core::qdi::QdiConfig;
use alvisp2p_core::request::QueryRequest;
use alvisp2p_core::stats::{mean, overlap_at_k};
use alvisp2p_core::strategy::Qdi;
use serde::Serialize;
use std::sync::Arc;

use crate::table::{fmt_bytes, fmt_f, Robustness, Table};
use crate::workloads::{self, DEFAULT_SEED};

/// One row (one query window) of the E7 output.
#[derive(Clone, Debug, Serialize)]
pub struct QdiRow {
    /// Number of queries processed up to the end of this window.
    pub queries: usize,
    /// Mean overlap@10 with the centralized reference inside the window.
    pub overlap_at_10: f64,
    /// Mean retrieval bytes per query inside the window.
    pub bytes_per_query: f64,
    /// Activated multi-term keys at the end of the window.
    pub active_multi_keys: usize,
    /// Cumulative on-demand activations.
    pub activations: u64,
    /// Cumulative evictions of obsolete keys.
    pub evictions: u64,
    /// Whether the popularity drift has already happened at this point.
    pub after_drift: bool,
    /// Aggregated robustness counters inside the window (all zeros under
    /// the default fault plane).
    pub robustness: Robustness,
}

/// Parameters of the QDI adaptivity experiment.
#[derive(Clone, Debug, Serialize)]
pub struct QdiParams {
    /// Number of documents.
    pub docs: usize,
    /// Number of peers.
    pub peers: usize,
    /// Length of the query log.
    pub queries: usize,
    /// Window size for reporting.
    pub window: usize,
    /// Whether query popularity drifts half way through the log.
    pub drift: bool,
    /// QDI configuration.
    pub qdi: QdiConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for QdiParams {
    fn default() -> Self {
        QdiParams {
            docs: 2_000,
            peers: 32,
            queries: 1_600,
            window: 200,
            drift: true,
            qdi: QdiConfig {
                activation_threshold: 3,
                truncation_k: 50,
                obsolescence_window: 400,
                eviction_period: 100,
                ..Default::default()
            },
            seed: DEFAULT_SEED,
        }
    }
}

impl QdiParams {
    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        QdiParams {
            docs: 250,
            peers: 8,
            queries: 240,
            window: 60,
            ..Default::default()
        }
    }
}

/// Runs the E7 query stream and reports one row per window.
pub fn run(params: &QdiParams) -> Vec<QdiRow> {
    let corpus = workloads::corpus(params.docs, params.seed);
    let log = workloads::query_log(&corpus, params.queries, params.drift, params.seed);
    let mut net = workloads::indexed_network(
        &corpus,
        Arc::new(Qdi::new(params.qdi.clone())),
        params.peers,
        params.seed,
    );

    let mut rows = Vec::new();
    let mut window_overlap = Vec::new();
    let mut window_bytes = Vec::new();
    let mut window_robustness = Robustness::default();
    let drift_point = params.queries / 2;
    for (i, q) in log.queries.iter().enumerate() {
        let outcome = net
            .execute(&QueryRequest::new(q.text.clone()).from_peer(i % params.peers))
            .expect("query succeeds");
        window_robustness.observe(&outcome);
        let reference = net.reference_search(&q.text, 10);
        window_overlap.push(overlap_at_k(&outcome.results, &reference, 10));
        window_bytes.push(outcome.bytes as f64);
        if (i + 1) % params.window == 0 || i + 1 == log.len() {
            let report = net.qdi_report();
            let active_multi = net
                .global_index()
                .activated_key_list()
                .iter()
                .filter(|k| k.len() > 1)
                .count();
            rows.push(QdiRow {
                queries: i + 1,
                overlap_at_10: mean(&window_overlap),
                bytes_per_query: mean(&window_bytes),
                active_multi_keys: active_multi,
                activations: report.activations,
                evictions: report.evictions,
                after_drift: params.drift && (i + 1) > drift_point,
                robustness: window_robustness,
            });
            window_overlap.clear();
            window_bytes.clear();
            window_robustness = Robustness::default();
        }
    }
    rows
}

/// Prints the E7 table.
pub fn print(rows: &[QdiRow]) {
    let mut t = Table::new(
        "E7: QDI adaptivity over the query stream (popularity drift at the midpoint)",
        &[
            "queries",
            "overlap@10",
            "bytes/query",
            "active multi keys",
            "activations",
            "evictions",
            "phase",
        ],
    );
    for r in rows {
        t.row(&[
            r.queries.to_string(),
            fmt_f(r.overlap_at_10, 3),
            fmt_bytes(r.bytes_per_query as u64),
            r.active_multi_keys.to_string(),
            r.activations.to_string(),
            r.evictions.to_string(),
            if r.after_drift {
                "after drift"
            } else {
                "before drift"
            }
            .to_string(),
        ]);
    }
    t.print();
    let mut robustness = Robustness::default();
    for r in rows {
        robustness.absorb(&r.robustness);
    }
    robustness.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popular_combinations_get_activated_over_the_stream() {
        let params = QdiParams {
            docs: 200,
            peers: 8,
            queries: 160,
            window: 40,
            drift: false,
            qdi: QdiConfig {
                activation_threshold: 2,
                truncation_k: 10,
                ..Default::default()
            },
            seed: 5,
        };
        let rows = run(&params);
        assert_eq!(rows.len(), 4);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.activations > 0, "no activations happened: {last:?}");
        assert!(last.active_multi_keys >= first.active_multi_keys);
        // Quality does not degrade as the index adapts.
        assert!(last.overlap_at_10 >= first.overlap_at_10 - 0.05);
    }

    #[test]
    fn drift_triggers_evictions_of_obsolete_keys() {
        let params = QdiParams {
            docs: 200,
            peers: 8,
            queries: 300,
            window: 75,
            drift: true,
            qdi: QdiConfig {
                activation_threshold: 2,
                truncation_k: 10,
                obsolescence_window: 80,
                eviction_period: 25,
                ..Default::default()
            },
            seed: 6,
        };
        let rows = run(&params);
        let last = rows.last().unwrap();
        assert!(last.activations > 0);
        assert!(
            last.evictions > 0,
            "drift should make earlier popular keys obsolete: {rows:?}"
        );
    }
}

//! # alvisp2p-bench
//!
//! The experiment harness of the AlvisP2P reproduction. Every experiment writes a
//! committed `BENCH_<name>.json` report and checks its own acceptance bar on it
//! (each module's docs describe its workload and expected shape; the README
//! summarises the results):
//!
//! | experiment | paper source | module and binary | report |
//! |---|---|---|---|
//! | E2 | single-term retrieval traffic is unscalable; HDK/QDI bounded; cost-based planning never overspends a byte budget | [`exp_bandwidth`] | `BENCH_bandwidth.json` |
//! | P2 | hot-key replication under Zipf traffic (per-peer p99 load) | [`exp_skew`] | `BENCH_skew.json` |
//! | P4 | fault injection: recall@10 and bytes/query under loss + crashes, by retry policy | [`exp_faults`] | `BENCH_faults.json` |
//! | P5 | control-plane chaos: versioned publications, anti-entropy repair, frame integrity | [`exp_chaos`] | `BENCH_chaos.json` |
//!
//! The paper's other claims are checked beside the code they test:
//!
//! | claim | test |
//! |---|---|
//! | Figure 1's lattice walk | `alvisp2p-core`'s `plan` and `lattice` unit tests |
//! | retrieval quality against the centralized engine, growing with the truncation bound | root `tests/end_to_end.rs`; `alvis_bench`'s `overlap_at_10` |
//! | the HDK index stays scalable (keys, postings per key, load balance) | root `tests/storage_scalability.rs` |
//! | O(log n) routing under arbitrary identifier skew | `alvisp2p-dht`'s `lookup` unit tests |
//! | QDI adapts the index to query popularity | root `tests/qdi_adaptivity.rs`; this crate's `exp_qdi` tests |
//!
//! Each module exposes a `run(...)` function returning typed rows (so integration
//! tests reuse the same code), a `print(...)` helper that renders the table the
//! binary prints, and its acceptance bar as `check(&report) -> Vec<String>` (one
//! message per broken invariant): the binary exits 1 when it is non-empty, and
//! the tests apply it to the committed reports and to full-scale runs. All
//! experiments are seeded and deterministic.
//!
//! Binaries honour `ALVIS_QUICK=1` (or a `--quick` argument), which shrinks the
//! sweeps to a fast smoke-test configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_bandwidth;
pub mod exp_chaos;
pub mod exp_faults;
pub mod exp_skew;
pub mod table;
pub mod workloads;

/// Whether the quick (smoke-test) configuration was requested, via
/// `ALVIS_QUICK=1` (or `true`) or a `--quick` argument.
pub fn quick_mode() -> bool {
    quick_requested(
        std::env::var("ALVIS_QUICK").ok().as_deref(),
        std::env::args().skip(1),
    )
}

fn quick_requested(env: Option<&str>, mut args: impl Iterator<Item = String>) -> bool {
    env.is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true")) || args.any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::quick_requested;

    fn args<'a>(a: &'a [&str]) -> impl Iterator<Item = String> + 'a {
        a.iter().map(|s| s.to_string())
    }

    #[test]
    fn quick_mode_honours_the_env_var_and_the_flag() {
        assert!(!quick_requested(None, args(&[])));
        assert!(quick_requested(Some("1"), args(&[])));
        assert!(quick_requested(Some("TRUE"), args(&[])));
        assert!(!quick_requested(Some("0"), args(&["--json"])));
        assert!(quick_requested(None, args(&["--quick"])));
        assert!(quick_requested(Some("0"), args(&["x", "--quick"])));
        assert!(!quick_requested(None, args(&["--quicker"])));
    }
}

/// E7 — QDI adapts the index to query popularity — checked window by window
/// over a Zipfian query stream, as E7 reported it. The sweep's recorded
/// numbers are in `CHANGES.md`.
#[cfg(test)]
mod exp_qdi {
    mod tests {
        use crate::workloads;
        use alvisp2p_core::qdi::QdiConfig;
        use alvisp2p_core::request::QueryRequest;
        use alvisp2p_core::stats::{mean, overlap_at_k};
        use alvisp2p_core::strategy::Qdi;
        use alvisp2p_textindex::{QueryLogConfig, QueryLogGenerator};
        use std::sync::Arc;

        /// The state of the index at the end of one window of the stream.
        #[derive(Debug)]
        struct Window {
            /// Mean overlap@10 with the centralized reference inside the window.
            overlap_at_10: f64,
            /// Activated multi-term keys at the end of the window.
            active_multi_keys: usize,
            /// Cumulative on-demand activations.
            activations: u64,
            /// Cumulative evictions of obsolete keys.
            evictions: u64,
        }

        /// Replays `queries` multi-term queries (popularity drifting half way
        /// through when `drift`) against a 200-document, 8-peer QDI network.
        fn run(
            queries: usize,
            window: usize,
            drift: bool,
            qdi: QdiConfig,
            seed: u64,
        ) -> Vec<Window> {
            let peers = 8;
            let corpus = workloads::corpus(200, seed);
            let log = QueryLogGenerator::new(
                QueryLogConfig {
                    num_queries: queries,
                    distinct_queries: (queries / 8).clamp(20, 400),
                    min_terms: 2,
                    max_terms: 3,
                    popularity_drift: drift,
                    ..Default::default()
                },
                seed ^ 0x51,
            )
            .generate(&corpus);
            let mut net = workloads::indexed_network(&corpus, Arc::new(Qdi::new(qdi)), peers, seed);
            let mut windows = Vec::new();
            let mut overlap = Vec::new();
            for (i, q) in log.queries.iter().enumerate() {
                let outcome = net
                    .execute(&QueryRequest::new(q.text.clone()).from_peer(i % peers))
                    .expect("query succeeds");
                let reference = net.reference_search(&q.text, 10);
                overlap.push(overlap_at_k(&outcome.results, &reference, 10));
                if (i + 1) % window == 0 || i + 1 == log.len() {
                    let report = net.qdi_report();
                    windows.push(Window {
                        overlap_at_10: mean(&overlap),
                        active_multi_keys: net
                            .global_index()
                            .activated_key_list()
                            .iter()
                            .filter(|k| k.len() > 1)
                            .count(),
                        activations: report.activations,
                        evictions: report.evictions,
                    });
                    overlap.clear();
                }
            }
            windows
        }

        #[test]
        fn popular_combinations_get_activated_over_the_stream() {
            let qdi = QdiConfig {
                activation_threshold: 2,
                truncation_k: 10,
                ..Default::default()
            };
            let windows = run(160, 40, false, qdi, 5);
            assert_eq!(windows.len(), 4);
            let first = windows.first().unwrap();
            let last = windows.last().unwrap();
            assert!(last.activations > 0, "no activations happened: {last:?}");
            assert!(last.active_multi_keys >= first.active_multi_keys);
            // Quality does not degrade as the index adapts.
            assert!(last.overlap_at_10 >= first.overlap_at_10 - 0.05);
        }

        #[test]
        fn drift_triggers_evictions_of_obsolete_keys() {
            let qdi = QdiConfig {
                activation_threshold: 2,
                truncation_k: 10,
                obsolescence_window: 80,
                eviction_period: 25,
                ..Default::default()
            };
            let windows = run(300, 75, true, qdi, 6);
            let last = windows.last().unwrap();
            assert!(last.activations > 0);
            assert!(
                last.evictions > 0,
                "drift should make earlier popular keys obsolete: {windows:?}"
            );
        }
    }
}

//! # alvisp2p-bench
//!
//! The experiment harness of the AlvisP2P reproduction. The paper's behavioural
//! figures and quantitative claims map to experiment modules (each module's docs
//! describe its workload and expected shape; the README summarises the results):
//!
//! | experiment | paper source | module | binary |
//! |---|---|---|---|
//! | E2 | single-term retrieval traffic is unscalable; HDK/QDI bounded | [`exp_bandwidth`] | `exp_bandwidth` |
//! | E3 | number of keys / storage remains scalable | [`exp_storage`] | `exp_storage` |
//! | E5 | O(log n) routing under arbitrary identifier skew | [`exp_routing`] | `exp_routing` |
//! | E6 | congestion control prevents congestion collapse | [`exp_congestion`] | `exp_congestion` |
//! | E7 | QDI adapts the index to query popularity | [`exp_qdi`] | `exp_qdi_adaptivity` |
//! | P2 | hot-key replication under Zipf traffic (per-peer p99 load, `BENCH_skew.json`) | [`exp_skew`] | `exp_skew` |
//! | P4 | fault injection: recall@10 and bytes/query under loss + crashes, by retry policy (`BENCH_faults.json`) | [`exp_faults`] | `exp_faults` |
//! | P5 | control-plane chaos: versioned publications, anti-entropy repair, frame integrity (`BENCH_chaos.json`) | [`exp_chaos`] | `exp_chaos` |
//!
//! Three claims have no experiment here. Figure 1's lattice walk is pinned by
//! `alvisp2p-core`'s `plan` unit tests. Retrieval quality against the centralized
//! engine, and its growth with the truncation bound, are pinned by the root
//! `tests/end_to_end.rs` and gated by `alvis_bench`'s `overlap_at_10`.
//!
//! Each module exposes a `run(...)` function returning typed rows (so integration
//! tests reuse the same code) and a `print(...)` helper that renders the table the
//! corresponding binary prints. All experiments are seeded and deterministic.
//!
//! The four experiments that commit a `BENCH_*.json` report ([`exp_bandwidth`],
//! [`exp_skew`], [`exp_faults`], [`exp_chaos`]) also define their acceptance bar as
//! `check(&report) -> Vec<String>` (one message per broken invariant): the binary
//! exits 1 when it is non-empty, and the tests apply it to the committed reports
//! and to full-scale runs.
//!
//! Binaries honour `ALVIS_QUICK=1` (or a `--quick` argument), which shrinks the
//! sweeps to a fast smoke-test configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_bandwidth;
pub mod exp_chaos;
pub mod exp_congestion;
pub mod exp_faults;
pub mod exp_qdi;
pub mod exp_routing;
pub mod exp_skew;
pub mod exp_storage;
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

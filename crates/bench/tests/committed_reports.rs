//! Every experiment binary has a committed report, the committed
//! `BENCH_{skew,faults,chaos,bandwidth}.json` records pass their experiment's
//! own acceptance bar (`exp_*::check`), and each bar is not vacuous: a copy
//! doctored to break one invariant yields exactly one failure.

use alvisp2p_bench::{exp_bandwidth, exp_chaos, exp_faults, exp_skew};
use serde::Deserialize;

fn committed<T: Deserialize>(name: &str) -> T {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e:?}"))
}

#[test]
fn every_experiment_binary_has_a_committed_report() {
    let bin = format!("{}/src/bin", env!("CARGO_MANIFEST_DIR"));
    let mut experiments = 0;
    for entry in std::fs::read_dir(&bin).unwrap_or_else(|e| panic!("list {bin}: {e}")) {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let name = file
            .strip_suffix(".rs")
            .and_then(|f| f.strip_prefix("exp_"));
        let name = name.unwrap_or_else(|| panic!("{file} is not an `exp_<name>.rs` binary"));
        let report = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        assert!(
            std::path::Path::new(&report).is_file(),
            "exp_{name} has no committed BENCH_{name}.json: an experiment must write and check one"
        );
        experiments += 1;
    }
    assert!(experiments > 0, "no experiment binaries in {bin}");
}

#[test]
fn committed_skew_report_passes_its_bar() {
    let report: exp_skew::SkewReport = committed("BENCH_skew.json");
    assert_eq!(exp_skew::check(&report), Vec::<String>::new());
}

#[test]
fn skew_bar_catches_a_changed_answer() {
    let mut report: exp_skew::SkewReport = committed("BENCH_skew.json");
    report.rows[1].identical_topk = false;
    assert_eq!(exp_skew::check(&report).len(), 1);
}

#[test]
fn committed_faults_report_passes_its_bar() {
    let report: exp_faults::FaultsReport = committed("BENCH_faults.json");
    assert_eq!(exp_faults::check(&report), Vec::<String>::new());
}

#[test]
fn faults_bar_catches_faults_that_never_fired() {
    let mut report: exp_faults::FaultsReport = committed("BENCH_faults.json");
    let (loss, crashes) = (report.params.headline_loss, report.params.headline_crashes);
    let failover = report
        .rows
        .iter_mut()
        .find(|r| r.arm == "retry+failover" && r.loss == loss && r.crashes == crashes)
        .expect("headline failover row");
    failover.robustness.retries = 0;
    assert_eq!(exp_faults::check(&report).len(), 1);
}

#[test]
fn committed_chaos_report_passes_its_bar() {
    let report: exp_chaos::ChaosReport = committed("BENCH_chaos.json");
    assert_eq!(exp_chaos::check(&report), Vec::<String>::new());
}

#[test]
fn chaos_bar_catches_an_undrained_publication() {
    let mut report: exp_chaos::ChaosReport = committed("BENCH_chaos.json");
    report.repair_pending = 1;
    assert_eq!(exp_chaos::check(&report).len(), 1);
}

#[test]
fn committed_bandwidth_report_passes_its_bar() {
    let report: exp_bandwidth::BandwidthReport = committed("BENCH_bandwidth.json");
    assert_eq!(exp_bandwidth::check(&report), Vec::<String>::new());
}

#[test]
fn bandwidth_bar_catches_rank_safe_spending_more_than_off() {
    let mut report: exp_bandwidth::BandwidthReport = committed("BENCH_bandwidth.json");
    let budget = report.planned[0].budget;
    let arm = |threshold: &str| {
        report
            .planned
            .iter()
            .position(|r| {
                r.budget == budget && r.planner == "greedy-cost" && r.threshold == threshold
            })
            .expect("threshold arm")
    };
    let (off, safe) = (arm("off"), arm("rank-safe"));
    report.planned[safe].mean_bytes = report.planned[off].mean_bytes + 1.0;
    assert_eq!(exp_bandwidth::check(&report).len(), 1);
}

//! E2 — retrieval bandwidth: single-term baseline vs HDK vs QDI, plus the E2c
//! planned/threshold sweep; writes `BENCH_bandwidth.json` and exits 1 when it
//! breaks `exp_bandwidth::check`. See the `exp_bandwidth` module docs.
use alvisp2p_bench::{exp_bandwidth, quick_mode, table};
use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = quick_mode();
    let params = if quick {
        exp_bandwidth::BandwidthParams::quick()
    } else {
        exp_bandwidth::BandwidthParams::default()
    };
    let rows = exp_bandwidth::run(&params);
    exp_bandwidth::print(&params, &rows);
    table::maybe_print_json(&rows);

    // E2c: the planned-vs-best-effort arm — same workload under per-query byte
    // budgets, planned with the cost-based planner vs the PR 1 cutoff.
    let planned_params = if quick {
        exp_bandwidth::PlannedParams::quick()
    } else {
        exp_bandwidth::PlannedParams::default()
    };
    let planned_rows = exp_bandwidth::run_planned(&planned_params);
    exp_bandwidth::print_planned(&planned_rows);
    table::maybe_print_json(&planned_rows);

    // E2c over a long-posting-list corpus (capped vocabulary): the regime
    // where the threshold arms' floor-based elision has the most bytes to
    // save.
    let long_rows = exp_bandwidth::run_planned(&planned_params.long_lists());
    println!("(long-list corpus: vocabulary capped at 500 terms)");
    exp_bandwidth::print_planned(&long_rows);
    table::maybe_print_json(&long_rows);

    let report = exp_bandwidth::BandwidthReport {
        quick,
        planned: planned_rows,
        long_lists: long_rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let path =
        std::env::var("ALVIS_BENCH_OUT").unwrap_or_else(|_| "BENCH_bandwidth.json".to_string());
    std::fs::write(&path, json + "\n").expect("write BENCH_bandwidth.json");
    println!("wrote {path}");
    let failures = exp_bandwidth::check(&report);
    for failure in &failures {
        eprintln!("bar broken: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! P2 — hot-key replication under Zipf traffic; writes `BENCH_skew.json` and
//! exits 1 when it breaks `exp_skew::check`. See the `exp_skew` module docs.
use alvisp2p_bench::{exp_skew, quick_mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = quick_mode();
    let params = if quick {
        exp_skew::SkewParams::quick()
    } else {
        exp_skew::SkewParams::default()
    };
    let mut report = exp_skew::run(&params);
    report.quick = quick;
    exp_skew::print(&report);
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let path = std::env::var("ALVIS_BENCH_OUT").unwrap_or_else(|_| "BENCH_skew.json".to_string());
    std::fs::write(&path, json + "\n").expect("write BENCH_skew.json");
    println!("wrote {path}");
    let failures = exp_skew::check(&report);
    for failure in &failures {
        eprintln!("bar broken: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

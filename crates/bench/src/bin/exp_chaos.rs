//! P5 — control-plane chaos and recovery; writes `BENCH_chaos.json` and exits 1
//! when it breaks `exp_chaos::check`. See the `exp_chaos` module docs.
use alvisp2p_bench::{exp_chaos, quick_mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = quick_mode();
    let params = if quick {
        exp_chaos::ChaosParams::quick()
    } else {
        exp_chaos::ChaosParams::default()
    };
    let mut report = exp_chaos::run(&params);
    report.quick = quick;
    exp_chaos::print(&report);
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let path = std::env::var("ALVIS_BENCH_OUT").unwrap_or_else(|_| "BENCH_chaos.json".to_string());
    std::fs::write(&path, json + "\n").expect("write BENCH_chaos.json");
    println!("wrote {path}");
    let failures = exp_chaos::check(&report);
    for failure in &failures {
        eprintln!("bar broken: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

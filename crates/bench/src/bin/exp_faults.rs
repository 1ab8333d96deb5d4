//! P4 — fault injection and fault-tolerant probes; writes `BENCH_faults.json`
//! and exits 1 when it breaks `exp_faults::check`. See the `exp_faults` module
//! docs.
use alvisp2p_bench::{exp_faults, quick_mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = quick_mode();
    let params = if quick {
        exp_faults::FaultsParams::quick()
    } else {
        exp_faults::FaultsParams::default()
    };
    let mut report = exp_faults::run(&params);
    report.quick = quick;
    exp_faults::print(&report);
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let path = std::env::var("ALVIS_BENCH_OUT").unwrap_or_else(|_| "BENCH_faults.json".to_string());
    std::fs::write(&path, json + "\n").expect("write BENCH_faults.json");
    println!("wrote {path}");
    let failures = exp_faults::check(&report);
    for failure in &failures {
        eprintln!("bar broken: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Runs the E-series experiments (E2, E3, E5, E6, E7) in sequence, printing each
//! table.
//!
//! Set `ALVIS_QUICK=1` (or pass `--quick`) for a fast smoke-test pass over all
//! experiments.
use alvisp2p_bench as bench;

fn main() {
    let quick = bench::quick_mode();
    println!("AlvisP2P experiment harness (quick mode: {quick})\n");

    let p = if quick {
        bench::exp_bandwidth::BandwidthParams::quick()
    } else {
        Default::default()
    };
    bench::exp_bandwidth::print(&p, &bench::exp_bandwidth::run(&p));
    let p = if quick {
        bench::exp_bandwidth::PlannedParams::quick()
    } else {
        Default::default()
    };
    bench::exp_bandwidth::print_planned(&bench::exp_bandwidth::run_planned(&p));

    let p = if quick {
        bench::exp_storage::StorageParams::quick()
    } else {
        Default::default()
    };
    bench::exp_storage::print(&p, &bench::exp_storage::run(&p));

    let p = if quick {
        bench::exp_routing::RoutingParams::quick()
    } else {
        Default::default()
    };
    bench::exp_routing::print(&bench::exp_routing::run(&p));

    let p = if quick {
        bench::exp_congestion::CongestionParams::quick()
    } else {
        Default::default()
    };
    bench::exp_congestion::print(&bench::exp_congestion::run(&p));

    let p = if quick {
        bench::exp_qdi::QdiParams::quick()
    } else {
        Default::default()
    };
    bench::exp_qdi::print(&bench::exp_qdi::run(&p));
}

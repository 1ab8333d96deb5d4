//! Runs every experiment (E1–E8) in sequence, printing each table.
//!
//! Set `ALVIS_QUICK=1` (or pass `--quick`) for a fast smoke-test pass over all
//! experiments.
use alvisp2p_bench as bench;

fn main() {
    let quick = bench::quick_mode();
    println!("AlvisP2P experiment harness (quick mode: {quick})\n");

    let rows = bench::exp_lattice::run(&bench::exp_lattice::LatticeParams::default());
    bench::exp_lattice::print(&rows);
    bench::exp_lattice::print_planned(&bench::exp_lattice::LatticeParams::default(), 1_000);

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
        bench::exp_quality::QualityParams::quick()
    } else {
        Default::default()
    };
    bench::exp_quality::print(&bench::exp_quality::run(&p));

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

    let p = if quick {
        bench::exp_truncation::TruncationParams::quick()
    } else {
        Default::default()
    };
    bench::exp_truncation::print(&bench::exp_truncation::run(&p));
}

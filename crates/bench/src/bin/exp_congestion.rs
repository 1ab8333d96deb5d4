//! E6 — congestion control vs congestion collapse. See the `exp_congestion` module docs.
use alvisp2p_bench::{exp_congestion, quick_mode, table};

fn main() {
    let params = if quick_mode() {
        exp_congestion::CongestionParams::quick()
    } else {
        exp_congestion::CongestionParams::default()
    };
    let rows = exp_congestion::run(&params);
    exp_congestion::print(&rows);
    table::maybe_print_json(&rows);
}

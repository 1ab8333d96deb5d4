//! E5 — O(log n) routing under identifier skew. See the `exp_routing` module docs.
use alvisp2p_bench::{exp_routing, quick_mode, table};

fn main() {
    let params = if quick_mode() {
        exp_routing::RoutingParams::quick()
    } else {
        exp_routing::RoutingParams::default()
    };
    let rows = exp_routing::run(&params);
    exp_routing::print(&rows);
    table::maybe_print_json(&rows);
}

//! E7 — Query-Driven Indexing adaptivity over a query stream. See the `exp_qdi` module docs.
use alvisp2p_bench::{exp_qdi, quick_mode, table};

fn main() {
    let params = if quick_mode() {
        exp_qdi::QdiParams::quick()
    } else {
        exp_qdi::QdiParams::default()
    };
    let rows = exp_qdi::run(&params);
    exp_qdi::print(&rows);
    table::maybe_print_json(&rows);
}

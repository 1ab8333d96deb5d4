//! E8 — posting-list truncation: bounded transfers, marginal quality loss. See
//! the `exp_truncation` module docs.
use alvisp2p_bench::{exp_truncation, quick_mode, table};

fn main() {
    let params = if quick_mode() {
        exp_truncation::TruncationParams::quick()
    } else {
        exp_truncation::TruncationParams::default()
    };
    let rows = exp_truncation::run(&params);
    exp_truncation::print(&rows);
    table::maybe_print_json(&rows);
}

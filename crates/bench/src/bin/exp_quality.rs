//! E4 — retrieval quality vs the centralized reference. See the `exp_quality` module docs.
use alvisp2p_bench::{exp_quality, quick_mode, table};

fn main() {
    let params = if quick_mode() {
        exp_quality::QualityParams::quick()
    } else {
        exp_quality::QualityParams::default()
    };
    let rows = exp_quality::run(&params);
    exp_quality::print(&rows);
    table::maybe_print_json(&rows);
}

//! E3 — HDK index size and storage scalability. See the `exp_storage` module docs.
use alvisp2p_bench::{exp_storage, quick_mode, table};

fn main() {
    let params = if quick_mode() {
        exp_storage::StorageParams::quick()
    } else {
        exp_storage::StorageParams::default()
    };
    let rows = exp_storage::run(&params);
    exp_storage::print(&params, &rows);
    table::maybe_print_json(&rows);
}

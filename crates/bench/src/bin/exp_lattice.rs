//! E1 — Figure 1: query-lattice processing. See the `exp_lattice` module docs.
use alvisp2p_bench::{exp_lattice, table};

fn main() {
    let params = exp_lattice::LatticeParams::default();
    let rows = exp_lattice::run(&params);
    exp_lattice::print(&rows);
    // Also show the ablation without pruning below truncated keys.
    let rows_no_prune = exp_lattice::run(&exp_lattice::LatticeParams {
        prune_below_truncated: false,
        ..exp_lattice::LatticeParams::default()
    });
    println!("(ablation: same query without pruning below truncated keys)");
    exp_lattice::print(&rows_no_prune);
    table::maybe_print_json(&rows);

    // E1b: the same scenario through the plan → execute pipeline under a byte
    // budget, comparing the cost-based planner against the fixed-order cutoff.
    let summaries = exp_lattice::print_planned(&params, 1_000);
    table::maybe_print_json(&summaries);
}

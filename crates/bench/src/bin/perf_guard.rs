//! CI regression guard over `BENCH_perf.json` (and optionally
//! `BENCH_skew.json`, `BENCH_faults.json`, `BENCH_chaos.json` and
//! `BENCH_bandwidth.json`).
//!
//! Usage: `perf_guard <committed.json> <fresh.json> [<committed_skew.json>
//! <fresh_skew.json> [<committed_faults.json> <fresh_faults.json>
//! [<committed_chaos.json> <fresh_chaos.json>
//! [<committed_bandwidth.json> <fresh_bandwidth.json>]]]]`
//!
//! Compares a fresh `exp_perf --quick` run against the committed perf
//! trajectory and fails (exit code 1) when any comparable arm regressed by
//! more than the tolerance (default 30%, override with
//! `ALVIS_PERF_TOLERANCE=0.5` style fractions).
//!
//! When the two skew-report paths are given, the guard additionally enforces
//! the replication subsystem's scale-independent guarantees on both reports
//! (they hold at `--quick` and full scale alike, and the seeded runs are
//! deterministic): every arm's top-k answers equal the unreplicated
//! baseline's, the churn arm recovers the hot key and re-converges the
//! replica placement, and the p99 per-peer load reduction stays ≥ 2x.
//!
//! When the two faults-report paths are also given, the guard enforces the
//! fault-tolerance acceptance bar on both reports: at the headline cell (10%
//! message loss + 2 crashed peers) the retry+failover arm keeps recall@10 at
//! ≥ 0.95 of the fault-free answers at ≤ 1.5x its bytes/query, the no-retry
//! arm is measurably worse, and the injected faults demonstrably fired
//! (retries observed, no-retry probes failed).
//!
//! When the two chaos-report paths are also given, the guard enforces the
//! control-plane recovery bar on both reports: the repair arm drains every
//! un-acked publication, restores replica consistency to 1.0 and keeps
//! recall@10 ≥ 0.95 of fault-free at ≤ 2x its bytes/query, while the
//! no-repair arm under the identical plane stays divergent (pending
//! publications, consistency < 1.0, a non-vacuous recall gap) and the frame
//! corruption demonstrably fired (corrupt frames counted).
//!
//! When the two bandwidth-report paths are also given, the guard enforces the
//! rank-safe threshold mode's bar on both reports: top-k answers (docs, ranks
//! and score bits) identical to the `greedy-cost`/`off` reference at every
//! budget, bytes/query never above the off arm's, and — on the long-lists
//! corpus — the floors demonstrably firing (whole blocks skipped, strictly
//! fewer bytes than off at some budget).
//!
//! Two measures keep the guard meaningful across machines and
//! configurations:
//!
//! * **Calibration** — absolute ns/op depends on the machine, so every row is
//!   normalized by the run's own `key_construct/legacy` row: that arm is a
//!   frozen in-bench replica of the seed's string key whose code never
//!   changes, making its per-op cost a pure machine-speed probe. The guarded
//!   quantity is the *ratio* of a row to the calibration row, compared across
//!   the two reports.
//! * **Scale-independent rows only** — `--quick` shrinks the corpus/network,
//!   so workload-dependent benches (`publish_e2e`, `planned_query`) measure
//!   different work per op and are reported but not guarded. The guarded
//!   benches operate on fixed-shape inputs (2–3 term keys, the 100-entry
//!   codec list), so their per-op work is identical at any scale.

use alvisp2p_bench::exp_bandwidth::{BandwidthReport, PlannedBandwidthRow};
use alvisp2p_bench::exp_chaos::ChaosReport;
use alvisp2p_bench::exp_faults::FaultsReport;
use alvisp2p_bench::exp_perf::PerfReport;
use alvisp2p_bench::exp_skew::SkewReport;
use std::process::ExitCode;

/// The retry+failover arm must keep at least this recall@10 against the
/// fault-free answers at the headline fault cell.
const FAULTS_RECALL_FLOOR: f64 = 0.95;

/// The no-retry arm must trail retry+failover by at least this much recall at
/// the headline cell ("measurably degrades").
const FAULTS_DEGRADATION_GAP: f64 = 0.02;

/// The retry+failover arm's headline bytes/query over the fault-free run's.
const FAULTS_BYTE_OVERHEAD_CEILING: f64 = 1.5;

/// The chaos repair arm must keep at least this recall@10 against the
/// fault-free answers under the combined control-plane fault mix.
const CHAOS_RECALL_FLOOR: f64 = 0.95;

/// The no-repair arm must trail the repair arm by at least this much recall
/// ("the degradation the repair machinery prevents is non-vacuous").
const CHAOS_DEGRADATION_GAP: f64 = 0.02;

/// The repair arm's bytes/query over the fault-free run's (repair traffic is
/// Overlay, but retries on lost/corrupt probes inflate Retrieval too).
const CHAOS_BYTE_OVERHEAD_CEILING: f64 = 2.0;

/// Benches whose per-op work does not depend on the `--quick` scaling.
const GUARDED: &[&str] = &[
    "key_construct",
    "key_construct_from_str",
    "ring_id",
    "lattice_enum",
    "publish_keyops",
    "codec_encode",
    "codec_decode",
    "codec_decode_floored",
];

/// The machine-speed probe used for normalization.
const CALIBRATION: (&str, &str) = ("key_construct", "legacy");

/// Rows cheaper than this are dominated by timer/loop granularity (e.g. the
/// cached-hash `ring_id` at ~0.4 ns/op): they are printed but not guarded,
/// since a fraction of a nanosecond of jitter reads as a huge relative change.
const NOISE_FLOOR_NS: f64 = 5.0;

fn load(path: &str) -> PerfReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_guard: cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("perf_guard: cannot parse {path}: {e:?}"))
}

fn ns_of(report: &PerfReport, bench: &str, arm: &str) -> Option<f64> {
    report
        .rows
        .iter()
        .find(|r| r.bench == bench && r.arm == arm)
        .map(|r| r.ns_per_op)
}

fn load_skew(path: &str) -> SkewReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_guard: cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("perf_guard: cannot parse {path}: {e:?}"))
}

/// The skew-report invariants are scale-independent, so the same bar applies
/// to the committed full run and a fresh `--quick` run.
fn check_skew(label: &str, report: &SkewReport, failures: &mut Vec<String>) {
    println!(
        "skew ({label}): p99 reduction {:.2}x, topk {}, churn survived {}, re-converged {}",
        report.p99_reduction,
        if report.rows.iter().all(|r| r.identical_topk) {
            "identical"
        } else {
            "DIVERGED"
        },
        report.churn.hot_key_survived,
        report.churn.reconverged,
    );
    for row in &report.rows {
        if !row.identical_topk {
            failures.push(format!(
                "skew/{label}: arm {} changed query answers",
                row.arm
            ));
        }
    }
    if report.p99_reduction < 2.0 {
        failures.push(format!(
            "skew/{label}: p99 load reduction {:.2}x below the 2x bar",
            report.p99_reduction
        ));
    }
    if !report.churn.hot_key_survived {
        failures.push(format!(
            "skew/{label}: hot key did not survive its primary's failure"
        ));
    }
    if !report.churn.reconverged {
        failures.push(format!(
            "skew/{label}: replica placement did not re-converge after joins"
        ));
    }
}

fn load_faults(path: &str) -> FaultsReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_guard: cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("perf_guard: cannot parse {path}: {e:?}"))
}

/// The faults-report invariants are scale-independent (the quick
/// configuration keeps the same headline cell), so the same bar applies to
/// the committed full run and a fresh `--quick` run.
fn check_faults(label: &str, report: &FaultsReport, failures: &mut Vec<String>) {
    println!(
        "faults ({label}): headline recall@10 no-retry {:.3} / retry {:.3} / failover {:.3} \
         at {:.2}x fault-free bytes/query",
        report.headline_no_retry_recall,
        report.headline_retry_recall,
        report.headline_failover_recall,
        report.headline_byte_overhead,
    );
    let headline = |arm: &str| {
        report.rows.iter().find(|r| {
            r.arm == arm
                && r.loss == report.params.headline_loss
                && r.crashes == report.params.headline_crashes
        })
    };
    let Some((no_retry, failover)) = headline("no-retry").zip(headline("retry+failover")) else {
        failures.push(format!("faults/{label}: missing a headline arm"));
        return;
    };
    if report.headline_failover_recall < FAULTS_RECALL_FLOOR {
        failures.push(format!(
            "faults/{label}: retry+failover recall {:.3} below the {FAULTS_RECALL_FLOOR} floor",
            report.headline_failover_recall
        ));
    }
    if report.headline_no_retry_recall > report.headline_failover_recall - FAULTS_DEGRADATION_GAP {
        failures.push(format!(
            "faults/{label}: no-retry recall {:.3} not measurably below failover {:.3}",
            report.headline_no_retry_recall, report.headline_failover_recall
        ));
    }
    if report.headline_byte_overhead > FAULTS_BYTE_OVERHEAD_CEILING {
        failures.push(format!(
            "faults/{label}: byte overhead {:.2}x exceeds the {FAULTS_BYTE_OVERHEAD_CEILING}x \
             ceiling",
            report.headline_byte_overhead
        ));
    }
    if no_retry.robustness.failed_probes == 0 {
        failures.push(format!(
            "faults/{label}: no probe ever failed under no-retry — the injected faults \
             never fired and every recall bar is vacuous"
        ));
    }
    if failover.robustness.retries == 0 {
        failures.push(format!(
            "faults/{label}: the retry+failover arm never retried — the injected faults \
             never fired and every recall bar is vacuous"
        ));
    }
}

fn load_chaos(path: &str) -> ChaosReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_guard: cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("perf_guard: cannot parse {path}: {e:?}"))
}

/// The chaos-report invariants are scale-independent (the quick configuration
/// keeps the full fault mix), so the same bar applies to the committed full
/// run and a fresh `--quick` run.
fn check_chaos(label: &str, report: &ChaosReport, failures: &mut Vec<String>) {
    println!(
        "chaos ({label}): repair recall {:.3} / consistency {:.3} / {} pending vs \
         no-repair recall {:.3} / consistency {:.3} / {} pending at {:.2}x bytes/query",
        report.repair_recall,
        report.repair_consistency,
        report.repair_pending,
        report.no_repair_recall,
        report.no_repair_consistency,
        report.no_repair_pending,
        report.repair_byte_overhead,
    );
    if report.repair_recall < CHAOS_RECALL_FLOOR {
        failures.push(format!(
            "chaos/{label}: repair recall {:.3} below the {CHAOS_RECALL_FLOOR} floor",
            report.repair_recall
        ));
    }
    if report.no_repair_recall > report.repair_recall - CHAOS_DEGRADATION_GAP {
        failures.push(format!(
            "chaos/{label}: no-repair recall {:.3} not measurably below repair {:.3}",
            report.no_repair_recall, report.repair_recall
        ));
    }
    if report.repair_consistency < 0.999 {
        failures.push(format!(
            "chaos/{label}: repair left replica consistency at {:.3}",
            report.repair_consistency
        ));
    }
    if report.no_repair_consistency >= 1.0 {
        failures.push(format!(
            "chaos/{label}: the no-repair arm stayed fully consistent — the injected \
             divergence never fired and the consistency bar is vacuous"
        ));
    }
    if report.repair_pending != 0 {
        failures.push(format!(
            "chaos/{label}: {} publications still un-acked after repair",
            report.repair_pending
        ));
    }
    if report.no_repair_pending == 0 {
        failures.push(format!(
            "chaos/{label}: the no-repair arm has no pending publications — the injected \
             publish loss never fired and the recall bar is vacuous"
        ));
    }
    if report.repair_byte_overhead > CHAOS_BYTE_OVERHEAD_CEILING {
        failures.push(format!(
            "chaos/{label}: byte overhead {:.2}x exceeds the {CHAOS_BYTE_OVERHEAD_CEILING}x \
             ceiling",
            report.repair_byte_overhead
        ));
    }
    if report
        .rows
        .iter()
        .map(|r| r.robustness.corrupt_probes)
        .sum::<u64>()
        == 0
    {
        failures.push(format!(
            "chaos/{label}: no corrupt frame was ever counted — the injected bit flips \
             never fired"
        ));
    }
}

fn load_bandwidth(path: &str) -> BandwidthReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_guard: cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("perf_guard: cannot parse {path}: {e:?}"))
}

/// The bandwidth-report invariants are scale-independent, so the same bar
/// applies to the committed full run and a fresh `--quick` run: the rank-safe
/// arm's answers are bit-identical to `greedy-cost`/`off` at every budget and
/// its bytes/query never exceed the off arm's (elision only shrinks
/// responses); on the long-lists corpus the rank-safe floors must also
/// demonstrably fire (whole blocks skipped, strictly fewer bytes than off on
/// some budget).
fn check_bandwidth(label: &str, report: &BandwidthReport, failures: &mut Vec<String>) {
    let arm = |rows: &'_ [PlannedBandwidthRow], budget: u64, threshold: &str| {
        rows.iter()
            .find(|r| r.budget == budget && r.planner == "greedy-cost" && r.threshold == threshold)
            .cloned()
    };
    for (sweep, rows) in [
        ("planned", &report.planned),
        ("long-lists", &report.long_lists),
    ] {
        let budgets: Vec<u64> = {
            let mut b: Vec<u64> = rows.iter().map(|r| r.budget).collect();
            b.sort_unstable();
            b.dedup();
            b
        };
        let mut skipped = 0u64;
        let mut beats_off = false;
        for &budget in &budgets {
            let Some((off, safe)) = arm(rows, budget, "off").zip(arm(rows, budget, "rank-safe"))
            else {
                failures.push(format!(
                    "bandwidth/{label}: {sweep} budget {budget} is missing a threshold arm"
                ));
                continue;
            };
            println!(
                "bandwidth ({label}): {sweep} budget {budget}: rank-safe {:.0} B/query \
                 ({} blocks, {} B elided) vs off {:.0}, topk {}",
                safe.mean_bytes,
                safe.skipped_blocks,
                safe.elided_bytes,
                off.mean_bytes,
                if safe.identical_topk {
                    "identical"
                } else {
                    "DIVERGED"
                },
            );
            if !safe.identical_topk {
                failures.push(format!(
                    "bandwidth/{label}: {sweep} budget {budget}: rank-safe answers diverged \
                     from off"
                ));
            }
            if safe.mean_bytes > off.mean_bytes + 1e-6 {
                failures.push(format!(
                    "bandwidth/{label}: {sweep} budget {budget}: rank-safe {:.1} B/query \
                     exceeds off {:.1}",
                    safe.mean_bytes, off.mean_bytes
                ));
            }
            skipped += safe.skipped_blocks;
            beats_off |= safe.mean_bytes < off.mean_bytes - 1e-6;
        }
        if sweep == "long-lists" {
            if skipped == 0 {
                failures.push(format!(
                    "bandwidth/{label}: rank-safe never skipped a block on the long-lists \
                     corpus — the floors never fired and every byte bar is vacuous"
                ));
            }
            if !beats_off {
                failures.push(format!(
                    "bandwidth/{label}: rank-safe never ships strictly fewer bytes/query than \
                     off on the long-lists corpus"
                ));
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 || args.len() > 10 || !args.len().is_multiple_of(2) {
        eprintln!(
            "usage: perf_guard <committed.json> <fresh.json> \
             [<committed_skew.json> <fresh_skew.json> \
             [<committed_faults.json> <fresh_faults.json> \
             [<committed_chaos.json> <fresh_chaos.json> \
             [<committed_bandwidth.json> <fresh_bandwidth.json>]]]]"
        );
        return ExitCode::from(2);
    }
    // Positional (committed, fresh) pairs, outermost first.
    let pair = |i: usize| -> Option<(String, String)> {
        args.get(2 * i)
            .zip(args.get(2 * i + 1))
            .map(|(c, f)| (c.clone(), f.clone()))
    };
    let (committed_path, fresh_path) = (&args[0], &args[1]);
    let skew_paths = pair(1);
    let faults_paths = pair(2);
    let chaos_paths = pair(3);
    let bandwidth_paths = pair(4);
    let tolerance: f64 = std::env::var("ALVIS_PERF_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.30);
    let committed = load(committed_path);
    let fresh = load(fresh_path);

    let cal_committed = ns_of(&committed, CALIBRATION.0, CALIBRATION.1)
        .expect("committed report lacks the calibration row");
    let cal_fresh = ns_of(&fresh, CALIBRATION.0, CALIBRATION.1)
        .expect("fresh report lacks the calibration row");
    println!(
        "calibration ({}/{}): committed {cal_committed:.1} ns/op, fresh {cal_fresh:.1} ns/op",
        CALIBRATION.0, CALIBRATION.1
    );

    let mut regressions = Vec::new();
    let mut checked = 0usize;
    for row in &committed.rows {
        if !GUARDED.contains(&row.bench.as_str()) {
            continue;
        }
        if (row.bench.as_str(), row.arm.as_str()) == CALIBRATION {
            continue;
        }
        let Some(fresh_ns) = ns_of(&fresh, &row.bench, &row.arm) else {
            regressions.push(format!("{}/{}: missing from fresh run", row.bench, row.arm));
            continue;
        };
        if row.ns_per_op < NOISE_FLOOR_NS || fresh_ns < NOISE_FLOOR_NS {
            println!(
                "{:<24} {:<14} committed {:>9.1} ns  fresh {:>9.1} ns  below noise floor, not guarded",
                row.bench, row.arm, row.ns_per_op, fresh_ns
            );
            continue;
        }
        let committed_rel = row.ns_per_op / cal_committed;
        let fresh_rel = fresh_ns / cal_fresh;
        let change = fresh_rel / committed_rel - 1.0;
        checked += 1;
        let verdict = if change > tolerance {
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{:<24} {:<14} committed {:>9.1} ns  fresh {:>9.1} ns  normalized {:>+6.1}%  {verdict}",
            row.bench,
            row.arm,
            row.ns_per_op,
            fresh_ns,
            change * 100.0
        );
        if change > tolerance {
            regressions.push(format!(
                "{}/{}: {:.1}% over the committed trajectory (tolerance {:.0}%)",
                row.bench,
                row.arm,
                change * 100.0,
                tolerance * 100.0
            ));
        }
    }
    if let Some((committed_skew, fresh_skew)) = skew_paths {
        check_skew("committed", &load_skew(&committed_skew), &mut regressions);
        check_skew("fresh", &load_skew(&fresh_skew), &mut regressions);
    }
    if let Some((committed_faults, fresh_faults)) = faults_paths {
        check_faults(
            "committed",
            &load_faults(&committed_faults),
            &mut regressions,
        );
        check_faults("fresh", &load_faults(&fresh_faults), &mut regressions);
    }
    if let Some((committed_chaos, fresh_chaos)) = chaos_paths {
        check_chaos("committed", &load_chaos(&committed_chaos), &mut regressions);
        check_chaos("fresh", &load_chaos(&fresh_chaos), &mut regressions);
    }
    if let Some((committed_bw, fresh_bw)) = bandwidth_paths {
        check_bandwidth(
            "committed",
            &load_bandwidth(&committed_bw),
            &mut regressions,
        );
        check_bandwidth("fresh", &load_bandwidth(&fresh_bw), &mut regressions);
    }
    println!(
        "perf_guard: {checked} arms checked, {} regressions",
        regressions.len()
    );
    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        for r in &regressions {
            eprintln!("perf regression: {r}");
        }
        ExitCode::FAILURE
    }
}

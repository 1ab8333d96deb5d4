//! **P4 — Fault injection and fault-tolerant probes: recall@10 and bytes per
//! query under message loss and crashed peers, across retry policies.**
//!
//! The paper's setting is an overlay where message loss and abrupt peer
//! failure are the normal case. This experiment quantifies what the fault
//! plane (`core::fault`) costs to survive and what surviving it buys: the
//! identical seeded Zipf workload runs against a replicated network while a
//! seeded [`FaultPlane`] drops a fraction of probe messages and keeps a set
//! of peers crashed, once per retry policy:
//!
//! * **no-retry** ([`RetryPolicy::none`]) — every injected fault becomes a
//!   failed probe and a degraded answer;
//! * **retry** ([`RetryPolicy::retry_only`]) — bounded re-sends absorb
//!   message loss but keep re-serving from the same (possibly dead) peer;
//! * **retry+failover** ([`RetryPolicy::default`]) — retries plus re-serving
//!   from another live replica holder, the full robustness stack.
//!
//! Each arm reports mean **recall@10 against the fault-free answer**, bytes
//! per query (retry traffic included — an exhausted probe still pays for its
//! attempts), and the robustness counters (`retries`, `failed_probes`,
//! `hedged`, mean completeness). The headline cell — 10% loss plus two
//! crashed peers — is the acceptance bar: retry+failover must recover recall
//! to ≥ 0.95 of the fault-free arm at bounded byte overhead while no-retry
//! measurably degrades. [`check`] states exactly that bar; the `exp_faults`
//! binary exits 1 when a run breaks it.
//!
//! Crash targets are chosen from the warmed replication state: the peers the
//! load-aware serve selection currently lands on for the hottest replicated
//! keys, always leaving each such key at least one live holder so failover
//! *can* succeed (an unreplicated key on a crashed peer stays unservable for
//! every arm — that residue is what keeps the failover arm below 1.0).
//!
//! Results go to `BENCH_faults.json` (`ALVIS_BENCH_OUT` overrides the path).

use alvisp2p_core::fault::{FaultPlane, RetryPolicy};
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::request::QueryRequest;
use alvisp2p_core::strategy::Hdk;
use alvisp2p_dht::{HotKeyReplication, ReplicationPolicy, RingId};
use alvisp2p_textindex::{DocId, SyntheticCorpus};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::table::{fmt_f, Robustness, Table};
use crate::workloads::{self, DEFAULT_SEED};

/// Parameters of the fault-tolerance experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultsParams {
    /// Peers in the overlay.
    pub peers: usize,
    /// Documents in the corpus.
    pub docs: usize,
    /// Query instances in the Zipf log (run once to warm, once to measure).
    pub queries: usize,
    /// Zipf exponent of query popularity.
    pub zipf_s: f64,
    /// Replication factor of the hot-key policy (the failover targets).
    pub factor: usize,
    /// Per-message loss probabilities swept (0.0 = crash-only scenarios).
    pub loss_rates: Vec<f64>,
    /// Crashed-peer counts swept (0 = loss-only scenarios).
    pub crash_counts: Vec<usize>,
    /// The loss rate of the acceptance-bar cell.
    pub headline_loss: f64,
    /// The crashed-peer count of the acceptance-bar cell.
    pub headline_crashes: usize,
    /// Master seed (drives corpus, log, network and fault decisions).
    pub seed: u64,
}

impl Default for FaultsParams {
    fn default() -> Self {
        FaultsParams {
            peers: 32,
            docs: 800,
            queries: 400,
            zipf_s: 1.1,
            factor: 3,
            loss_rates: vec![0.0, 0.05, 0.10, 0.20],
            crash_counts: vec![0, 2],
            headline_loss: 0.10,
            headline_crashes: 2,
            seed: DEFAULT_SEED,
        }
    }
}

impl FaultsParams {
    /// Fast smoke-test configuration (`ALVIS_QUICK=1` / `--quick`). Keeps the
    /// headline cell (10% loss + 2 crashes) so [`check`] enforces the same
    /// invariants on a quick run.
    pub fn quick() -> Self {
        FaultsParams {
            peers: 16,
            docs: 250,
            queries: 160,
            loss_rates: vec![0.0, 0.10],
            crash_counts: vec![2],
            ..Default::default()
        }
    }

    fn policy(&self) -> Arc<dyn ReplicationPolicy> {
        Arc::new(HotKeyReplication::new(self.factor))
    }
}

/// The three retry policies compared.
fn arms() -> Vec<(&'static str, RetryPolicy)> {
    vec![
        ("no-retry", RetryPolicy::none()),
        ("retry", RetryPolicy::retry_only(2)),
        ("retry+failover", RetryPolicy::default()),
    ]
}

/// One measured (arm × scenario) cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultsRow {
    /// Retry-policy label (`no-retry`, `retry`, `retry+failover`).
    pub arm: String,
    /// Injected per-message loss probability.
    pub loss: f64,
    /// Peers crashed for the whole measurement phase.
    pub crashes: usize,
    /// Mean recall@10 against the fault-free answers.
    pub recall_at_10: f64,
    /// Bytes per query, retry and hedge traffic included.
    pub bytes_per_query: f64,
    /// Aggregated robustness counters over the measurement queries.
    pub robustness: Robustness,
}

/// The `BENCH_faults.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultsReport {
    /// Experiment identifier.
    pub bench: String,
    /// Whether the quick configuration ran.
    pub quick: bool,
    /// Parameters used.
    pub params: FaultsParams,
    /// Bytes per query of the fault-free reference run.
    pub fault_free_bytes_per_query: f64,
    /// Measured cells, one per (scenario × arm).
    pub rows: Vec<FaultsRow>,
    /// recall@10 of the no-retry arm at the headline cell.
    pub headline_no_retry_recall: f64,
    /// recall@10 of the retry arm at the headline cell.
    pub headline_retry_recall: f64,
    /// recall@10 of the retry+failover arm at the headline cell.
    pub headline_failover_recall: f64,
    /// retry+failover bytes/query at the headline cell over the fault-free
    /// bytes/query (the cost of surviving).
    pub headline_byte_overhead: f64,
}

fn network(corpus: &SyntheticCorpus, policy: RetryPolicy, params: &FaultsParams) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(params.peers)
        .strategy(Hdk::new(workloads::default_hdk()))
        .replication(params.policy())
        .retry_policy(policy)
        .seed(params.seed)
        .corpus(corpus)
        .build_indexed()
        .expect("experiment network configuration is valid")
}

/// Runs the full log once against the warm network, heating the replication
/// tracker exactly the same way in every arm (the plane is still the default).
fn warm(net: &mut AlvisNetwork, queries: &[String], params: &FaultsParams) {
    for (i, text) in queries.iter().enumerate() {
        let request = QueryRequest::new(text.clone())
            .from_peer(i % params.peers)
            .top_k(10);
        net.execute(&request).expect("warm-up query succeeds");
    }
}

/// Picks `count` crash targets from the warmed replication state: the peer
/// the load-aware serve selection currently lands on for each of the hottest
/// replicated keys, subject to every picked key keeping at least one live
/// replica holder (so failover has somewhere to go). Deterministic — the
/// warmed state is identical across arms.
pub(crate) fn crash_targets(net: &AlvisNetwork, count: usize) -> Vec<usize> {
    if count == 0 {
        return Vec::new();
    }
    let dht = net.global_index().dht();
    let mut keys = dht.replication().replicated_key_list();
    keys.sort_by(|a, b| {
        dht.replication()
            .key_load(*b)
            .total_cmp(&dht.replication().key_load(*a))
            .then(a.cmp(b))
    });
    let mut targets: Vec<usize> = Vec::new();
    let mut picked_keys: Vec<RingId> = Vec::new();
    for key in keys {
        if targets.len() >= count {
            break;
        }
        let Some(selection) = dht.least_loaded_holder(key) else {
            continue;
        };
        if targets.contains(&selection) {
            continue;
        }
        let mut candidate = targets.clone();
        candidate.push(selection);
        // Every hot key whose serve selection we kill must keep a live
        // replica holder outside the crash set.
        let survivable = picked_keys.iter().chain(std::iter::once(&key)).all(|k| {
            dht.replica_holders(*k)
                .iter()
                .any(|h| !candidate.contains(h))
        });
        if survivable {
            targets = candidate;
            picked_keys.push(key);
        }
    }
    targets
}

/// Runs the measurement phase of one arm under the given faults and returns
/// its row plus the per-query ranked answers.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    arm: &str,
    policy: RetryPolicy,
    corpus: &SyntheticCorpus,
    queries: &[String],
    loss: f64,
    crashes: usize,
    reference: Option<&[Vec<DocId>]>,
    params: &FaultsParams,
) -> (FaultsRow, Vec<Vec<DocId>>) {
    let mut net = network(corpus, policy, params);
    warm(&mut net, queries, params);
    let targets = crash_targets(&net, crashes);
    let mut plane = FaultPlane::seeded(params.seed).with_loss(loss);
    for peer in &targets {
        plane.crash(*peer);
    }
    net.set_fault_plane(plane);
    // Queries never originate from a crashed peer — clients on dead machines
    // are not part of the workload.
    let origins: Vec<usize> = (0..params.peers).filter(|p| !targets.contains(p)).collect();

    let mut answers = Vec::with_capacity(queries.len());
    let mut robustness = Robustness::default();
    let mut bytes = 0u64;
    let mut recall_sum = 0.0f64;
    for (i, text) in queries.iter().enumerate() {
        let request = QueryRequest::new(text.clone())
            .from_peer(origins[i % origins.len()])
            .top_k(10);
        let response = net.execute(&request).expect("faulted query still succeeds");
        bytes += response.bytes;
        robustness.observe(&response);
        let got: Vec<DocId> = response.results.iter().map(|r| r.doc).collect();
        if let Some(reference) = reference {
            let want = &reference[i];
            recall_sum += if want.is_empty() {
                1.0
            } else {
                want.iter().filter(|d| got.contains(d)).count() as f64 / want.len() as f64
            };
        } else {
            recall_sum += 1.0;
        }
        answers.push(got);
    }
    let n = queries.len() as f64;
    let row = FaultsRow {
        arm: arm.to_string(),
        loss,
        crashes,
        recall_at_10: recall_sum / n,
        bytes_per_query: bytes as f64 / n,
        robustness,
    };
    (row, answers)
}

/// Runs the fault-free reference and the full (loss × crashes × arm) grid.
pub fn run(params: &FaultsParams) -> FaultsReport {
    let corpus = workloads::corpus(params.docs, params.seed);
    let log = workloads::zipf_query_log(&corpus, params.queries, params.zipf_s, params.seed);
    let queries: Vec<String> = log.queries.iter().map(|q| q.text.clone()).collect();

    // The fault-free reference: same network, same warmup, no faults. Its
    // answers are the ground truth recall is measured against.
    let (reference_row, reference_answers) = run_cell(
        "fault-free",
        RetryPolicy::default(),
        &corpus,
        &queries,
        0.0,
        0,
        None,
        params,
    );

    let mut rows = Vec::new();
    for &loss in &params.loss_rates {
        for &crashes in &params.crash_counts {
            if loss == 0.0 && crashes == 0 {
                continue; // that cell *is* the reference
            }
            for (arm, policy) in arms() {
                let (row, _) = run_cell(
                    arm,
                    policy,
                    &corpus,
                    &queries,
                    loss,
                    crashes,
                    Some(&reference_answers),
                    params,
                );
                rows.push(row);
            }
        }
    }

    let headline = |arm: &str| {
        rows.iter()
            .find(|r| {
                r.arm == arm
                    && r.loss == params.headline_loss
                    && r.crashes == params.headline_crashes
            })
            .cloned()
    };
    let no_retry = headline("no-retry");
    let retry = headline("retry");
    let failover = headline("retry+failover");
    let headline_byte_overhead = failover
        .as_ref()
        .map(|r| r.bytes_per_query / reference_row.bytes_per_query.max(1e-9))
        .unwrap_or(0.0);
    FaultsReport {
        bench: "faults".to_string(),
        quick: false,
        params: params.clone(),
        fault_free_bytes_per_query: reference_row.bytes_per_query,
        rows,
        headline_no_retry_recall: no_retry.map(|r| r.recall_at_10).unwrap_or(0.0),
        headline_retry_recall: retry.map(|r| r.recall_at_10).unwrap_or(0.0),
        headline_failover_recall: failover.map(|r| r.recall_at_10).unwrap_or(0.0),
        headline_byte_overhead,
    }
}

/// The retry+failover arm must keep at least this recall@10 against the
/// fault-free answers at the headline fault cell.
const RECALL_FLOOR: f64 = 0.95;

/// The no-retry arm must trail retry+failover by at least this much recall at
/// the headline cell ("measurably degrades").
const DEGRADATION_GAP: f64 = 0.02;

/// The retry+failover arm's headline bytes/query over the fault-free run's.
const BYTE_OVERHEAD_CEILING: f64 = 1.5;

/// The fault-tolerance acceptance bar, one message per broken invariant: at
/// the headline cell the retry+failover arm keeps recall@10 at or above
/// `RECALL_FLOOR` at no more than `BYTE_OVERHEAD_CEILING` times the
/// fault-free bytes/query, the no-retry arm trails it by at least
/// `DEGRADATION_GAP`, and the injected faults demonstrably fired (no-retry
/// probes failed, failover retried). Scale-independent — the quick
/// configuration keeps the headline cell — so it holds for `--quick` and
/// full runs alike.
pub fn check(report: &FaultsReport) -> Vec<String> {
    let mut failures = Vec::new();
    let headline = |arm: &str| {
        report.rows.iter().find(|r| {
            r.arm == arm
                && r.loss == report.params.headline_loss
                && r.crashes == report.params.headline_crashes
        })
    };
    let Some((no_retry, failover)) = headline("no-retry").zip(headline("retry+failover")) else {
        failures.push("faults: missing a headline arm".to_string());
        return failures;
    };
    if report.headline_failover_recall < RECALL_FLOOR {
        failures.push(format!(
            "faults: retry+failover recall {:.3} below the {RECALL_FLOOR} floor",
            report.headline_failover_recall
        ));
    }
    if report.headline_no_retry_recall > report.headline_failover_recall - DEGRADATION_GAP {
        failures.push(format!(
            "faults: no-retry recall {:.3} not measurably below failover {:.3}",
            report.headline_no_retry_recall, report.headline_failover_recall
        ));
    }
    if report.headline_byte_overhead > BYTE_OVERHEAD_CEILING {
        failures.push(format!(
            "faults: byte overhead {:.2}x exceeds the {BYTE_OVERHEAD_CEILING}x ceiling",
            report.headline_byte_overhead
        ));
    }
    if no_retry.robustness.failed_probes == 0 {
        failures.push(
            "faults: no probe ever failed under no-retry — the injected faults never fired \
             and every recall bar is vacuous"
                .to_string(),
        );
    }
    if failover.robustness.retries == 0 {
        failures.push(
            "faults: the retry+failover arm never retried — the injected faults never fired \
             and every recall bar is vacuous"
                .to_string(),
        );
    }
    failures
}

/// Prints the result table.
pub fn print(report: &FaultsReport) {
    let mut table = Table::new(
        "P4: recall@10 and bytes/query under message loss + crashed peers, by retry policy",
        &[
            "loss",
            "crashes",
            "arm",
            "recall@10",
            "bytes/q",
            "x ref",
            "retries",
            "failed",
            "hedged",
            "compl",
        ],
    );
    for r in &report.rows {
        table.row(&[
            fmt_f(r.loss, 2),
            r.crashes.to_string(),
            r.arm.clone(),
            fmt_f(r.recall_at_10, 3),
            fmt_f(r.bytes_per_query, 0),
            fmt_f(
                r.bytes_per_query / report.fault_free_bytes_per_query.max(1e-9),
                2,
            ),
            r.robustness.retries.to_string(),
            r.robustness.failed_probes.to_string(),
            r.robustness.hedged.to_string(),
            fmt_f(r.robustness.mean_completeness(), 3),
        ]);
    }
    table.print();
    println!(
        "headline ({}% loss + {} crashed peers): recall@10 no-retry {:.3}, retry {:.3}, \
         retry+failover {:.3} at {:.2}x fault-free bytes/query",
        report.params.headline_loss * 100.0,
        report.params.headline_crashes,
        report.headline_no_retry_recall,
        report.headline_retry_recall,
        report.headline_failover_recall,
        report.headline_byte_overhead,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FaultsParams {
        FaultsParams {
            peers: 12,
            docs: 150,
            queries: 100,
            loss_rates: vec![0.10],
            crash_counts: vec![2],
            ..FaultsParams::default()
        }
    }

    #[test]
    fn faults_smoke_failover_beats_no_retry() {
        let report = run(&tiny());
        assert_eq!(report.rows.len(), 3, "one scenario x three arms");
        let no_retry = &report.rows[0];
        let failover = &report.rows[2];
        assert_eq!(no_retry.arm, "no-retry");
        assert_eq!(failover.arm, "retry+failover");
        assert!(
            no_retry.robustness.failed_probes > 0,
            "10% loss with no retries must fail probes"
        );
        assert_eq!(no_retry.robustness.retries, 0);
        assert!(failover.robustness.retries > 0, "faults were never retried");
        assert!(
            failover.recall_at_10 > no_retry.recall_at_10,
            "the full stack ({:.3}) must beat giving up ({:.3})",
            failover.recall_at_10,
            no_retry.recall_at_10
        );
        assert!(
            report.headline_byte_overhead >= 1.0 && report.headline_byte_overhead < 2.0,
            "retries cost bytes, but boundedly ({:.2}x)",
            report.headline_byte_overhead
        );
    }

    #[test]
    #[ignore = "full-scale experiment (minutes in debug); run with `cargo test -- --ignored` (nightly CI job)"]
    fn failover_recovers_recall_at_full_scale() {
        assert_eq!(check(&run(&FaultsParams::default())), Vec::<String>::new());
    }
}

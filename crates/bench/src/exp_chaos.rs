//! **P5 — Control-plane chaos: versioned publications, anti-entropy repair
//! and frame integrity under combined faults.**
//!
//! P4 (`exp_faults`) established that the *data plane* — probes — survives
//! message loss and crashed peers via retries and replica failover. This
//! experiment injects faults into the **control plane** as well and measures
//! whether the recovery machinery of this PR actually converges the system
//! back, or whether the degradation is permanent:
//!
//! * **publish loss** — a fraction of index publications vanish in flight
//!   during construction; the publisher queues them as un-acked and re-sends
//!   on a bounded-backoff schedule ([`AlvisNetwork::republish_round`]);
//! * **replica-sync loss** — a fraction of replica synchronisation messages
//!   vanish, leaving stale copies on holders;
//! * **bit rot** — a handful of replica copies are corrupted in place
//!   (detected by anti-entropy checksum digests, never served silently);
//! * **probe loss + frame corruption + crashes** — the P4 data-plane faults,
//!   plus a per-response bit-flip rate the codec's checksum trailer turns
//!   into typed [`ProbeOutcome::Corrupt`](alvisp2p_core::fault::ProbeOutcome)
//!   retries.
//!
//! Two arms run under the *identical* seeded fault plane:
//!
//! * **repair** — re-publication rounds drain the un-acked queue and
//!   anti-entropy repair rounds ([`AlvisNetwork::repair_round`]) run
//!   interleaved with the query stream;
//! * **no-repair** — the same faults with the recovery machinery disabled:
//!   lost publications stay lost, stale/corrupt copies stay divergent.
//!
//! Reported per arm: mean recall@10 against the fault-free answers, bytes
//! per query, the robustness counters (now including corrupt frames), the
//! final replica-consistency fraction and the number of publications still
//! un-acked. The acceptance bar: the repair arm restores replica consistency
//! to 1.0 and recall@10 to ≥ 0.95 of fault-free, while the no-repair arm
//! shows a non-vacuous gap on both. [`check`] states exactly that bar; the
//! `exp_chaos` binary exits 1 when a run breaks it.
//!
//! Results go to `BENCH_chaos.json` (`ALVIS_BENCH_OUT` overrides the path).

use alvisp2p_core::fault::{FaultPlane, RetryPolicy};
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::request::QueryRequest;
use alvisp2p_core::strategy::Hdk;
use alvisp2p_dht::{HotKeyReplication, ReplicationPolicy};
use alvisp2p_textindex::{DocId, SyntheticCorpus};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::exp_faults::crash_targets;
use crate::table::{fmt_f, Robustness, Table};
use crate::workloads::{self, DEFAULT_SEED};

/// Parameters of the control-plane chaos experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosParams {
    /// Peers in the overlay.
    pub peers: usize,
    /// Documents in the corpus.
    pub docs: usize,
    /// Query instances in the Zipf log (run once to warm, once to measure).
    pub queries: usize,
    /// Zipf exponent of query popularity.
    pub zipf_s: f64,
    /// Replication factor of the hot-key policy.
    pub factor: usize,
    /// Per-message probe loss probability.
    pub probe_loss: f64,
    /// Per-publication loss probability (index construction + re-sends).
    pub publish_loss: f64,
    /// Per-response frame bit-flip probability.
    pub corrupt_rate: f64,
    /// Per-message replica-sync loss probability.
    pub sync_loss: f64,
    /// Peers crashed for the whole measurement phase.
    pub crashes: usize,
    /// Replica copies corrupted in place after the warm-up (bit rot).
    pub rotted_copies: usize,
    /// Repair arm: a re-publication + repair round runs every this many
    /// measurement queries.
    pub repair_every: usize,
    /// Master seed (drives corpus, log, network and fault decisions).
    pub seed: u64,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            peers: 32,
            docs: 800,
            queries: 400,
            zipf_s: 1.1,
            factor: 3,
            probe_loss: 0.10,
            publish_loss: 0.20,
            corrupt_rate: 0.01,
            sync_loss: 0.20,
            crashes: 2,
            rotted_copies: 4,
            repair_every: 20,
            seed: DEFAULT_SEED,
        }
    }
}

impl ChaosParams {
    /// Fast smoke-test configuration (`ALVIS_QUICK=1` / `--quick`). Keeps the
    /// full fault mix so [`check`] enforces the same invariants on a quick
    /// run.
    pub fn quick() -> Self {
        ChaosParams {
            peers: 16,
            docs: 250,
            queries: 160,
            rotted_copies: 3,
            ..Default::default()
        }
    }

    fn policy(&self) -> Arc<dyn ReplicationPolicy> {
        Arc::new(HotKeyReplication::new(self.factor))
    }

    /// The combined fault plane (without the crash set, which is picked from
    /// the warmed replication state).
    fn plane(&self) -> FaultPlane {
        FaultPlane::seeded(self.seed)
            .with_loss(self.probe_loss)
            .with_corruption(self.corrupt_rate)
            .with_publish_loss(self.publish_loss)
            .with_sync_loss(self.sync_loss)
    }
}

/// One measured arm.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosRow {
    /// Arm label (`fault-free`, `repair`, `no-repair`).
    pub arm: String,
    /// Mean recall@10 against the fault-free answers.
    pub recall_at_10: f64,
    /// Bytes per query, retry and hedge traffic included.
    pub bytes_per_query: f64,
    /// Fraction of replica copies on live holders consistent with their
    /// primary at the end of the measurement phase.
    pub replica_consistency: f64,
    /// Publications still un-acked at the end of the measurement phase.
    pub pending_publishes: usize,
    /// Overlay bytes spent during the measurement phase (re-publication,
    /// digest exchanges and repair pulls land here).
    pub overlay_bytes: u64,
    /// Aggregated robustness counters over the measurement queries.
    pub robustness: Robustness,
}

/// The `BENCH_chaos.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Experiment identifier.
    pub bench: String,
    /// Whether the quick configuration ran.
    pub quick: bool,
    /// Parameters used.
    pub params: ChaosParams,
    /// Bytes per query of the fault-free reference run.
    pub fault_free_bytes_per_query: f64,
    /// Measured arms (`repair` first, then `no-repair`).
    pub rows: Vec<ChaosRow>,
    /// recall@10 of the repair arm.
    pub repair_recall: f64,
    /// recall@10 of the no-repair arm.
    pub no_repair_recall: f64,
    /// Final replica consistency of the repair arm.
    pub repair_consistency: f64,
    /// Final replica consistency of the no-repair arm.
    pub no_repair_consistency: f64,
    /// Un-acked publications left by the repair arm (should be 0).
    pub repair_pending: usize,
    /// Un-acked publications left by the no-repair arm (the lost ones).
    pub no_repair_pending: usize,
    /// Repair-arm bytes/query over fault-free bytes/query.
    pub repair_byte_overhead: f64,
}

fn network(corpus: &SyntheticCorpus, params: &ChaosParams) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(params.peers)
        .strategy(Hdk::new(workloads::default_hdk()))
        .replication(params.policy())
        .retry_policy(RetryPolicy::default())
        .seed(params.seed)
        .corpus(corpus)
        .build()
        .expect("experiment network configuration is valid")
}

/// Runs the full log once to heat the replication tracker (identically in
/// both chaos arms — the plane is identical and seeded).
fn warm(net: &mut AlvisNetwork, queries: &[String], params: &ChaosParams) {
    for (i, text) in queries.iter().enumerate() {
        let request = QueryRequest::new(text.clone())
            .from_peer(i % params.peers)
            .top_k(10);
        net.execute(&request).expect("warm-up query succeeds");
    }
}

/// Corrupts up to `count` replica copies in place (bit rot), one holder copy
/// per hottest replicated key, skipping crashed holders. Deterministic — the
/// warmed replication state is identical across arms.
fn rot_copies(net: &mut AlvisNetwork, count: usize, crashed: &[usize]) -> usize {
    let mut victims = Vec::new();
    {
        let dht = net.global_index().dht();
        let mut keys = dht.replication().replicated_key_list();
        keys.sort_by(|a, b| {
            dht.replication()
                .key_load(*b)
                .total_cmp(&dht.replication().key_load(*a))
                .then(a.cmp(b))
        });
        for key in keys {
            if victims.len() >= count {
                break;
            }
            if let Some(holder) = dht
                .replica_holders(key)
                .into_iter()
                .find(|h| !crashed.contains(h))
            {
                victims.push((key, holder));
            }
        }
    }
    let dht = net.global_index_mut().dht_mut();
    victims
        .into_iter()
        .filter(|(key, holder)| dht.corrupt_replica_copy(*key, *holder))
        .count()
}

/// Runs one arm: build under the plane, warm, crash, rot, then measure with
/// (or without) the recovery machinery.
fn run_arm(
    arm: &str,
    corpus: &SyntheticCorpus,
    queries: &[String],
    reference: Option<&[Vec<DocId>]>,
    repair: bool,
    params: &ChaosParams,
) -> (ChaosRow, Vec<Vec<DocId>>) {
    let mut net = network(corpus, params);
    let chaos = reference.is_some();
    if chaos {
        net.set_fault_plane(params.plane());
    }
    net.build_index();
    net.set_repair_enabled(repair);
    if repair {
        // The construction phase finished; the publisher's bounded-backoff
        // re-publication schedule gets to run before the query stream starts
        // (in the no-repair arm the lost publications simply stay lost).
        let mut rounds = 0;
        while net.pending_publishes() > 0 && rounds < 64 {
            net.republish_round();
            rounds += 1;
        }
    }
    warm(&mut net, queries, params);
    let targets = if chaos {
        crash_targets(&net, params.crashes)
    } else {
        Vec::new()
    };
    for peer in &targets {
        net.fault_plane_mut().crash(*peer);
    }
    if chaos {
        rot_copies(&mut net, params.rotted_copies, &targets);
    }
    let origins: Vec<usize> = (0..params.peers).filter(|p| !targets.contains(p)).collect();

    let overlay_before = net
        .traffic_snapshot()
        .category(alvisp2p_netsim::TrafficCategory::Overlay)
        .bytes;
    let mut answers = Vec::with_capacity(queries.len());
    let mut robustness = Robustness::default();
    let mut bytes = 0u64;
    let mut recall_sum = 0.0f64;
    for (i, text) in queries.iter().enumerate() {
        if repair && i % params.repair_every == 0 {
            net.republish_round();
            net.repair_round();
        }
        let request = QueryRequest::new(text.clone())
            .from_peer(origins[i % origins.len()])
            .top_k(10);
        let response = net.execute(&request).expect("chaos query still succeeds");
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
    if repair {
        // Final drain: the backoff schedule may still hold a handful of
        // publications whose next due round lies past the query stream.
        let mut rounds = 0;
        while net.pending_publishes() > 0 && rounds < 64 {
            net.republish_round();
            rounds += 1;
        }
        net.repair_round();
    }
    let overlay_after = net
        .traffic_snapshot()
        .category(alvisp2p_netsim::TrafficCategory::Overlay)
        .bytes;
    let n = queries.len() as f64;
    let row = ChaosRow {
        arm: arm.to_string(),
        recall_at_10: recall_sum / n,
        bytes_per_query: bytes as f64 / n,
        replica_consistency: net.replica_consistency(),
        pending_publishes: net.pending_publishes(),
        overlay_bytes: overlay_after - overlay_before,
        robustness,
    };
    (row, answers)
}

/// Runs the fault-free reference and the two chaos arms.
pub fn run(params: &ChaosParams) -> ChaosReport {
    let corpus = workloads::corpus(params.docs, params.seed);
    let log = workloads::zipf_query_log(&corpus, params.queries, params.zipf_s, params.seed);
    let queries: Vec<String> = log.queries.iter().map(|q| q.text.clone()).collect();

    let (reference_row, reference_answers) =
        run_arm("fault-free", &corpus, &queries, None, false, params);
    let (repair_row, _) = run_arm(
        "repair",
        &corpus,
        &queries,
        Some(&reference_answers),
        true,
        params,
    );
    let (no_repair_row, _) = run_arm(
        "no-repair",
        &corpus,
        &queries,
        Some(&reference_answers),
        false,
        params,
    );

    let repair_byte_overhead = repair_row.bytes_per_query / reference_row.bytes_per_query.max(1e-9);
    ChaosReport {
        bench: "chaos".to_string(),
        quick: false,
        params: params.clone(),
        fault_free_bytes_per_query: reference_row.bytes_per_query,
        repair_recall: repair_row.recall_at_10,
        no_repair_recall: no_repair_row.recall_at_10,
        repair_consistency: repair_row.replica_consistency,
        no_repair_consistency: no_repair_row.replica_consistency,
        repair_pending: repair_row.pending_publishes,
        no_repair_pending: no_repair_row.pending_publishes,
        repair_byte_overhead,
        rows: vec![repair_row, no_repair_row],
    }
}

/// The repair arm must keep at least this recall@10 against the fault-free
/// answers under the combined control-plane fault mix.
const RECALL_FLOOR: f64 = 0.95;

/// The no-repair arm must trail the repair arm by at least this much recall
/// ("the degradation the repair machinery prevents is non-vacuous").
const DEGRADATION_GAP: f64 = 0.02;

/// The repair arm's bytes/query over the fault-free run's (repair traffic is
/// Overlay, but retries on lost/corrupt probes inflate Retrieval too).
const BYTE_OVERHEAD_CEILING: f64 = 2.0;

/// The repair arm must leave at least this fraction of replica copies
/// consistent with their primary.
const CONSISTENCY_FLOOR: f64 = 0.999;

/// The control-plane recovery bar, one message per broken invariant: the
/// repair arm drains every un-acked publication, restores replica
/// consistency (`CONSISTENCY_FLOOR`) and keeps recall@10 at or above
/// `RECALL_FLOOR` at no more than `BYTE_OVERHEAD_CEILING` times the
/// fault-free bytes/query, while the no-repair arm under the identical plane
/// stays divergent (pending publications, consistency below 1.0, a recall
/// gap of at least `DEGRADATION_GAP`) and frame corruption demonstrably fired
/// (corrupt frames counted). Scale-independent — the quick configuration
/// keeps the full fault mix — so it holds for `--quick` and full runs alike.
pub fn check(report: &ChaosReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.repair_recall < RECALL_FLOOR {
        failures.push(format!(
            "chaos: repair recall {:.3} below the {RECALL_FLOOR} floor",
            report.repair_recall
        ));
    }
    if report.no_repair_recall > report.repair_recall - DEGRADATION_GAP {
        failures.push(format!(
            "chaos: no-repair recall {:.3} not measurably below repair {:.3}",
            report.no_repair_recall, report.repair_recall
        ));
    }
    if report.repair_consistency < CONSISTENCY_FLOOR {
        failures.push(format!(
            "chaos: repair left replica consistency at {:.3}",
            report.repair_consistency
        ));
    }
    if report.no_repair_consistency >= 1.0 {
        failures.push(
            "chaos: the no-repair arm stayed fully consistent — the injected divergence \
             never fired and the consistency bar is vacuous"
                .to_string(),
        );
    }
    if report.repair_pending != 0 {
        failures.push(format!(
            "chaos: {} publications still un-acked after repair",
            report.repair_pending
        ));
    }
    if report.no_repair_pending == 0 {
        failures.push(
            "chaos: the no-repair arm has no pending publications — the injected publish \
             loss never fired and the recall bar is vacuous"
                .to_string(),
        );
    }
    if report.repair_byte_overhead > BYTE_OVERHEAD_CEILING {
        failures.push(format!(
            "chaos: byte overhead {:.2}x exceeds the {BYTE_OVERHEAD_CEILING}x ceiling",
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
        failures.push(
            "chaos: no corrupt frame was ever counted — the injected bit flips never fired"
                .to_string(),
        );
    }
    failures
}

/// Prints the result table.
pub fn print(report: &ChaosReport) {
    let mut table = Table::new(
        "P5: recall@10, replica consistency and un-acked publications under combined \
         control-plane faults",
        &[
            "arm",
            "recall@10",
            "bytes/q",
            "x ref",
            "consist",
            "pending",
            "overlay B",
            "retries",
            "failed",
            "hedged",
            "corrupt",
            "compl",
        ],
    );
    for r in &report.rows {
        table.row(&[
            r.arm.clone(),
            fmt_f(r.recall_at_10, 3),
            fmt_f(r.bytes_per_query, 0),
            fmt_f(
                r.bytes_per_query / report.fault_free_bytes_per_query.max(1e-9),
                2,
            ),
            fmt_f(r.replica_consistency, 3),
            r.pending_publishes.to_string(),
            r.overlay_bytes.to_string(),
            r.robustness.retries.to_string(),
            r.robustness.failed_probes.to_string(),
            r.robustness.hedged.to_string(),
            r.robustness.corrupt_probes.to_string(),
            fmt_f(r.robustness.mean_completeness(), 3),
        ]);
    }
    table.print();
    println!(
        "headline ({}% probe loss, {}% publish loss, {}% corruption, {}% sync loss, {} crashes): \
         repair recall {:.3} / consistency {:.3} / {} pending vs no-repair recall {:.3} / \
         consistency {:.3} / {} pending, repair at {:.2}x fault-free bytes/query",
        report.params.probe_loss * 100.0,
        report.params.publish_loss * 100.0,
        report.params.corrupt_rate * 100.0,
        report.params.sync_loss * 100.0,
        report.params.crashes,
        report.repair_recall,
        report.repair_consistency,
        report.repair_pending,
        report.no_repair_recall,
        report.no_repair_consistency,
        report.no_repair_pending,
        report.repair_byte_overhead,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosParams {
        ChaosParams {
            peers: 12,
            docs: 150,
            queries: 100,
            rotted_copies: 2,
            ..ChaosParams::default()
        }
    }

    #[test]
    fn chaos_smoke_repair_converges_and_no_repair_stays_divergent() {
        let report = run(&tiny());
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].arm, "repair");
        assert_eq!(report.rows[1].arm, "no-repair");
        assert_eq!(report.repair_pending, 0, "re-publication must drain");
        assert!(
            report.no_repair_pending > 0,
            "20% publish loss must leave un-acked publications without repair"
        );
        assert!(
            report.repair_consistency >= 0.999,
            "repair must restore replica consistency, got {:.3}",
            report.repair_consistency
        );
        assert!(
            report.no_repair_consistency < 1.0,
            "rotted copies must keep the no-repair arm divergent"
        );
        assert!(
            report.repair_recall > report.no_repair_recall,
            "repair ({:.3}) must beat no-repair ({:.3})",
            report.repair_recall,
            report.no_repair_recall
        );
        let corrupt_frames: u64 = report
            .rows
            .iter()
            .map(|r| r.robustness.corrupt_probes)
            .sum();
        assert!(
            corrupt_frames > 0,
            "a 1% bit-flip rate must surface corrupt frames"
        );
    }

    #[test]
    #[ignore = "full-scale experiment (minutes in debug); run with `cargo test -- --ignored` (nightly CI job)"]
    fn repair_recovers_recall_and_consistency_at_full_scale() {
        assert_eq!(check(&run(&ChaosParams::default())), Vec::<String>::new());
    }
}

//! **P2 — Skew-aware hot-key replication under Zipf traffic: per-peer load,
//! tail latency and bytes per query, with and without replication.**
//!
//! A Zipf-distributed query log concentrates probes on the few keys of the
//! most popular queries; without replication the peers responsible for those
//! keys serve a disproportionate share of all probes. This experiment runs the
//! identical seeded workload twice — once with [`NoReplication`], once with
//! [`HotKeyReplication`] — and measures what the replication subsystem
//! (`alvisp2p_dht::replica`) buys and what it costs:
//!
//! * **per-peer probe-serve load** (mean / p99 / max of served requests per
//!   peer) — the headline claim is the p99 reduction;
//! * **tail latency** under a simple queueing model: a probe's latency is its
//!   overlay hop count plus half the serving peer's current queue depth
//!   (queues drain geometrically between queries);
//! * **retrieval bytes per query** (must be identical across arms — replication
//!   never changes what a probe answers) and **overlay maintenance bytes per
//!   query** (what placing, syncing and withdrawing replica copies costs);
//! * **top-k equality**: every query's ranked answer must be byte-identical
//!   across arms;
//! * a **churn arm**: fail the primary of the hottest replicated key and
//!   verify the key is recovered from its replicas, then join fresh peers and
//!   verify the replica placement re-converges onto the new ring successors.
//!
//! Results go to `BENCH_skew.json` (`ALVIS_BENCH_OUT` overrides the path).

use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::request::QueryRequest;
use alvisp2p_core::strategy::Hdk;
use alvisp2p_dht::{HotKeyReplication, NoReplication, ReplicationPolicy, RingId};
use alvisp2p_netsim::TrafficCategory;
use alvisp2p_textindex::{DocId, SyntheticCorpus};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::table::{fmt_f, Robustness, Table};
use crate::workloads::{self, DEFAULT_SEED};

/// Parameters of the skew experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SkewParams {
    /// Peers in the overlay.
    pub peers: usize,
    /// Documents in the corpus.
    pub docs: usize,
    /// Query instances in the Zipf log.
    pub queries: usize,
    /// Zipf exponent of query popularity (higher = more concentrated).
    pub zipf_s: f64,
    /// Replication factor of the hot-key arm.
    pub factor: usize,
    /// EWMA load above which a key replicates.
    pub hot_threshold: f64,
    /// EWMA load below which a replicated key withdraws.
    pub cool_threshold: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SkewParams {
    fn default() -> Self {
        SkewParams {
            peers: 48,
            docs: 1_500,
            queries: 3_000,
            zipf_s: 1.1,
            factor: 3,
            hot_threshold: 1.5,
            cool_threshold: 0.25,
            seed: DEFAULT_SEED,
        }
    }
}

impl SkewParams {
    /// Fast smoke-test configuration (`ALVIS_QUICK=1` / `--quick`).
    pub fn quick() -> Self {
        SkewParams {
            peers: 16,
            docs: 300,
            queries: 600,
            ..Default::default()
        }
    }

    fn policy(&self) -> Arc<dyn ReplicationPolicy> {
        Arc::new(HotKeyReplication {
            factor: self.factor,
            hot_threshold: self.hot_threshold,
            cool_threshold: self.cool_threshold,
            ..HotKeyReplication::new(self.factor)
        })
    }
}

/// One measured arm of the skew experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SkewRow {
    /// Replication policy label (`none`, `hot-key(f=3)`).
    pub arm: String,
    /// Mean probe-serve load per live peer.
    pub mean_load: f64,
    /// 99th-percentile probe-serve load per live peer.
    pub p99_load: f64,
    /// Maximum probe-serve load of any peer.
    pub max_load: u64,
    /// Mean per-query latency under the queueing model.
    pub mean_latency: f64,
    /// 99th-percentile per-query latency under the queueing model.
    pub p99_latency: f64,
    /// Retrieval bytes per query (identical across arms by construction).
    pub bytes_per_query: f64,
    /// Overlay-maintenance bytes per query (replica placement/sync/withdraw).
    pub overlay_bytes_per_query: f64,
    /// Keys that crossed the replication threshold.
    pub replications: u64,
    /// Probes served by a replica instead of the primary.
    pub replica_serves: u64,
    /// Whether every query's top-k equals the `none` arm's answer.
    pub identical_topk: bool,
    /// Aggregated robustness counters (all zeros under the default fault plane; defaulted
    /// when reading reports written before the field existed).
    #[serde(default)]
    pub robustness: Robustness,
}

/// The churn arm: fail the hottest key's primary, then re-grow the ring.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChurnOutcome {
    /// Keys the overlay reported lost when the primary failed (replicated keys
    /// recovered from their holders are not counted).
    pub lost_on_failure: usize,
    /// Replicated keys recovered from replica holders during the failure.
    pub recovered_keys: u64,
    /// The hottest key survived its primary's failure and still answers.
    pub hot_key_survived: bool,
    /// After two fresh joins, every replicated key's holders are exactly its
    /// current ring-successor targets again.
    pub reconverged: bool,
}

/// The `BENCH_skew.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SkewReport {
    /// Experiment identifier.
    pub bench: String,
    /// Whether the quick configuration ran.
    pub quick: bool,
    /// Parameters used.
    pub params: SkewParams,
    /// Measured arms.
    pub rows: Vec<SkewRow>,
    /// p99 per-peer load of the `none` arm over the hot-key arm (the headline
    /// reduction factor).
    pub p99_reduction: f64,
    /// The churn arm's outcome (runs on the hot-key network).
    pub churn: ChurnOutcome,
}

fn network(
    corpus: &SyntheticCorpus,
    policy: Arc<dyn ReplicationPolicy>,
    params: &SkewParams,
) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(params.peers)
        .strategy(Hdk::new(workloads::default_hdk()))
        .replication(policy)
        .seed(params.seed)
        .corpus(corpus)
        .build_indexed()
        .expect("experiment network configuration is valid")
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).ceil() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the query phase of one arm and returns its row plus the per-query
/// top-k answers (for cross-arm equality) and the network (for the churn arm).
fn run_arm(
    arm: &str,
    policy: Arc<dyn ReplicationPolicy>,
    corpus: &SyntheticCorpus,
    queries: &[String],
    params: &SkewParams,
) -> (SkewRow, Vec<Vec<(DocId, u64)>>, AlvisNetwork) {
    let mut net = network(corpus, policy, params);
    let slots = net.global_index().dht().peer_slots();
    let served_before: Vec<u64> = (0..slots)
        .map(|i| net.global_index().dht().peer(i).served_requests)
        .collect();
    let stats_before = net.global_index().stats_snapshot();

    // Queueing model: each probe waits behind half the serving peer's current
    // queue; queues drain geometrically between queries.
    let mut queue = vec![0.0f64; slots];
    let mut latencies = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    let mut robustness = Robustness::default();
    for (i, text) in queries.iter().enumerate() {
        let request = QueryRequest::new(text.clone())
            .from_peer(i % params.peers)
            .top_k(10);
        let plan = net.plan(&request).expect("plan succeeds");
        let mut stream = net.stream(plan, request).expect("stream starts");
        let mut latency = 0.0f64;
        while let Some(event) = stream.next_event() {
            let event = event.expect("probe succeeds");
            latency += event.hops as f64 + 0.5 * queue[event.served_by];
            queue[event.served_by] += 1.0;
        }
        let response = stream.finish().expect("query succeeds");
        robustness.observe(&response);
        latencies.push(latency);
        answers.push(
            response
                .results
                .iter()
                .map(|r| (r.doc, r.score.to_bits()))
                .collect(),
        );
        for q in &mut queue {
            *q *= 0.98;
        }
    }

    let spent = net.global_index().stats_snapshot().since(&stats_before);
    let mut loads: Vec<f64> = net
        .global_index()
        .dht()
        .live_peer_indices()
        .into_iter()
        .map(|i| (net.global_index().dht().peer(i).served_requests - served_before[i]) as f64)
        .collect();
    loads.sort_by(f64::total_cmp);
    latencies.sort_by(f64::total_cmp);
    let n = queries.len() as f64;
    let stats = net.global_index().dht().replication().stats();
    let row = SkewRow {
        arm: arm.to_string(),
        mean_load: loads.iter().sum::<f64>() / loads.len() as f64,
        p99_load: percentile(&loads, 0.99),
        max_load: *loads.last().unwrap() as u64,
        mean_latency: latencies.iter().sum::<f64>() / n,
        p99_latency: percentile(&latencies, 0.99),
        bytes_per_query: spent.category(TrafficCategory::Retrieval).bytes as f64 / n,
        overlay_bytes_per_query: spent.category(TrafficCategory::Overlay).bytes as f64 / n,
        replications: stats.replications,
        replica_serves: stats.replica_serves,
        identical_topk: true, // filled in by the caller for the non-baseline arm
        robustness,
    };
    (row, answers, net)
}

/// Fails the hottest replicated key's primary, verifies recovery from the
/// replicas, then joins fresh peers and verifies the placement re-converges.
fn run_churn(net: &mut AlvisNetwork, params: &SkewParams) -> ChurnOutcome {
    let dht = net.global_index_mut().dht_mut();
    let hottest = dht
        .replication()
        .replicated_key_list()
        .into_iter()
        .max_by(|a, b| {
            dht.replication()
                .key_load(*a)
                .total_cmp(&dht.replication().key_load(*b))
        });
    let Some(hot_key) = hottest else {
        return ChurnOutcome {
            lost_on_failure: 0,
            recovered_keys: 0,
            hot_key_survived: false,
            reconverged: false,
        };
    };
    let recovered_before = dht.replication().stats().recovered;
    let primary = dht.responsible_for(hot_key).expect("live overlay");
    let lost = dht.fail(primary).expect("failing one peer is survivable");
    let recovered_keys = dht.replication().stats().recovered - recovered_before;
    // The hot key must have moved to the new responsible peer and still answer.
    let new_primary = dht.responsible_for(hot_key).expect("live overlay");
    let origin = dht
        .live_peer_indices()
        .into_iter()
        .find(|&i| i != new_primary)
        .unwrap_or(new_primary);
    let (_, value) = dht
        .get(origin, hot_key, TrafficCategory::Retrieval)
        .expect("routed get succeeds");
    let hot_key_survived = value.is_some();
    // Re-grow the ring: replica placement must follow the new successor sets.
    for i in 0..2u64 {
        let _ = dht.join(RingId::hash_u64(params.seed ^ (0xbeef + i)));
    }
    let factor = dht.replication().policy().replication_factor();
    let reconverged = dht.replication().replicated_key_list().iter().all(|&key| {
        let mut holders = dht.replica_holders(key);
        let mut targets = dht.replica_targets(key, factor);
        holders.sort_unstable();
        targets.sort_unstable();
        holders == targets && !holders.is_empty()
    });
    ChurnOutcome {
        lost_on_failure: lost,
        recovered_keys,
        hot_key_survived,
        reconverged,
    }
}

/// Runs both arms on the identical seeded workload, compares their answers and
/// runs the churn arm on the replicated network.
pub fn run(params: &SkewParams) -> SkewReport {
    let corpus = workloads::corpus(params.docs, params.seed);
    let log = workloads::zipf_query_log(&corpus, params.queries, params.zipf_s, params.seed);
    let queries: Vec<String> = log.queries.iter().map(|q| q.text.clone()).collect();

    let (baseline_row, baseline_answers, _) =
        run_arm("none", Arc::new(NoReplication), &corpus, &queries, params);
    let label = format!("hot-key(f={})", params.factor);
    let (mut replicated_row, replicated_answers, mut net) =
        run_arm(&label, params.policy(), &corpus, &queries, params);
    replicated_row.identical_topk = baseline_answers == replicated_answers;

    let p99_reduction = baseline_row.p99_load / replicated_row.p99_load.max(1e-9);
    let churn = run_churn(&mut net, params);
    SkewReport {
        bench: "skew".to_string(),
        quick: false,
        params: params.clone(),
        rows: vec![baseline_row, replicated_row],
        p99_reduction,
        churn,
    }
}

/// The hot-key arm must cut the p99 per-peer probe-serve load at least this
/// many times.
const P99_REDUCTION_FLOOR: f64 = 2.0;

/// The replication subsystem's acceptance bar, one message per broken
/// invariant: every arm's top-k answers equal the unreplicated baseline's,
/// the p99 per-peer load reduction is at least `P99_REDUCTION_FLOOR`, and
/// the churn arm recovers the hot key and re-converges the replica placement.
/// Scale-independent, so it holds for `--quick` and full runs alike.
pub fn check(report: &SkewReport) -> Vec<String> {
    let mut failures = Vec::new();
    for row in &report.rows {
        if !row.identical_topk {
            failures.push(format!("skew: arm {} changed query answers", row.arm));
        }
    }
    if report.p99_reduction < P99_REDUCTION_FLOOR {
        failures.push(format!(
            "skew: p99 load reduction {:.2}x below the {P99_REDUCTION_FLOOR}x bar",
            report.p99_reduction
        ));
    }
    if !report.churn.hot_key_survived {
        failures.push("skew: hot key did not survive its primary's failure".to_string());
    }
    if !report.churn.reconverged {
        failures.push("skew: replica placement did not re-converge after joins".to_string());
    }
    failures
}

/// Prints the result tables.
pub fn print(report: &SkewReport) {
    let mut table = Table::new(
        "P2: per-peer probe load and latency under Zipf traffic (with/without hot-key replication)",
        &[
            "arm",
            "mean load",
            "p99 load",
            "max load",
            "mean lat",
            "p99 lat",
            "bytes/q",
            "overlay B/q",
            "replicas",
            "topk=",
        ],
    );
    for r in &report.rows {
        table.row(&[
            r.arm.clone(),
            fmt_f(r.mean_load, 1),
            fmt_f(r.p99_load, 1),
            r.max_load.to_string(),
            fmt_f(r.mean_latency, 1),
            fmt_f(r.p99_latency, 1),
            fmt_f(r.bytes_per_query, 0),
            fmt_f(r.overlay_bytes_per_query, 1),
            r.replications.to_string(),
            if r.identical_topk { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table.print();
    println!(
        "p99 per-peer load reduction: {:.2}x | churn: lost {} on primary failure, \
         recovered {} from replicas, hot key survived: {}, re-converged after joins: {}",
        report.p99_reduction,
        report.churn.lost_on_failure,
        report.churn.recovered_keys,
        report.churn.hot_key_survived,
        report.churn.reconverged,
    );
    let mut robustness = Robustness::default();
    for r in &report.rows {
        robustness.absorb(&r.robustness);
    }
    robustness.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SkewParams {
        SkewParams {
            peers: 12,
            docs: 120,
            queries: 180,
            ..SkewParams::default()
        }
    }

    #[test]
    fn skew_smoke_replicates_and_preserves_answers() {
        let report = run(&tiny());
        assert_eq!(report.rows.len(), 2);
        let baseline = &report.rows[0];
        let replicated = &report.rows[1];
        assert_eq!(baseline.replications, 0);
        assert!(replicated.replications > 0, "no key ever replicated");
        assert!(replicated.replica_serves > 0, "replicas never served");
        assert!(replicated.identical_topk, "replication changed an answer");
        // Retrieval accounting is policy-independent; the replication cost
        // shows up in the overlay category only.
        assert!((baseline.bytes_per_query - replicated.bytes_per_query).abs() < 1e-9);
        assert!(replicated.overlay_bytes_per_query > baseline.overlay_bytes_per_query);
        assert!(report.p99_reduction > 1.0, "replication did not shed load");
        assert!(report.churn.hot_key_survived);
        assert!(report.churn.reconverged);
    }

    #[test]
    #[ignore = "full-scale experiment (minutes in debug); run with `cargo test -- --ignored` (nightly CI job)"]
    fn replication_halves_p99_load_at_full_scale() {
        assert_eq!(check(&run(&SkewParams::default())), Vec::<String>::new());
    }
}

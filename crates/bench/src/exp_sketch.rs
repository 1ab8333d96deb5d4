//! **P3 — Per-key provenance sketches: probe pruning and net bytes per query,
//! with and without cost-based sketch maintenance.**
//!
//! A sketch-publishing network spends overlay bytes up front (each maintained
//! key ships a compact digest of its posting list alongside the ranking
//! statistics) to avoid retrieval bytes later: a querier holding a fresh
//! sketch can *prove* that a probe's response would carry no entry above the
//! current score floor and answer it locally, spending nothing on the wire.
//! This experiment runs the identical seeded workload twice — once with
//! [`SketchPolicy::NoSketches`], once with the cost-based selector — and
//! measures what the sketch subsystem buys and what it costs:
//!
//! * **retrieval bytes per query** with and without pruning, and the **net
//!   bytes per query** once the sketch-upkeep overlay bytes are amortized
//!   over the measured query phase — the headline claim is a net reduction;
//! * **pruned probes** (absolute and as a fraction of all probes) — each one
//!   a round trip whose response the sketch synthesized exactly;
//! * **sketch upkeep**: keys considered vs maintained by the cost model, the
//!   overlay bytes spent, and whether every maintained sketch's upkeep stayed
//!   within its modeled savings (the selector's own invariant);
//! * **top-k equality**: every query's ranked answer must be identical across
//!   arms — pruning is result-invisible by construction, and this arm proves
//!   it at workload scale.
//!
//! Both arms follow the same protocol: build the index, run the first half of
//! the Zipf query log as a warm-up (accumulating per-key usage statistics),
//! republish the key evidence — at which point the cost model projects each
//! key's observed demand instead of its cold-start prior, so sketch upkeep
//! concentrates on the keys queries actually hit — and measure the second
//! half.
//!
//! Results go to `BENCH_sketch.json` (`ALVIS_BENCH_OUT` overrides the path).

use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::request::{QueryRequest, ThresholdMode};
use alvisp2p_core::sketch::SketchPolicy;
use alvisp2p_core::strategy::Hdk;
use alvisp2p_netsim::TrafficCategory;
use alvisp2p_textindex::{CorpusConfig, CorpusGenerator, DocId, SyntheticCorpus};
use serde::{Deserialize, Serialize};

use crate::table::{fmt_bytes, fmt_f, Robustness, Table};
use crate::workloads::DEFAULT_SEED;

/// Parameters of the sketch experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SketchParams {
    /// Peers in the overlay.
    pub peers: usize,
    /// Documents in the corpus.
    pub docs: usize,
    /// Query instances in the log (half warm-up, half measured).
    pub queries: usize,
    /// Result-list size requested per query.
    pub top_k: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            peers: 32,
            docs: 1_000,
            queries: 600,
            top_k: 10,
            seed: DEFAULT_SEED,
        }
    }
}

impl SketchParams {
    /// Fast smoke-test configuration (`ALVIS_QUICK=1` / `--quick`).
    pub fn quick() -> Self {
        SketchParams {
            peers: 16,
            docs: 250,
            queries: 160,
            ..Default::default()
        }
    }
}

/// One measured arm of the sketch experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SketchArmRow {
    /// Sketch policy label (`no-sketches`, `cost-based`).
    pub arm: String,
    /// Mean retrieval bytes per measured query.
    pub retrieval_bytes_per_query: f64,
    /// Sketch-upkeep overlay bytes of the demand-aware publish pass (0 for
    /// `no-sketches`).
    pub upkeep_bytes: u64,
    /// Retrieval bytes plus amortized upkeep, per measured query — the net
    /// cost.
    pub net_bytes_per_query: f64,
    /// Probes answered from the sketch cache instead of the wire.
    pub pruned_probes: u64,
    /// Pruned probes as a fraction of all measured probes.
    pub pruned_fraction: f64,
    /// Keys the cost model considered for a sketch.
    pub considered_keys: usize,
    /// Keys the cost model actually maintained a sketch for.
    pub sketched_keys: usize,
    /// The cost model's total modeled probe-byte savings (its admission bar).
    pub modeled_savings: f64,
    /// Every maintained sketch's upkeep stayed within its modeled savings.
    pub upkeep_accounted: bool,
    /// Whether every measured query's answer equals the `no-sketches` arm's.
    pub identical_topk: bool,
    /// Aggregated robustness counters over the measured half (all zeros under
    /// `NoFaults`; defaulted when reading reports written before the field
    /// existed).
    #[serde(default)]
    pub robustness: Robustness,
}

/// The `BENCH_sketch.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SketchReport {
    /// Experiment identifier.
    pub bench: String,
    /// Whether the quick configuration ran.
    pub quick: bool,
    /// Parameters used.
    pub params: SketchParams,
    /// Measured arms.
    pub rows: Vec<SketchArmRow>,
    /// Fractional reduction in net bytes per query of the cost-based arm over
    /// the baseline (retrieval savings minus amortized upkeep) — the headline.
    pub net_reduction: f64,
}

/// A topically dense corpus (small vocabulary relative to the collection):
/// frequent terms with long posting lists are exactly where score floors
/// climb above whole keys and pruning has something to prove.
fn corpus(num_docs: usize, seed: u64) -> SyntheticCorpus {
    let config = CorpusConfig {
        num_docs,
        vocab_size: 500,
        num_topics: 6,
        topic_vocab: 60,
        doc_len_mean: 80,
        doc_len_spread: 30,
        ..Default::default()
    };
    CorpusGenerator::new(config, seed).generate()
}

fn network(corpus: &SyntheticCorpus, policy: SketchPolicy, params: &SketchParams) -> AlvisNetwork {
    AlvisNetwork::builder()
        .peers(params.peers)
        .strategy(Hdk::default())
        .sketch_policy(policy)
        .seed(params.seed)
        .corpus(corpus)
        .build_indexed()
        .expect("experiment network configuration is valid")
}

/// A Zipf-popularity query log over pairs of one mid-frequency term and one
/// head (very frequent) term. This is the regime sketches are for: the
/// mid-frequency term's high-idf matches fill the top-k and set a high score
/// floor, while the head term's long, low-idf posting list — the expensive
/// probe, the paper's whole scalability problem — often scores *entirely*
/// below that floor, which is exactly what a score sketch can prove without
/// fetching the list. The rounds are interleaved so both halves of the log
/// draw the same distribution.
fn query_mix(corpus: &SyntheticCorpus, n: usize) -> Vec<String> {
    let vocab: Vec<&str> = corpus.vocabulary.iter().map(String::as_str).collect();
    let distinct: Vec<String> = (0..24)
        .map(|i| format!("{} {}", vocab[80 + 2 * i], vocab[i]))
        .collect();
    let weights: Vec<f64> = (0..distinct.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(1.1))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| ((n as f64) * w / total).round() as usize)
        .collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut emitted = false;
        for (i, c) in counts.iter_mut().enumerate() {
            if *c > 0 && out.len() < n {
                *c -= 1;
                out.push(distinct[i].clone());
                emitted = true;
            }
        }
        if !emitted {
            // Rounding starved the tail: top up with the hottest query.
            out.push(distinct[0].clone());
        }
    }
    out
}

/// Runs one arm: warm-up half, demand-aware republish, measured half.
/// Returns its row (top-k equality filled in by the caller) plus the
/// per-query answers for cross-arm comparison.
fn run_arm(
    arm: &str,
    policy: SketchPolicy,
    corpus: &SyntheticCorpus,
    warmup: &[String],
    measured: &[String],
    params: &SketchParams,
) -> (SketchArmRow, Vec<Vec<(DocId, u64)>>) {
    let mut net = network(corpus, policy, params);
    for (i, text) in warmup.iter().enumerate() {
        let request = QueryRequest::new(text.clone())
            .from_peer(i % params.peers)
            .top_k(params.top_k)
            .threshold_mode(ThresholdMode::Aggressive);
        net.execute(&request).expect("warm-up query succeeds");
    }
    // Republish the key evidence: the cost model now sees the warm-up's
    // per-key usage statistics and keeps sketches only where demand was.
    net.build_index();
    let report = net.sketch_report().clone();
    let stats_before = net.global_index().stats_snapshot();

    let mut answers = Vec::with_capacity(measured.len());
    let mut pruned = 0u64;
    let mut probes = 0u64;
    let mut robustness = Robustness::default();
    for (i, text) in measured.iter().enumerate() {
        let request = QueryRequest::new(text.clone())
            .from_peer(i % params.peers)
            .top_k(params.top_k)
            .threshold_mode(ThresholdMode::Aggressive);
        let response = net.execute(&request).expect("query succeeds");
        robustness.observe(&response);
        pruned += response.pruned_probes as u64;
        probes += response.trace.probes as u64;
        answers.push(
            response
                .results
                .iter()
                .map(|r| (r.doc, r.score.to_bits()))
                .collect(),
        );
    }

    let spent = net.global_index().stats_snapshot().since(&stats_before);
    let n = measured.len() as f64;
    let retrieval = spent.category(TrafficCategory::Retrieval).bytes as f64;
    let row = SketchArmRow {
        arm: arm.to_string(),
        retrieval_bytes_per_query: retrieval / n,
        upkeep_bytes: report.upkeep_bytes,
        net_bytes_per_query: (retrieval + report.upkeep_bytes as f64) / n,
        pruned_probes: pruned,
        pruned_fraction: if probes == 0 {
            0.0
        } else {
            pruned as f64 / probes as f64
        },
        considered_keys: report.considered_keys,
        sketched_keys: report.sketched_keys,
        modeled_savings: report.modeled_savings,
        upkeep_accounted: report.upkeep_accounted(),
        identical_topk: true, // filled in by the caller for the non-baseline arm
        robustness,
    };
    (row, answers)
}

/// Runs both arms on the identical seeded workload and compares their answers.
pub fn run(params: &SketchParams) -> SketchReport {
    let corpus = corpus(params.docs, params.seed);
    let queries = query_mix(&corpus, params.queries);
    let (warmup, measured) = queries.split_at(queries.len() / 2);

    let (baseline_row, baseline_answers) = run_arm(
        "no-sketches",
        SketchPolicy::NoSketches,
        &corpus,
        warmup,
        measured,
        params,
    );
    let (mut sketched_row, sketched_answers) = run_arm(
        "cost-based",
        SketchPolicy::CostBased,
        &corpus,
        warmup,
        measured,
        params,
    );
    sketched_row.identical_topk = baseline_answers == sketched_answers;

    let net_reduction = 1.0
        - sketched_row.net_bytes_per_query
            / baseline_row.net_bytes_per_query.max(f64::MIN_POSITIVE);
    SketchReport {
        bench: "sketch".to_string(),
        quick: false,
        params: params.clone(),
        rows: vec![baseline_row, sketched_row],
        net_reduction,
    }
}

/// Prints the result table.
pub fn print(report: &SketchReport) {
    let mut table = Table::new(
        "P3: probe pruning and net bytes per query (with/without cost-based sketches)",
        &[
            "arm", "retr B/q", "upkeep B", "net B/q", "pruned", "pruned %", "keys", "topk=",
        ],
    );
    for r in &report.rows {
        table.row(&[
            r.arm.clone(),
            fmt_bytes(r.retrieval_bytes_per_query as u64),
            fmt_bytes(r.upkeep_bytes),
            fmt_bytes(r.net_bytes_per_query as u64),
            r.pruned_probes.to_string(),
            fmt_f(r.pruned_fraction * 100.0, 1),
            format!("{}/{}", r.sketched_keys, r.considered_keys),
            if r.identical_topk { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table.print();
    println!(
        "net bytes/query reduction: {:.1}% (retrieval savings minus amortized sketch upkeep), \
         upkeep accounted: {}",
        report.net_reduction * 100.0,
        report.rows.iter().all(|r| r.upkeep_accounted),
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

    #[test]
    fn sketch_smoke_prunes_probes_and_preserves_answers() {
        let report = run(&SketchParams::quick());
        assert_eq!(report.rows.len(), 2);
        let baseline = &report.rows[0];
        let sketched = &report.rows[1];
        assert_eq!(baseline.pruned_probes, 0, "NoSketches must never prune");
        assert_eq!(baseline.upkeep_bytes, 0);
        assert!(sketched.pruned_probes > 0, "no probe was ever pruned");
        assert!(sketched.sketched_keys > 0, "the cost model kept no sketch");
        assert!(
            sketched.sketched_keys < sketched.considered_keys,
            "demand-aware selection kept a sketch for every key"
        );
        assert!(sketched.upkeep_accounted, "upkeep exceeded modeled savings");
        assert!(sketched.identical_topk, "sketch pruning changed an answer");
        assert!(
            report.net_reduction > 0.0,
            "sketches cost more than they saved: {:.2}% net",
            report.net_reduction * 100.0
        );
    }

    #[test]
    #[ignore = "full-scale experiment (minutes in debug); run with `cargo test -- --ignored` (nightly CI job)"]
    fn sketches_cut_net_bytes_at_full_scale() {
        // The acceptance bar: a net reduction in total bytes per query (the
        // retrieval savings must outweigh the sketch-upkeep overlay bytes) at
        // byte-identical answers.
        let report = run(&SketchParams::default());
        let sketched = &report.rows[1];
        assert!(sketched.identical_topk);
        assert!(sketched.upkeep_accounted);
        assert!(sketched.pruned_probes > 0);
        assert!(
            report.net_reduction >= 0.01,
            "net reduction {:.2}% below the 1% acceptance bar",
            report.net_reduction * 100.0
        );
    }
}

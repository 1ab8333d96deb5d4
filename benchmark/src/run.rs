//! One run of one workload: set-up, the timed phase, and the correctness gate.
//!
//! The client is a closed loop of one: the next query is sent when the
//! previous one has been answered. One process runs one workload, because the
//! term interner and the peak-memory counter are process-wide.

use crate::estimators::{fold_min, percentile, quartiles, Fnv1a};
use crate::report::{PassSpread, Report, Values};
use crate::trace::SpanLog;
use crate::traced;
use crate::workloads::{pinned_digests, served_requests, InputDigests, Workload, HDK, TOP_K};
use alvisp2p_core::error::AlvisError;
use alvisp2p_core::exec::QueryStream;
use alvisp2p_core::network::{AlvisNetwork, IndexBuildReport};
use alvisp2p_core::request::{QueryRequest, QueryResponse};
use alvisp2p_core::stats::overlap_at_k;
use alvisp2p_netsim::TrafficCategory;
use alvisp2p_textindex::bm25::ScoredDoc;
use std::time::Instant;

/// How long the timed phase lasts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Whole passes until about this many seconds have gone by.
    Seconds(f64),
    /// Exactly this many passes (the smoke tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Passes(usize),
}

/// The knobs of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub budget: Budget,
    /// Also run the traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// Every pass timed at least this often, whatever the budget says.
const MIN_PASSES: usize = 2;
/// `overlap_at_10` is taken on every this-many-th instance of the first pass.
const QUALITY_STRIDE: usize = 8;
/// The share of degraded answers `faulty_skewed` must stay under.
const MAX_DEGRADED_SHARE: f64 = 0.25;

/// Wall time of the parts of one set-up, in seconds.
#[derive(Clone, Copy, Debug, Default)]
struct SetupTimes {
    /// Corpus and query-log generation.
    corpus_s: f64,
    /// Network construction plus `distribute_corpus`.
    distribute_s: f64,
    /// `build_index`.
    index_s: f64,
    /// The untimed warm-up pass (and, on `faulty_skewed`, switching faults on).
    warmup_s: f64,
    /// Everything before the first timed query.
    total_s: f64,
}

/// A network that is ready for the timed phase.
struct Built {
    net: AlvisNetwork,
    requests: Vec<QueryRequest>,
    times: SetupTimes,
    docs: usize,
    /// Indexing + Ranking + Overlay bytes the build charged.
    build_bytes: u64,
    index: IndexBuildReport,
    digests: InputDigests,
}

/// Simulated counters of one pass. On a replayable workload every pass must
/// produce the same ones.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PassCounters {
    /// FNV-1a over every answer's document ids and score bits, in order.
    result_digest: u64,
    /// Bytes charged in all traffic categories.
    traffic_bytes: u64,
    retrieval_bytes: u64,
    /// Σ `QueryResponse::bytes`.
    response_bytes: u64,
    hops: u64,
    probes: u64,
    retries: u64,
    failed_probes: u64,
    corrupt_probes: u64,
    hedged: u64,
    /// Queries that returned `Err`.
    errors: u64,
    /// Queries whose `Completeness::fraction()` was below 1.
    degraded: u64,
    /// Answers not sorted by descending score.
    unsorted: u64,
}

/// What the first timed pass keeps for the quality metrics.
#[derive(Debug, Default)]
struct QualitySample {
    /// `(instance, answer)` of every [`QUALITY_STRIDE`]-th instance.
    answers: Vec<(usize, Vec<ScoredDoc>)>,
    /// Instances that answered completely but with no result at all.
    empty: Vec<usize>,
}

/// Plans, streams, drains and finishes one query — the latency the user sees.
fn answer(net: &mut AlvisNetwork, request: &QueryRequest) -> Result<QueryResponse, AlvisError> {
    let plan = net.plan(request)?;
    net.stream(plan, request.clone())
        .and_then(QueryStream::finish)
}

/// Runs `requests` once, in order. Pushes each query's latency in nanoseconds
/// onto `latencies` and returns the pass's simulated counters.
fn run_pass(
    net: &mut AlvisNetwork,
    requests: &[QueryRequest],
    latencies: &mut Vec<u64>,
    mut sample: Option<&mut QualitySample>,
) -> PassCounters {
    let mut counters = PassCounters::default();
    let mut digest = Fnv1a::default();
    let before = net.traffic_snapshot();
    for (i, request) in requests.iter().enumerate() {
        let sent = Instant::now();
        let outcome = answer(net, request);
        latencies.push(sent.elapsed().as_nanos() as u64);
        let response = match outcome {
            Ok(response) => response,
            Err(_) => {
                counters.errors += 1;
                continue;
            }
        };
        for r in &response.results {
            digest.write_u64(u64::from(r.doc.peer) << 32 | u64::from(r.doc.local));
            digest.write_u64(r.score.to_bits());
        }
        digest.write_u64(u64::MAX);
        counters.response_bytes += response.bytes;
        counters.hops += response.hops as u64;
        counters.probes += response.trace.probes as u64;
        counters.retries += response.retries as u64;
        counters.failed_probes += response.failed_probes as u64;
        counters.corrupt_probes += response.corrupt_probes as u64;
        counters.hedged += response.hedged as u64;
        if response.results.windows(2).any(|w| w[0].score < w[1].score) {
            counters.unsorted += 1;
        }
        let degraded = response.completeness.fraction() < 1.0;
        if degraded {
            counters.degraded += 1;
        }
        if let Some(sample) = sample.as_deref_mut() {
            if !degraded && response.results.is_empty() {
                sample.empty.push(i);
            }
            if i % QUALITY_STRIDE == 0 {
                sample.answers.push((i, response.results));
            }
        }
    }
    let spent = net.traffic_snapshot().since(&before);
    counters.result_digest = digest.finish();
    counters.traffic_bytes = spent.bytes_sent();
    counters.retrieval_bytes = spent.category(TrafficCategory::Retrieval).bytes;
    counters
}

/// Generates the inputs, builds the network and the index, and warms up.
fn set_up(workload: &Workload, seed: u64) -> Result<Built, AlvisError> {
    let start = Instant::now();
    let (corpus, queries) = workload.inputs(seed);
    let requests = workload.requests(&queries);
    let corpus_s = start.elapsed().as_secs_f64();

    let step = Instant::now();
    let mut net = workload.network(seed).build()?;
    let docs = net.distribute_corpus(&corpus);
    let distribute_s = step.elapsed().as_secs_f64();

    let step = Instant::now();
    let before = net.traffic_snapshot();
    let index = net.build_index();
    let index_s = step.elapsed().as_secs_f64();
    let built = net.traffic_snapshot().since(&before);
    let build_bytes = [
        TrafficCategory::Indexing,
        TrafficCategory::Ranking,
        TrafficCategory::Overlay,
    ]
    .iter()
    .map(|c| built.category(*c).bytes)
    .sum();

    // One fault-free pass creates the statistics-only entries that first
    // probes of unindexed keys leave behind and places the hot-key replicas,
    // so that every timed pass starts from the same state.
    let step = Instant::now();
    let mut scratch = Vec::with_capacity(requests.len());
    run_pass(&mut net, &requests, &mut scratch, None);
    if workload.faulty {
        let served = served_requests(&net);
        net.set_fault_plane(workload.fault_plane(seed, &served));
    }
    let warmup_s = step.elapsed().as_secs_f64();
    let total_s = start.elapsed().as_secs_f64();

    Ok(Built {
        net,
        requests,
        times: SetupTimes {
            corpus_s,
            distribute_s,
            index_s,
            warmup_s,
            total_s,
        },
        docs,
        build_bytes,
        index,
        digests: InputDigests::of(&corpus, &queries),
    })
}

/// The process's peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Timing statistics of one pass.
#[derive(Clone, Copy, Debug)]
struct PassTiming {
    p50_us: f64,
    p99_us: f64,
    queries_per_s: f64,
}

/// Closed-loop throughput of one client: queries per second of latency.
fn queries_per_s(latencies_ns: &[u64]) -> f64 {
    latencies_ns.len() as f64 * 1e9 / latencies_ns.iter().sum::<u64>() as f64
}

fn spread(name: &'static str, values: impl Iterator<Item = f64>) -> PassSpread {
    let values: Vec<f64> = values.collect();
    let (q1, median, q3) = quartiles(&values);
    PassSpread {
        name,
        passes: values.len(),
        q1,
        median,
        q3,
    }
}

/// What the timed phase measured.
struct TimedPhase {
    /// Simulated counters of the first pass: the same queries on every run,
    /// however many passes the budget allowed.
    first: PassCounters,
    sample: QualitySample,
    timings: Vec<PassTiming>,
    /// Each instance's latency, minimum over passes, sorted.
    best_ns: Vec<u64>,
    /// Queries that returned `Err`, over all passes.
    errors: u64,
    /// The first pass whose counters differed from pass 1, with both.
    diverged: Option<String>,
}

/// Whole passes over one fixed query sequence until the budget is spent.
fn timed_phase(net: &mut AlvisNetwork, requests: &[QueryRequest], budget: Budget) -> TimedPhase {
    let n = requests.len();
    let mut best_ns = vec![u64::MAX; n];
    let mut latencies: Vec<u64> = Vec::with_capacity(n);
    let mut timings: Vec<PassTiming> = Vec::new();
    let mut sample = QualitySample::default();
    let mut first: Option<PassCounters> = None;
    let mut errors = 0;
    let mut diverged = None;
    let phase = Instant::now();
    loop {
        latencies.clear();
        let counters = run_pass(
            net,
            requests,
            &mut latencies,
            first.is_none().then_some(&mut sample),
        );
        fold_min(&mut best_ns, &latencies);
        let queries_per_s = queries_per_s(&latencies);
        latencies.sort_unstable();
        timings.push(PassTiming {
            p50_us: percentile(&latencies, 50.0) as f64 / 1e3,
            p99_us: percentile(&latencies, 99.0) as f64 / 1e3,
            queries_per_s,
        });
        errors += counters.errors;
        match &first {
            None => first = Some(counters),
            Some(first) if diverged.is_none() && *first != counters => {
                diverged = Some(format!(
                    "pass {} differs from pass 1: {counters:?} vs {first:?}",
                    timings.len()
                ));
            }
            Some(_) => {}
        }
        let passes = timings.len();
        let done = match budget {
            Budget::Passes(p) => passes >= p,
            // Stop where the total lands nearest the budget.
            Budget::Seconds(seconds) => {
                let elapsed = phase.elapsed().as_secs_f64();
                passes >= MIN_PASSES && elapsed + 0.5 * elapsed / passes as f64 >= seconds
            }
        };
        if done {
            break;
        }
    }
    best_ns.sort_unstable();
    TimedPhase {
        first: first.expect("at least one pass ran"),
        sample,
        timings,
        best_ns,
        errors,
        diverged,
    }
}

/// `overlap_at_10` over the sampled answers, and the number of first-pass
/// queries that failed, came back degraded, or found nothing although the
/// centralized reference finds something.
fn quality(net: &AlvisNetwork, requests: &[QueryRequest], phase: &TimedPhase) -> (f64, u64) {
    let answers = &phase.sample.answers;
    let overlap = answers
        .iter()
        .map(|(i, answer)| {
            let reference = net.reference_search(&requests[*i].text, TOP_K);
            overlap_at_k(answer, &reference, TOP_K)
        })
        .sum::<f64>()
        / answers.len() as f64;
    let unanswered = phase
        .sample
        .empty
        .iter()
        .filter(|i| !net.reference_search(&requests[**i].text, 1).is_empty())
        .count() as u64;
    (
        overlap,
        phase.first.errors + phase.first.degraded + unanswered,
    )
}

/// The correctness gate over the timed phase; returns the violations.
fn check(workload: &Workload, phase: &TimedPhase, overlap: f64, incomplete: u64) -> Vec<String> {
    let first = &phase.first;
    let mut gate = Vec::new();
    if phase.errors > 0 {
        gate.push(format!("{} queries returned Err", phase.errors));
    }
    if first.unsorted > 0 {
        gate.push(format!(
            "{} answers are not score-descending",
            first.unsorted
        ));
    }
    if overlap < workload.overlap_floor {
        gate.push(format!(
            "overlap_at_10 {overlap:.4} is below the workload's floor {}",
            workload.overlap_floor
        ));
    }
    if let (true, Some(diverged)) = (workload.replayable, &phase.diverged) {
        gate.push(format!("a replayable workload did not replay: {diverged}"));
    }
    if workload.faulty {
        let degraded_share = incomplete as f64 / phase.best_ns.len() as f64;
        if !(degraded_share > 0.0 && degraded_share < MAX_DEGRADED_SHARE) {
            gate.push(format!(
                "degraded share {degraded_share:.4} is outside (0, {MAX_DEGRADED_SHARE})"
            ));
        }
        if first.retries == 0 {
            gate.push("the fault plane caused no retry".into());
        }
    } else {
        if incomplete > 0 {
            gate.push(format!(
                "{incomplete} fault-free queries failed, came back degraded or found nothing \
                 the reference finds"
            ));
        }
        let faults = first.retries + first.failed_probes + first.corrupt_probes + first.hedged;
        if faults > 0 {
            gate.push(format!("{faults} fault events on a fault-free workload"));
        }
        if first.response_bytes != first.retrieval_bytes {
            gate.push(format!(
                "responses report {} retrieval bytes but the network charged {}",
                first.response_bytes, first.retrieval_bytes
            ));
        }
    }
    gate
}

/// Runs one workload and returns its report, plus the spans of a traced run.
pub fn run(workload: &Workload, config: &RunConfig) -> Result<(Report, Option<SpanLog>), String> {
    let set_up = || set_up(workload, config.seed).map_err(|e| format!("{}: {e}", workload.name));
    let mut gate: Vec<String> = Vec::new();

    // ---- Set-up, several times over. The last repeat runs after the
    // measurement, so that a slow spell on the host cannot cover them all.
    let repeats = config.setup_repeats.max(1);
    let mut setups: Vec<SetupTimes> = Vec::new();
    // `(documents, build traffic)` of every set-up: one seed, one build.
    let mut builds: Vec<(usize, u64)> = Vec::new();
    let mut built = set_up()?;
    setups.push(built.times);
    builds.push((built.docs, built.build_bytes));
    for _ in 2..repeats {
        // The previous network is dropped first: peak memory is one network's.
        drop(built);
        built = set_up()?;
        setups.push(built.times);
        builds.push((built.docs, built.build_bytes));
    }
    let Built {
        mut net,
        requests,
        docs,
        build_bytes,
        index,
        digests,
        ..
    } = built;
    let n = requests.len();

    let pinned = pinned_digests(workload.name, config.seed).map(|p| p == digests);
    if pinned == Some(false) {
        gate.push(format!(
            "{}: generated inputs differ from input_digests.txt at seed {} \
             (CorpusGenerator or QueryLogGenerator changed)",
            workload.name, config.seed
        ));
    }

    // ---- Timed phase, quality and gate. -------------------------------------
    let budget = match config.budget {
        // A traced run shares its seconds between the timed and traced passes.
        Budget::Seconds(s) if config.trace => Budget::Seconds(s / 2.0),
        budget => budget,
    };
    let phase = timed_phase(&mut net, &requests, budget);
    let (overlap, incomplete) = quality(&net, &requests, &phase);
    gate.extend(check(workload, &phase, overlap, incomplete));
    let fastest =
        |f: fn(&PassTiming) -> f64| phase.timings.iter().map(f).fold(f64::INFINITY, f64::min);

    // ---- Traced pass: per-layer metrics. ------------------------------------
    let traced = if config.trace {
        let traced = traced::run(
            workload,
            &mut net,
            &requests,
            config.seed,
            fastest(|t| t.p50_us),
            budget,
        )?;
        gate.extend(traced.gate.iter().cloned());
        Some(traced)
    } else {
        None
    };

    let network_config = format!("{:?}", net.config());
    drop(net);
    if repeats > 1 {
        let last = set_up()?;
        setups.push(last.times);
        builds.push((last.docs, last.build_bytes));
    }
    if builds.windows(2).any(|w| w[0] != w[1]) {
        gate.push("two builds from one seed charged different traffic".into());
    }
    let setup_median = {
        let mut by_total = setups.clone();
        by_total.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
        by_total[(by_total.len() - 1) / 2]
    };
    let best_build_s = setups
        .iter()
        .map(|s| s.distribute_s + s.index_s)
        .fold(f64::INFINITY, f64::min);

    // ---- Metrics. ---------------------------------------------------------------
    let (p50_us, p99_us, queries_per_s) = if workload.replayable {
        (
            percentile(&phase.best_ns, 50.0) as f64 / 1e3,
            percentile(&phase.best_ns, 99.0) as f64 / 1e3,
            queries_per_s(&phase.best_ns),
        )
    } else {
        (
            fastest(|t| t.p50_us),
            fastest(|t| t.p99_us),
            phase
                .timings
                .iter()
                .map(|t| t.queries_per_s)
                .fold(0.0, f64::max),
        )
    };
    let end_to_end: Values = vec![
        ("setup_s", setup_median.total_s),
        ("index_docs_per_s", docs as f64 / best_build_s),
        ("index_bytes_per_doc", build_bytes as f64 / docs as f64),
        ("query_p50_us", p50_us),
        ("query_p99_us", p99_us),
        ("queries_per_s", queries_per_s),
        (
            "bytes_per_query",
            phase.first.traffic_bytes as f64 / n as f64,
        ),
        ("hops_per_query", phase.first.hops as f64 / n as f64),
        ("overlap_at_10", overlap),
        ("complete_share", 1.0 - incomplete as f64 / n as f64),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    let (per_layer, spans) = match traced {
        None => (Values::new(), None),
        Some(traced) => {
            let mut per_layer = traced.values;
            per_layer.extend([
                (
                    "textindex.distribute_us_per_doc",
                    setup_median.distribute_s * 1e6 / docs as f64,
                ),
                (
                    "global_index.index_us_per_key",
                    setup_median.index_s * 1e6 / index.activated_keys.max(1) as f64,
                ),
                ("global_index.activated_keys", index.activated_keys as f64),
                (
                    "global_index.storage_bytes_per_doc",
                    index.storage_bytes as f64 / docs as f64,
                ),
                ("build.corpus_s", setup_median.corpus_s),
                ("build.distribute_s", setup_median.distribute_s),
                ("build.index_s", setup_median.index_s),
                ("build.warmup_s", setup_median.warmup_s),
            ]);
            (per_layer, Some(traced.spans))
        }
    };

    let passes = phase.timings.len();
    let report = Report {
        workload: workload.name,
        replayable: workload.replayable,
        seed: config.seed,
        seconds: match budget {
            Budget::Seconds(s) => s,
            Budget::Passes(_) => 0.0,
        },
        traced: config.trace,
        configs: vec![
            ("network", network_config),
            ("hdk", format!("{HDK:?}")),
            ("corpus", format!("{:?}", workload.corpus)),
            (
                "querylog",
                format!("{:?} x {} pools", workload.log, workload.pools),
            ),
        ],
        corpus_digest: digests.corpus,
        log_digest: digests.log,
        pinned,
        passes,
        instances_per_pass: n,
        attempted: (passes * n) as u64,
        failed: phase.errors,
        gate,
        end_to_end,
        per_layer,
        spreads: vec![
            spread("query_p50_us", phase.timings.iter().map(|t| t.p50_us)),
            spread("query_p99_us", phase.timings.iter().map(|t| t.p99_us)),
            spread(
                "queries_per_s",
                phase.timings.iter().map(|t| t.queries_per_s),
            ),
            spread("setup_s", setups.iter().map(|s| s.total_s)),
        ],
    };
    Ok((report, spans))
}

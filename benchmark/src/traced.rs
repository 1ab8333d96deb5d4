//! The traced pass: spans around the public calls, then each query's leaf work
//! replayed through public functions on that query's own inputs.
//!
//! The replay does every leaf once per query — analyze once, route each probed
//! key once, encode and decode each found list once, merge once. What the
//! executor spends beyond that (it re-merges after every probe, builds an
//! event per probe, assembles the trace in `finish`) is reported as
//! `exec.residual_us` rather than hidden in a replay that mimics the executor.

use crate::alloc;
use crate::estimators::percentile;
use crate::report::Values;
use crate::run::Budget;
use crate::trace::{SpanLog, SpanName};
use crate::workloads::{served_requests, Workload, TOP_K};
use alvisp2p_core::codec::{decode_list, encode_list, frame_checksum, FRAME_TRAILER_LEN};
use alvisp2p_core::exec::ProbeEvent;
use alvisp2p_core::global_index::GlobalIndex;
use alvisp2p_core::lattice::NodeOutcome;
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::posting::{ScoredRef, TruncatedPostingList};
use alvisp2p_core::ranking::merge_retrieved;
use alvisp2p_core::request::{QueryRequest, QueryResponse};
use alvisp2p_dht::DhtConfig;
use alvisp2p_netsim::wire::ENVELOPE_OVERHEAD;
use alvisp2p_netsim::{TrafficCategory, TrafficStats, WireSize};
use alvisp2p_textindex::{Analyzer, DocId};
use std::hint::black_box;
use std::time::Instant;

/// What the traced pass found out.
pub struct Traced {
    pub values: Values,
    pub spans: SpanLog,
    /// Correctness-gate violations seen in the traced pass.
    pub gate: Vec<String>,
}

/// The traced children must cover at least this share of the query spans.
const MIN_CHILDREN_SHARE: f64 = 0.95;
/// The traced pass is repeated at least and at most this often.
const MIN_TRACED_PASSES: usize = 2;
const MAX_TRACED_PASSES: usize = 5;
/// Keys the publish micro-measurement publishes.
const PUBLISH_KEYS: usize = 2_000;
/// Entries in the delta it publishes under each.
const PUBLISH_DELTA: u32 = 64;

/// One traced query: its plan's figures, its probe events, its answer.
struct TracedQuery {
    est_bytes: u64,
    scheduled: usize,
    /// Range of this query's events in the flat event list.
    events: std::ops::Range<usize>,
    response: Option<QueryResponse>,
}

/// Sums of the replayed leaves, in nanoseconds and counts.
#[derive(Default)]
struct Leaves {
    analyze_ns: u64,
    route_ns: u64,
    encode_ns: u64,
    checksum_ns: u64,
    decode_ns: u64,
    merge_ns: u64,
    probes: u64,
    hops: u64,
    replica_served: u64,
    lists: u64,
    entries: u64,
    frame_bytes: u64,
    merged_entries: u64,
    routing_bytes: u64,
    request_bytes: u64,
    /// Probes whose charged bytes are not routing + request + response.
    split_mismatches: u64,
    /// Queries whose replayed merge is not the answer the executor gave.
    merge_mismatches: u64,
}

impl Leaves {
    /// All replayed leaf time.
    fn timed_ns(&self) -> u64 {
        self.analyze_ns
            + self.route_ns
            + self.encode_ns
            + self.checksum_ns
            + self.decode_ns
            + self.merge_ns
    }
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Mean µs of a 64-entry delta publication into a standalone index.
fn publish_us(net: &AlvisNetwork, workload: &Workload, seed: u64) -> Result<f64, String> {
    let all = net.global_index().activated_key_list();
    let step = (all.len() / PUBLISH_KEYS).max(1);
    let keys: Vec<_> = all.iter().step_by(step).take(PUBLISH_KEYS).collect();
    if keys.is_empty() {
        return Err("the index has no activated key to publish under".into());
    }
    let capacity = net.strategy().truncation_k();
    let delta = TruncatedPostingList::from_refs(
        (0..PUBLISH_DELTA).map(|i| ScoredRef {
            doc: DocId::new(i % workload.peers as u32, i),
            score: f64::from(PUBLISH_DELTA - i) * 0.25,
        }),
        capacity,
    );
    let mut standalone = GlobalIndex::new(DhtConfig::default(), seed, workload.peers);
    let start = Instant::now();
    for (i, key) in keys.iter().enumerate() {
        standalone
            .publish_postings(i % workload.peers, key, &delta, capacity)
            .map_err(|e| format!("publish into a standalone index failed: {e:?}"))?;
    }
    Ok(ns_since(start) as f64 / 1e3 / keys.len() as f64)
}

/// What every query's replay shares.
struct Replay<'a> {
    workload: &'a Workload,
    index: &'a GlobalIndex,
    analyzer: Analyzer,
    /// Bytes one overlay hop of a lookup charges.
    hop_message: u64,
}

impl Replay<'_> {
    /// Replays one query's leaves and checks its byte accounting.
    fn query(
        &self,
        request: &QueryRequest,
        events: &[ProbeEvent],
        response: &QueryResponse,
        leaves: &mut Leaves,
    ) -> Result<(), String> {
        let Replay {
            workload,
            index,
            analyzer,
            hop_message,
        } = self;

        let start = Instant::now();
        black_box(analyzer.analyze_query_ids(black_box(&request.text)));
        leaves.analyze_ns += ns_since(start);

        let mut retrieved = Vec::with_capacity(events.len());
        for event in events {
            let start = Instant::now();
            black_box(index.estimate_hops(request.origin, black_box(&event.key))).ok();
            leaves.route_ns += ns_since(start);

            leaves.probes += 1;
            leaves.hops += event.hops as u64;
            if index.responsible_for(&event.key) != Ok(event.served_by) {
                leaves.replica_served += 1;
            }
            let routing = event.hops as u64 * hop_message;
            let request_message =
                (index.probe_request_bytes() + event.key.wire_size() + ENVELOPE_OVERHEAD) as u64;
            let requests = (event.retries as u64 + 1) * request_message;
            leaves.routing_bytes += routing;
            leaves.request_bytes += requests;

            let response_payload = match event.outcome {
                NodeOutcome::Found { .. } => {
                    let entry = index.peek(&event.key).ok_or_else(|| {
                        format!("found key {} is not stored", event.key.canonical())
                    })?;
                    let start = Instant::now();
                    let frame = encode_list(black_box(&entry.postings), event.score_floor);
                    leaves.encode_ns += ns_since(start);
                    let start = Instant::now();
                    black_box(frame_checksum(&frame[..frame.len() - FRAME_TRAILER_LEN]));
                    leaves.checksum_ns += ns_since(start);
                    let start = Instant::now();
                    let list = decode_list(black_box(&frame))
                        .map_err(|e| format!("replayed frame does not decode: {e}"))?;
                    leaves.decode_ns += ns_since(start);
                    leaves.lists += 1;
                    leaves.entries += list.len() as u64;
                    leaves.frame_bytes += frame.len() as u64;
                    let len = frame.len();
                    retrieved.push((event.key.clone(), list));
                    len
                }
                // A miss is answered with a one-byte notice.
                _ => 1,
            };
            let charged = routing + requests + (response_payload + ENVELOPE_OVERHEAD) as u64;
            if !workload.faulty && charged != event.bytes {
                leaves.split_mismatches += 1;
            }
        }

        let start = Instant::now();
        let merged = merge_retrieved(black_box(&retrieved), TOP_K);
        leaves.merge_ns += ns_since(start);
        leaves.merged_entries += retrieved.iter().map(|(_, l)| l.len() as u64).sum::<u64>();
        let same = merged.len() == response.results.len()
            && merged
                .iter()
                .zip(&response.results)
                .all(|(a, b)| a.doc == b.doc && a.score.to_bits() == b.score.to_bits());
        if !workload.faulty && !same {
            leaves.merge_mismatches += 1;
        }
        Ok(())
    }
}

/// Everything one traced pass recorded.
struct TracedPass {
    spans: SpanLog,
    events: Vec<ProbeEvent>,
    queries: Vec<TracedQuery>,
    /// Traffic the pass charged.
    traffic: TrafficStats,
    /// Requests each peer served during the pass.
    served: Vec<u64>,
    /// `(allocations, bytes)` inside the measured queries.
    allocated: (u64, u64),
}

impl TracedPass {
    /// Summed duration of the query spans.
    fn query_ns(&self) -> u64 {
        self.spans
            .spans()
            .iter()
            .filter(|s| s.name == SpanName::Query)
            .map(|s| s.duration_ns())
            .sum()
    }
}

/// One pass over `requests` with a span around every public call.
fn traced_pass(net: &mut AlvisNetwork, requests: &[QueryRequest]) -> TracedPass {
    let n = requests.len();
    // Room for every span and event up front, so that the harness allocates
    // nothing inside a measured query (a query has at most seven probes).
    let mut spans = SpanLog::with_capacity(n * 12);
    let mut events: Vec<ProbeEvent> = Vec::with_capacity(n * 8);
    let mut queries: Vec<TracedQuery> = Vec::with_capacity(n);
    let served_before: Vec<u64> = served_requests(net);
    let traffic_before = net.traffic_snapshot();
    let allocated_before = alloc::counted();

    for (q, request) in requests.iter().enumerate() {
        let q = q as u32;
        let first_event = events.len();
        let mut traced = TracedQuery {
            est_bytes: 0,
            scheduled: 0,
            events: first_event..first_event,
            response: None,
        };
        alloc::set_counting(true);
        let start = spans.now();
        let span = spans.record(SpanName::Query, start, start, None, q);
        if let Ok(plan) = net.plan(request) {
            let planned = spans.now();
            spans.record(SpanName::Plan, start, planned, Some(span), q);
            traced.est_bytes = plan.est_total_bytes;
            traced.scheduled = plan.scheduled_probes();
            let owned = request.clone();
            let opening = spans.now();
            if let Ok(mut stream) = net.stream(plan, owned) {
                let opened = spans.now();
                spans.record(SpanName::Open, opening, opened, Some(span), q);
                loop {
                    let sent = spans.now();
                    let Some(event) = stream.next_event() else {
                        break;
                    };
                    let got = spans.now();
                    spans.record(SpanName::Probe, sent, got, Some(span), q);
                    // An `Err` event ends the stream; `finish` returns it.
                    if let Ok(event) = event {
                        events.push(event);
                    }
                }
                let finishing = spans.now();
                let outcome = stream.finish();
                let finished = spans.now();
                spans.record(SpanName::Finish, finishing, finished, Some(span), q);
                traced.response = outcome.ok();
            }
        }
        let end = spans.now();
        spans.close(span, end);
        alloc::set_counting(false);
        traced.events = first_event..events.len();
        queries.push(traced);
    }

    let allocated = alloc::counted();
    TracedPass {
        spans,
        events,
        queries,
        traffic: net.traffic_snapshot().since(&traffic_before),
        served: served_requests(net)
            .iter()
            .zip(&served_before)
            .map(|(after, before)| after - before)
            .collect(),
        allocated: (
            allocated.0 - allocated_before.0,
            allocated.1 - allocated_before.1,
        ),
    }
}

/// Traces `requests` and derives the per-layer metrics. The traced pass is
/// repeated while `budget` lasts (twice at least, five times at most) and the
/// fastest repeat is kept, as is the faster of two leaf replays: a slow spell
/// on the host then has to cover every repeat to reach the numbers.
/// `timed_p50_us` is the untraced single-pass median the overhead is taken
/// against.
pub fn run(
    workload: &Workload,
    net: &mut AlvisNetwork,
    requests: &[QueryRequest],
    seed: u64,
    timed_p50_us: f64,
    budget: Budget,
) -> Result<Traced, String> {
    let n = requests.len();
    let started = Instant::now();
    let more = |done: usize| match budget {
        Budget::Passes(_) => false,
        Budget::Seconds(s) => {
            done < MIN_TRACED_PASSES
                || (done < MAX_TRACED_PASSES && started.elapsed().as_secs_f64() < s)
        }
    };
    let mut pass = traced_pass(net, requests);
    let mut done = 1;
    while more(done) {
        let next = traced_pass(net, requests);
        if next.query_ns() < pass.query_ns() {
            pass = next;
        }
        done += 1;
    }
    let TracedPass {
        spans,
        events,
        queries,
        traffic,
        served,
        allocated,
    } = pass;

    // ---- Replay the leaves. ------------------------------------------------
    let errors = queries.iter().filter(|q| q.response.is_none()).count() as u64;
    let replay = Replay {
        workload,
        index: net.global_index(),
        analyzer: Analyzer::default(),
        hop_message: (DhtConfig::default().lookup_request_bytes + ENVELOPE_OVERHEAD) as u64,
    };
    let replay_all = || -> Result<Leaves, String> {
        let mut leaves = Leaves::default();
        for (request, query) in requests.iter().zip(&queries) {
            if let Some(response) = &query.response {
                replay.query(
                    request,
                    &events[query.events.clone()],
                    response,
                    &mut leaves,
                )?;
            }
        }
        Ok(leaves)
    };
    let (once, again) = (replay_all()?, replay_all()?);
    let leaves = if again.timed_ns() < once.timed_ns() {
        again
    } else {
        once
    };
    let publish_us = publish_us(net, workload, seed)?;

    // ---- Derive the metrics. -----------------------------------------------
    let per_query = |v: u64| v as f64 / n as f64;
    let us = |ns: u64, per: u64| ns as f64 / 1e3 / per.max(1) as f64;
    let responses = || queries.iter().filter_map(|q| q.response.as_ref());
    let sum = |f: fn(&QueryResponse) -> u64| responses().map(f).sum::<u64>();

    let totals = spans.totals();
    let query = totals.of(SpanName::Query);
    let plan = totals.of(SpanName::Plan);
    let open = totals.of(SpanName::Open);
    let probe = totals.of(SpanName::Probe);
    let finish = totals.of(SpanName::Finish);
    let replayed =
        plan.total_ns + leaves.route_ns + leaves.encode_ns + leaves.decode_ns + leaves.merge_ns;
    let residual_ns = query.total_ns.saturating_sub(replayed);
    let children_share = 1.0 - query.self_ns as f64 / query.total_ns as f64;

    let mut durations: Vec<u64> = spans
        .spans()
        .iter()
        .filter(|s| s.name == SpanName::Query)
        .map(|s| s.duration_ns())
        .collect();
    durations.sort_unstable();
    let traced_p50_us = percentile(&durations, 50.0) as f64 / 1e3;

    let retrieval = traffic.category(TrafficCategory::Retrieval).bytes;
    let response_bytes = retrieval.saturating_sub(leaves.routing_bytes + leaves.request_bytes);
    let mean_served = served.iter().sum::<u64>() as f64 / served.len() as f64;
    let max_served = served.iter().copied().max().unwrap_or(0) as f64;

    let retries = sum(|r| r.retries as u64);
    let failed_probes = sum(|r| r.failed_probes as u64);
    let corrupt = sum(|r| r.corrupt_probes as u64);
    let hedged = sum(|r| r.hedged as u64);
    let incomplete = responses()
        .filter(|r| r.completeness.fraction() < 1.0)
        .count() as u64;

    let values: Values = vec![
        (
            "textindex.analyze_query_us",
            us(leaves.analyze_ns, n as u64),
        ),
        ("plan.plan_us", us(plan.total_ns, n as u64)),
        (
            "plan.scheduled_probes_per_query",
            per_query(queries.iter().map(|q| q.scheduled as u64).sum()),
        ),
        (
            "plan.est_bytes_ratio",
            queries.iter().map(|q| q.est_bytes).sum::<u64>() as f64
                / sum(|r| r.bytes).max(1) as f64,
        ),
        ("exec.open_us", us(open.total_ns, n as u64)),
        ("exec.probe_us", us(probe.total_ns, probe.count)),
        ("exec.finish_us", us(finish.total_ns, n as u64)),
        ("exec.probes_per_query", per_query(probe.count)),
        ("exec.residual_us", us(residual_ns, n as u64)),
        (
            "exec.residual_share",
            residual_ns as f64 / query.total_ns as f64,
        ),
        ("dht.route_us", us(leaves.route_ns, leaves.probes)),
        (
            "dht.hops_per_probe",
            leaves.hops as f64 / leaves.probes.max(1) as f64,
        ),
        (
            "dht.replica_served_share",
            leaves.replica_served as f64 / leaves.probes.max(1) as f64,
        ),
        (
            "dht.peer_load_max_over_mean",
            max_served / mean_served.max(f64::MIN_POSITIVE),
        ),
        ("codec.encode_us", us(leaves.encode_ns, leaves.lists)),
        ("codec.checksum_us", us(leaves.checksum_ns, leaves.lists)),
        ("codec.decode_us", us(leaves.decode_ns, leaves.lists)),
        (
            "codec.entries_per_list",
            leaves.entries as f64 / leaves.lists.max(1) as f64,
        ),
        (
            "codec.frame_bytes_per_list",
            leaves.frame_bytes as f64 / leaves.lists.max(1) as f64,
        ),
        (
            "codec.skipped_blocks_per_query",
            per_query(sum(|r| r.trace.skipped_blocks as u64)),
        ),
        (
            "codec.elided_bytes_per_query",
            per_query(sum(|r| r.trace.elided_bytes)),
        ),
        ("ranking.merge_us", us(leaves.merge_ns, n as u64)),
        (
            "ranking.merged_entries_per_query",
            per_query(leaves.merged_entries),
        ),
        ("global_index.publish_us", publish_us),
        ("fault.retries_per_query", per_query(retries)),
        ("fault.failed_probes_per_query", per_query(failed_probes)),
        ("fault.corrupt_per_query", per_query(corrupt)),
        ("fault.hedged_per_query", per_query(hedged)),
        ("fault.incomplete_share", per_query(incomplete)),
        ("netsim.retrieval_bytes_per_query", per_query(retrieval)),
        (
            "netsim.overlay_bytes_per_query",
            per_query(traffic.category(TrafficCategory::Overlay).bytes),
        ),
        (
            "netsim.indexing_bytes_per_query",
            per_query(traffic.category(TrafficCategory::Indexing).bytes),
        ),
        (
            "netsim.messages_per_query",
            per_query(traffic.messages_sent()),
        ),
        (
            "netsim.routing_bytes_per_query",
            per_query(leaves.routing_bytes),
        ),
        (
            "netsim.request_bytes_per_query",
            per_query(leaves.request_bytes),
        ),
        ("netsim.response_bytes_per_query", per_query(response_bytes)),
        ("alloc.allocs_per_query", per_query(allocated.0)),
        ("alloc.bytes_per_query", per_query(allocated.1)),
        ("trace.children_share", children_share),
        ("trace.overhead_ratio", traced_p50_us / timed_p50_us),
    ];

    // ---- Gate. ---------------------------------------------------------------
    let mut gate = Vec::new();
    if errors > 0 {
        gate.push(format!("{errors} traced queries returned Err"));
    }
    if children_share < MIN_CHILDREN_SHARE {
        gate.push(format!(
            "traced children cover only {children_share:.4} of the query spans"
        ));
    }
    if workload.faulty {
        if retries == 0 {
            gate.push("the fault plane caused no retry in the traced pass".into());
        }
    } else {
        let faults = retries + failed_probes + corrupt + hedged + incomplete;
        if faults > 0 {
            gate.push(format!("{faults} fault events in a fault-free traced pass"));
        }
        if leaves.split_mismatches > 0 {
            gate.push(format!(
                "{} probes charged bytes that are not routing + request + response",
                leaves.split_mismatches
            ));
        }
        if leaves.merge_mismatches > 0 {
            gate.push(format!(
                "{} replayed merges differ from the executor's answer",
                leaves.merge_mismatches
            ));
        }
    }

    Ok(Traced {
        values,
        spans,
        gate,
    })
}

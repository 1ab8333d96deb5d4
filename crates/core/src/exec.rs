//! Plan execution: run a [`QueryPlan`] and observe results incrementally.
//!
//! The second half of the plan → execute pipeline (see [`crate::plan`]). Two
//! ways to consume an execution:
//!
//! * [`crate::network::AlvisNetwork::run`] — run a plan to completion and get the
//!   final [`QueryResponse`] (what `execute` does internally);
//! * [`QueryStream`] — an iterator of [`ProbeEvent`]s (key, outcome, bytes
//!   spent) that the caller drains at its own pace, asking for
//!   [`QueryStream::running_top_k`] when it wants one and calling
//!   [`QueryStream::stop`] to end the execution early (e.g. once a
//!   [`StableTopK`] reports the top-k has stabilised), then
//!   [`QueryStream::finish`]es into the response.
//!
//! Early termination is loss-free bookkeeping-wise: remaining scheduled probes are
//! recorded as skipped in the trace, the response is assembled from what was
//! retrieved, and adaptive strategies still observe the (partial) query through
//! [`crate::strategy::Strategy::post_query`].

use crate::error::AlvisError;
use crate::fault::{Completeness, FailureCause, ProbeOutcome};
use crate::global_index::ProbeResult;
use crate::key::TermKey;
use crate::lattice::NodeOutcome;
use crate::network::AlvisNetwork;
use crate::plan::{CursorStep, PlanCursor, QueryPlan};
use crate::ranking::merge_retrieved;
use crate::request::{QueryRequest, QueryResponse};
use alvisp2p_dht::DhtError;
use alvisp2p_textindex::bm25::ScoredDoc;
use alvisp2p_textindex::DocId;

/// One executed probe, as yielded by a [`QueryStream`].
#[derive(Clone, Debug)]
pub struct ProbeEvent {
    /// 0-based index among the probes actually sent.
    pub index: usize,
    /// Number of probes the plan scheduled in total.
    pub planned: usize,
    /// The probed key.
    pub key: TermKey,
    /// What the probe returned.
    pub outcome: NodeOutcome,
    /// Retrieval bytes this probe charged.
    pub bytes: u64,
    /// Lookup messages that did not deliver this probe's requests, summed
    /// over its attempts (see [`ProbeResult::hops`]).
    pub hops: usize,
    /// The served attempt was dialled through a fresh routing shortcut instead
    /// of being routed (see [`ProbeResult::via_shortcut`]); `false` for a
    /// failed probe.
    pub via_shortcut: bool,
    /// Cumulative retrieval bytes of the query so far.
    pub spent_bytes: u64,
    /// Lookup messages that did not deliver a request, summed over the
    /// query's probes so far (the trace's hop count).
    pub spent_hops: usize,
    /// Always `None`: no probe carries a score floor. Kept only because
    /// `benchmark/` (outside the workspace) reads it; goes with ROADMAP item 5.
    pub score_floor: Option<f64>,
    /// The peer that served the probe: the key's responsible peer, or the
    /// least-loaded live replica when the key is hot-replicated (see
    /// [`alvisp2p_dht::replica`]).
    pub served_by: usize,
    /// Number of live replica holders the key had at probe time (`0` unless
    /// the key is hot-replicated).
    pub replicas: usize,
    /// Number of re-sent attempts this probe needed (always `0` under the
    /// default [`crate::fault::FaultPlane`]). A probe with outcome
    /// [`NodeOutcome::Failed`] exhausted its [`crate::fault::RetryPolicy`];
    /// its [`ProbeEvent::bytes`] and [`ProbeEvent::hops`] are what the failed
    /// attempts really spent.
    pub retries: usize,
}

/// Tells a [`QueryStream`] caller when the top-k document set has been
/// unchanged for `patience` consecutive probes — the "stop paying once the
/// answer stops moving" policy. Feed it [`QueryStream::running_top_k`] after
/// every event and [`QueryStream::stop`] the stream once it returns `true`.
#[derive(Clone, Debug)]
pub struct StableTopK {
    patience: usize,
    stable: usize,
    last: Vec<DocId>,
}

impl StableTopK {
    /// Reports stability after the top-k has been unchanged for `patience`
    /// consecutive probes (`patience` is clamped to at least 1).
    pub fn new(patience: usize) -> Self {
        StableTopK {
            patience: patience.max(1),
            stable: 0,
            last: Vec::new(),
        }
    }

    /// Records the running top-k after one more probe and returns whether it
    /// has now been stable for `patience` consecutive probes.
    pub fn observe(&mut self, top_k: &[ScoredDoc]) -> bool {
        let docs: Vec<DocId> = top_k.iter().map(|r| r.doc).collect();
        if !docs.is_empty() && docs == self.last {
            self.stable += 1;
        } else {
            self.stable = 0;
            self.last = docs;
        }
        self.stable >= self.patience
    }
}

/// A pull-style execution: iterate [`ProbeEvent`]s at your own pace, optionally
/// [`QueryStream::stop`] early, then [`QueryStream::finish`] into the
/// [`QueryResponse`].
///
/// The [`Iterator`] implementation yields events and ends on the first overlay
/// error; [`QueryStream::finish`] surfaces the error. Dropping a stream without
/// finishing abandons the query: the response is never assembled and adaptive
/// strategies do not observe it.
#[derive(Debug)]
pub struct QueryStream<'n> {
    net: &'n mut AlvisNetwork,
    request: QueryRequest,
    query_key: Option<TermKey>,
    cursor: PlanCursor,
    seq: u64,
    planned: usize,
    sent: usize,
    base_bytes: u64,
    base_messages: u64,
    /// Total re-sent probe attempts across the query (fault plane active).
    retries: usize,
    /// Probes whose every attempt failed (recorded in the trace, schedule
    /// continued).
    failed: usize,
    /// Probe responses discarded because their frame failed checksum
    /// verification (each one also counts as a failed attempt and is
    /// retryable).
    corrupt: usize,
    /// Probes whose serve was re-routed to a replica holder by failover.
    hedged: usize,
    error: Option<AlvisError>,
}

/// What [`QueryStream::acquire_probe`] got back from the network for one
/// scheduled probe: a served result, or an exhausted retry policy.
enum ProbeAcquisition {
    /// Some attempt succeeded (after `retries` re-sends; `hedged` when
    /// failover moved the serve off the key's primary).
    Served {
        probe: ProbeResult,
        retries: usize,
        hedged: bool,
    },
    /// Every attempt failed; the probe is recorded and the schedule
    /// continues.
    Failed {
        cause: FailureCause,
        hops: usize,
        retries: usize,
        served_by: usize,
    },
}

impl<'n> QueryStream<'n> {
    pub(crate) fn new(net: &'n mut AlvisNetwork, plan: QueryPlan, request: QueryRequest) -> Self {
        let lattice = net.strategy().lattice_config(&net.config().lattice);
        let (base_bytes, base_messages) = net.retrieval_totals();
        let query_key = plan.query_key.clone();
        let seq = if query_key.is_some() {
            net.begin_query()
        } else {
            0
        };
        let planned = plan.scheduled_probes();
        let cursor = PlanCursor::new(plan, &lattice, request.byte_budget);
        QueryStream {
            net,
            request,
            query_key,
            cursor,
            seq,
            planned,
            sent: 0,
            base_bytes,
            base_messages,
            retries: 0,
            failed: 0,
            corrupt: 0,
            hedged: 0,
            error: None,
        }
    }

    /// Retrieval bytes the query has charged so far.
    pub fn spent_bytes(&self) -> u64 {
        self.net.retrieval_totals().0 - self.base_bytes
    }

    /// Stops the execution: remaining scheduled probes are skipped.
    pub fn stop(&mut self) {
        self.cursor.stop();
    }

    /// The top-k over everything retrieved so far, merged on demand (what
    /// [`QueryStream::finish`] returns as `results` once the last probe is in).
    pub fn running_top_k(&self) -> Vec<ScoredDoc> {
        merge_retrieved(self.cursor.retrieved(), self.request.top_k)
    }

    /// Acquires one scheduled probe from the network: the attempt loop over
    /// [`crate::global_index::GlobalIndex::probe`], the one wire path.
    ///
    /// A failed attempt is answered per the network's
    /// [`crate::fault::RetryPolicy`]: up to `max_retries` re-sends, each sent
    /// as the next attempt straight away, and — after an unresponsive peer —
    /// failover of the serve to the next live holder in the key's replica
    /// set. Every failed attempt's traffic is really charged, so retries
    /// compete against the query's byte budget like any other spend.
    /// Under an inactive [`crate::fault::FaultPlane`] the first attempt
    /// cannot fail, so the loop body runs once and nothing below the `match`
    /// is reached.
    ///
    /// A routing-level [`DhtError::LookupFailed`] (the responsible peer is
    /// dead or the routing state is stale) is downgraded to a recorded
    /// per-probe failure: one dead peer must not zero out an
    /// otherwise-answerable query. `BadOrigin` and `EmptyNetwork` stay fatal
    /// — they mean the *querier* is in no state to run anything.
    fn acquire_probe(&mut self, key: &TermKey) -> Result<ProbeAcquisition, AlvisError> {
        let origin = self.request.origin;
        let capacity = self.net.strategy().truncation_k();
        let policy = self.net.retry_policy();
        let mut retries = 0usize;
        let mut hedged = false;
        let mut failed_hops = 0usize;
        let mut serve_override: Option<usize> = None;
        // Assigned by every match arm that falls through to the retry logic.
        let mut last_cause;
        let mut last_server = origin;
        let mut attempt: u32 = 0;
        loop {
            match self.net.global_index_mut().probe(
                origin,
                key,
                self.seq,
                capacity,
                attempt,
                serve_override,
            ) {
                // Routing exhausted without reaching a responsible peer:
                // lookups are deterministic, so re-sending cannot help.
                Err(DhtError::LookupFailed) => {
                    last_cause = FailureCause::PeerDown;
                    break;
                }
                Err(e) => return Err(AlvisError::from(e)),
                Ok(ProbeOutcome::Ok(mut probe)) => {
                    // Lookup messages the failed attempts spent are part of
                    // this probe's real cost: the trace counts them alongside
                    // the successful round trip.
                    probe.hops += failed_hops;
                    return Ok(ProbeAcquisition::Served {
                        probe,
                        retries,
                        hedged,
                    });
                }
                Ok(ProbeOutcome::Lost { hops }) => {
                    failed_hops += hops;
                    last_cause = FailureCause::Lost;
                }
                Ok(ProbeOutcome::TimedOut { hops }) => {
                    failed_hops += hops;
                    last_cause = FailureCause::TimedOut;
                }
                // A bit-flipped response caught by the codec's checksum
                // trailer: the full round trip was charged, the payload is
                // unusable, and re-sending may well succeed.
                Ok(ProbeOutcome::Corrupt { hops }) => {
                    failed_hops += hops;
                    last_cause = FailureCause::Corrupt;
                    self.corrupt += 1;
                }
                Ok(ProbeOutcome::PeerDown { peer, hops }) => {
                    failed_hops += hops;
                    last_cause = FailureCause::PeerDown;
                    last_server = peer;
                }
            }
            if attempt as usize >= policy.max_retries {
                break;
            }
            if policy.failover && last_cause == FailureCause::PeerDown {
                // Re-serve from the first live holder of the key (primary
                // first, then its replica set); every peer an earlier attempt
                // found down is down for the plane too.
                let plane = self.net.fault_plane();
                let candidates = self.net.global_index().serving_candidates(key);
                let next = candidates.iter().copied().find(|c| !plane.peer_down(*c));
                match next {
                    Some(c) => {
                        serve_override = Some(c);
                        if candidates.first() != Some(&c) {
                            hedged = true;
                        }
                    }
                    // Every holder of the key is down: retrying is futile.
                    None => break,
                }
            }
            attempt += 1;
            retries += 1;
        }
        Ok(ProbeAcquisition::Failed {
            cause: last_cause,
            hops: failed_hops,
            retries,
            served_by: last_server,
        })
    }

    /// Executes the next scheduled probe and returns its event, or `None` when
    /// the plan is exhausted (or stopped). The first overlay error is returned
    /// once; subsequent calls return `None`.
    ///
    /// A probe that exhausts the [`crate::fault::RetryPolicy`] yields an event
    /// with outcome [`NodeOutcome::Failed`] instead of an error: the failure
    /// is recorded in the trace, the key is *not* entered into the excluder
    /// set (so its subset keys stay probeable — the degraded substitution),
    /// and the schedule continues.
    pub fn next_event(&mut self) -> Option<Result<ProbeEvent, AlvisError>> {
        if self.error.is_some() {
            return None;
        }
        self.query_key.as_ref()?;
        match self.cursor.next_key(self.spent_bytes()) {
            CursorStep::Done => None,
            CursorStep::Probe(key) => {
                let before = self.net.retrieval_totals().0;
                let acquired = match self.acquire_probe(&key) {
                    Ok(acquired) => acquired,
                    Err(err) => {
                        self.error = Some(err.clone());
                        return Some(Err(err));
                    }
                };
                let (outcome, hops, via_shortcut, served_by, replicas, retries) = match acquired {
                    ProbeAcquisition::Served {
                        probe,
                        retries,
                        hedged,
                    } => {
                        self.hedged += usize::from(hedged);
                        let (hops, served_by) = (probe.hops, probe.served_by);
                        let via_shortcut = probe.via_shortcut;
                        let replicas = probe.replica_set.len();
                        let outcome = self.cursor.record(probe);
                        (outcome, hops, via_shortcut, served_by, replicas, retries)
                    }
                    ProbeAcquisition::Failed {
                        cause,
                        hops,
                        retries,
                        served_by,
                    } => {
                        self.failed += 1;
                        let replicas = self.net.global_index().replica_holders_of(&key).len();
                        self.cursor.record_failure(key.clone(), cause, hops);
                        let outcome = NodeOutcome::Failed { cause };
                        (outcome, hops, false, served_by, replicas, retries)
                    }
                };
                self.retries += retries;
                let bytes = self.net.retrieval_totals().0 - before;
                let event = ProbeEvent {
                    index: self.sent,
                    planned: self.planned,
                    key,
                    outcome,
                    bytes,
                    hops,
                    via_shortcut,
                    spent_bytes: self.spent_bytes(),
                    spent_hops: self.cursor.hops_spent(),
                    score_floor: None,
                    served_by,
                    replicas,
                    retries,
                };
                self.sent += 1;
                Some(Ok(event))
            }
        }
    }

    /// Drains any remaining probes and assembles the final [`QueryResponse`]
    /// (merged ranking, optional refinement, traffic accounting, trace,
    /// completeness report). Runs the strategy's
    /// [`crate::strategy::Strategy::post_query`] hook.
    pub fn finish(mut self) -> Result<QueryResponse, AlvisError> {
        while let Some(event) = self.next_event() {
            event?;
        }
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        let Some(query_key) = self.query_key.take() else {
            return Ok(QueryResponse::default());
        };
        // Planned document-frequency mass per scheduled probe, snapshotted
        // before `finish()` consumes the plan. Completeness compares the DF
        // mass actually served against this plan-time total; budget
        // truncation does not reduce it — only recorded probe failures do.
        let plan_df: Vec<(TermKey, u64)> = self
            .cursor
            .plan()
            .probes()
            .map(|node| (node.key.clone(), node.est_entries as u64))
            .collect();
        let (result, budget_exhausted) = self.cursor.finish();
        let failed = result.trace.failed_probes();
        let failures: Vec<(String, FailureCause)> = failed
            .iter()
            .map(|(key, cause)| (key.canonical(), *cause))
            .collect();
        let planned_df: u64 = plan_df.iter().map(|(_, df)| df).sum();
        let failed_df: u64 = plan_df
            .iter()
            .filter(|(key, _)| failed.iter().any(|(failed, _)| *failed == key))
            .map(|(_, df)| df)
            .sum();
        let completeness = Completeness {
            planned_df,
            covered_df: planned_df - failed_df,
            failures,
        };
        self.net.post_query_hook(&query_key, &result, self.seq);
        let results = merge_retrieved(&result.retrieved, self.request.top_k);
        // Snapshot the first-step retrieval spend before refinement so
        // `QueryResponse::bytes` means the same thing with and without
        // refinement.
        let (bytes_now, messages_now) = self.net.retrieval_totals();
        let refined = if self.request.refine {
            self.net
                .refine(&self.request.text, &results, self.request.top_k)
        } else {
            Vec::new()
        };
        Ok(QueryResponse {
            results,
            refined,
            hops: result.trace.hops,
            trace: result.trace,
            bytes: bytes_now - self.base_bytes,
            messages: messages_now - self.base_messages,
            budget_exhausted,
            retries: self.retries,
            failed_probes: self.failed,
            corrupt_probes: self.corrupt,
            hedged: self.hedged,
            completeness,
        })
    }
}

impl Iterator for QueryStream<'_> {
    type Item = ProbeEvent;

    fn next(&mut self) -> Option<ProbeEvent> {
        self.next_event().and_then(Result::ok)
    }
}

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
use crate::ranking::{keys_are_laminar, merge_retrieved};
use crate::request::{rank_safe_floor, QueryRequest, QueryResponse, ThresholdMode};
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
    /// The score floor this probe carried (threshold-aware probes: the
    /// responsible peer elided posting entries scoring below it). `None` until
    /// the running top-k is full, or when the request disabled thresholding.
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
    /// How the running top-k becomes the floor the next probe carries, fixed
    /// at construction from the request's mode and the plan's shape.
    floor_rule: FloorRule,
    /// RankSafe only: probes sent floor-free, after θ existed, because a
    /// published maximum they depend on was stale.
    rank_safe_fallbacks: usize,
    /// Bytes rank-safe elision kept off the wire. Budget admission runs on
    /// `spent + virtual_bytes` so the probe schedule is identical to the
    /// [`ThresholdMode::Off`] execution's — savings never buy extra probes
    /// it would not have sent.
    virtual_bytes: u64,
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

/// The one place θ (the running k-th merged score) lives: how it becomes the
/// floor the next probe carries (see [`QueryStream::update_floor`] and
/// [`QueryStream::probe_floor`]).
#[derive(Debug)]
enum FloorRule {
    /// No probe ever carries a floor, so the running top-k is never merged on
    /// the stream's own account: [`ThresholdMode::Off`], and
    /// [`ThresholdMode::RankSafe`] over a non-laminar plan.
    ///
    /// Laminarity is RankSafe's structural gate: the coverage-weighted merge
    /// is only additive — and per-document merged scores only monotone — when
    /// the probed key family is laminar (pairwise disjoint or nested, see
    /// [`keys_are_laminar`]). Non-laminar families dilute overlapped terms by
    /// coverage fractions, which can shrink a merged score mid-stream and
    /// breaks both the θ lower bound and the per-key charging argument; the
    /// stream then sends every probe floor-free, keeping RankSafe
    /// byte-identical to [`ThresholdMode::Off`] rather than silently
    /// approximate.
    Unfloored,
    /// [`ThresholdMode::RankSafe`] over a laminar plan.
    ///
    /// `caps` holds, per scheduled probe key, the key's own published maximum
    /// score and the summed maxima of the plan's probe keys *disjoint* from
    /// it — the `Σ_{j≠i} max_score(j)` of the floor
    /// `θ − Σ_{j≠i} max_score(j)`, sharpened to disjoint keys only (under a
    /// laminar family, a document's other maximal covering keys are always
    /// disjoint from the probed one, so nested keys never need to be
    /// charged). A key's entry is `None` when the algebra could not be
    /// certified for it: its own cached maximum, or that of a disjoint key,
    /// is stale against the list's publish version (lossy publications,
    /// on-demand activation), so the recorded bound may undershoot the real
    /// list and eliding against it would be unsound. Such a probe carries no
    /// floor at all.
    ///
    /// `theta_lb` is a monotone lower bound on the final k-th merged score:
    /// the largest running k-th merged score seen so far. Over a laminar
    /// retrieval the merge is exactly additive over each document's maximal
    /// covering keys, so per-document merged scores — and with them the
    /// running k-th merged score — only grow as lists arrive: the running θ
    /// is itself a sound lower bound on the final θ. The ratchet keeps the
    /// bound monotone against top-k ties resorting below `k`.
    RankSafe {
        caps: Vec<(TermKey, Option<(f64, f64)>)>,
        theta_lb: Option<f64>,
    },
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
        let floor_rule = match request.threshold {
            ThresholdMode::Off => FloorRule::Unfloored,
            ThresholdMode::RankSafe => Self::rank_safe_rule(net, cursor.plan()),
        };
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
            floor_rule,
            rank_safe_fallbacks: 0,
            virtual_bytes: 0,
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

    /// The [`FloorRule`] of a [`ThresholdMode::RankSafe`] execution of `plan`:
    /// [`FloorRule::Unfloored`] unless the scheduled probe keys are laminar,
    /// else the per-key caps snapshotted from the published maxima.
    ///
    /// A key's cap is its published maximum from
    /// [`crate::ranking::GlobalRankingStats::key_max_fresh`], accepted only
    /// when the recorded publish version matches the list's current one — a
    /// stale maximum may undershoot the list that will actually answer the
    /// probe (lossy publications can drop the re-publication that raised it),
    /// and a floor built on an undershooting cap elides entries it has no
    /// right to. A key nothing was ever published under (publish version
    /// still 0 and no recorded maximum) is provably absent from the index:
    /// its probe will miss, it contributes nothing to any merge, and its cap
    /// is exactly 0.
    fn rank_safe_rule(net: &AlvisNetwork, plan: &QueryPlan) -> FloorRule {
        let keys: Vec<TermKey> = plan.probes().map(|node| node.key.clone()).collect();
        if !keys_are_laminar(&keys) {
            return FloorRule::Unfloored;
        }
        let fresh: Vec<Option<f64>> = keys
            .iter()
            .map(|key| {
                let version = net.global_index().publish_version(key);
                net.ranking_stats().key_max_fresh(key, version).or_else(|| {
                    (version == 0 && net.ranking_stats().key_max_score(key).is_none())
                        .then_some(0.0)
                })
            })
            .collect();
        let disjoint =
            |a: &TermKey, b: &TermKey| a.term_ids().iter().all(|t| !b.term_ids().contains(t));
        let caps = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let cap = fresh[i].and_then(|own| {
                    keys.iter()
                        .enumerate()
                        .filter(|(j, other)| *j != i && disjoint(key, other))
                        .map(|(j, _)| fresh[j])
                        .sum::<Option<f64>>()
                        .map(|disjoint_sum| (own, disjoint_sum))
                });
                (key.clone(), cap)
            })
            .collect();
        FloorRule::RankSafe {
            caps,
            theta_lb: None,
        }
    }

    /// The floor the next probe for `key` will carry.
    ///
    /// Under [`FloorRule::RankSafe`], a certified key `i` (fresh own and
    /// disjoint caps) gets the provably rank-safe floor
    /// `θ_LB − Σ_{j disjoint from i} max_score(j)` minus one quantization
    /// step ([`rank_safe_floor`]): any document of the final top-k with
    /// merged score `≥ θ_LB` can lose at most the disjoint keys' maxima to
    /// its other covering lists, so its entry in list `i` scores at least the
    /// floor and survives elision — making the response byte-identical in
    /// ranking to [`ThresholdMode::Off`] at fewer posting bytes. A stale-cap
    /// key's probe goes out floor-free — trivially `Off` for that probe —
    /// and, once θ exists (a floor would otherwise have been sent), is
    /// counted in `rank_safe_fallbacks`, per-key as published maxima go stale
    /// independently.
    fn probe_floor(&mut self, key: &TermKey) -> Option<f64> {
        let FloorRule::RankSafe { caps, theta_lb } = &self.floor_rule else {
            return None;
        };
        let theta = (*theta_lb)?;
        match caps.iter().find(|(k, _)| k == key).and_then(|(_, c)| *c) {
            Some((own, disjoint_sum)) => rank_safe_floor(theta, own + disjoint_sum, own),
            None => {
                self.rank_safe_fallbacks += 1;
                None
            }
        }
    }

    /// Ratchets θ_LB up to the running k-th merged score — which is merged
    /// here, and only when the [`FloorRule`] can turn it into a floor.
    fn update_floor(&mut self) {
        if matches!(self.floor_rule, FloorRule::Unfloored) {
            return;
        }
        // `Some` once the running top-k holds the full `k` documents.
        let theta = self
            .running_top_k()
            .get(self.request.top_k - 1)
            .map(|worst| worst.score);
        if let (FloorRule::RankSafe { theta_lb, .. }, Some(t)) = (&mut self.floor_rule, theta) {
            *theta_lb = Some(theta_lb.map_or(t, |lb| lb.max(t)));
        }
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
    fn acquire_probe(
        &mut self,
        key: &TermKey,
        floor: Option<f64>,
    ) -> Result<ProbeAcquisition, AlvisError> {
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
                floor,
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
        let spent = self.spent_bytes() + self.virtual_bytes;
        match self.cursor.next_key(spent) {
            CursorStep::Done => None,
            CursorStep::Probe(key) => {
                let before = self.net.retrieval_totals().0;
                let floor = self.probe_floor(&key);
                let acquired = match self.acquire_probe(&key, floor) {
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
                        // Budget admission must see what the probe would have
                        // cost without elision (zero unless a floor was
                        // sent), so rank-safe savings never buy extra probes
                        // the Off execution would not have sent.
                        self.virtual_bytes += probe.elided_bytes as u64;
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
                self.update_floor();
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
                    score_floor: floor,
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
            rank_safe_fallbacks: self.rank_safe_fallbacks,
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

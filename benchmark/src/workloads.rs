//! The four workloads: their pinned configuration and their generated inputs.
//!
//! Every literal that shapes a workload lives here, written out in full, so a
//! change to a library default or to `alvisp2p_bench::workloads` cannot move a
//! workload silently. What the generators make of those literals is pinned too:
//! `input_digests.txt` holds a digest of the corpus text and of the query log
//! for each workload at the default and hold-out seeds.

use crate::estimators::Fnv1a;
use alvisp2p_core::fault::{FaultPlane, RetryPolicy};
use alvisp2p_core::hdk::HdkConfig;
use alvisp2p_core::network::{AlvisNetwork, AlvisNetworkBuilder};
use alvisp2p_core::plan::BestEffort;
use alvisp2p_core::request::{QueryRequest, ThresholdMode};
use alvisp2p_core::strategy::{Hdk, SingleTermFull};
use alvisp2p_dht::{DhtConfig, HotKeyReplication};
use alvisp2p_textindex::{
    CorpusConfig, CorpusGenerator, QueryLog, QueryLogConfig, QueryLogGenerator, SyntheticCorpus,
};
use std::sync::Arc;

/// The seed used when none is given (VLDB'08 started on 2008-08-24).
pub const DEFAULT_SEED: u64 = 20_080_824;
/// A seed kept out of development runs: a claim must also hold here.
pub const HOLDOUT_SEED: u64 = 20_080_828;
/// Results requested per query, on every workload.
pub const TOP_K: usize = 10;

/// The HDK parameters of the three HDK workloads (the experiments' defaults).
pub const HDK: HdkConfig = HdkConfig {
    df_max: 100,
    truncation_k: 100,
    max_key_len: 3,
    proximity_window: 20,
    use_proximity_filter: true,
};

/// The fault rates `faulty_skewed` switches on after its fault-free warm-up.
const LOSS_RATE: f64 = 0.10;
const SLOW_RATE: f64 = 0.02;
const CORRUPT_RATE: f64 = 0.02;
const CRASHED_PEERS: usize = 2;

/// Which index the workload builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Index {
    /// Highly discriminative keys with [`HDK`].
    Hdk,
    /// The paper's baseline: one untruncated list per term.
    SingleTermFull,
}

/// One workload, fully described.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether every pass over the query sequence does bit-identical work.
    pub replayable: bool,
    pub peers: usize,
    pub index: Index,
    pub corpus: CorpusConfig,
    /// One pass interleaves this many independently generated query logs
    /// ("user communities"), each with its own distinct queries and its own
    /// popularity ranking. A single Zipf log gives its most popular query up
    /// to a fifth of all instances, so every per-query average would follow
    /// that one query from seed to seed; several pools keep each pool's skew
    /// while the pass averages over many hot queries.
    pub pools: usize,
    /// The configuration of one pool (`num_queries` instances each).
    pub log: QueryLogConfig,
    /// Hot-key replication, a retry policy and (after warm-up) injected faults.
    pub faulty: bool,
    /// The lowest `overlap_at_10` the correctness gate accepts.
    pub overlap_floor: f64,
}

/// A Heaps-like corpus: the vocabulary grows with the square root of the
/// collection, so most posting lists stay short.
fn heaps_corpus(docs: usize) -> CorpusConfig {
    CorpusConfig {
        num_docs: docs,
        vocab_size: (((docs as f64).sqrt() * 90.0) as usize).max(400),
        zipf_exponent: 1.0,
        doc_len_mean: 110,
        doc_len_spread: 50,
        num_topics: (docs / 50).clamp(5, 80),
        topic_vocab: 60,
        topic_mix: 0.5,
    }
}

/// The same collection squeezed onto a small vocabulary: every list is long.
fn dense_corpus(docs: usize, vocab: usize) -> CorpusConfig {
    CorpusConfig {
        num_docs: docs,
        vocab_size: vocab,
        zipf_exponent: 1.0,
        doc_len_mean: 110,
        doc_len_spread: 50,
        num_topics: (docs / 50).clamp(5, 80),
        topic_vocab: 60.min(vocab / 4).max(10),
        topic_mix: 0.5,
    }
}

fn zipf_log(instances: usize, distinct: usize, exponent: f64) -> QueryLogConfig {
    QueryLogConfig {
        num_queries: instances,
        distinct_queries: distinct,
        popularity_exponent: exponent,
        min_terms: 2,
        max_terms: 3,
        popularity_drift: false,
        min_term_df: None,
        cooccurrence_window: None,
    }
}

/// The four workloads, in the order they are reported.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "lattice_sparse",
            why: "HDK over a Heaps-like corpus: many probes and hops over short lists, so time \
                  scales with probes (plan, route, per-probe executor bookkeeping), not entries",
            replayable: true,
            peers: 64,
            index: Index::Hdk,
            corpus: heaps_corpus(1_200),
            pools: 16,
            log: zipf_log(250, 125, 0.9),
            faulty: false,
            overlap_floor: 0.5,
        },
        Workload {
            name: "long_lists",
            why: "single-term untruncated lists over a dense corpus: few probes of hundreds of \
                  entries, so time and bytes scale with entries (encode, checksum, decode, merge)",
            replayable: true,
            peers: 32,
            index: Index::SingleTermFull,
            corpus: dense_corpus(2_000, 500),
            pools: 16,
            log: QueryLogConfig {
                min_term_df: Some(100),
                cooccurrence_window: Some(20),
                ..zipf_log(250, 32, 0.9)
            },
            faulty: false,
            overlap_floor: 1.0,
        },
        Workload {
            name: "faulty_skewed",
            why: "Zipf(1.1) log under loss, slow and corrupt replies and two crashed peers with \
                  hot-key replicas: the probe layer's retry, failover and checksum-reject path",
            replayable: false,
            peers: 64,
            index: Index::Hdk,
            corpus: heaps_corpus(1_000),
            pools: 32,
            log: zipf_log(125, 10, 1.1),
            faulty: true,
            overlap_floor: 0.5,
        },
        Workload {
            name: "bulk_index",
            why: "the write path beside reads: 128 peers publish an HDK index (key generation, \
                  publish_postings, ranking statistics), then a short query log runs on it",
            replayable: true,
            peers: 128,
            index: Index::Hdk,
            corpus: heaps_corpus(1_500),
            pools: 16,
            log: zipf_log(250, 64, 0.9),
            faulty: false,
            overlap_floor: 0.5,
        },
    ]
}

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        all().into_iter().find(|w| w.name == name)
    }

    /// The same workload at smoke-test scale: 60 documents on 8 peers.
    #[cfg(test)]
    pub fn shrunk(mut self) -> Workload {
        self.peers = 8;
        self.corpus.num_docs = 60;
        self.corpus.vocab_size = self.corpus.vocab_size.min(400);
        self.corpus.num_topics = 5;
        self.corpus.topic_vocab = 30;
        self.corpus.doc_len_mean = 40;
        self.corpus.doc_len_spread = 20;
        self.pools = 4;
        self.log.num_queries = 40;
        self.log.distinct_queries = 10;
        self.log.min_term_df = self.log.min_term_df.map(|_| 5);
        self.overlap_floor = 0.0;
        self
    }

    /// Generates the corpus and one pass's query texts from `seed`: instance
    /// `i` is the `i / pools`-th query of pool `i % pools`.
    pub fn inputs(&self, seed: u64) -> (SyntheticCorpus, Vec<String>) {
        let corpus = CorpusGenerator::new(self.corpus.clone(), seed).generate();
        let pools: Vec<QueryLog> = (0..self.pools as u64)
            .map(|pool| {
                QueryLogGenerator::new(self.log.clone(), seed ^ 0x51 ^ (pool << 8))
                    .generate(&corpus)
            })
            .collect();
        let queries = (0..self.log.num_queries)
            .flat_map(|i| pools.iter().map(move |pool| pool.queries[i].text.clone()))
            .collect();
        (corpus, queries)
    }

    /// A network builder carrying the pinned configuration (no documents yet).
    pub fn network(&self, seed: u64) -> AlvisNetworkBuilder {
        let builder = AlvisNetwork::builder()
            .peers(self.peers)
            .dht(DhtConfig::default())
            .planner(BestEffort)
            .seed(seed);
        let builder = match self.index {
            Index::Hdk => builder.strategy(Hdk::new(HDK)),
            Index::SingleTermFull => builder.strategy(SingleTermFull),
        };
        if self.faulty {
            builder
                .replication(Arc::new(HotKeyReplication::new(3)))
                .retry_policy(RetryPolicy::default())
        } else {
            builder
        }
    }

    /// The plane `faulty_skewed` runs its timed phase under: seeded message
    /// faults plus crashed peers. `served` is every peer's serve count over the
    /// fault-free warm-up pass; the peers that crash are the ones whose count
    /// is nearest the mean, so that every seed loses the same share of probe
    /// traffic (about `CRASHED_PEERS / peers`) instead of whatever two random
    /// ring arcs happen to carry.
    pub fn fault_plane(&self, seed: u64, served: &[u64]) -> FaultPlane {
        let mut plane = FaultPlane::seeded(seed)
            .with_loss(LOSS_RATE)
            .with_slow(SLOW_RATE)
            .with_corruption(CORRUPT_RATE);
        let mean = served.iter().sum::<u64>() / served.len().max(1) as u64;
        let mut by_distance: Vec<usize> = (0..served.len()).collect();
        by_distance.sort_by_key(|&peer| (served[peer].abs_diff(mean), peer));
        for &peer in by_distance.iter().take(CRASHED_PEERS) {
            plane.crash(peer);
        }
        plane
    }

    /// One request per instance, in order; the origin is the instance index
    /// modulo the peer count.
    pub fn requests(&self, queries: &[String]) -> Vec<QueryRequest> {
        queries
            .iter()
            .enumerate()
            .map(|(i, text)| {
                QueryRequest::new(text.clone())
                    .from_peer(i % self.peers)
                    .top_k(TOP_K)
                    .threshold_mode(ThresholdMode::RankSafe)
            })
            .collect()
    }
}

/// `Peer::served_requests` of every peer: how many probes each has served.
pub fn served_requests(net: &AlvisNetwork) -> Vec<u64> {
    let dht = net.global_index().dht();
    (0..net.peer_count())
        .map(|i| dht.peer(i).served_requests)
        .collect()
}

/// Digests of a workload's generated inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputDigests {
    pub corpus: u64,
    pub log: u64,
}

impl InputDigests {
    pub fn of(corpus: &SyntheticCorpus, queries: &[String]) -> Self {
        let mut c = Fnv1a::default();
        for doc in &corpus.docs {
            c.write(doc.title.as_bytes());
            c.write(&[0]);
            c.write(doc.body.as_bytes());
            c.write(&[0]);
        }
        let mut l = Fnv1a::default();
        for text in queries {
            l.write(text.as_bytes());
            l.write(&[0]);
        }
        InputDigests {
            corpus: c.finish(),
            log: l.finish(),
        }
    }
}

/// The committed digests: `workload seed corpus log` per line, `#` comments.
const PINNED: &str = include_str!("../input_digests.txt");

/// The pinned digests of `workload` at `seed`, if that pair is pinned.
pub fn pinned_digests(workload: &str, seed: u64) -> Option<InputDigests> {
    PINNED
        .lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok();
            (fields.next()? == workload && fields.next()?.parse::<u64>().ok()? == seed).then_some(
                InputDigests {
                    corpus: hex(fields.next()?)?,
                    log: hex(fields.next()?)?,
                },
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::samples_beyond;

    #[test]
    fn every_pass_leaves_forty_samples_beyond_p99() {
        for w in all() {
            let instances = w.pools * w.log.num_queries;
            assert_eq!(samples_beyond(instances, 99.0), 40, "{}", w.name);
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = Workload::named("lattice_sparse").unwrap().shrunk();
        let (c1, l1) = w.inputs(7);
        let (c2, l2) = w.inputs(7);
        let (c3, l3) = w.inputs(8);
        assert_eq!(InputDigests::of(&c1, &l1), InputDigests::of(&c2, &l2));
        assert_ne!(InputDigests::of(&c1, &l1), InputDigests::of(&c3, &l3));
    }

    #[test]
    fn default_and_holdout_seeds_are_pinned_for_every_workload() {
        for w in all() {
            for seed in [DEFAULT_SEED, HOLDOUT_SEED] {
                assert!(
                    pinned_digests(w.name, seed).is_some(),
                    "{} is not pinned at seed {seed}",
                    w.name
                );
            }
        }
        assert_eq!(pinned_digests("lattice_sparse", 1), None);
    }
}

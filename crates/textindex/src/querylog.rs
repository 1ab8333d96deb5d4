//! Query-log generation.
//!
//! The Query-Driven Indexing strategy depends on realistic query *popularity*
//! statistics: a small set of queries accounts for most of the load (Zipf), queries
//! contain 1–4 terms, and popular queries change over time. The [`QueryLogGenerator`]
//! produces such logs against a [`SyntheticCorpus`] so that queries actually have
//! matching documents, and can inject a popularity *drift* halfway through the log to
//! exercise QDI's index-eviction mechanism (the root `tests/qdi_adaptivity.rs`'s
//! `popularity_drift_causes_evictions_and_new_activations`).

use crate::corpus::SyntheticCorpus;
use alvisp2p_netsim::{SimRng, Zipf};

/// A single query: its raw text and the position it occupies in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoggedQuery {
    /// Raw query text (space-separated terms, unanalyzed).
    pub text: String,
    /// Identifier of the distinct query this instance was sampled from.
    pub query_id: usize,
    /// Position in the log (0-based).
    pub sequence: usize,
}

/// Configuration of the query-log generator.
#[derive(Clone, Debug)]
pub struct QueryLogConfig {
    /// Total number of query instances in the log.
    pub num_queries: usize,
    /// Number of distinct queries the instances are sampled from.
    pub distinct_queries: usize,
    /// Zipf exponent of query popularity (≈0.8–1.0 for web logs).
    pub popularity_exponent: f64,
    /// Minimum number of terms per query.
    pub min_terms: usize,
    /// Maximum number of terms per query.
    pub max_terms: usize,
    /// If `true`, the popularity ranking is rotated halfway through the log so that
    /// previously popular queries become rare and vice versa (tests QDI adaptivity).
    pub popularity_drift: bool,
    /// When `Some(df)`, query terms are drawn only from words appearing in more
    /// than `df` documents — the globally *frequent* terms in HDK's sense. Such a
    /// head-term log concentrates the workload on the long posting lists that
    /// multi-term keys exist to shorten.
    pub min_term_df: Option<usize>,
    /// When `Some(w)` (meaningful together with `min_term_df`), the terms of a
    /// multi-term query must co-occur within `w` token positions in the sampled
    /// document — the same spread test as the HDK proximity filter, so the
    /// query's own multi-term key is guaranteed a generating document.
    pub cooccurrence_window: Option<u32>,
}

impl Default for QueryLogConfig {
    fn default() -> Self {
        QueryLogConfig {
            num_queries: 2_000,
            distinct_queries: 300,
            popularity_exponent: 0.9,
            min_terms: 2,
            max_terms: 3,
            popularity_drift: false,
            min_term_df: None,
            cooccurrence_window: None,
        }
    }
}

impl QueryLogConfig {
    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        QueryLogConfig {
            num_queries: 200,
            distinct_queries: 40,
            ..Default::default()
        }
    }
}

/// A generated query log.
#[derive(Clone, Debug)]
pub struct QueryLog {
    /// The query instances in log order.
    pub queries: Vec<LoggedQuery>,
    /// The distinct query strings, indexed by `query_id`.
    pub distinct: Vec<String>,
    /// The configuration used.
    pub config: QueryLogConfig,
}

impl QueryLog {
    /// Number of query instances.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The number of instances of each distinct query (indexed by `query_id`).
    pub fn popularity_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.distinct.len()];
        for q in &self.queries {
            hist[q.query_id] += 1;
        }
        hist
    }
}

/// Generator of query logs over a synthetic corpus.
#[derive(Clone, Debug)]
pub struct QueryLogGenerator {
    config: QueryLogConfig,
    seed: u64,
}

impl QueryLogGenerator {
    /// Creates a generator.
    pub fn new(config: QueryLogConfig, seed: u64) -> Self {
        QueryLogGenerator { config, seed }
    }

    /// Generates a query log whose queries are built from terms that co-occur in
    /// corpus documents (so multi-term queries have at least one matching document).
    pub fn generate(&self, corpus: &SyntheticCorpus) -> QueryLog {
        let cfg = &self.config;
        let mut rng = SimRng::new(self.seed).derive(0x9E);

        // Head-term mode: the pool of words frequent enough (document frequency
        // above `min_term_df`) to qualify as query terms.
        let frequent: Option<std::collections::HashSet<&str>> = cfg.min_term_df.map(|min_df| {
            let mut df: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
            for doc in &corpus.docs {
                let words: std::collections::HashSet<&str> = doc.body.split_whitespace().collect();
                for w in words {
                    *df.entry(w).or_insert(0) += 1;
                }
            }
            df.into_iter()
                .filter(|(w, n)| *n > min_df && w.len() >= 3)
                .map(|(w, _)| w)
                .collect()
        });

        // Build the pool of distinct queries by sampling documents and picking a few
        // of their (non-head) terms.
        let mut distinct = Vec::with_capacity(cfg.distinct_queries);
        let mut guard = 0usize;
        while distinct.len() < cfg.distinct_queries && guard < cfg.distinct_queries * 50 {
            guard += 1;
            let doc = &corpus.docs[rng.gen_range(0..corpus.docs.len())];
            let words: Vec<&str> = doc.body.split_whitespace().collect();
            if words.len() < cfg.max_terms {
                continue;
            }
            let n_terms = rng.gen_range(cfg.min_terms..=cfg.max_terms);
            let mut picked: Vec<&str> = Vec::new();
            if let Some(frequent) = &frequent {
                // Head-term mode: anchor on a frequent word and collect distinct
                // frequent words within the co-occurrence window after it, so the
                // picked terms' spread stays within the window.
                let anchors: Vec<usize> = words
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| frequent.contains(**w))
                    .map(|(i, _)| i)
                    .collect();
                if anchors.len() < n_terms {
                    continue;
                }
                let anchor = anchors[rng.gen_range(0..anchors.len())];
                picked.push(words[anchor]);
                let end = match cfg.cooccurrence_window {
                    Some(w) => words.len().min(anchor + w as usize + 1),
                    None => words.len(),
                };
                for word in &words[anchor + 1..end] {
                    if picked.len() >= n_terms {
                        break;
                    }
                    if frequent.contains(word) && !picked.contains(word) {
                        picked.push(word);
                    }
                }
            } else {
                // Prefer rarer (longer-rank) terms: sample positions and keep
                // distinct words.
                let mut attempts = 0;
                while picked.len() < n_terms && attempts < 50 {
                    attempts += 1;
                    let w = words[rng.gen_range(0..words.len())];
                    if !picked.contains(&w) && w.len() >= 3 {
                        picked.push(w);
                    }
                }
            }
            if picked.len() < cfg.min_terms {
                continue;
            }
            picked.sort_unstable();
            let q = picked.join(" ");
            if !distinct.contains(&q) {
                distinct.push(q);
            }
        }
        // If the corpus was too small to produce enough distinct queries, fall back to
        // single vocabulary terms.
        let mut vi = 0usize;
        while distinct.len() < cfg.distinct_queries && vi < corpus.vocabulary.len() {
            let q = corpus.vocabulary[vi].clone();
            if !distinct.contains(&q) {
                distinct.push(q);
            }
            vi += 1;
        }

        let zipf = Zipf::new(distinct.len().max(1), cfg.popularity_exponent);
        let mut queries = Vec::with_capacity(cfg.num_queries);
        let half = cfg.num_queries / 2;
        for seq in 0..cfg.num_queries {
            let rank = zipf.sample(&mut rng);
            // Popularity drift: in the second half of the log the rank order is rotated
            // by half the pool, so the head queries change.
            let query_id = if cfg.popularity_drift && seq >= half {
                (rank + distinct.len() / 2) % distinct.len()
            } else {
                rank
            };
            queries.push(LoggedQuery {
                text: distinct[query_id].clone(),
                query_id,
                sequence: seq,
            });
        }

        QueryLog {
            queries,
            distinct,
            config: cfg.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusConfig, CorpusGenerator};

    fn corpus() -> SyntheticCorpus {
        CorpusGenerator::new(CorpusConfig::tiny(), 11).generate()
    }

    #[test]
    fn log_has_requested_size_and_term_counts() {
        let c = corpus();
        let cfg = QueryLogConfig::tiny();
        let log = QueryLogGenerator::new(cfg.clone(), 1).generate(&c);
        assert_eq!(log.len(), cfg.num_queries);
        assert_eq!(log.distinct.len(), cfg.distinct_queries);
        assert!(!log.is_empty());
        for q in &log.queries {
            let terms = q.text.split_whitespace().count();
            assert!(terms >= 1 && terms <= cfg.max_terms, "query '{}'", q.text);
            assert_eq!(&log.distinct[q.query_id], &q.text);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let c = corpus();
        let a = QueryLogGenerator::new(QueryLogConfig::tiny(), 3).generate(&c);
        let b = QueryLogGenerator::new(QueryLogConfig::tiny(), 3).generate(&c);
        assert_eq!(a.queries, b.queries);
        let d = QueryLogGenerator::new(QueryLogConfig::tiny(), 4).generate(&c);
        assert_ne!(a.queries, d.queries);
    }

    #[test]
    fn popularity_is_skewed() {
        let c = corpus();
        let log = QueryLogGenerator::new(QueryLogConfig::tiny(), 5).generate(&c);
        let mut hist = log.popularity_histogram();
        hist.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(hist.iter().sum::<usize>(), log.len());
        // The most popular query should be much more frequent than the median one.
        assert!(
            hist[0] >= 3 * hist[hist.len() / 2].max(1),
            "histogram head {hist:?}"
        );
    }

    #[test]
    fn queries_have_matching_documents() {
        let c = corpus();
        let log = QueryLogGenerator::new(QueryLogConfig::tiny(), 7).generate(&c);
        // Every multi-term query was sampled from a single document, so at least one
        // document must contain all of its terms.
        let mut checked = 0;
        for q in log.distinct.iter().take(20) {
            let terms: Vec<&str> = q.split_whitespace().collect();
            if terms.len() < 2 {
                continue;
            }
            let hit = c.docs.iter().any(|d| {
                let words: std::collections::HashSet<&str> = d.body.split_whitespace().collect();
                terms.iter().all(|t| words.contains(t))
            });
            assert!(hit, "no document matches query '{q}'");
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn head_term_log_draws_frequent_cooccurring_terms() {
        let c = corpus();
        // Document frequencies, computed the same way the generator does.
        let mut df: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for d in &c.docs {
            let words: std::collections::HashSet<&str> = d.body.split_whitespace().collect();
            for w in words {
                *df.entry(w).or_insert(0) += 1;
            }
        }
        let min_df = {
            // Pick a threshold that leaves a healthy head pool in the tiny corpus.
            let mut counts: Vec<usize> = df.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts[counts.len() / 4]
        };
        let window = 20u32;
        let cfg = QueryLogConfig {
            num_queries: 200,
            distinct_queries: 20,
            min_terms: 2,
            max_terms: 2,
            min_term_df: Some(min_df),
            cooccurrence_window: Some(window),
            ..Default::default()
        };
        let log = QueryLogGenerator::new(cfg, 17).generate(&c);
        let mut windowed_pairs = 0;
        for q in &log.distinct {
            let terms: Vec<&str> = q.split_whitespace().collect();
            if terms.len() < 2 {
                continue; // corpus-too-small fallback fills with vocabulary singles
            }
            for t in &terms {
                assert!(
                    df.get(t).copied().unwrap_or(0) > min_df,
                    "head-term query '{q}' picked infrequent term '{t}'"
                );
            }
            // Some document must contain both terms within the window.
            let hit = c.docs.iter().any(|d| {
                let words: Vec<&str> = d.body.split_whitespace().collect();
                let pos = |t: &str| -> Vec<u32> {
                    words
                        .iter()
                        .enumerate()
                        .filter(|(_, w)| **w == t)
                        .map(|(i, _)| i as u32)
                        .collect()
                };
                let (pa, pb) = (pos(terms[0]), pos(terms[1]));
                pa.iter()
                    .any(|a| pb.iter().any(|b| a.abs_diff(*b) <= window))
            });
            assert!(hit, "no document holds '{q}' within {window} positions");
            windowed_pairs += 1;
        }
        assert!(
            windowed_pairs > 0,
            "head log produced no multi-term queries"
        );
    }

    #[test]
    fn drift_changes_the_popular_queries() {
        let c = corpus();
        let cfg = QueryLogConfig {
            popularity_drift: true,
            num_queries: 400,
            distinct_queries: 40,
            ..QueryLogConfig::tiny()
        };
        let log = QueryLogGenerator::new(cfg, 9).generate(&c);
        let half = log.len() / 2;
        let top_of = |range: std::ops::Range<usize>| -> usize {
            let mut hist = vec![0usize; log.distinct.len()];
            for q in &log.queries[range] {
                hist[q.query_id] += 1;
            }
            hist.iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .map(|(i, _)| i)
                .unwrap()
        };
        let top_first = top_of(0..half);
        let top_second = top_of(half..log.len());
        assert_ne!(
            top_first, top_second,
            "drift should change the most popular query"
        );
    }
}

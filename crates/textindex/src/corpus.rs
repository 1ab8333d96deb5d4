//! Synthetic corpora.
//!
//! The published AlvisP2P evaluations ran on Web and Wikipedia-style collections that
//! are not redistributable. What the scalability results depend on, however, is not
//! the exact documents but their *distributional* properties: a Zipfian vocabulary,
//! topical co-occurrence of terms, and realistic document-length variation. The
//! [`CorpusGenerator`] produces seeded collections with exactly those properties, so
//! every experiment in `alvisp2p-bench` is reproducible bit-for-bit.
//!
//! A small hand-written [`demo_corpus`] about P2P information retrieval is also
//! provided for the examples and quick tests.

use alvisp2p_netsim::{SimRng, Zipf};

/// Configuration of the synthetic corpus generator.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Vocabulary size (number of distinct pseudo-words).
    pub vocab_size: usize,
    /// Zipf exponent of the global term distribution (≈1.0 for natural language).
    pub zipf_exponent: f64,
    /// Mean document length in words.
    pub doc_len_mean: usize,
    /// Documents lengths are drawn uniformly from `mean ± spread` (clamped to ≥ 8).
    pub doc_len_spread: usize,
    /// Number of latent topics; each document mixes one topic with background terms.
    pub num_topics: usize,
    /// Number of vocabulary terms associated with each topic.
    pub topic_vocab: usize,
    /// Probability that a word is drawn from the document's topic rather than the
    /// global background distribution.
    pub topic_mix: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            num_docs: 1_000,
            vocab_size: 5_000,
            zipf_exponent: 1.0,
            doc_len_mean: 120,
            doc_len_spread: 60,
            num_topics: 25,
            topic_vocab: 80,
            topic_mix: 0.5,
        }
    }
}

impl CorpusConfig {
    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        CorpusConfig {
            num_docs: 60,
            vocab_size: 400,
            doc_len_mean: 40,
            doc_len_spread: 20,
            num_topics: 6,
            topic_vocab: 30,
            ..Default::default()
        }
    }
}

/// A generated document (title, body and the latent topic it was drawn from).
#[derive(Clone, Debug)]
pub struct GeneratedDoc {
    /// Synthetic title.
    pub title: String,
    /// Synthetic body text.
    pub body: String,
    /// Index of the latent topic the document belongs to.
    pub topic: usize,
}

/// A generated collection: the documents plus the vocabulary and topic structure that
/// produced them (the query-log generator reuses the latter so that queries have
/// matching documents).
#[derive(Clone, Debug)]
pub struct SyntheticCorpus {
    /// The generated documents.
    pub docs: Vec<GeneratedDoc>,
    /// The full vocabulary, most frequent first.
    pub vocabulary: Vec<String>,
    /// For each topic, the indices (into `vocabulary`) of its characteristic terms.
    pub topics: Vec<Vec<usize>>,
    /// The configuration used.
    pub config: CorpusConfig,
}

impl SyntheticCorpus {
    /// Total number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// Generator of synthetic document collections.
#[derive(Clone, Debug)]
pub struct CorpusGenerator {
    config: CorpusConfig,
    seed: u64,
}

impl CorpusGenerator {
    /// Creates a generator with the given configuration and seed.
    pub fn new(config: CorpusConfig, seed: u64) -> Self {
        CorpusGenerator { config, seed }
    }

    /// Generates the corpus.
    pub fn generate(&self) -> SyntheticCorpus {
        let cfg = &self.config;
        let rng = SimRng::new(self.seed).derive(0xC0);
        let vocabulary = build_vocabulary(cfg.vocab_size);

        // Topics: each topic owns a random subset of mid-frequency vocabulary terms
        // (skipping the extreme head, which acts as background/stopword-like noise).
        let head = (cfg.vocab_size / 50).max(8).min(cfg.vocab_size);
        let mut topics = Vec::with_capacity(cfg.num_topics);
        for t in 0..cfg.num_topics {
            let mut topic_rng = rng.derive(1000 + t as u64);
            let candidates: Vec<usize> = (head..cfg.vocab_size).collect();
            let picked =
                topic_rng.sample_indices(candidates.len(), cfg.topic_vocab.min(candidates.len()));
            topics.push(
                picked
                    .into_iter()
                    .map(|i| candidates[i])
                    .collect::<Vec<usize>>(),
            );
        }
        if topics.is_empty() {
            topics.push((0..cfg.vocab_size.min(cfg.topic_vocab)).collect());
        }

        let global = Zipf::new(cfg.vocab_size, cfg.zipf_exponent);
        // Within a topic, terms are also skewed (some terms are more characteristic).
        let within_topic = Zipf::new(cfg.topic_vocab.max(1), 0.8);

        let mut docs = Vec::with_capacity(cfg.num_docs);
        for d in 0..cfg.num_docs {
            let mut doc_rng = rng.derive(2000 + d as u64);
            let topic = doc_rng.gen_range(0..topics.len());
            let lo = cfg.doc_len_mean.saturating_sub(cfg.doc_len_spread).max(8);
            let hi = cfg.doc_len_mean + cfg.doc_len_spread;
            let len = doc_rng.gen_range(lo..=hi);
            let mut words = Vec::with_capacity(len);
            for _ in 0..len {
                let word_idx = if doc_rng.gen_bool(cfg.topic_mix) && !topics[topic].is_empty() {
                    let r = within_topic.sample(&mut doc_rng) % topics[topic].len();
                    topics[topic][r]
                } else {
                    global.sample(&mut doc_rng)
                };
                words.push(vocabulary[word_idx].as_str());
            }
            let title_terms: Vec<&str> = topics[topic]
                .iter()
                .take(3)
                .map(|i| vocabulary[*i].as_str())
                .collect();
            docs.push(GeneratedDoc {
                title: format!("doc{d} {}", title_terms.join(" ")),
                body: words.join(" "),
                topic,
            });
        }

        SyntheticCorpus {
            docs,
            vocabulary,
            topics,
            config: cfg.clone(),
        }
    }
}

/// Builds a deterministic pseudo-word vocabulary of the given size, most frequent rank
/// first. Words are pronounceable consonant-vowel syllable sequences ("pa", "tiro",
/// "kelusa", …) so they survive the analysis pipeline unchanged in interesting ways
/// (some are stemmed, none are stopwords).
pub fn build_vocabulary(size: usize) -> Vec<String> {
    const CONSONANTS: [&str; 14] = [
        "p", "t", "k", "s", "m", "n", "l", "r", "d", "b", "g", "f", "v", "z",
    ];
    const VOWELS: [&str; 5] = ["a", "e", "i", "o", "u"];
    let mut words = Vec::with_capacity(size);
    let mut n = 0usize;
    'outer: for syllables in 1..=4usize {
        // Enumerate all syllable sequences of this length deterministically.
        let per_syllable = CONSONANTS.len() * VOWELS.len();
        let total = per_syllable.pow(syllables as u32);
        for i in 0..total {
            let mut word = String::new();
            let mut x = i;
            for _ in 0..syllables {
                let c = CONSONANTS[x % CONSONANTS.len()];
                x /= CONSONANTS.len();
                let v = VOWELS[x % VOWELS.len()];
                x /= VOWELS.len();
                word.push_str(c);
                word.push_str(v);
            }
            words.push(word);
            n += 1;
            if n >= size {
                break 'outer;
            }
        }
    }
    words.truncate(size);
    words
}

/// A small hand-written corpus about P2P information retrieval, used by the examples
/// and quick-start documentation.
pub fn demo_corpus() -> Vec<(String, String)> {
    let docs: [(&str, &str); 12] = [
        (
            "Scalable peer-to-peer text retrieval",
            "A peer to peer network can index a global document collection by storing \
             posting lists for carefully chosen term combinations in a distributed hash \
             table. Truncated posting lists keep the bandwidth consumption bounded.",
        ),
        (
            "Highly discriminative keys",
            "Highly discriminative keys are term combinations that appear in few documents. \
             When a posting list grows beyond the maximum size, the indexing peer generates \
             expansions of the key with additional terms to keep posting lists short.",
        ),
        (
            "Query driven indexing",
            "Query driven indexing observes the popularity of queries and indexes only \
             frequently queried term combinations. Obsolete keys are removed when their \
             popularity decays, keeping the distributed index adaptive.",
        ),
        (
            "Distributed hash tables",
            "A distributed hash table assigns every key to a responsible peer. Routing \
             tables of logarithmic size allow a lookup to reach the responsible peer in a \
             logarithmic number of hops even when the identifier space is skewed.",
        ),
        (
            "Congestion control for structured overlays",
            "Popular keys concentrate request load on few peers. A congestion control \
             mechanism with adaptive windows prevents congestion collapse and keeps the \
             goodput of the overlay high under heavy retrieval load.",
        ),
        (
            "BM25 ranking with global statistics",
            "The ranking layer computes BM25 scores from global document frequencies, \
             average document length and term frequencies that are stored in the peer to \
             peer network.",
        ),
        (
            "Digital libraries in federated search",
            "A digital library can process its local documents with a specialized engine, \
             export a document digest, and make the collection searchable through the \
             global peer to peer index while keeping access control at the library.",
        ),
        (
            "Posting list intersection costs",
            "Retrieval with a single term index requires shipping long posting lists \
             between peers so that the querying peer can intersect them. For frequent \
             terms the transferred volume grows with the collection and does not scale.",
        ),
        (
            "Web search engines",
            "Centralized web search engines crawl the web, build an inverted index in a \
             data center and answer keyword queries with ranked result lists and snippets.",
        ),
        (
            "Multimedia publishing with descriptions",
            "Audio and video files can be published by indexing an XML description that \
             contains the original URL and a textual summary of the multimedia content.",
        ),
        (
            "Access rights for shared documents",
            "A document owner can keep a document private, protect it with a username and \
             password, or make it freely accessible while it remains stored at the owning \
             peer.",
        ),
        (
            "Query lattice processing",
            "To answer a multi keyword query the querying peer explores the lattice of \
             term combinations in decreasing size order, retrieves truncated posting lists \
             for indexed keys and merges them into a final ranked result.",
        ),
    ];
    docs.iter()
        .map(|(t, b)| ((*t).to_string(), (*b).to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn vocabulary_is_deterministic_distinct_and_sized() {
        let v1 = build_vocabulary(1000);
        let v2 = build_vocabulary(1000);
        assert_eq!(v1, v2);
        assert_eq!(v1.len(), 1000);
        let set: HashSet<&String> = v1.iter().collect();
        assert_eq!(set.len(), 1000, "vocabulary has duplicates");
        assert!(v1.iter().all(|w| w.len() >= 2 && w.len() <= 10));
    }

    #[test]
    fn vocabulary_scales_to_large_sizes() {
        let v = build_vocabulary(60_000);
        assert_eq!(v.len(), 60_000);
        let set: HashSet<&String> = v.iter().collect();
        assert_eq!(set.len(), 60_000);
    }

    #[test]
    fn corpus_generation_is_deterministic() {
        let cfg = CorpusConfig::tiny();
        let a = CorpusGenerator::new(cfg.clone(), 7).generate();
        let b = CorpusGenerator::new(cfg, 7).generate();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.docs[0].body, b.docs[0].body);
        assert_eq!(a.docs[a.len() - 1].body, b.docs[b.len() - 1].body);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = CorpusConfig::tiny();
        let a = CorpusGenerator::new(cfg.clone(), 1).generate();
        let b = CorpusGenerator::new(cfg, 2).generate();
        assert_ne!(a.docs[0].body, b.docs[0].body);
    }

    #[test]
    fn documents_respect_length_bounds() {
        let cfg = CorpusConfig::tiny();
        let corpus = CorpusGenerator::new(cfg.clone(), 3).generate();
        assert_eq!(corpus.len(), cfg.num_docs);
        for d in &corpus.docs {
            let words = d.body.split_whitespace().count();
            assert!(words >= cfg.doc_len_mean - cfg.doc_len_spread || words >= 8);
            assert!(words <= cfg.doc_len_mean + cfg.doc_len_spread);
            assert!(d.topic < cfg.num_topics);
        }
    }

    #[test]
    fn term_frequencies_are_skewed() {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(), 5).generate();
        let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for d in &corpus.docs {
            for w in d.body.split_whitespace() {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf-like: the most frequent term occurs far more often than the median term.
        let median = freqs[freqs.len() / 2];
        assert!(freqs[0] >= median * 5, "head {} median {median}", freqs[0]);
    }

    #[test]
    fn topical_cooccurrence_is_present() {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(), 9).generate();
        // Documents of the same topic should share more vocabulary than documents of
        // different topics (on average).
        let doc_terms: Vec<HashSet<&str>> = corpus
            .docs
            .iter()
            .map(|d| d.body.split_whitespace().collect())
            .collect();
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..corpus.len() {
            for j in (i + 1)..corpus.len().min(i + 20) {
                let overlap = doc_terms[i].intersection(&doc_terms[j]).count();
                if corpus.docs[i].topic == corpus.docs[j].topic {
                    same.push(overlap);
                } else {
                    diff.push(overlap);
                }
            }
        }
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        assert!(
            mean(&same) > mean(&diff),
            "same-topic overlap {} vs cross-topic {}",
            mean(&same),
            mean(&diff)
        );
    }

    #[test]
    fn demo_corpus_is_nonempty_and_on_topic() {
        let docs = demo_corpus();
        assert!(docs.len() >= 10);
        assert!(docs.iter().any(|(t, _)| t.to_lowercase().contains("peer")));
        for (title, body) in &docs {
            assert!(!title.is_empty());
            assert!(body.split_whitespace().count() > 10);
        }
    }
}

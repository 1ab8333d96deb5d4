//! The analysis pipeline: tokenize → stopword-filter → stem.
//!
//! Both document indexing and query processing must run text through exactly the same
//! pipeline, otherwise query terms and index terms would not match. The pipeline is
//! configurable (stopword list, stemming on/off) because the paper's heterogeneity
//! story allows peers to run different local indexing models as long as the digest
//! they publish uses agreed-upon terms.

use crate::intern::TermId;
use crate::stem::stem;
use crate::stopwords::Stopwords;
use crate::tokenize::tokenize;

/// An analyzed term occurrence: the normalized term and its word position in the text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TermOccurrence {
    /// The normalized (lowercased, stemmed) term.
    pub term: String,
    /// Zero-based word position in the original text.
    pub position: u32,
}

/// Configuration of the analysis pipeline.
#[derive(Clone, Debug)]
pub struct AnalyzerConfig {
    /// Whether stopwords are removed.
    pub remove_stopwords: bool,
    /// Whether terms are stemmed with the Porter stemmer.
    pub stem: bool,
    /// Minimum term length kept (after normalization).
    pub min_term_len: usize,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            remove_stopwords: true,
            stem: true,
            min_term_len: 2,
        }
    }
}

/// The text-analysis pipeline shared by indexing and querying.
#[derive(Clone, Debug)]
pub struct Analyzer {
    config: AnalyzerConfig,
    stopwords: Stopwords,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new(AnalyzerConfig::default(), Stopwords::english())
    }
}

impl Analyzer {
    /// Creates an analyzer with explicit configuration.
    pub fn new(config: AnalyzerConfig, stopwords: Stopwords) -> Self {
        Analyzer { config, stopwords }
    }

    /// An analyzer that only lowercases and tokenizes (no stopwords, no stemming).
    pub fn plain() -> Self {
        Analyzer::new(
            AnalyzerConfig {
                remove_stopwords: false,
                stem: false,
                min_term_len: 1,
            },
            Stopwords::none(),
        )
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Analyzes a text into term occurrences (keeping original word positions).
    pub fn analyze(&self, text: &str) -> Vec<TermOccurrence> {
        tokenize(text)
            .into_iter()
            .filter(|t| t.text.chars().count() >= self.config.min_term_len)
            .filter(|t| !self.config.remove_stopwords || !self.stopwords.contains(&t.text))
            .map(|t| TermOccurrence {
                term: if self.config.stem {
                    stem(&t.text)
                } else {
                    t.text
                },
                position: t.position,
            })
            .collect()
    }

    /// Analyzes a text and returns only the distinct terms (sorted, deduplicated).
    pub fn analyze_distinct(&self, text: &str) -> Vec<String> {
        let mut terms: Vec<String> = self.analyze(text).into_iter().map(|o| o.term).collect();
        terms.sort_unstable();
        terms.dedup();
        terms
    }

    /// Analyzes a query string into its (distinct, sorted) query terms.
    ///
    /// Queries go through the same normalization as documents so that query terms and
    /// index terms live in the same vocabulary.
    pub fn analyze_query(&self, query: &str) -> Vec<String> {
        self.analyze_distinct(query)
    }

    /// Interned-term variant of [`Analyzer::analyze_query`] — **lookup-only**.
    ///
    /// It never interns: it resolves query terms through
    /// [`crate::intern::try_term_id`] and silently drops terms that were never
    /// interned. A term no document ever published cannot match anything, so
    /// dropping it changes no result — and an untrusted query stream full of
    /// never-seen terms cannot grow the process-wide leaky interner (pinned by
    /// `tests/query_path_interning.rs` in `alvisp2p-core`).
    ///
    /// The existence check is against the **process-wide** interner, not any
    /// particular network's vocabulary: in a process hosting several simulated
    /// networks, a term published only elsewhere still resolves here and is
    /// probed (and found missing) exactly as before this change. Deployed
    /// nodes run one network per process, where "interned" and "published"
    /// coincide.
    pub fn analyze_query_ids(&self, query: &str) -> Vec<TermId> {
        let mut ids: Vec<TermId> = self
            .analyze(query)
            .into_iter()
            .filter_map(|o| crate::intern::try_term_id(&o.term))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_removes_stopwords_and_stems() {
        let a = Analyzer::default();
        let occs = a.analyze("The retrieval of documents in the distributed networks");
        let terms: Vec<&str> = occs.iter().map(|o| o.term.as_str()).collect();
        assert_eq!(terms, vec!["retriev", "document", "distribut", "network"]);
        // Positions refer to the original token positions.
        assert_eq!(occs[0].position, 1);
        assert_eq!(occs[1].position, 3);
    }

    #[test]
    fn plain_analyzer_keeps_everything() {
        let a = Analyzer::plain();
        let terms: Vec<String> = a
            .analyze("The Cat AND the Hat")
            .into_iter()
            .map(|o| o.term)
            .collect();
        assert_eq!(terms, vec!["the", "cat", "and", "the", "hat"]);
    }

    #[test]
    fn distinct_terms_are_sorted_and_unique() {
        let a = Analyzer::default();
        let d = a.analyze_distinct("peers and peers and more peers searching searches");
        assert_eq!(d, vec!["peer", "search"]);
    }

    #[test]
    fn interned_analysis_matches_string_analysis() {
        let a = Analyzer::default();
        let text = "peers and peers and more peers searching searches";
        let strs = a.analyze_distinct(text);
        for term in &strs {
            TermId::intern(term);
        }
        let mut resolved: Vec<&str> = a
            .analyze_query_ids(text)
            .iter()
            .map(|id| id.as_str())
            .collect();
        resolved.sort_unstable();
        assert_eq!(resolved, strs);
        assert_eq!(a.analyze_query_ids(""), Vec::new());
    }

    #[test]
    fn query_and_document_share_vocabulary() {
        let a = Analyzer::default();
        let doc_terms = a.analyze_distinct("Scalable peer-to-peer text retrieval systems");
        let query_terms = a.analyze_query("retrieving scalability in peer systems");
        for qt in &query_terms {
            if qt == "scalabl" || qt == "retriev" || qt == "peer" || qt == "system" {
                assert!(
                    doc_terms.contains(qt),
                    "query term {qt} missing from doc terms {doc_terms:?}"
                );
            }
        }
    }

    #[test]
    fn min_term_length_filters_single_letters() {
        let a = Analyzer::default();
        let terms = a.analyze_distinct("x y z database");
        assert_eq!(terms, vec!["databas"]);
    }

    #[test]
    fn empty_input_yields_no_terms() {
        let a = Analyzer::default();
        assert!(a.analyze("").is_empty());
        assert!(a.analyze_query("the of and").is_empty());
    }
}

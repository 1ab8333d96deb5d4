//! Stopword filtering.
//!
//! Stopwords (extremely frequent function words) are removed before indexing. In the
//! AlvisP2P indexing strategy this matters twice: they would dominate the single-term
//! index with enormous posting lists, and they would explode the number of candidate
//! term combinations considered by the HDK key generator.

use std::collections::HashSet;

/// The default English stopword list (a compact variant of the SMART/Terrier lists).
pub const DEFAULT_STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "also",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "s",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "t",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

/// A stopword filter.
#[derive(Clone, Debug)]
pub struct Stopwords {
    words: HashSet<String>,
}

impl Default for Stopwords {
    fn default() -> Self {
        Stopwords::english()
    }
}

impl Stopwords {
    /// The default English stopword list.
    pub fn english() -> Self {
        Stopwords {
            words: DEFAULT_STOPWORDS.iter().map(|w| (*w).to_string()).collect(),
        }
    }

    /// An empty stopword list (no filtering).
    pub fn none() -> Self {
        Stopwords {
            words: HashSet::new(),
        }
    }

    /// Whether `word` (already lowercased) is a stopword.
    pub fn contains(&self, word: &str) -> bool {
        self.words.contains(word)
    }

    /// Number of stopwords in the list.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_list_contains_function_words() {
        let sw = Stopwords::english();
        for w in ["the", "and", "of", "is", "with"] {
            assert!(sw.contains(w), "{w} should be a stopword");
        }
        assert!(!sw.contains("database"));
        assert!(!sw.contains("retrieval"));
        assert_eq!(sw.len(), DEFAULT_STOPWORDS.len());
    }

    #[test]
    fn none_filters_nothing() {
        let sw = Stopwords::none();
        assert!(sw.is_empty());
        assert!(!sw.contains("the"));
    }

    #[test]
    fn default_is_english() {
        assert!(Stopwords::default().contains("the"));
    }

    #[test]
    fn list_has_no_duplicates() {
        let set: HashSet<&str> = DEFAULT_STOPWORDS.iter().copied().collect();
        assert_eq!(set.len(), DEFAULT_STOPWORDS.len());
    }
}

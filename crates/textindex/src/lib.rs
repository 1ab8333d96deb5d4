//! # alvisp2p-textindex
//!
//! The **local search engine** substrate (layer 5) of the AlvisP2P reproduction, plus
//! the workload generators used by the experiment harness. In the original prototype
//! this role is played by the Terrier search engine; here everything is implemented
//! from scratch:
//!
//! * [`mod@tokenize`], [`stopwords`], [`mod@stem`], [`analyze`] — the text-analysis pipeline
//!   (tokenizer, English stopword list, Porter stemmer);
//! * [`intern`] — the process-wide term interner mapping analyzed terms to dense
//!   [`TermId`]s, the substrate of the allocation-free key hot paths upstream;
//! * [`doc`] — documents, the peer-local document store, result snippets;
//! * [`access`] — per-document access rights (public / password-protected / private);
//! * [`index`] — the positional inverted index and mergeable collection statistics;
//! * [`bm25`] — BM25 scoring and local top-k search;
//! * [`corpus`], [`querylog`] — seeded synthetic corpora and Zipfian query logs used
//!   by every experiment.
//!
//! The *Alvis document digest* (the interchange format for plugging external
//! search engines into a peer) lives upstream in `alvisp2p-core`'s `digest`
//! module.
//!
//! ```
//! use alvisp2p_textindex::{Analyzer, Bm25Searcher, DocId, InvertedIndex};
//!
//! let mut index = InvertedIndex::default();
//! index.index_text(DocId::new(0, 0), "peer to peer text retrieval");
//! index.index_text(DocId::new(0, 1), "centralized web search engines");
//!
//! let analyzer = Analyzer::default();
//! let query = analyzer.analyze_query("peer retrieval");
//! let results = Bm25Searcher::new(&index).search(&query, 10);
//! assert_eq!(results[0].doc, DocId::new(0, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod analyze;
pub mod bm25;
pub mod corpus;
pub mod doc;
pub mod index;
pub mod intern;
pub mod querylog;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

pub use access::{AccessDecision, AccessRights, Credentials};
pub use analyze::{Analyzer, AnalyzerConfig, TermOccurrence};
pub use bm25::{bm25_term_score, idf, top_k, Bm25Params, Bm25Searcher, ScoredDoc};
pub use corpus::{
    build_vocabulary, demo_corpus, CorpusConfig, CorpusGenerator, GeneratedDoc, SyntheticCorpus,
};
pub use doc::{DocId, Document, DocumentStore};
pub use index::{CollectionStats, InvertedIndex, Posting, PostingList};
pub use intern::{interned_terms, resolver, Resolver, TermId};
pub use querylog::{LoggedQuery, QueryLog, QueryLogConfig, QueryLogGenerator};
pub use stem::stem;
pub use stopwords::Stopwords;
pub use tokenize::{tokenize, tokenize_terms, Token};

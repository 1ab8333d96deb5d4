//! Query-Driven Indexing (QDI).
//!
//! Where HDK chooses keys from document frequencies during an indexing phase, the
//! Query-Driven approach (Skobeltsyn et al., Infoscale/SIGIR 2007) starts from the
//! single-term index only and lets the **query stream** decide which term combinations
//! deserve a posting list:
//!
//! * every probe for a key — indexed or not — updates usage statistics at the key's
//!   responsible peer (decentralised query-popularity monitoring);
//! * when a non-indexed key becomes *popular* (probes reach an activation threshold)
//!   and is *non-redundant* (the results currently obtainable for it are truncated, so
//!   indexing it adds information), the responsible peer acquires a bounded top-k
//!   posting list on demand and activates the key;
//! * keys that stop being queried become *obsolete* and are deactivated, so the index
//!   continuously adapts to the current query popularity distribution.
//!
//! This module holds the pure decision logic and configuration; the acquisition
//! traffic model and orchestration live in [`crate::network`].

use crate::global_index::KeyUsageStats;
use serde::{Deserialize, Serialize};

/// Configuration of the Query-Driven Indexing strategy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QdiConfig {
    /// Number of probes after which a non-indexed key is considered popular enough to
    /// be activated.
    pub activation_threshold: u64,
    /// Truncation bound of acquired posting lists.
    pub truncation_k: usize,
    /// Maximum key length that may be activated on demand.
    pub max_key_len: usize,
    /// A key that has not been probed for this many queries is obsolete.
    pub obsolescence_window: u64,
    /// Responsible peers scan for obsolete keys every this many queries.
    pub eviction_period: u64,
    /// Only activate keys whose currently available results are truncated
    /// (the non-redundancy condition of the paper).
    pub require_nonredundant: bool,
}

impl Default for QdiConfig {
    fn default() -> Self {
        QdiConfig {
            activation_threshold: 3,
            truncation_k: 200,
            max_key_len: 3,
            obsolescence_window: 2_000,
            eviction_period: 500,
            require_nonredundant: true,
        }
    }
}

/// The activation decision for a probed key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivationDecision {
    /// The key should be activated (on-demand indexed) now.
    Activate,
    /// The key is not popular enough yet.
    NotPopularEnough,
    /// The key is already activated.
    AlreadyActive,
    /// The key is redundant: complete results are already available from sub-keys.
    Redundant,
    /// The key is longer than the configured maximum.
    TooLong,
    /// Single-term keys are part of the base index and never activated on demand.
    SingleTerm,
}

impl ActivationDecision {
    /// Whether the decision is to activate.
    pub fn should_activate(&self) -> bool {
        matches!(self, ActivationDecision::Activate)
    }
}

/// Decides whether a probed key should be activated.
///
/// * `usage` — the key's usage statistics after the current probe;
/// * `activated` — whether the key already has a posting list;
/// * `key_len` — number of terms in the key;
/// * `results_truncated` — whether the results currently obtainable for the key (from
///   its best indexed sub-keys) are truncated; `None` means the caller did not check.
pub fn activation_decision(
    usage: &KeyUsageStats,
    activated: bool,
    key_len: usize,
    results_truncated: Option<bool>,
    config: &QdiConfig,
) -> ActivationDecision {
    if activated {
        return ActivationDecision::AlreadyActive;
    }
    if key_len < 2 {
        return ActivationDecision::SingleTerm;
    }
    if key_len > config.max_key_len {
        return ActivationDecision::TooLong;
    }
    if usage.probes < config.activation_threshold {
        return ActivationDecision::NotPopularEnough;
    }
    if config.require_nonredundant && results_truncated == Some(false) {
        return ActivationDecision::Redundant;
    }
    ActivationDecision::Activate
}

/// Whether an activated key has become obsolete (not probed within the obsolescence
/// window) and should be deactivated at the next eviction scan.
pub fn is_obsolete(usage: &KeyUsageStats, current_seq: u64, config: &QdiConfig) -> bool {
    current_seq.saturating_sub(usage.last_probe) > config.obsolescence_window
}

/// Counters describing QDI's behaviour over a query stream (the root
/// `tests/qdi_adaptivity.rs` checks activations, hits and evictions on it).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct QdiReport {
    /// Queries processed.
    pub queries: u64,
    /// Keys activated on demand.
    pub activations: u64,
    /// Keys deactivated as obsolete.
    pub evictions: u64,
    /// Bytes spent acquiring posting lists for activated keys.
    pub acquisition_bytes: u64,
    /// Probes answered from an activated multi-term key (index hits).
    pub multi_term_hits: u64,
}

impl QdiReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &QdiReport) {
        self.queries += other.queries;
        self.activations += other.activations;
        self.evictions += other.evictions;
        self.acquisition_bytes += other.acquisition_bytes;
        self.multi_term_hits += other.multi_term_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(probes: u64, last_probe: u64) -> KeyUsageStats {
        KeyUsageStats {
            probes,
            hits: 0,
            last_probe,
        }
    }

    #[test]
    fn activation_requires_popularity() {
        let config = QdiConfig::default();
        assert_eq!(
            activation_decision(&usage(1, 0), false, 2, Some(true), &config),
            ActivationDecision::NotPopularEnough
        );
        assert_eq!(
            activation_decision(&usage(3, 0), false, 2, Some(true), &config),
            ActivationDecision::Activate
        );
        assert!(
            activation_decision(&usage(10, 0), false, 2, Some(true), &config).should_activate()
        );
    }

    #[test]
    fn already_active_and_single_terms_are_never_activated() {
        let config = QdiConfig::default();
        assert_eq!(
            activation_decision(&usage(100, 0), true, 2, Some(true), &config),
            ActivationDecision::AlreadyActive
        );
        assert_eq!(
            activation_decision(&usage(100, 0), false, 1, Some(true), &config),
            ActivationDecision::SingleTerm
        );
    }

    #[test]
    fn key_length_bound_is_respected() {
        let config = QdiConfig {
            max_key_len: 2,
            ..Default::default()
        };
        assert_eq!(
            activation_decision(&usage(100, 0), false, 3, Some(true), &config),
            ActivationDecision::TooLong
        );
    }

    #[test]
    fn redundant_keys_are_not_activated() {
        let config = QdiConfig::default();
        assert_eq!(
            activation_decision(&usage(100, 0), false, 2, Some(false), &config),
            ActivationDecision::Redundant
        );
        // Unknown redundancy (None) errs on the side of activating.
        assert_eq!(
            activation_decision(&usage(100, 0), false, 2, None, &config),
            ActivationDecision::Activate
        );
        // With the non-redundancy requirement disabled, complete results don't block.
        let relaxed = QdiConfig {
            require_nonredundant: false,
            ..Default::default()
        };
        assert_eq!(
            activation_decision(&usage(100, 0), false, 2, Some(false), &relaxed),
            ActivationDecision::Activate
        );
    }

    #[test]
    fn obsolescence_depends_on_last_probe() {
        let config = QdiConfig {
            obsolescence_window: 100,
            ..Default::default()
        };
        assert!(!is_obsolete(&usage(5, 950), 1000, &config));
        assert!(!is_obsolete(&usage(5, 900), 1000, &config));
        assert!(is_obsolete(&usage(5, 800), 1000, &config));
        // A key probed "in the future" (clock skew) is never obsolete.
        assert!(!is_obsolete(&usage(5, 2000), 1000, &config));
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = QdiReport {
            queries: 10,
            activations: 2,
            evictions: 1,
            acquisition_bytes: 100,
            multi_term_hits: 5,
        };
        let b = QdiReport {
            queries: 5,
            activations: 1,
            evictions: 0,
            acquisition_bytes: 50,
            multi_term_hits: 2,
        };
        a.merge(&b);
        assert_eq!(a.queries, 15);
        assert_eq!(a.activations, 3);
        assert_eq!(a.evictions, 1);
        assert_eq!(a.acquisition_bytes, 150);
        assert_eq!(a.multi_term_hits, 7);
    }
}

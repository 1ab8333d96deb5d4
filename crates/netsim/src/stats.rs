//! Traffic accounting.
//!
//! [`TrafficStats`] aggregates the number of messages and bytes that crossed the
//! simulated network, broken down by [`TrafficCategory`]. The experiment harness
//! reads these counters to produce the bandwidth columns of every table.

use std::collections::BTreeMap;
use std::fmt;

/// A coarse classification of network traffic, used to attribute bandwidth to the
/// different mechanisms of the system (overlay maintenance vs. indexing vs. retrieval).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TrafficCategory {
    /// DHT overlay maintenance: joins, stabilisation, routing-table exchange.
    Overlay,
    /// DHT lookup/routing messages.
    Routing,
    /// Index construction: posting-list insertions, key activations.
    Indexing,
    /// Retrieval: key probes and posting-list transfers.
    Retrieval,
    /// Ranking: global statistics exchange.
    Ranking,
    /// Anything else (application-defined).
    Other,
}

impl TrafficCategory {
    /// All categories in a stable order (useful for report tables).
    pub const ALL: [TrafficCategory; 6] = [
        TrafficCategory::Overlay,
        TrafficCategory::Routing,
        TrafficCategory::Indexing,
        TrafficCategory::Retrieval,
        TrafficCategory::Ranking,
        TrafficCategory::Other,
    ];

    /// A short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficCategory::Overlay => "overlay",
            TrafficCategory::Routing => "routing",
            TrafficCategory::Indexing => "indexing",
            TrafficCategory::Retrieval => "retrieval",
            TrafficCategory::Ranking => "ranking",
            TrafficCategory::Other => "other",
        }
    }
}

impl fmt::Display for TrafficCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-category message/byte counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counter {
    /// Number of messages.
    pub messages: u64,
    /// Total bytes (payload + envelope overhead).
    pub bytes: u64,
}

/// Aggregate traffic statistics for a simulation run.
#[derive(Clone, Default, Debug)]
pub struct TrafficStats {
    per_category: BTreeMap<TrafficCategory, Counter>,
}

impl TrafficStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records a sent message of `bytes` bytes in `category`.
    pub fn record(&mut self, category: TrafficCategory, bytes: usize) {
        let c = self.per_category.entry(category).or_default();
        c.messages += 1;
        c.bytes += bytes as u64;
    }

    /// Counter for a single category.
    pub fn category(&self, category: TrafficCategory) -> Counter {
        self.per_category
            .get(&category)
            .copied()
            .unwrap_or_default()
    }

    /// Total messages sent across all categories.
    pub fn messages_sent(&self) -> u64 {
        self.per_category.values().map(|c| c.messages).sum()
    }

    /// Total bytes sent across all categories.
    pub fn bytes_sent(&self) -> u64 {
        self.per_category.values().map(|c| c.bytes).sum()
    }

    /// Merges another statistics object into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for (cat, c) in &other.per_category {
            let mine = self.per_category.entry(*cat).or_default();
            mine.messages += c.messages;
            mine.bytes += c.bytes;
        }
    }

    /// Difference `self - baseline`, useful to isolate the traffic of one phase
    /// (e.g. retrieval traffic after an indexing phase). Saturates at zero.
    pub fn since(&self, baseline: &TrafficStats) -> TrafficStats {
        let mut out = TrafficStats::new();
        for cat in TrafficCategory::ALL {
            let a = self.category(cat);
            let b = baseline.category(cat);
            let c = Counter {
                messages: a.messages.saturating_sub(b.messages),
                bytes: a.bytes.saturating_sub(b.bytes),
            };
            if c.messages > 0 || c.bytes > 0 {
                out.per_category.insert(cat, c);
            }
        }
        out
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        self.per_category.clear();
    }

    /// Renders a small human-readable report table.
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<12} {:>12} {:>14}\n",
            "category", "messages", "bytes"
        ));
        for cat in TrafficCategory::ALL {
            let c = self.category(cat);
            if c.messages > 0 {
                s.push_str(&format!(
                    "{:<12} {:>12} {:>14}\n",
                    cat.label(),
                    c.messages,
                    c.bytes
                ));
            }
        }
        s.push_str(&format!(
            "{:<12} {:>12} {:>14}\n",
            "TOTAL",
            self.messages_sent(),
            self.bytes_sent()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = TrafficStats::new();
        s.record(TrafficCategory::Routing, 100);
        s.record(TrafficCategory::Routing, 50);
        s.record(TrafficCategory::Retrieval, 1000);
        assert_eq!(s.messages_sent(), 3);
        assert_eq!(s.bytes_sent(), 1150);
        assert_eq!(s.category(TrafficCategory::Routing).messages, 2);
        assert_eq!(s.category(TrafficCategory::Routing).bytes, 150);
        assert_eq!(s.category(TrafficCategory::Indexing).messages, 0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = TrafficStats::new();
        a.record(TrafficCategory::Indexing, 10);
        let mut b = TrafficStats::new();
        b.record(TrafficCategory::Indexing, 20);
        b.record(TrafficCategory::Ranking, 5);
        a.merge(&b);
        assert_eq!(a.category(TrafficCategory::Indexing).bytes, 30);
        assert_eq!(a.category(TrafficCategory::Ranking).messages, 1);
    }

    #[test]
    fn since_isolates_a_phase() {
        let mut s = TrafficStats::new();
        s.record(TrafficCategory::Indexing, 1000);
        let snapshot = s.clone();
        s.record(TrafficCategory::Retrieval, 250);
        s.record(TrafficCategory::Retrieval, 250);
        let delta = s.since(&snapshot);
        assert_eq!(delta.category(TrafficCategory::Indexing).bytes, 0);
        assert_eq!(delta.category(TrafficCategory::Retrieval).bytes, 500);
        assert_eq!(delta.messages_sent(), 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = TrafficStats::new();
        s.record(TrafficCategory::Overlay, 64);
        s.reset();
        assert_eq!(s.messages_sent(), 0);
        assert_eq!(s.bytes_sent(), 0);
    }

    #[test]
    fn report_contains_totals() {
        let mut s = TrafficStats::new();
        s.record(TrafficCategory::Retrieval, 123);
        let r = s.report();
        assert!(r.contains("retrieval"));
        assert!(r.contains("TOTAL"));
        assert!(r.contains("123"));
    }

    #[test]
    fn category_labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            TrafficCategory::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), TrafficCategory::ALL.len());
    }
}

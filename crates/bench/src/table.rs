//! Plain-text table rendering for experiment output.
//!
//! The binaries print the same rows/series the paper's evaluation discusses; this
//! helper keeps the formatting consistent and also offers a JSON dump so results can
//! be post-processed (e.g. plotted) without re-running the experiment.

use alvisp2p_core::request::QueryResponse;
use serde::{Deserialize, Serialize};

/// Aggregated robustness counters over a batch of query responses.
///
/// Every experiment that executes queries feeds its responses through
/// [`Robustness::observe`] and prints the [`Robustness::summary`] line after
/// its table, so fault-tolerance activity (or its absence — all zeros under
/// the default fault plane) is visible in every experiment's output, not only in
/// `exp_faults`.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Robustness {
    /// Queries observed.
    pub queries: u64,
    /// Probe attempts beyond the first, summed over all queries.
    pub retries: u64,
    /// Probes that exhausted their retry budget and were recorded as failed.
    pub failed_probes: u64,
    /// Probes served by a non-primary holder after failover.
    pub hedged: u64,
    /// Probe responses discarded because their frame failed checksum
    /// verification (`#[serde(default)]` so reports committed before the
    /// counter existed still parse).
    #[serde(default)]
    pub corrupt_probes: u64,
    /// Sum of per-query completeness fractions (divide by `queries`).
    pub completeness_sum: f64,
}

impl Robustness {
    /// Folds one query response into the counters.
    pub fn observe(&mut self, response: &QueryResponse) {
        self.queries += 1;
        self.retries += response.retries as u64;
        self.failed_probes += response.failed_probes as u64;
        self.hedged += response.hedged as u64;
        self.corrupt_probes += response.corrupt_probes as u64;
        self.completeness_sum += response.completeness.fraction();
    }

    /// Folds another accumulator in (for summarising across arms/rows).
    pub fn absorb(&mut self, other: &Robustness) {
        self.queries += other.queries;
        self.retries += other.retries;
        self.failed_probes += other.failed_probes;
        self.hedged += other.hedged;
        self.corrupt_probes += other.corrupt_probes;
        self.completeness_sum += other.completeness_sum;
    }

    /// Mean completeness fraction over the observed queries (1.0 if none).
    pub fn mean_completeness(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.completeness_sum / self.queries as f64
        }
    }

    /// The one-line summary the experiments print after their tables.
    pub fn summary(&self) -> String {
        format!(
            "robustness: {} retries, {} failed probes, {} hedged serves, \
             {} corrupt frames, mean completeness {:.3} over {} queries",
            self.retries,
            self.failed_probes,
            self.hedged,
            self.corrupt_probes,
            self.mean_completeness(),
            self.queries
        )
    }

    /// Prints the summary line to stdout.
    pub fn print(&self) {
        println!("{}", self.summary());
    }
}

/// A simple fixed-width table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (each cell already formatted).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:>width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Serialises experiment rows to pretty JSON (printed after the table when the
/// `ALVIS_JSON=1` environment variable is set).
pub fn maybe_print_json<T: Serialize>(rows: &T) {
    let wanted = std::env::var("ALVIS_JSON")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    if wanted {
        match serde_json::to_string_pretty(rows) {
            Ok(json) => println!("{json}"),
            Err(e) => eprintln!("failed to serialise results: {e}"),
        }
    }
}

/// Formats a byte count with a thousands separator for readability.
pub fn fmt_bytes(bytes: u64) -> String {
    let s = bytes.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().rev().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out.chars().rev().collect()
}

/// Formats a float with the given number of decimals.
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(&["1".into(), "short".into()]);
        t.row(&["1000".into(), "a much longer cell".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("n"));
        assert!(r.contains("a much longer cell"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // Each data line has the same length (alignment).
        let lines: Vec<&str> = r.lines().skip(3).collect();
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    fn byte_formatting_inserts_separators() {
        assert_eq!(fmt_bytes(0), "0");
        assert_eq!(fmt_bytes(999), "999");
        assert_eq!(fmt_bytes(1_000), "1,000");
        assert_eq!(fmt_bytes(1_234_567), "1,234,567");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(1.0, 0), "1");
    }
}

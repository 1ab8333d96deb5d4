//! Metric tables, result files, the driver's result line, and `--compare`.

use serde::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse before a
    /// change counts as a regression (the same number as in `BENCHMARK.json`).
    pub bound: f64,
    /// A simulated statistic of the modelled network: identical across two
    /// runs of one commit at one seed. The others are host time or memory.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The end-to-end metrics, reported on every workload.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("index_docs_per_s", "docs/s", Better::Higher, 0.25, false),
    e2e("index_bytes_per_doc", "B", Better::Lower, 0.25, true),
    e2e("query_p50_us", "us", Better::Lower, 0.25, false),
    e2e("query_p99_us", "us", Better::Lower, 0.25, false),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("bytes_per_query", "B", Better::Lower, 0.2, true),
    e2e("hops_per_query", "hops", Better::Lower, 0.25, true),
    e2e("overlap_at_10", "ratio", Better::Higher, 0.12, true),
    e2e("complete_share", "ratio", Better::Higher, 0.15, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2, false),
];

/// A metric of one layer, from the traced pass. Layers are named after the
/// repository's modules.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn low(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn high(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics (README.md says which end-to-end metric each should
/// move, and on which workload).
pub const PER_LAYER: [Layer; 48] = [
    low("textindex.analyze_query_us", "us"),
    low("textindex.distribute_us_per_doc", "us"),
    low("plan.plan_us", "us"),
    low("plan.scheduled_probes_per_query", "count"),
    low("plan.est_bytes_ratio", "ratio"),
    low("exec.open_us", "us"),
    low("exec.probe_us", "us"),
    low("exec.finish_us", "us"),
    low("exec.probes_per_query", "count"),
    low("exec.residual_us", "us"),
    low("exec.residual_share", "ratio"),
    low("dht.route_us", "us"),
    low("dht.hops_per_probe", "hops"),
    high("dht.replica_served_share", "ratio"),
    low("dht.peer_load_max_over_mean", "ratio"),
    low("codec.encode_us", "us"),
    low("codec.checksum_us", "us"),
    low("codec.decode_us", "us"),
    low("codec.entries_per_list", "count"),
    low("codec.frame_bytes_per_list", "B"),
    high("codec.skipped_blocks_per_query", "count"),
    high("codec.elided_bytes_per_query", "B"),
    low("ranking.merge_us", "us"),
    low("ranking.merged_entries_per_query", "count"),
    low("global_index.index_us_per_key", "us"),
    low("global_index.publish_us", "us"),
    low("global_index.activated_keys", "count"),
    low("global_index.storage_bytes_per_doc", "B"),
    low("fault.retries_per_query", "count"),
    low("fault.failed_probes_per_query", "count"),
    low("fault.corrupt_per_query", "count"),
    low("fault.hedged_per_query", "count"),
    low("fault.incomplete_share", "ratio"),
    low("netsim.retrieval_bytes_per_query", "B"),
    low("netsim.overlay_bytes_per_query", "B"),
    low("netsim.indexing_bytes_per_query", "B"),
    low("netsim.messages_per_query", "count"),
    low("netsim.routing_bytes_per_query", "B"),
    low("netsim.request_bytes_per_query", "B"),
    low("netsim.response_bytes_per_query", "B"),
    low("build.corpus_s", "s"),
    low("build.distribute_s", "s"),
    low("build.index_s", "s"),
    low("build.warmup_s", "s"),
    low("alloc.allocs_per_query", "count"),
    low("alloc.bytes_per_query", "B"),
    high("trace.children_share", "ratio"),
    low("trace.overhead_ratio", "ratio"),
];

/// Named values measured by one run, in table order.
pub type Values = Vec<(&'static str, f64)>;

/// Across-pass spread of one per-pass timing statistic.
#[derive(Clone, Debug)]
pub struct PassSpread {
    pub name: &'static str,
    pub passes: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Everything one run found out.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    pub replayable: bool,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Effective configurations, echoed so drift between commits shows in a diff.
    pub configs: Vec<(&'static str, String)>,
    pub corpus_digest: u64,
    pub log_digest: u64,
    /// `Some(matches)` when this workload and seed are pinned.
    pub pinned: Option<bool>,
    pub passes: usize,
    pub instances_per_pass: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; empty when the run is correct.
    pub gate: Vec<String>,
    pub end_to_end: Values,
    /// Empty unless the run was traced.
    pub per_layer: Values,
    pub spreads: Vec<PassSpread>,
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn metric_values<'a>(
    values: &Values,
    table: impl Iterator<Item = (&'a str, &'a str)>,
    extra: impl Fn(&str) -> Vec<(&'static str, Value)>,
) -> Value {
    Value::Obj(
        table
            .filter_map(|(name, unit)| {
                let (_, value) = values.iter().find(|(n, _)| *n == name)?;
                let mut fields = vec![
                    ("value", Value::Float(*value)),
                    ("unit", Value::Str(unit.to_string())),
                ];
                fields.extend(extra(name));
                Some((name.to_string(), obj(fields)))
            })
            .collect(),
    )
}

impl Report {
    pub fn correct(&self) -> bool {
        self.gate.is_empty()
    }

    fn pinned_label(&self) -> &'static str {
        match self.pinned {
            None => "not pinned",
            Some(true) => "pinned, match",
            Some(false) => "pinned, MISMATCH",
        }
    }

    /// The line the driver reads: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub fn driver_line(&self) -> String {
        let metrics = if self.traced {
            metric_values(
                &self.per_layer,
                PER_LAYER.iter().map(|m| (m.name, m.unit)),
                |_| Vec::new(),
            )
        } else {
            metric_values(
                &self.end_to_end,
                END_TO_END.iter().map(|m| (m.name, m.unit)),
                |_| Vec::new(),
            )
        };
        let line = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", metrics),
        ]);
        serde_json::to_string(&line).expect("a value tree always serializes")
    }

    /// The result file: everything, pretty-printed.
    pub fn to_json(&self) -> String {
        let kind = |name: &str| {
            let exact = END_TO_END.iter().any(|m| m.name == name && m.exact);
            vec![(
                "kind",
                Value::Str(if exact { "simulated" } else { "host" }.to_string()),
            )]
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        let file = obj(vec![
            ("benchmark", Value::Str("alvis_bench".into())),
            ("workload", Value::Str(self.workload.into())),
            ("replayable", Value::Bool(self.replayable)),
            ("seed", Value::UInt(self.seed)),
            ("seconds", Value::Float(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("nproc", Value::UInt(nproc)),
            (
                "config",
                obj(self
                    .configs
                    .iter()
                    .map(|(k, v)| (*k, Value::Str(v.clone())))
                    .collect()),
            ),
            (
                "inputs",
                obj(vec![
                    (
                        "corpus_fnv1a",
                        Value::Str(format!("{:#018x}", self.corpus_digest)),
                    ),
                    (
                        "querylog_fnv1a",
                        Value::Str(format!("{:#018x}", self.log_digest)),
                    ),
                    ("pinned", Value::Str(self.pinned_label().into())),
                ]),
            ),
            ("passes", Value::UInt(self.passes as u64)),
            (
                "instances_per_pass",
                Value::UInt(self.instances_per_pass as u64),
            ),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("correct", Value::Bool(self.correct())),
            (
                "gate_violations",
                Value::Arr(self.gate.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "end_to_end",
                metric_values(
                    &self.end_to_end,
                    END_TO_END.iter().map(|m| (m.name, m.unit)),
                    kind,
                ),
            ),
            (
                "per_layer",
                metric_values(
                    &self.per_layer,
                    PER_LAYER.iter().map(|m| (m.name, m.unit)),
                    |_| Vec::new(),
                ),
            ),
            (
                "across_passes",
                Value::Obj(
                    self.spreads
                        .iter()
                        .map(|s| {
                            (
                                s.name.to_string(),
                                obj(vec![
                                    ("passes", Value::UInt(s.passes as u64)),
                                    ("q1", Value::Float(s.q1)),
                                    ("median", Value::Float(s.median)),
                                    ("q3", Value::Float(s.q3)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string_pretty(&file).expect("a value tree always serializes")
    }

    /// Every metric by name with its unit, for a person to read.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} seed {} ({} passes of {} queries{}{})",
            self.workload,
            self.seed,
            self.passes,
            self.instances_per_pass,
            if self.replayable { ", replayable" } else { "" },
            if self.traced { ", traced" } else { "" },
        );
        let _ = writeln!(
            out,
            "  inputs: corpus {:#018x} log {:#018x} ({})",
            self.corpus_digest,
            self.log_digest,
            self.pinned_label()
        );
        for m in &END_TO_END {
            if let Some((_, v)) = self.end_to_end.iter().find(|(n, _)| *n == m.name) {
                let kind = if m.exact { "simulated" } else { "host" };
                let _ = writeln!(out, "  {:<40} {:>16.4} {:<7} {kind}", m.name, v, m.unit);
            }
        }
        for m in &PER_LAYER {
            if let Some((_, v)) = self.per_layer.iter().find(|(n, _)| *n == m.name) {
                let _ = writeln!(out, "  {:<40} {:>16.4} {}", m.name, v, m.unit);
            }
        }
        for s in &self.spreads {
            let _ = writeln!(
                out,
                "  across {} passes: {:<18} q1 {:.3} median {:.3} q3 {:.3}",
                s.passes, s.name, s.q1, s.median, s.q3
            );
        }
        for violation in &self.gate {
            let _ = writeln!(out, "  GATE: {violation}");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------------

/// The end-to-end part of a result file.
#[derive(Clone, Debug, PartialEq)]
struct Loaded {
    label: String,
    workload: String,
    seed: u64,
    end_to_end: Vec<(String, f64)>,
}

fn load(path: &Path) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text, &path.display().to_string())
}

fn parse(text: &str, label: &str) -> Result<Loaded, String> {
    let bad = |what: &str| format!("{label}: {what}");
    let value: Value = serde_json::from_str(text).map_err(|e| bad(&e.to_string()))?;
    let workload: String = serde::field(&value, "workload").map_err(|e| bad(&e.to_string()))?;
    let seed: u64 = serde::field(&value, "seed").map_err(|e| bad(&e.to_string()))?;
    let metrics: Value = serde::field(&value, "end_to_end").map_err(|e| bad(&e.to_string()))?;
    let Value::Obj(pairs) = metrics else {
        return Err(bad("`end_to_end` is not an object"));
    };
    let end_to_end = pairs
        .iter()
        .map(|(name, m)| {
            serde::field::<f64>(m, "value")
                .map(|v| (name.clone(), v))
                .map_err(|e| bad(&format!("{name}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    Ok(Loaded {
        label: label.to_string(),
        workload,
        seed,
        end_to_end,
    })
}

/// Result files under `path`: the file itself, or every `*.json` in the
/// directory, sorted by name.
fn result_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    Ok(files)
}

/// Compares one pair of runs; returns the printed rows and the violations.
fn compare_pair(a: &Loaded, b: &Loaded) -> (String, Vec<String>) {
    let mut rows = String::new();
    let mut violations = Vec::new();
    if (a.workload.as_str(), a.seed) != (b.workload.as_str(), b.seed) {
        violations.push(format!(
            "{} is {} at seed {} but {} is {} at seed {}",
            a.label, a.workload, a.seed, b.label, b.workload, b.seed
        ));
        return (rows, violations);
    }
    for m in &END_TO_END {
        let find = |side: &Loaded| {
            side.end_to_end
                .iter()
                .find(|(n, _)| n == m.name)
                .map(|(_, v)| *v)
        };
        let (Some(va), Some(vb)) = (find(a), find(b)) else {
            violations.push(format!("{}: {} is missing on one side", a.workload, m.name));
            continue;
        };
        let ratio = vb / va;
        let (ok, verdict) = if m.exact {
            let same = va.to_bits() == vb.to_bits();
            (
                same,
                if same {
                    "identical"
                } else {
                    "differs (simulated metrics must repeat exactly)"
                },
            )
        } else {
            let within = (ratio - 1.0).abs() <= m.bound;
            (
                within,
                if within {
                    "within bound"
                } else {
                    "outside bound"
                },
            )
        };
        let _ = writeln!(
            rows,
            "{:<16} {:<22} A {:>14.4} B {:>14.4} {:<7} B/A {:.4} (base A = {:.4}) bound {:>5.1}%  {verdict}",
            a.workload,
            m.name,
            va,
            vb,
            m.unit,
            ratio,
            va,
            if m.exact { 0.0 } else { m.bound * 100.0 },
        );
        if !ok {
            violations.push(format!(
                "{} {}: A {va} B {vb} — {verdict}",
                a.workload, m.name
            ));
        }
    }
    (rows, violations)
}

/// `--compare A B`: two result files, or two directories of them paired by
/// file name. Prints one row per workload and metric; `Err` lists what
/// differed beyond what two runs of one commit may differ by.
pub fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let (files_a, files_b) = (result_files(a)?, result_files(b)?);
    if files_a.is_empty() || files_a.len() != files_b.len() {
        return Err(format!(
            "{} holds {} result files but {} holds {}",
            a.display(),
            files_a.len(),
            b.display(),
            files_b.len()
        ));
    }
    let mut out = String::new();
    let mut violations = Vec::new();
    for (fa, fb) in files_a.iter().zip(&files_b) {
        let (rows, bad) = compare_pair(&load(fa)?, &load(fb)?);
        out.push_str(&rows);
        violations.extend(bad);
    }
    if violations.is_empty() {
        Ok(out)
    } else {
        Err(format!("{out}\n{}", violations.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(p50: f64, bytes: f64) -> Report {
        Report {
            workload: "lattice_sparse",
            replayable: true,
            seed: 7,
            seconds: 1.0,
            traced: false,
            configs: vec![("network", "NetworkConfig { .. }".into())],
            corpus_digest: 1,
            log_digest: 2,
            pinned: None,
            passes: 2,
            instances_per_pass: 10,
            attempted: 20,
            failed: 0,
            gate: Vec::new(),
            end_to_end: END_TO_END
                .iter()
                .map(|m| {
                    let v = match m.name {
                        "query_p50_us" => p50,
                        "bytes_per_query" => bytes,
                        _ => 1.5,
                    };
                    (m.name, v)
                })
                .collect(),
            per_layer: Vec::new(),
            spreads: Vec::new(),
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn driver_line_carries_exactly_the_end_to_end_metrics() {
        let line = report(100.0, 2_000.0).driver_line();
        assert!(!line.contains('\n'));
        let value: Value = serde_json::from_str(&line).unwrap();
        let Value::Obj(top) = &value else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics: Value = serde::field(&value, "metrics").unwrap();
        let Value::Obj(metrics) = metrics else {
            panic!("not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(serde::field::<u64>(&value, "attempted").unwrap(), 20);
    }

    #[test]
    fn compare_accepts_noise_and_rejects_drift() {
        let a = parse(&report(100.0, 2_000.0).to_json(), "a").unwrap();
        // 4% slower: inside the host-time bound.
        let b = parse(&report(104.0, 2_000.0).to_json(), "b").unwrap();
        let (rows, bad) = compare_pair(&a, &b);
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(rows.lines().count(), END_TO_END.len());
        // 40% slower: outside it.
        let c = parse(&report(140.0, 2_000.0).to_json(), "c").unwrap();
        let (_, bad) = compare_pair(&a, &c);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("query_p50_us"));
        // One byte more per query: a simulated metric may not move at all.
        let d = parse(&report(100.0, 2_000.001).to_json(), "d").unwrap();
        let (_, bad) = compare_pair(&a, &d);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("bytes_per_query"));
    }
}

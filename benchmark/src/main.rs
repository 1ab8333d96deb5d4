//! `alvis_bench`: the repository's one benchmark.
//!
//! Four workloads, eleven end-to-end metrics, and a per-layer trace taken from
//! outside the library. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.

mod alloc;
mod estimators;
mod report;
mod run;
mod trace;
mod traced;
mod workloads;

use report::{END_TO_END, PER_LAYER};
use run::{Budget, RunConfig};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Workload, DEFAULT_SEED, HOLDOUT_SEED};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Seconds one run measures for when `--seconds` is absent (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

const USAGE: &str = "\
usage:
  alvis_bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
              [--out <file>] [--trace-out <spans.jsonl>]
  alvis_bench --all --out <dir> [--seed <n>] [--seconds <s>] [--trace <0|1>]
  alvis_bench --list
  alvis_bench --compare <A> <B>";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    list: bool,
    compare: Option<(PathBuf, PathBuf)>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--all" => parsed.all = true,
            "--list" => parsed.list = true,
            "--compare" => parsed.compare = Some((value()?.into(), value()?.into())),
            "--seed" => {
                let v = value()?;
                parsed.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a seed"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s <= 170.0) {
                    return Err(format!("--seconds {v}: must be in (0, 170]"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            "--out" => parsed.out = Some(value()?.into()),
            "--trace-out" => parsed.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn list() {
    println!("workloads (default seed {DEFAULT_SEED}, hold-out seed {HOLDOUT_SEED}):");
    for w in workloads::all() {
        let replay = if w.replayable {
            "replayable"
        } else {
            "not replayable"
        };
        println!("  {:<16} {replay}: {}", w.name, w.why);
    }
    println!("end-to-end metrics (--trace 0):");
    for m in &END_TO_END {
        println!(
            "  {:<40} {:<7} {:<7} bound {:>4.1}%  {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            if m.exact { "simulated" } else { "host" }
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in &PER_LAYER {
        println!("  {:<40} {:<7} {}", m.name, m.unit, m.better.label());
    }
}

fn write_file(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), String> {
    let failed = |e: std::io::Error| format!("{}: {e}", path.display());
    let file = std::fs::File::create(path).map_err(failed)?;
    let mut out = std::io::BufWriter::new(file);
    write(&mut out).map_err(failed)?;
    out.flush().map_err(failed)
}

/// Runs one workload in this process. `Ok(false)` means the gate failed.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let workload =
        Workload::named(name).ok_or_else(|| format!("unknown workload {name} (try --list)"))?;
    let config = RunConfig {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        budget: Budget::Seconds(args.seconds.unwrap_or(DEFAULT_SECONDS)),
        trace: args.trace,
        setup_repeats: SETUP_REPEATS,
    };
    let (report, spans) = run::run(&workload, &config)?;
    if let Some(path) = &args.out {
        write_file(path, |out| out.write_all(report.to_json().as_bytes()))?;
    }
    if let (Some(path), Some(spans)) = (&args.trace_out, &spans) {
        write_file(path, |mut out| spans.write_jsonl(&mut out))?;
    }
    print!("{}", report.table());
    // The driver reads the last line of standard output.
    println!("{}", report.driver_line());
    Ok(report.correct())
}

/// Runs every workload, one child process each (the term interner and the
/// peak-memory counter are process-wide).
fn run_all(args: &Args) -> Result<bool, String> {
    let dir = args.out.as_ref().ok_or("--all needs --out <dir>")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut correct = true;
    for w in workloads::all() {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
            .args([
                "--seconds",
                &args.seconds.unwrap_or(DEFAULT_SECONDS).to_string(),
            ])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(dir.join(format!("{}.json", w.name)));
        if args.trace {
            child
                .arg("--trace-out")
                .arg(dir.join(format!("{}.spans.jsonl", w.name)));
        }
        // `status` waits until the child has ended.
        let status = child
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        correct &= status.success();
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("alvis_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.list {
        list();
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        report::compare(a, b).map(|rows| {
            print!("{rows}");
            true
        })
    } else if args.all {
        run_all(&args)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        Err(format!("nothing to do\n{USAGE}"))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("alvis_bench: the correctness gate failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("alvis_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Better;
    use serde::Value;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse("--workload long_lists --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("long_lists"));
        assert_eq!(args.seed, Some(7));
        assert_eq!(args.seconds, Some(10.0));
        assert!(args.trace);
        assert!(!parse("--workload x --trace 0").unwrap().trace);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert!(parse("--seed").is_err());
        assert!(parse("--seed minus-one").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 1000").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("--compare only-one").is_err());
    }

    /// `BENCHMARK.json` at the repository root, as the driver reads it.
    fn contract() -> Value {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap()
    }

    fn entries(contract: &Value, key: &str) -> Vec<Value> {
        serde::field(contract, key).unwrap()
    }

    fn text(entry: &Value, key: &str) -> String {
        serde::field(entry, key).unwrap()
    }

    #[test]
    fn benchmark_json_and_the_metric_tables_agree() {
        let contract = contract();
        let seconds: f64 = serde::field(&contract, "run_seconds").unwrap();
        assert_eq!(seconds, DEFAULT_SECONDS);

        let listed = entries(&contract, "workloads");
        let ours = workloads::all();
        assert_eq!(listed.len(), ours.len());
        for (entry, w) in listed.iter().zip(&ours) {
            assert_eq!(text(entry, "name"), w.name);
            assert_eq!(text(entry, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }

        let listed = entries(&contract, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), m.better.label());
            assert_eq!(serde::field::<f64>(entry, "bound").unwrap(), m.bound);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let listed = entries(&contract, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), m.better.label());
        }
    }

    /// Every workload end to end at 60 documents on 8 peers: each metric named
    /// in `BENCHMARK.json` comes out exactly once, with a finite value.
    #[test]
    fn every_workload_emits_every_metric_once_at_smoke_scale() {
        let contract = contract();
        let names = |key: &str| -> Vec<String> {
            entries(&contract, key)
                .iter()
                .map(|e| text(e, "name"))
                .collect()
        };
        let exactly_once = |values: &report::Values, wanted: &[String], what: &str| {
            assert_eq!(values.len(), wanted.len(), "{what}");
            for name in wanted {
                let found: Vec<f64> = values
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .collect();
                assert_eq!(found.len(), 1, "{what}: {name}");
                assert!(found[0].is_finite(), "{what}: {name} = {}", found[0]);
            }
        };
        for w in workloads::all() {
            let w = w.shrunk();
            let config = RunConfig {
                seed: 11,
                budget: Budget::Passes(2),
                trace: true,
                setup_repeats: 2,
            };
            let (report, spans) = run::run(&w, &config).unwrap();
            exactly_once(&report.end_to_end, &names("end_to_end"), w.name);
            exactly_once(&report.per_layer, &names("per_layer"), w.name);
            assert_eq!(report.passes, 2);
            assert_eq!(report.attempted, 2 * report.instances_per_pass as u64);
            assert_eq!(report.failed, 0, "{}", w.name);
            let spans = spans.expect("a traced run keeps its spans");
            assert!(spans.spans().len() > report.instances_per_pass);
            // Crashing 2 of 8 peers degrades more answers than the full-scale
            // gate allows; the fault-free workloads must pass theirs.
            if !w.faulty {
                assert_eq!(report.gate, Vec::<String>::new(), "{}", w.name);
            }
            // Both lines the driver can ask for parse and carry their table.
            for traced in [false, true] {
                let mut report = report.clone();
                report.traced = traced;
                let line: Value = serde_json::from_str(&report.driver_line()).unwrap();
                let metrics: Value = serde::field(&line, "metrics").unwrap();
                let Value::Obj(metrics) = metrics else {
                    panic!("metrics is not an object")
                };
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(metrics.len(), expected);
            }
        }
    }
}

//! `perf` — the one-command benchmark of `ntv serve` and `repro`.
//!
//! ```text
//! bash perf/run.sh [--workload NAME|all] [--seed N] [--seconds S]
//!                  [--trace 0|1] [--runs N] [--out PATH] [--bless]
//! ```
//!
//! `perf/run.sh` builds `ntv`, `repro` and this binary, then runs it. The
//! programs under test run as child processes and see only the generated
//! requests; every output is checked (golden digests at seed 2012, and at
//! any seed a byte comparison of every 16th response body against the same
//! query rendered in this process). The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics of BENCHMARK.json, or with `--trace 1` its per-layer
//! metrics, each with its unit. `--runs N` repeats the run with seeds
//! `seed, seed+1, ...` and prints each metric's median and quartiles,
//! flagging any whose spread exceeds its bound. `--bless` prints the golden
//! digest file for seed 2012 instead of checking it.

mod child;
mod client;
mod measure;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use ntv_serve::json::{self, Value};

use crate::child::Programs;
use crate::measure::Outcome;
use crate::workloads::Workload;

/// Metric names, units, directions and bounds: BENCHMARK.json is the one
/// place they are defined.
const SPEC: &str = include_str!("../../../../BENCHMARK.json");
/// Golden digests at [`GOLDEN_SEED`] (`--bless` regenerates them).
const GOLDEN: &str = include_str!("../../../golden.txt");
/// The seed the golden digests were taken at.
const GOLDEN_SEED: u64 = 2012;

#[derive(Debug)]
struct Metric {
    name: String,
    unit: String,
    bound: Option<f64>,
}

#[derive(Debug)]
struct Spec {
    run_seconds: f64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn parse_spec() -> Result<Spec, String> {
    let v = json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        v.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("BENCHMARK.json `{key}` entry lacks `{f}`"))
                };
                Ok(Metric {
                    name: field("name")?,
                    unit: field("unit")?,
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: v
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json lacks `run_seconds`")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// `(workload, phase, conn)` → `(count, digest)`.
type Golden = BTreeMap<(String, String, usize), (usize, u64)>;

fn parse_golden() -> Result<Golden, String> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("golden.txt: malformed line `{line}`");
            if f.len() != 5 {
                return Err(bad());
            }
            Ok((
                (
                    f[0].to_string(),
                    f[1].to_string(),
                    f[2].parse().map_err(|_| bad())?,
                ),
                (
                    f[3].parse().map_err(|_| bad())?,
                    u64::from_str_radix(f[4], 16).map_err(|_| bad())?,
                ),
            ))
        })
        .collect()
}

/// Compare a run's digests with the golden ones. Served bodies depend on
/// the seed, so they are checked at [`GOLDEN_SEED`] only; repro's output
/// does not, so it is checked at every seed.
fn check_golden(golden: &Golden, seed: u64, out: &mut Outcome) {
    for d in &out.digests {
        if seed != GOLDEN_SEED && d.workload != Workload::Repro.name() {
            continue;
        }
        let key = (d.workload.to_string(), d.phase.to_string(), d.conn);
        match golden.get(&key) {
            Some(&(count, value)) if count == d.count && value == d.value => {}
            Some(&(count, value)) => out.failures.push(format!(
                "golden digest mismatch for {} {} conn {}: {} bodies -> {:016x}, expected {count} -> {value:016x}",
                d.workload, d.phase, d.conn, d.count, d.value
            )),
            None => out.failures.push(format!(
                "no golden digest for {} {} conn {}",
                d.workload, d.phase, d.conn
            )),
        }
    }
}

#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    bin_dir: PathBuf,
    out: Option<PathBuf>,
    bless: bool,
}

const USAGE: &str = "usage: perf [--workload repro|serve_hot|serve_cold|serve_mixed|all] \
    [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--bin-dir DIR] [--out PATH] [--bless]";

fn parse_options() -> Result<Options, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: GOLDEN_SEED,
        seconds: None,
        trace: false,
        runs: 1,
        bin_dir: PathBuf::from("target/release"),
        out: None,
        bless: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{arg} expects a value\n{USAGE}"))
        };
        let number = |s: String| s.parse::<f64>().map_err(|_| format!("bad number `{s}`"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
                    o.workloads = vec![w];
                }
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                let s = number(value()?)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                o.seconds = Some(s);
            }
            // `--trace 0|1`, or a bare `--trace` meaning 1.
            "--trace" => {
                o.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--runs" => {
                o.runs = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--runs expects a positive integer")?;
            }
            "--bin-dir" => o.bin_dir = PathBuf::from(value()?),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--bless" => o.bless = true,
            other => return Err(format!("unrecognised argument `{other}`\n{USAGE}")),
        }
    }
    Ok(o)
}

fn run_once(
    w: Workload,
    seed: u64,
    seconds: f64,
    opts: &Options,
    programs: &Programs,
) -> Result<Outcome, String> {
    if opts.trace {
        let target = opts.bin_dir.parent().filter(|p| !p.as_os_str().is_empty());
        let spans_dir = target.unwrap_or(&opts.bin_dir).join("perf");
        measure::traced(w, seed, seconds, programs, &spans_dir)
    } else if w == Workload::Repro {
        measure::repro_e2e(seconds, programs)
    } else {
        measure::serve_e2e(w, seed, seconds, programs)
    }
}

/// Print a run's notes, its metrics with units, and its failures.
fn print_outcome(w: Workload, seed: u64, out: &Outcome, metrics: &[Metric]) {
    println!("== {} (seed {seed}) ==", w.name());
    for note in &out.notes {
        println!("  {note}");
    }
    for m in metrics {
        match out.metrics.get(&m.name) {
            Some(v) => println!("  {:<46} {v:>16.6} {}", m.name, m.unit),
            None => println!("  {:<46} {:>16} {}", m.name, "missing", m.unit),
        }
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
}

/// `--runs N`: median and quartiles of every (metric, workload) pair, with
/// each spread (IQR / median) checked against the metric's bound.
fn print_spread(w: Workload, runs: &[Outcome], metrics: &[Metric]) {
    println!("== spread of {} over {} runs ==", w.name(), runs.len());
    println!(
        "  {:<46} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "q1", "median", "q3", "iqr/med", "bound"
    );
    for m in metrics {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|o| o.metrics.get(&m.name).copied())
            .collect();
        if values.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(&values);
        let spread = (q3 - q1) / q2.abs();
        let (bound, flag) = match m.bound {
            Some(b) if spread > b && m.name != "setup_s" => (format!("{b}"), "  EXCEEDS BOUND"),
            Some(b) => (format!("{b}"), ""),
            None => ("-".to_string(), ""),
        };
        println!(
            "  {:<46} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6}{flag}",
            m.name
        );
        let all: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        println!("    values: {}", all.join(" "));
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(String, f64, &str)],
) -> String {
    let metrics: Vec<(&str, String)> = values
        .iter()
        .map(|(name, value, unit)| {
            (
                name.as_str(),
                json::obj(&[("value", json::num(*value)), ("unit", json::str_val(unit))]),
            )
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    json::obj(&[
        ("correct", correct.to_string()),
        ("attempted", json::num(attempted as f64)),
        ("failed", json::num(failed as f64)),
        ("metrics", json::obj(&metrics)),
    ])
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_options()?;
    let spec = parse_spec()?;
    let golden = parse_golden()?;
    let programs = Programs::locate(&opts.bin_dir)?;
    let seconds = opts.seconds.unwrap_or(spec.run_seconds);
    let metrics = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };

    if opts.bless {
        if opts.trace || opts.seed != GOLDEN_SEED {
            return Err(format!(
                "--bless takes digests untraced at seed {GOLDEN_SEED}"
            ));
        }
        println!(
            "# workload phase conn bodies fnv1a64 (seed {GOLDEN_SEED}; written by perf --bless)"
        );
        for &w in &opts.workloads {
            let out = run_once(w, opts.seed, seconds, &opts, &programs)?;
            if !out.failures.is_empty() {
                return Err(format!(
                    "{} failed while blessing: {:?}",
                    w.name(),
                    out.failures
                ));
            }
            for d in &out.digests {
                println!(
                    "{} {} {} {} {:016x}",
                    d.workload, d.phase, d.conn, d.count, d.value
                );
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut values: Vec<(String, f64, &str)> = Vec::new();
    let several = opts.workloads.len() > 1;
    for &w in &opts.workloads {
        let mut runs = Vec::with_capacity(opts.runs);
        for i in 0..opts.runs {
            let seed = opts.seed + i as u64;
            let mut out = run_once(w, seed, seconds, &opts, &programs)?;
            check_golden(&golden, seed, &mut out);
            for m in metrics {
                if !out.metrics.get(&m.name).is_some_and(|v| v.is_finite()) {
                    out.failures
                        .push(format!("metric {} was not measured", m.name));
                }
            }
            print_outcome(w, seed, &out, metrics);
            attempted += out.attempted;
            failed += out.failures.len() as u64;
            runs.push(out);
        }
        if opts.runs > 1 {
            print_spread(w, &runs, metrics);
        }
        for m in metrics {
            let vals: Vec<f64> = runs
                .iter()
                .filter_map(|o| o.metrics.get(&m.name).copied())
                .collect();
            if !vals.is_empty() {
                let name = if several {
                    format!("{}.{}", w.name(), m.name)
                } else {
                    m.name.clone()
                };
                values.push((name, stats::median(&vals), m.unit.as_str()));
            }
        }
    }
    let line = result_json(failed == 0, attempted.max(1), failed, &values);
    if let Some(path) = &opts.out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("{line}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

//! Command-line entry points.
//!
//! ```text
//! mlir-rl-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! mlir-rl-benchmark run W | trace W                                the same, with defaults
//! mlir-rl-benchmark all [--repeat R] [--no-trace] [--out FILE]     every workload, one child each
//! mlir-rl-benchmark calibrate [--runs R]                           `all --repeat R --no-trace`: the noise floor
//! mlir-rl-benchmark compare A.json B.json                          verdict per (workload, metric)
//! ```
//!
//! Common flags: `--seed N` (default 1), `--seconds S` (default 15),
//! `--smoke`, `--spans PATH` (traced runs: write the span JSONL there).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::run::{self, END_TO_END};
use crate::stats;
use crate::trace::{self, PER_LAYER};
use crate::workloads::{Scale, Workload};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 0.3;

const USAGE: &str = "usage:
  mlir-rl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans <path>]
  mlir-rl-benchmark run <workload> | trace <workload>   [--seed n] [--seconds s] [--smoke] [--spans path]
  mlir-rl-benchmark all        [--seed n] [--seconds s] [--smoke] [--repeat r] [--no-trace] [--out file]
  mlir-rl-benchmark calibrate  [--runs r] [--seed n] [--seconds s] [--out file]
  mlir-rl-benchmark compare <a.json> <b.json> [--benchmark-json path]
workloads: serve-wide-direct serve-wide-batched serve-random-cold serve-mixed-warm rollout-collect train-ppo";

/// Strictly parsed arguments: positionals plus `--flag [value]` pairs.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take no value.
const SWITCHES: [&str; 2] = ["--smoke", "--no-trace"];
/// Flags that take one.
const VALUED: [&str; 10] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--spans",
    "--repeat",
    "--runs",
    "--out",
    "--benchmark-json",
    "--out-dir",
];

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if SWITCHES.contains(&arg.as_str()) {
                args.flags.push((arg.clone(), None));
            } else if VALUED.contains(&arg.as_str()) {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                args.flags.push((arg.clone(), Some(value.clone())));
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                args.positional.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: cannot parse {text:?}")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let default = if self.has("--smoke") {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        let seconds: f64 = self.parsed("--seconds", default)?;
        if seconds.is_finite() && seconds > 0.0 && seconds <= 60.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds must be in (0, 60], got {seconds}"))
        }
    }

    fn workload(&self, name: Option<&str>) -> Result<Workload, String> {
        let name = name.ok_or("no workload named")?;
        Workload::parse(name).ok_or(format!("unknown workload {name:?}"))
    }
}

/// Runs the command line; the returned code is the process's exit code.
pub fn main(raw: &[String]) -> i32 {
    match dispatch(raw) {
        Ok(code) => code,
        Err(problem) => {
            eprintln!("error: {problem}\n{USAGE}");
            2
        }
    }
}

fn dispatch(raw: &[String]) -> Result<i32, String> {
    let args = Args::parse(raw)?;
    match args.positional.first().map(String::as_str) {
        None => {
            let workload = args.workload(args.value("--workload"))?;
            let traced = match args.value("--trace") {
                Some("0") | None => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            };
            single(&args, workload, traced)
        }
        Some("run") => single(
            &args,
            args.workload(args.positional.get(1).map(String::as_str))?,
            false,
        ),
        Some("trace") => single(
            &args,
            args.workload(args.positional.get(1).map(String::as_str))?,
            true,
        ),
        Some("all") => all(&args, args.parsed("--repeat", 1)?, !args.has("--no-trace")),
        Some("calibrate") => all(&args, args.parsed("--runs", 5)?, false),
        Some("compare") => match args.positional.as_slice() {
            [_, a, b] => compare(
                &load(Path::new(a))?,
                &load(Path::new(b))?,
                &load(Path::new(
                    args.value("--benchmark-json").unwrap_or("BENCHMARK.json"),
                ))?,
            ),
            _ => Err("compare takes two result files".to_string()),
        },
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

/// One run in this process: human-readable lines, then the contract's JSON
/// object as the last line of standard output.
fn single(args: &Args, workload: Workload, traced: bool) -> Result<i32, String> {
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds = args.seconds()?;
    let scale = Scale {
        smoke: args.has("--smoke"),
    };
    println!(
        "{} ({}) seed={seed} seconds={seconds} — job: {}",
        workload.name(),
        if traced { "traced" } else { "untraced" },
        workload.job()
    );
    let result = if traced {
        let traced = trace::trace(workload, seed, seconds, scale);
        if let Some(path) = args.value("--spans") {
            write_spans(Path::new(path), &traced.spans)?;
            println!("  {} spans -> {path}", traced.spans.len());
        }
        traced.result
    } else {
        run::run(workload, seed, seconds, scale)
    };
    result.print_human();
    println!("{}", result.to_json_line());
    Ok(if result.correct { 0 } else { 1 })
}

/// Creates the directory `path` is to be written into.
fn create_parent(path: &Path) -> Result<(), String> {
    match path.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display())),
        None => Ok(()),
    }
}

fn write_spans(path: &Path, spans: &[crate::spans::Span]) -> Result<(), String> {
    create_parent(path)?;
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    crate::spans::write_jsonl(spans, &mut std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.value("--out-dir").unwrap_or("benchmark/out"))
}

fn out_file(args: &Args) -> PathBuf {
    args.value("--out")
        .map_or_else(|| out_dir(args).join("result.json"), PathBuf::from)
}

/// Runs one workload in a child process (so `peak_rss_mb` is the
/// workload's own), echoes its report, and returns its result object and
/// digest.
fn child(
    args: &Args,
    workload: Workload,
    traced: bool,
    spans: Option<&Path>,
) -> Result<(Value, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.parsed("--seed", DEFAULT_SEED)?.to_string()])
        .args(["--seconds", &args.seconds()?.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.has("--smoke") {
        command.arg("--smoke");
    }
    if let Some(path) = spans {
        command.arg("--spans").arg(path);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    let result = json::parse(last).map_err(|e| {
        format!(
            "{}: no result line ({e}); exit {}",
            workload.name(),
            output.status
        )
    })?;
    let digest = lines
        .iter()
        .find_map(|l| l.split("digest=").nth(1))
        .unwrap_or("")
        .trim()
        .to_string();
    Ok((result, digest))
}

fn machine() -> Value {
    let text = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj([
        ("nproc", Value::str(text("nproc", &[]))),
        ("available_parallelism", Value::Num(parallelism as f64)),
        ("rustc", Value::str(text("rustc", &["--version"]))),
        ("git", Value::str(text("git", &["rev-parse", "HEAD"]))),
    ])
}

/// `all`: every workload `repeat` times untraced (and once traced), one
/// child process per run; cross-workload output checks; one result file;
/// with two or more repeats, the noise floor.
fn all(args: &Args, repeat: usize, traced: bool) -> Result<i32, String> {
    let repeat = repeat.max(1);
    let dir = out_dir(args);
    let mut problems: Vec<String> = Vec::new();
    let mut digests: Vec<(Workload, String)> = Vec::new();
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        let mut digest = String::new();
        for round in 0..repeat {
            let (result, run_digest) = child(args, workload, false, None)?;
            check_result(&result, workload, &mut problems);
            attempted.push(result.get("attempted").cloned().unwrap_or(Value::Null));
            failed.push(result.get("failed").cloned().unwrap_or(Value::Null));
            for (slot, (name, _, _)) in values.iter_mut().zip(END_TO_END) {
                match metric_value(&result, name) {
                    Some(v) => slot.push(v),
                    None => problems.push(format!("{}: no {name}", workload.name())),
                }
            }
            if round > 0 && run_digest != digest {
                problems.push(format!(
                    "{}: digest changed between runs of one seed ({digest} -> {run_digest})",
                    workload.name()
                ));
            }
            digest = run_digest;
        }
        let mut entry = vec![
            ("job".to_string(), Value::str(workload.job())),
            ("attempted".to_string(), Value::Arr(attempted)),
            ("failed".to_string(), Value::Arr(failed)),
            ("digest".to_string(), Value::str(digest.clone())),
            (
                "end_to_end".to_string(),
                Value::obj(END_TO_END.iter().zip(values).map(|((name, unit, _), v)| {
                    (
                        *name,
                        Value::obj([
                            ("unit", Value::str(*unit)),
                            (
                                "values",
                                Value::Arr(v.into_iter().map(Value::Num).collect()),
                            ),
                        ]),
                    )
                })),
            ),
        ];
        if traced {
            let spans = dir.join(format!("{}.spans.jsonl", workload.name()));
            let (result, _) = child(args, workload, true, Some(&spans))?;
            check_result(&result, workload, &mut problems);
            entry.push((
                "per_layer".to_string(),
                Value::obj(PER_LAYER.iter().filter_map(|(name, unit, _)| {
                    metric_value(&result, name).map(|v| {
                        (
                            *name,
                            Value::obj([("unit", Value::str(*unit)), ("value", Value::Num(v))]),
                        )
                    })
                })),
            ));
        }
        digests.push((workload, digest));
        workloads.push((workload.name().to_string(), Value::Obj(entry)));
    }
    let digest_of = |w: Workload| {
        digests
            .iter()
            .find(|(d, _)| *d == w)
            .map(|(_, d)| d.clone())
    };
    if digest_of(Workload::ServeWideDirect) != digest_of(Workload::ServeWideBatched) {
        problems
            .push("serve-wide-batched's response digest differs from serve-wide-direct's".into());
    }

    let result = Value::obj([
        (
            "seed",
            Value::Num(args.parsed("--seed", DEFAULT_SEED)? as f64),
        ),
        ("seconds", Value::Num(args.seconds()?)),
        ("smoke", Value::Bool(args.has("--smoke"))),
        ("machine", machine()),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = out_file(args);
    create_parent(&path)?;
    std::fs::write(&path, result.to_json_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result -> {}", path.display());
    if repeat >= 2 {
        print_noise_floor(&result);
    }
    for problem in &problems {
        println!("FAILED: {problem}");
    }
    Ok(if problems.is_empty() { 0 } else { 1 })
}

fn check_result(result: &Value, workload: Workload, problems: &mut Vec<String>) {
    let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
    let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
    if !correct || failed != 0.0 {
        problems.push(format!(
            "{}: correct={correct} failed={failed}",
            workload.name()
        ));
    }
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Member `key` of one workload's entry in a result file.
fn entry<'a>(result: &'a Value, workload: &str, key: &str) -> Option<&'a Value> {
    result.get("workloads")?.get(workload)?.get(key)
}

/// The `values` of one (workload, end-to-end metric) pair of a result file.
fn values_of(result: &Value, workload: &str, metric: &str) -> Vec<f64> {
    entry(result, workload, "end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_array)
        .map(|values| values.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn failed_share(result: &Value, workload: &str) -> f64 {
    let sum = |key: &str| -> f64 {
        entry(result, workload, key)
            .and_then(Value::as_array)
            .map_or(0.0, |v| v.iter().filter_map(Value::as_f64).sum())
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// How one (workload, metric) pair of two result files compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The files' own run-to-run spread exceeds the bound, so the pair can
    /// be called neither changed nor unchanged.
    Unresolved,
}

/// The rule `compare` applies: `a` is the base. A spread wider than the
/// bound is `Unresolved` unless every run of `b` reads better than every
/// run of `a`; otherwise the medians decide.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(1e-300);
    let spread = stats::relative_spread(a).max(stats::relative_spread(b));
    if spread > bound {
        let fold = |v: &[f64], pick: fn(f64, f64) -> f64| v.iter().copied().reduce(pick);
        let all_better = match higher_is_better {
            true => fold(b, f64::min) > fold(a, f64::max),
            false => fold(b, f64::max) < fold(a, f64::min),
        };
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `compare A B`: one row per (workload, end-to-end metric); non-zero exit
/// on any regression or a higher failed share.
fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<i32, String> {
    let declared = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut regressions = 0;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for workload in Workload::ALL {
        for metric in declared {
            let name = metric.get("name").and_then(Value::as_str).unwrap_or("");
            let higher = metric.get("better").and_then(Value::as_str) == Some("higher");
            let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (va, vb) = (
                values_of(a, workload.name(), name),
                values_of(b, workload.name(), name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{:<20} {name:<16} missing in one file", workload.name());
                regressions += 1;
                continue;
            }
            let verdict = verdict(&va, &vb, higher, bound);
            regressions += usize::from(verdict == Verdict::Regressed);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{:<20} {name:<16} {ma:>14.5} {mb:>14.5} {:>9.4} {bound:>7.3}  {}",
                workload.name(),
                mb / ma,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (
            failed_share(a, workload.name()),
            failed_share(b, workload.name()),
        );
        if fb > fa {
            println!("{:<20} failed share rose: {fa} -> {fb}", workload.name());
            regressions += 1;
        }
        let digest = |r| entry(r, workload.name(), "digest");
        if a.get("seed") == b.get("seed") && digest(a) != digest(b) {
            println!(
                "{:<20} note: output digest differs at the same seed (outputs changed)",
                workload.name()
            );
        }
    }
    println!("{regressions} regressed");
    Ok(if regressions == 0 { 0 } else { 1 })
}

/// The largest bound the contract allows.
const MAX_BOUND: f64 = 0.25;

/// `calibrate`'s report: per (metric, workload) median, quartiles and
/// relative spread, then one bound per metric — three times the widest
/// spread (a run-to-run spread must stay under a third of its bound),
/// capped at the contract's 0.25.
fn print_noise_floor(result: &Value) {
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "q1", "median", "q3", "spread"
    );
    let mut bounds = Vec::new();
    for (name, _, _) in END_TO_END {
        let mut widest: f64 = 0.0;
        for workload in Workload::ALL {
            let values = values_of(result, workload.name(), name);
            let Some((q1, q2, q3)) = stats::quartiles(&values) else {
                continue;
            };
            let spread = stats::relative_spread(&values);
            widest = widest.max(spread);
            println!(
                "{:<20} {name:<16} {q1:>14.5} {q2:>14.5} {q3:>14.5} {:>7.2}%",
                workload.name(),
                spread * 100.0
            );
        }
        bounds.push((name, (3.0 * widest).min(MAX_BOUND)));
    }
    println!("bounds (3 x widest spread, capped at {MAX_BOUND}):");
    for (name, bound) in bounds {
        println!("  {name:<16} {bound:.3}");
    }
}

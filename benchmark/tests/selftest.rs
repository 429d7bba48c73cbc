//! The benchmark's own tests: the statistics it reports with, the span
//! arithmetic, generator determinism, the compare rule — and a smoke run of
//! all six workloads whose names must be exactly those `BENCHMARK.json`
//! declares.

use std::path::Path;
use std::process::Command;

use mlir_rl_benchmark::cli::{verdict, Verdict};
use mlir_rl_benchmark::json::{self, Value};
use mlir_rl_benchmark::run::{Window, END_TO_END};
use mlir_rl_benchmark::spans::{self_time_by_name, SpanLog};
use mlir_rl_benchmark::speed::NOMINAL_MS;
use mlir_rl_benchmark::stats;
use mlir_rl_benchmark::trace::PER_LAYER;
use mlir_rl_benchmark::workloads::{rollout_plan, serve_plan, Scale, Workload};

const SMOKE: Scale = Scale { smoke: true };

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * b.abs().max(1.0)
}

#[test]
fn quartiles_agree_with_python_statistics_quantiles() {
    // statistics.quantiles(values, n=4), default (exclusive) method.
    for (values, want) in [
        (
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 5.5, 8.25),
        ),
        (
            vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
            (1.25, 3.5, 5.75),
        ),
        (vec![2.0, 1.0], (0.75, 1.5, 2.25)),
        (vec![10.0, 12.0, 11.0, 15.0, 9.0], (9.5, 11.0, 13.5)),
    ] {
        let (q1, q2, q3) = stats::quartiles(&values).expect("two or more values");
        assert!(
            close(q1, want.0) && close(q2, want.1) && close(q3, want.2),
            "{values:?}: got {:?}, want {want:?}",
            (q1, q2, q3)
        );
    }
    assert_eq!(stats::quartiles(&[1.0]), None);
    assert!(close(
        stats::relative_spread(&[10.0, 12.0, 11.0, 15.0, 9.0]),
        4.0 / 11.0
    ));
    assert_eq!(stats::relative_spread(&[5.0]), 0.0);
}

#[test]
fn percentiles_interpolate_between_closest_ranks() {
    let sorted = stats::sorted(&[4.0, 1.0, 3.0, 2.0]);
    assert_eq!(sorted, vec![1.0, 2.0, 3.0, 4.0]);
    assert!(close(stats::percentile(&sorted, 0.0), 1.0));
    assert!(close(stats::percentile(&sorted, 0.5), 2.5));
    assert!(close(stats::percentile(&sorted, 1.0), 4.0));
    assert!(close(stats::percentile(&sorted, 0.95), 3.85));
    assert_eq!(stats::percentile(&[], 0.5), 0.0);
    assert!(close(stats::median(&[9.0, 1.0, 5.0]), 5.0));
    assert!(close(stats::geomean(&[2.0, 8.0]), 4.0));
}

#[test]
fn window_reports_the_median_slice_not_the_mean() {
    // A hundred 1 ms jobs, one per 10 ms — except jobs 20 to 29 (two of
    // the twenty slices), stalled to a tenth of the rate with ten-fold job
    // times.
    let mut window = Window::default();
    let mut at = 0.0;
    for job in 0..100 {
        let stalled = (20..30).contains(&job);
        at += if stalled { 0.1 } else { 0.01 };
        window.push(at, if stalled { 10.0 } else { 1.0 }, 3);
    }
    let (jobs_per_s, p50, p95, steps_per_s) = window.timing(false);
    assert!(close(jobs_per_s, 100.0), "{jobs_per_s}");
    assert!(close(steps_per_s, 300.0), "{steps_per_s}");
    assert!(close(p50, 1.0) && close(p95, 1.0), "{p50} {p95}");
    // No speedometer samples: nothing to normalise by.
    assert_eq!(window.timing(true), window.timing(false));
}

#[test]
fn window_reads_at_nominal_machine_speed() {
    // The machine runs at half speed throughout (the kernel takes twice
    // its nominal time), with one preempted sample per slice: rates double
    // and times halve, and the preempted samples are ignored.
    let mut window = Window::default();
    for job in 0..100 {
        let at = (job + 1) as f64 * 0.01;
        window.push(at, 2.0, 3);
        window
            .speeds
            .push((at, NOMINAL_MS * if job % 5 == 0 { 9.0 } else { 2.0 }));
    }
    let (jobs_per_s, p50, p95, steps_per_s) = window.timing(true);
    assert!(close(jobs_per_s, 200.0), "{jobs_per_s}");
    assert!(close(steps_per_s, 600.0), "{steps_per_s}");
    assert!(close(p50, 1.0) && close(p95, 1.0), "{p50} {p95}");
}

#[test]
fn self_time_is_the_span_minus_what_its_children_cover() {
    let log = SpanLog::new();
    let root = log.record_ns(None, 7, "job", 0, 100);
    // Two overlapping children cover 10..50; a third is clipped to the
    // parent's end (90..100); a grandchild counts against its own parent.
    let a = log.record_ns(Some(root), 7, "search", 10, 30);
    log.record_ns(Some(root), 7, "search", 20, 50);
    log.record_ns(Some(root), 7, "core.queue", 90, 120);
    log.record_ns(Some(a), 7, "agent.select_action", 12, 18);
    let totals = self_time_by_name(&log.snapshot());
    assert_eq!(totals["job"], 50);
    assert_eq!(totals["search"], (20 - 6) + 30);
    assert_eq!(totals["core.queue"], 30);
    assert_eq!(totals["agent.select_action"], 6);

    // An opened span keeps its id for children recorded before it closes.
    let log = SpanLog::new();
    let start = std::time::Instant::now();
    let open = log.open(None, 1, "search", start);
    log.record(Some(open), 1, "agent.rank_batch", start, start);
    log.close(open, start + std::time::Duration::from_nanos(500));
    let spans = log.snapshot();
    assert_eq!(spans[1].parent, Some(open));
    assert_eq!(spans[0].duration_ns(), 500);

    let mut jsonl = Vec::new();
    mlir_rl_benchmark::spans::write_jsonl(&spans, &mut jsonl).unwrap();
    let text = String::from_utf8(jsonl).unwrap();
    let first = json::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(first.get("name").and_then(Value::as_str), Some("search"));
    assert_eq!(first.get("parent"), Some(&Value::Null));
    let ns = |key: &str| first.get(key).and_then(Value::as_f64).unwrap();
    assert_eq!(ns("end_ns") - ns("start_ns"), 500.0);
}

#[test]
fn the_same_seed_gives_the_same_job_stream_and_another_seed_does_not() {
    for workload in Workload::ALL.into_iter().filter(|w| w.is_serve()) {
        let digest = |seed| serve_plan(workload, seed, SMOKE).stream.digest(200);
        assert_eq!(digest(5), digest(5), "{}", workload.name());
        assert_ne!(digest(5), digest(6), "{}", workload.name());
    }
    // The wide pair is one stream served two ways.
    assert_eq!(
        serve_plan(Workload::ServeWideDirect, 3, SMOKE)
            .stream
            .digest(50),
        serve_plan(Workload::ServeWideBatched, 3, SMOKE)
            .stream
            .digest(50)
    );
    let names = |seed| {
        let plan = rollout_plan(seed, SMOKE);
        let jobs: Vec<(Vec<String>, u64)> = (0..6)
            .map(|job| {
                let modules = plan
                    .modules(job)
                    .iter()
                    .map(|m| m.name().to_string())
                    .collect();
                (modules, plan.base_seed(job))
            })
            .collect();
        jobs
    };
    assert_eq!(names(5), names(5));
    assert_ne!(names(5), names(6));
}

#[test]
fn compare_calls_a_pair_regressed_only_past_the_bound_and_inside_the_spread() {
    let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
    let slower = [90.0, 91.0, 89.0, 90.5, 89.5];
    // Throughput fell 10 %: past a 5 % bound, inside a 15 % one.
    assert_eq!(verdict(&steady, &slower, true, 0.05), Verdict::Regressed);
    assert_eq!(verdict(&steady, &slower, true, 0.15), Verdict::Ok);
    // The same numbers as a latency are an improvement.
    assert_eq!(verdict(&steady, &slower, false, 0.05), Verdict::Ok);
    // A spread wider than the bound resolves nothing …
    let noisy = [100.0, 80.0, 120.0, 90.0, 110.0];
    assert_eq!(verdict(&noisy, &steady, true, 0.05), Verdict::Unresolved);
    // … unless every run of B beats every run of A.
    let much_faster = [200.0, 180.0, 220.0, 190.0, 210.0];
    assert_eq!(verdict(&noisy, &much_faster, true, 0.05), Verdict::Ok);
    // Single runs have no spread; the medians decide.
    assert_eq!(verdict(&[100.0], &[94.0], true, 0.05), Verdict::Regressed);
}

#[test]
fn json_round_trips_what_the_benchmark_writes() {
    let value = Value::obj([
        ("name", Value::str("a \"quoted\"\nline")),
        ("n", Value::Num(0.1 + 0.2)),
        (
            "list",
            Value::Arr(vec![Value::Num(-1.5e-7), Value::Bool(true), Value::Null]),
        ),
        ("nested", Value::obj([("k", Value::Obj(Vec::new()))])),
    ]);
    assert_eq!(json::parse(&value.to_json()).unwrap(), value);
    assert_eq!(json::parse(&value.to_json_pretty()).unwrap(), value);
    assert_eq!(Value::Num(f64::NAN).to_json(), "null");
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "1 2", "\"open", "nul"] {
        assert!(json::parse(bad).is_err(), "{bad:?} parsed");
    }
    assert!(json::parse(&"[".repeat(10_000)).is_err());
}

fn declared_names(benchmark: &Value, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

/// `all --smoke`: every workload runs (untraced and traced, one child
/// process each), every check passes, and the workload and metric names
/// in the result file are exactly the ones `BENCHMARK.json` declares.
#[test]
fn smoke_run_of_all_six_workloads_matches_benchmark_json() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).unwrap();
    let benchmark = json::parse(&text).unwrap();
    let workloads = declared_names(&benchmark, "workloads");
    let end_to_end = declared_names(&benchmark, "end_to_end");
    let per_layer = declared_names(&benchmark, "per_layer");
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_string()).to_vec()
    );
    assert_eq!(end_to_end, END_TO_END.map(|m| m.0.to_string()).to_vec());
    assert_eq!(per_layer, PER_LAYER.map(|m| m.0.to_string()).to_vec());
    // Units and directions are declared once in code and once in the file.
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (entry, (name, unit, better)) in benchmark
            .get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(table)
        {
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(*unit),
                "{name}"
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(*better),
                "{name}"
            );
        }
    }

    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let status = Command::new(env!("CARGO_BIN_EXE_mlir-rl-benchmark"))
        .args(["all", "--smoke", "--seed", "3", "--out-dir"])
        .arg(&out_dir)
        .status()
        .unwrap();
    assert!(status.success(), "all --smoke failed: {status}");

    let result =
        json::parse(&std::fs::read_to_string(out_dir.join("result.json")).unwrap()).unwrap();
    let ran = result.get("workloads").and_then(Value::as_object).unwrap();
    let names: Vec<&str> = ran.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        workloads.iter().map(String::as_str).collect::<Vec<_>>()
    );
    for (name, entry) in ran {
        let keys = |section: &str| -> Vec<String> {
            entry
                .get(section)
                .and_then(Value::as_object)
                .unwrap_or_else(|| panic!("{name} has no {section}"))
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(keys("end_to_end"), end_to_end, "{name}");
        assert_eq!(keys("per_layer"), per_layer, "{name}");
        let spans = std::fs::read_to_string(out_dir.join(format!("{name}.spans.jsonl"))).unwrap();
        assert!(spans.lines().count() > 0, "{name} wrote no spans");
        for line in spans.lines().take(50) {
            let span = json::parse(line).unwrap();
            assert!(
                span.get("start_ns").and_then(Value::as_f64)
                    <= span.get("end_ns").and_then(Value::as_f64)
            );
        }
    }
}

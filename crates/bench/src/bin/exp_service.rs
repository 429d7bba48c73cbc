//! Prints the request-stream serving experiment: a sustained stream of
//! `OptimizationRequest`s (greedy / beam / widened-MCTS / random specs over
//! the DL-operator evaluation workloads) served by one **warm persistent**
//! `OptimizationService`, a fresh service that **restored** the warm
//! cache's snapshot at startup, a **tiny-cache** service under forced
//! entry-wise eviction, and **cold per-request** services — with the
//! cross-request shared-cache hit-rate gap, request throughput, queue and
//! service timings, and the determinism checks (response fingerprints
//! bit-identical across 1/2/4 workers and shuffled submission orders, and
//! restored / tiny-cache streams bit-identical to the warm stream response
//! for response).
//!
//! Scale with `MLIR_RL_SCALE` (`smoke` / `standard` / `full`) or pass
//! `--smoke`; worker count with `MLIR_RL_WORKERS` (default: available
//! parallelism). Pass `--json` for a machine-readable record, and
//! `--trace <path>` to record a structured trace of the warm run's request
//! lifecycles and export it as Chrome trace-event JSON.

use mlir_rl_bench::{cli, export_trace, service_throughput_traced, DEFAULT_TRACE_CAPACITY};

fn main() {
    let args = cli::parse(
        "exp_service",
        cli::Accepts {
            json: true,
            trace: true,
        },
    );
    let scale = args.scale();
    let workers = cli::workers_from_env();
    let trace_capacity = args.trace.as_ref().map(|_| DEFAULT_TRACE_CAPACITY);
    let (report, snapshot) = service_throughput_traced(&scale, workers, trace_capacity);
    if let (Some(path), Some(snapshot)) = (&args.trace, &snapshot) {
        export_trace(snapshot, path);
    }
    if args.json {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    assert!(
        report.determinism_invariant,
        "service responses diverged across worker counts / submission orders"
    );
    assert!(
        report.restored_entries > 0,
        "the warm restart restored no cache entries"
    );
    assert!(
        report.restored_fingerprints_match,
        "snapshot/restore changed a response vs the warm stream"
    );
    assert!(
        report.restored.hit_rate > report.cold.hit_rate,
        "warm restart must beat the cold hit-rate: {} vs {}",
        report.restored.hit_rate,
        report.cold.hit_rate
    );
    assert!(
        report.tiny_cache_evictions > 0,
        "the tiny-cache stream never evicted"
    );
    assert!(
        report.tiny_fingerprints_match,
        "entry-wise eviction changed a response vs the warm stream"
    );
}

//! Sustained request-stream serving through the [`OptimizationService`]: a
//! warm persistent service (one cache amortized across every request) vs
//! per-request cold services, a restored and a tiny-cache service, plus the
//! request-level determinism check (worker counts x submission orders).

use std::time::Instant;

use mlir_rl_core::{
    wait_all, OptimizationRequest, OptimizationResponse, OptimizationService, ServiceConfig,
};
use mlir_rl_costmodel::hit_rate;
use mlir_rl_env::EnvConfig;
use mlir_rl_ir::Module;
use mlir_rl_obs::TraceSnapshot;
use mlir_rl_search::SearchSpec;
use mlir_rl_workloads::dl_ops;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::report::{ensure_all, report, Report};
use crate::{
    count_statuses, evaluation_modules, geomean, train_mlir_rl, ExperimentScale, Statuses,
};

report! {
    /// Aggregates of one request stream run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServiceStreamSummary {
        /// Stream label (`warm-service` / `restored-service` /
        /// `tiny-cache-service` / `cold-per-request`).
        name: String = "stream",
        /// Requests served.
        requests: usize = "requests",
        /// Requests served per wall-clock second (including, for the cold
        /// stream, the per-request service construction that a persistent
        /// service amortizes away).
        requests_per_sec: f64 = "req/s",
        /// Wall-clock seconds for the whole stream.
        wall_s: f64 = "wall (s)",
        /// Geometric mean of the per-request speedups.
        geomean_speedup: f64 = "geomean",
        /// Estimator runs across the stream (cache misses).
        evaluations: usize = "evals",
        /// Total cost-model lookups across the stream.
        total_lookups: usize = "lookups",
        /// Fraction of lookups served by cache.
        hit_rate: f64 = "hit-rate",
        /// Mean seconds a request waited in the queue.
        mean_queue_s: f64 = "queue (s)",
        /// Mean seconds a request's search ran.
        mean_service_s: f64 = "service (s)",
    }
}

impl ServiceStreamSummary {
    fn from_responses(name: &str, responses: &[OptimizationResponse], wall_s: f64) -> Self {
        let requests = responses.len();
        let evaluations: usize = responses.iter().map(|r| r.evaluations).sum();
        let total_lookups: usize = responses.iter().map(|r| r.total_lookups()).sum();
        let mean = |seconds: fn(&OptimizationResponse) -> f64| {
            responses.iter().map(seconds).sum::<f64>() / requests.max(1) as f64
        };
        Self {
            name: name.to_string(),
            requests,
            requests_per_sec: requests as f64 / wall_s.max(1e-9),
            wall_s,
            geomean_speedup: geomean(responses.iter().map(|r| r.speedup())),
            evaluations,
            total_lookups,
            hit_rate: hit_rate((total_lookups - evaluations) as u64, evaluations as u64),
            mean_queue_s: mean(|r| r.queue_s),
            mean_service_s: mean(|r| r.service_s),
        }
    }
}

report! {
    /// The `exp service` report: the sustained request stream served by one
    /// warm persistent service vs per-request cold services, and the
    /// request-level determinism check.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServiceReport {
        /// Distinct workload modules in the stream.
        modules: usize = "modules",
        /// Passes over the workloads (each pass cycles the searcher specs).
        rounds: usize = "rounds",
        /// Worker threads of the warm service.
        workers: usize = "workers",
        /// The four streams, in this order: **warm** (one persistent
        /// service); **restored** (a fresh service that restored the warm
        /// cache's snapshot at startup,
        /// [`ServiceConfig::with_cache_snapshot`] — the storage-tier
        /// restart); **tiny** (a deliberately tiny cache,
        /// [`ServiceConfig::with_cache_capacity`], forcing entry-wise
        /// eviction on every shard); **cold** (a fresh service and cache
        /// per request).
        streams: Vec<ServiceStreamSummary> = "streams",
        /// Entries the restored service recovered from the snapshot file.
        restored_entries: u64 = "entries restored after restart",
        /// Whether every restored-service response fingerprint matched its
        /// warm counterpart bit for bit.
        restored_fingerprints_match: bool = "restored stream bit-identical to warm",
        /// Global cache capacity of the tiny-cache stream.
        tiny_capacity: usize = "tiny-cache capacity",
        /// Entry-wise evictions the tiny-cache stream performed.
        tiny_cache_evictions: u64 = "tiny-cache entry-wise evictions",
        /// Whether every tiny-cache response fingerprint matched its warm
        /// counterpart bit for bit — eviction is a memory lever, never a
        /// result lever.
        tiny_fingerprints_match: bool = "tiny-cache stream bit-identical to warm",
        /// Request statuses of the warm stream.
        statuses: Statuses = "warm-stream statuses",
        /// Whether response fingerprints were bit-identical across 1/2/4
        /// workers and two shuffled submission orders.
        determinism_invariant: bool = "bit-identical across 1/2/4 workers and shuffled orders",
    }
}

impl Report for ServiceReport {
    fn check(&self) -> Result<(), String> {
        let [warm, restored, _tiny, cold] = &self.streams[..] else {
            return Err("four streams expected".to_string());
        };
        ensure_all!(
            warm.requests == self.modules * self.rounds && cold.requests == warm.requests,
            self.statuses == (warm.requests, 0, 0, 0),
            // A warm persistent service amortizes its cache across
            // requests: strictly higher hit-rate and fewer estimator runs
            // than cold per-request services, for the same schedules.
            warm.hit_rate > cold.hit_rate && warm.evaluations < cold.evaluations,
            warm.geomean_speedup > 0.0 && warm.geomean_speedup == cold.geomean_speedup,
            // Neither the worker count nor the submission order changes
            // one response bit.
            self.determinism_invariant,
            // The storage tier: snapshot -> restart -> restore keeps real
            // warmth at bit-identical responses...
            self.restored_entries > 0 && self.restored_fingerprints_match,
            restored.hit_rate > cold.hit_rate,
            // ...and the tiny cache evicts entry-wise, still bit-identical.
            self.tiny_cache_evictions > 0 && self.tiny_fingerprints_match,
        )
    }
}

/// Deterministic Fisher-Yates shuffle (the vendored `rand` stub has no
/// `SliceRandom`).
fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..items.len()).rev() {
        let j = (rng.gen::<u64>() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The request stream: `rounds` passes over the workloads, cycling the
/// searcher spec per (module, round) and seeding each request from its
/// stream position — so the same stream can be re-submitted in any order
/// on any worker count and must produce fingerprint-identical responses.
fn service_request_stream(
    workloads: &[Module],
    rounds: usize,
    specs: &[SearchSpec],
) -> Vec<OptimizationRequest> {
    let mut requests = Vec::with_capacity(workloads.len() * rounds);
    for round in 0..rounds {
        for (index, module) in workloads.iter().enumerate() {
            let spec = specs[(round + index) % specs.len()].clone();
            let seed = mlir_rl_agent::episode_seed(2027, (round * workloads.len() + index) as u64);
            requests.push(OptimizationRequest::new(module.clone(), spec).with_seed(seed));
        }
    }
    requests
}

/// Runs the request-stream serving experiment: trains a quick policy, then
/// serves `rounds` passes over the DL-operator evaluation workloads
/// (specs cycling over greedy / beam / widened MCTS / random) through the
/// four services of [`ServiceReport::streams`], and verifies the
/// request-level determinism contract by re-serving the same stream with
/// 1/2/4 workers and shuffled submission orders, comparing response
/// fingerprints.
///
/// `trace_capacity` is the per-ring event capacity of optional structured
/// tracing ([`ServiceConfig::with_tracing`]); the returned snapshot covers
/// the whole warm stream.
pub fn service_throughput(
    scale: &ExperimentScale,
    workers: usize,
    trace_capacity: Option<usize>,
) -> (ServiceReport, Option<TraceSnapshot>) {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 101);
    let mut rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 17);
    let workloads = evaluation_modules();

    let budget = scale.trajectories_per_iteration;
    let specs = vec![
        SearchSpec::Greedy,
        SearchSpec::beam(4),
        SearchSpec::Mcts {
            iterations: (budget * 2).max(8),
            branch: 4,
            widening: Some((1.0, 0.6)),
        },
        SearchSpec::random((budget * 2).max(4)),
    ];
    let rounds = if scale.hidden_size <= 16 { 2 } else { 3 };
    let stream = service_request_stream(&workloads, rounds, &specs);
    // Serves the whole stream through `service`, timed.
    let serve = |name: &str, service: &OptimizationService| {
        let start = Instant::now();
        let responses = wait_all(&service.submit_batch(stream.clone()));
        let wall_s = start.elapsed().as_secs_f64();
        (
            ServiceStreamSummary::from_responses(name, &responses, wall_s),
            responses,
        )
    };

    // --- warm: one persistent service, one cache across the stream ----
    let mut warm_config = ServiceConfig::quick().with_workers(workers);
    if let Some(capacity) = trace_capacity {
        warm_config = warm_config.with_tracing(capacity);
    }
    let warm_service = rl.spawn_service_with(&warm_config);
    // `spawn_service_with` shares the optimizer's cache, which training
    // warmed; start the comparison from a clean slate so warm-vs-cold
    // measures exactly the cross-request amortization.
    warm_service.cache().clear();
    let (warm, warm_responses) = serve("warm-service", &warm_service);
    let statuses = count_statuses(&warm_responses);
    let reference: Vec<u64> = warm_responses.iter().map(|r| r.fingerprint()).collect();
    let matches_warm = |responses: &[OptimizationResponse]| {
        responses
            .iter()
            .map(|r| r.fingerprint())
            .eq(reference.iter().copied())
    };

    // --- cold: a fresh service (fresh cache) per request ---------------
    let service_config = ServiceConfig::quick();
    let start = Instant::now();
    let cold_responses: Vec<OptimizationResponse> = stream
        .iter()
        .map(|request| {
            let service = OptimizationService::new(service_config.clone(), rl.policy().clone());
            service.submit(request.clone()).wait()
        })
        .collect();
    let cold = ServiceStreamSummary::from_responses(
        "cold-per-request",
        &cold_responses,
        start.elapsed().as_secs_f64(),
    );

    // --- restored: snapshot the warm cache, then a *fresh* service
    // restores it at startup and re-serves the stream.
    let snapshot_path =
        std::env::temp_dir().join(format!("mlir-rl-exp-service-{}.snap", std::process::id()));
    let snapshot_file = snapshot_path.to_string_lossy().into_owned();
    warm_service
        .cache()
        .snapshot_to(&snapshot_file)
        .expect("snapshotting the warm cache");
    let restored_service = OptimizationService::new(
        service_config.clone().with_cache_snapshot(&snapshot_file),
        rl.policy().clone(),
    );
    let restored_entries = restored_service.metrics().cache_restored;
    let (restored, restored_responses) = serve("restored-service", &restored_service);
    std::fs::remove_file(&snapshot_path).ok();

    // --- tiny cache: the same stream against a deliberately starved
    // capacity. Responses must stay bit-identical — eviction only re-runs
    // the (deterministic) estimator.
    let tiny_capacity = 32;
    let tiny_service = OptimizationService::new(
        service_config.clone().with_cache_capacity(tiny_capacity),
        rl.policy().clone(),
    );
    let (tiny, tiny_responses) = serve("tiny-cache-service", &tiny_service);

    // --- determinism: worker counts x shuffled submission orders -------
    let mut shuffle_rng = ChaCha8Rng::seed_from_u64(4242);
    let determinism_invariant = [1usize, 2, 4].iter().all(|&check_workers| {
        let service = OptimizationService::new(
            service_config.clone().with_workers(check_workers),
            rl.policy().clone(),
        );
        // Shuffle the submission order; responses map back to stream
        // positions through the submitted index.
        let mut order: Vec<usize> = (0..stream.len()).collect();
        shuffle(&mut order, &mut shuffle_rng);
        let pending: Vec<_> = order
            .iter()
            .map(|&i| service.submit(stream[i].clone()))
            .collect();
        let mut fingerprints = vec![0u64; stream.len()];
        for (&i, p) in order.iter().zip(&pending) {
            fingerprints[i] = p.wait().fingerprint();
        }
        fingerprints == reference
    });

    let report = ServiceReport {
        modules: workloads.len(),
        rounds,
        workers: workers.max(1),
        streams: vec![warm, restored, tiny, cold],
        restored_entries,
        restored_fingerprints_match: matches_warm(&restored_responses),
        tiny_capacity,
        tiny_cache_evictions: tiny_service.metrics().cache_evictions,
        tiny_fingerprints_match: matches_warm(&tiny_responses),
        statuses,
        determinism_invariant,
    };
    (report, warm_service.trace_snapshot())
}

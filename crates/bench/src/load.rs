//! Open-loop traffic hardening: deterministic bursty/heavy-tailed arrivals
//! against a bounded-queue hardened service (quotas, weights, backpressure)
//! vs an unbounded queue, with tail latency next to speedup.

use std::time::{Duration, Instant};

use mlir_rl_core::{
    wait_all, OptimizationRequest, OptimizationResponse, OptimizationService, ResponseStatus,
    ServiceConfig, ServiceMetrics,
};
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
    /// The `exp load` report: a deterministic open-loop arrival process — a
    /// back-to-back burst followed by heavy-tailed paced arrivals, mixing
    /// every [`SearchSpec`] variant across weighted clients — replayed
    /// against a hardened bounded-queue service (and, for the memory
    /// comparison, against an unbounded-queue service), reporting p50/p99
    /// queue and service latency next to the geomean speedup. The
    /// latencies and the bounded high-water mark repeat members of
    /// `metrics` at the top level, where CI reads them.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LoadReport {
        /// Distinct workload modules in the stream.
        modules: usize = "modules",
        /// Requests in the replayed arrival stream.
        requests: usize = "requests",
        /// Arrivals submitted back-to-back at the head of the stream.
        burst: usize = "opening burst",
        /// Worker threads.
        workers: usize = "workers",
        /// Queue bound of the hardened service (deliberately smaller than
        /// the burst, so backpressure engages).
        queue_capacity: usize = "queue capacity",
        /// Wall-clock seconds replaying the stream against the bounded
        /// service.
        wall_s: f64 = "wall (s)",
        /// Requests answered per wall-clock second in the bounded run.
        requests_per_sec: f64 = "req/s",
        /// Geometric mean speedup over the bounded run's completed requests.
        geomean_speedup: f64 = "geomean speedup (completed)",
        /// `metrics.queue_p50_s`.
        queue_p50_s: f64 = "queue latency p50 (s)",
        /// `metrics.queue_p99_s`.
        queue_p99_s: f64 = "queue latency p99 (s)",
        /// `metrics.service_p50_s`.
        service_p50_s: f64 = "service latency p50 (s)",
        /// `metrics.service_p99_s`.
        service_p99_s: f64 = "service latency p99 (s)",
        /// `metrics.queue_high_water`.
        bounded_high_water: u64 = "queue high-water, bounded",
        /// Queue high-water mark of the unbounded service replaying the
        /// same arrivals — the memory the bounded queue refuses to grow.
        unbounded_high_water: u64 = "queue high-water, unbounded",
        /// Statuses of the bounded run.
        statuses: Statuses = "statuses",
        /// Bounded-run metrics snapshot: latency quantiles, admission /
        /// overflow / quota counters, queue high-water mark, cache
        /// hit-rate.
        metrics: ServiceMetrics = "bounded-run metrics",
    }
}

impl Report for LoadReport {
    fn check(&self) -> Result<(), String> {
        let (completed, stopped, skipped, rejected) = self.statuses;
        ensure_all!(
            // The burst fits the stream and overflows the queue.
            self.requests >= self.burst && self.burst > self.queue_capacity,
            // Every submitted request is answered.
            completed + stopped + skipped + rejected == self.requests,
            completed > 0 && self.geomean_speedup > 0.0,
            // The tail-latency surface is populated (bucket upper bounds
            // are never zero once a sample lands).
            self.queue_p99_s > 0.0 && self.service_p99_s > 0.0,
            self.queue_p99_s >= self.queue_p50_s,
            // Bounded-queue memory stays flat under the burst, while the
            // unbounded service replaying the same arrivals queues at
            // least as much.
            self.bounded_high_water <= self.queue_capacity as u64,
            self.unbounded_high_water >= self.bounded_high_water,
            // The cache tier gauges are populated and respect the bound.
            self.metrics.cache_insertions > 0,
            self.metrics.cache_len <= self.metrics.cache_capacity,
        )
    }
}

/// Builds the deterministic open-loop arrival stream: `burst` back-to-back
/// arrivals, then heavy-tailed (power-of-two microsecond) gaps from a
/// seeded generator; modules, spec variants, weighted clients and
/// priorities all cycle deterministically with the stream position.
fn load_request_stream(
    workloads: &[Module],
    total: usize,
    burst: usize,
    specs: &[SearchSpec],
) -> Vec<(OptimizationRequest, Duration)> {
    let mut rng = ChaCha8Rng::seed_from_u64(90210);
    let clients = [Some("alice"), Some("bob"), None];
    (0..total)
        .map(|i| {
            let module = workloads[i % workloads.len()].clone();
            let spec = specs[i % specs.len()].clone();
            let seed = mlir_rl_agent::episode_seed(3031, i as u64);
            let mut request = OptimizationRequest::new(module, spec)
                .with_seed(seed)
                .with_priority((rng.gen::<u64>() % 3) as i32 - 1);
            if let Some(client) = clients[i % clients.len()] {
                request = request.with_client(client);
            }
            let gap = if i < burst {
                Duration::ZERO
            } else {
                // Heavy-tailed pacing: mostly tight arrivals with
                // occasional power-of-two spikes up to ~128 µs.
                let draw = rng.gen::<u64>() % 100;
                if draw < 70 {
                    Duration::ZERO
                } else {
                    Duration::from_micros(1 << (draw % 8))
                }
            };
            (request, gap)
        })
        .collect()
}

/// Replays the arrival stream open-loop (submission times never wait for
/// completions) and waits for every response.
fn replay_stream(
    service: &OptimizationService,
    stream: &[(OptimizationRequest, Duration)],
) -> Vec<OptimizationResponse> {
    let pending: Vec<_> = stream
        .iter()
        .map(|(request, gap)| {
            if !gap.is_zero() {
                std::thread::sleep(*gap);
            }
            service.submit(request.clone())
        })
        .collect();
    wait_all(&pending)
}

/// Runs the traffic-hardening experiment: trains a quick policy, builds a
/// deterministic open-loop arrival stream (an opening burst deliberately
/// larger than the hardened service's queue bound, then heavy-tailed
/// pacing; every [`SearchSpec`] variant; three client lanes with weights
/// 3/1/1 and an in-flight quota), and replays it against
///
/// 1. the **hardened** service — bounded queue, client quotas and weights:
///    backpressure rejects the overflowing burst tail, the queue
///    high-water mark plateaus at the capacity, and the metrics surface
///    reports p50/p99 queue and service latency; and
/// 2. an **unbounded** service replaying the same arrivals — its
///    high-water mark grows with the burst, the memory-leak mode the
///    bounded queue exists to prevent.
///
/// `trace_capacity` is the per-ring event capacity of optional structured
/// tracing on the hardened service ([`ServiceConfig::with_tracing`]); the
/// returned snapshot covers the whole replayed stream — per-request
/// lifecycle spans (including the burst's backpressure rejections) plus
/// searcher phase events.
pub fn load_test(
    scale: &ExperimentScale,
    workers: usize,
    trace_capacity: Option<usize>,
) -> (LoadReport, Option<TraceSnapshot>) {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 101);
    let rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 23);
    let workloads = evaluation_modules();

    let budget = scale.trajectories_per_iteration;
    let specs = vec![
        SearchSpec::Greedy,
        SearchSpec::beam(3),
        SearchSpec::Mcts {
            iterations: budget.max(4),
            branch: 3,
            widening: Some((1.0, 0.6)),
        },
        SearchSpec::random(budget.max(3)),
        SearchSpec::round_robin(vec![SearchSpec::Greedy, SearchSpec::beam(2)]),
        SearchSpec::racing(vec![SearchSpec::Greedy, SearchSpec::beam(2)], 0.0),
    ];
    let rounds = if scale.hidden_size <= 16 { 2 } else { 4 };
    let total = workloads.len() * rounds;
    let burst = (total / 2).max(4);
    let capacity = (burst / 2).max(2);
    let stream = load_request_stream(&workloads, total, burst, &specs);

    // --- hardened: bounded queue + quotas + weighted lanes -------------
    let mut bounded_config = ServiceConfig::quick()
        .with_workers(workers)
        .with_queue_capacity(capacity)
        .with_client_quota(2)
        .with_client_weight("alice", 3)
        .with_client_weight("bob", 1);
    if let Some(ring) = trace_capacity {
        bounded_config = bounded_config.with_tracing(ring);
    }
    let bounded = OptimizationService::new(bounded_config, rl.policy().clone());
    let start = Instant::now();
    let responses = replay_stream(&bounded, &stream);
    let wall_s = start.elapsed().as_secs_f64();
    let metrics = bounded.metrics();
    let completed = responses
        .iter()
        .filter(|r| r.status == ResponseStatus::Completed);

    // --- unbounded: the same arrivals, no queue bound ------------------
    let unbounded = OptimizationService::new(
        ServiceConfig::quick()
            .with_workers(workers)
            .with_unbounded_queue(),
        rl.policy().clone(),
    );
    replay_stream(&unbounded, &stream);

    let report = LoadReport {
        modules: workloads.len(),
        requests: total,
        burst,
        workers: workers.max(1),
        queue_capacity: capacity,
        wall_s,
        requests_per_sec: total as f64 / wall_s.max(1e-9),
        geomean_speedup: geomean(completed.map(|r| r.speedup())),
        queue_p50_s: metrics.queue_p50_s,
        queue_p99_s: metrics.queue_p99_s,
        service_p50_s: metrics.service_p50_s,
        service_p99_s: metrics.service_p99_s,
        bounded_high_water: metrics.queue_high_water,
        unbounded_high_water: unbounded.metrics().queue_high_water,
        statuses: count_statuses(&responses),
        metrics,
    };
    (report, bounded.trace_snapshot())
}

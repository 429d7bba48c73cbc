//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Nothing here feeds an end-to-end number. A traced run
//!
//! 1. repeats the workload's closed loop in short segments — untraced,
//!    then with `ServiceConfig::with_tracing` on, recording one `job` span
//!    per reply (children `core.queue` / `core.run`, rebuilt from the
//!    reply's `queue_s` / `service_s`) — and reads the service's counters
//!    around them;
//! 2. re-runs a seeded sample of the jobs single-threaded *outside* the
//!    service through `SearchSpec::build::<Probed<PolicyNetwork>>()` on a
//!    private environment, which gives `search` spans with one child span
//!    per policy call;
//! 3. replays the sampled jobs' `best_actions` / `best_schedule` to time
//!    the leaf layers directly at the workload's own configuration.
//!
//! `share.*` is a count times a measured unit cost over the sampled jobs'
//! search time (policy: measured span time over search time); a metric a
//! workload's path does not touch reads 0.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::{collect_rollouts, PolicyNetwork, ValueNetwork};
use mlir_rl_core::service::{
    OptimizationResponse, OptimizationService, ServiceConfig, ServiceMetrics,
};
use mlir_rl_costmodel::{module_fingerprint, CostModel, ScheduleKey, SharedEvalCache};
use mlir_rl_env::{Action, EnvConfig, Observation, OptimizationEnv};
use mlir_rl_ir::parser::parse_module;
use mlir_rl_ir::printer::print_module;
use mlir_rl_ir::{Module, OpId};
use mlir_rl_nn::{Lstm, Mlp, Tensor2};
use mlir_rl_transforms::{Schedule, ScheduledModule};
use mlir_rl_workloads::full_training_dataset;

use crate::probe::{PolicyProbe, Probed};
use crate::run::{
    check_batch, check_reply, drive, rollout_job, sampled, spawn_warm, Failures, RunResult,
};
use crate::spans::{self_time_by_name, Span, SpanLog};
use crate::stats;
use crate::workloads::{
    rollout_plan, serve_plan, train_plan, RolloutPlan, Scale, ServePlan, Workload,
};

/// `(name, unit, better)` of every per-layer metric, grouped by layer (the
/// crate a metric's prefix names). `BENCHMARK.json` carries the same list.
pub const PER_LAYER: [(&str, &str, &str); 60] = [
    ("ir.parse_us_per_module", "us", "lower"),
    ("ir.print_us_per_module", "us", "lower"),
    ("workloads.generate_us_per_module", "us", "lower"),
    ("transforms.apply_us_per_action", "us", "lower"),
    ("transforms.lower_us_per_op", "us", "lower"),
    ("share.transforms", "ratio", "lower"),
    ("costmodel.estimate_us_per_eval", "us", "lower"),
    ("costmodel.cache_hit_ns_per_lookup", "ns", "lower"),
    ("costmodel.cache_miss_us_per_lookup", "us", "lower"),
    ("costmodel.cache_evict_us_per_insert", "us", "lower"),
    ("costmodel.cache_hit_rate", "ratio", "higher"),
    ("costmodel.lookups_per_job", "count", "lower"),
    ("costmodel.insertions_per_job", "count", "lower"),
    ("costmodel.evictions_per_job", "count", "lower"),
    ("costmodel.promotions_per_job", "count", "higher"),
    ("share.costmodel", "ratio", "lower"),
    ("env.reset_us_per_episode", "us", "lower"),
    ("env.step_us_per_step", "us", "lower"),
    ("env.observation_us_per_step", "us", "lower"),
    ("env.snapshot_restore_us", "us", "lower"),
    ("share.env", "ratio", "lower"),
    ("nn.mlp_infer_us_per_row_b1", "us", "lower"),
    ("nn.mlp_infer_us_per_row_b16", "us", "lower"),
    ("nn.lstm_infer_us_per_row_b1", "us", "lower"),
    ("nn.lstm_infer_us_per_row_b16", "us", "lower"),
    ("nn.mlp_backward_us_per_row_b16", "us", "lower"),
    ("nn.lstm_backward_us_per_row_b16", "us", "lower"),
    ("agent.select_action_us_per_call", "us", "lower"),
    ("agent.rank_batch_us_per_row", "us", "lower"),
    ("agent.value_predict_us_per_call", "us", "lower"),
    ("agent.policy_calls_per_job", "count", "lower"),
    ("share.policy", "ratio", "lower"),
    ("agent.rollout_steps_per_s_w1", "1/s", "higher"),
    ("agent.rollout_steps_per_s_w2", "1/s", "higher"),
    ("agent.rollout_parallel_speedup", "x", "higher"),
    ("agent.rollout_share_of_iteration", "ratio", "lower"),
    ("agent.update_ms_per_iteration", "ms", "lower"),
    ("agent.agg_rows_per_batch", "count", "higher"),
    ("agent.agg_batches_per_job", "count", "lower"),
    ("agent.agg_queue_wait_us_mean", "us", "lower"),
    ("agent.agg_flush_size_share", "ratio", "higher"),
    ("agent.agg_flush_idle_share", "ratio", "lower"),
    ("agent.agg_flush_timeout_share", "ratio", "lower"),
    ("agent.agg_flush_inline_share", "ratio", "higher"),
    ("agent.batched_vs_direct_ratio", "x", "higher"),
    ("search.nodes_per_job", "count", "lower"),
    ("search.direct_ms_per_job", "ms", "lower"),
    ("share.search_self", "ratio", "lower"),
    ("core.submit_us_per_job", "us", "lower"),
    ("core.queue_wait_p50_ms", "ms", "lower"),
    ("core.queue_wait_p95_ms", "ms", "lower"),
    ("core.run_p50_ms", "ms", "lower"),
    ("core.overhead_us_per_job", "us", "lower"),
    ("core.worker_busy_share", "ratio", "higher"),
    ("core.queue_high_water", "count", "lower"),
    ("core.quota_deferrals_per_job", "count", "lower"),
    ("obs.trace_overhead_share", "ratio", "lower"),
    ("obs.events_per_job", "count", "lower"),
    ("obs.dropped_events", "count", "lower"),
    ("obs.ns_per_event", "ns", "lower"),
];

/// Per-writer ring capacity of the traced service. Rings overwrite their
/// oldest events; `obs.dropped_events` says how many.
const TRACE_CAPACITY: usize = 1 << 16;

/// Sampled jobs kept for the outside-the-service replays.
const REPLAY_CAP: usize = 48;

/// What a traced run hands back: the contract's result plus the spans.
#[derive(Debug)]
pub struct TraceResult {
    pub result: RunResult,
    pub spans: Vec<Span>,
}

/// The metric table under construction: every name present from the
/// start, so a path that skips a layer reports 0 instead of a hole.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Self(PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, self.0[name], *unit))
            .collect()
    }
}

/// The traced run of one workload; `seconds` is the whole measuring
/// budget, split across the segments.
pub fn trace(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> TraceResult {
    match workload {
        Workload::RolloutCollect => trace_rollout(seed, seconds, scale),
        Workload::TrainPpo => trace_train(seconds, scale),
        _ => trace_serve(workload, seed, seconds, scale),
    }
}

// ---------------------------------------------------------------------
// Unit-cost measurement
// ---------------------------------------------------------------------

/// Median seconds per unit of `op`, repeated for `budget` (5 to 20 000
/// repetitions). Each repetition gets fresh state from the untimed
/// `setup(rep)`, and `op` returns how many units it did (0 = skip).
fn unit_cost<S>(
    budget: Duration,
    mut setup: impl FnMut(usize) -> S,
    mut op: impl FnMut(S) -> usize,
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    for rep in 0..20_000 {
        if rep >= 5 && start.elapsed() >= budget {
            break;
        }
        let state = setup(rep);
        let t = Instant::now();
        let units = std::hint::black_box(op(std::hint::black_box(state)));
        let dt = t.elapsed().as_secs_f64();
        if units > 0 {
            samples.push(dt / units as f64);
        }
    }
    stats::median(&samples)
}

/// Calls per timed repetition of an operation that takes well under a
/// microsecond: one call would be mostly the clock.
const TINY: usize = 16;

/// One sampled job's inputs for the leaf measurements.
#[derive(Debug, Clone)]
struct Leaf {
    module: Module,
    actions: Vec<Action>,
    schedule: Vec<Schedule>,
}

/// Replays a reported schedule straight onto a `ScheduledModule`
/// (consumers first, the order the environment visits operations in) and
/// returns how many transformations applied.
fn apply_schedule(scheduled: &mut ScheduledModule, schedule: &[Schedule]) -> usize {
    let mut applied = 0;
    for (op, transformations) in schedule.iter().enumerate().rev() {
        for t in transformations {
            applied += usize::from(scheduled.apply(OpId(op), t.clone()).is_ok());
        }
    }
    applied
}

/// Times the leaf layers — `ir`, `workloads`, `transforms`, `costmodel`,
/// `env`, `nn`, `agent` unit costs — on the sampled jobs' own modules and
/// schedules, at the workload's environment configuration and network
/// size.
fn measure_leaves(
    layers: &mut Layers,
    leaves: &[Leaf],
    env_config: &EnvConfig,
    policy: &PolicyNetwork,
    seed: u64,
    budget: Duration,
) {
    if leaves.is_empty() {
        return;
    }
    let each = budget / 24;
    let leaf = |rep: usize| &leaves[rep % leaves.len()];
    let us = 1e6;
    let model = CostModel::new(Default::default());

    // ir / workloads
    let texts: Vec<String> = leaves.iter().map(|l| print_module(&l.module)).collect();
    layers.set(
        "ir.print_us_per_module",
        us * unit_cost(each, leaf, |l| print_module(&l.module).len().min(1)),
    );
    layers.set(
        "ir.parse_us_per_module",
        us * unit_cost(
            each,
            |rep| &texts[rep % texts.len()],
            |text| usize::from(parse_module(text).is_ok()),
        ),
    );
    layers.set(
        "workloads.generate_us_per_module",
        us * unit_cost(
            each,
            |rep| seed.wrapping_add(rep as u64),
            |s| full_training_dataset(0.01, s).len(),
        ),
    );

    // transforms
    let fresh = |l: &Leaf| {
        ScheduledModule::with_max_schedule_len(l.module.clone(), env_config.max_schedule_len)
    };
    layers.set(
        "transforms.apply_us_per_action",
        us * unit_cost(
            each,
            |rep| (fresh(leaf(rep)), leaf(rep)),
            |(mut scheduled, l)| apply_schedule(&mut scheduled, &l.schedule),
        ),
    );
    let scheduled: Vec<ScheduledModule> = leaves
        .iter()
        .map(|l| {
            let mut scheduled = fresh(l);
            apply_schedule(&mut scheduled, &l.schedule);
            scheduled
        })
        .collect();
    let scheduled_at = |rep: usize| &scheduled[rep % scheduled.len()];
    layers.set(
        "transforms.lower_us_per_op",
        us * unit_cost(each, scheduled_at, |s| {
            (0..TINY)
                .map(|_| std::hint::black_box(s).lower_all().len())
                .sum()
        }),
    );

    // costmodel: the estimator alone, then the shared table's three paths.
    layers.set(
        "costmodel.estimate_us_per_eval",
        us * unit_cost(each, scheduled_at, |s| {
            usize::from(model.estimate_scheduled(s).total_s.is_finite())
        }),
    );
    const KEYS: u64 = 64;
    let keys = |module: u64, base: u64| {
        (0..KEYS).map(move |k| ScheduleKey {
            module,
            schedule: base + k,
        })
    };
    let lookups = |cache: &SharedEvalCache, s: &ScheduledModule, base: u64| {
        let module = module_fingerprint(s.module());
        keys(module, base)
            .map(|key| cache.total_s_keyed(key, &model, s).0)
            .filter(|t| t.is_finite())
            .count()
    };
    layers.set(
        "costmodel.cache_miss_us_per_lookup",
        us * unit_cost(
            each,
            |rep| (SharedEvalCache::new(65_536), scheduled_at(rep)),
            |(cache, s)| lookups(&cache, s, 0),
        ),
    );
    layers.set(
        "costmodel.cache_hit_ns_per_lookup",
        1e9 * unit_cost(
            each,
            |rep| {
                let cache = SharedEvalCache::new(65_536);
                lookups(&cache, scheduled_at(rep), 0);
                (cache, scheduled_at(rep))
            },
            |(cache, s)| lookups(&cache, s, 0),
        ),
    );
    // A miss against a full table: estimator + insert + victim selection.
    // The distance to `cache_miss_us_per_lookup` is what eviction costs.
    let full = SharedEvalCache::new(256);
    lookups(&full, &scheduled[0], 0);
    for base in 1..8 {
        lookups(&full, &scheduled[0], base * KEYS);
    }
    layers.set(
        "costmodel.cache_evict_us_per_insert",
        us * unit_cost(
            each,
            |rep| (scheduled_at(rep), (rep as u64 + 8) * KEYS),
            |(s, base)| lookups(&full, s, base),
        ),
    );

    // env
    let mut env = OptimizationEnv::new(env_config.clone(), model.clone());
    layers.set(
        "env.reset_us_per_episode",
        us * unit_cost(each, leaf, |l| {
            usize::from(env.reset(l.module.clone()).is_some())
        }),
    );
    layers.set(
        "env.step_us_per_step",
        us * unit_cost(
            each,
            |rep| {
                let mut env = env.clone();
                env.reset(leaf(rep).module.clone());
                (env, leaf(rep))
            },
            |(mut env, l)| {
                for action in &l.actions {
                    env.step(action);
                }
                l.actions.len()
            },
        ),
    );
    let mut live = env.clone();
    live.reset(leaves[0].module.clone());
    layers.set(
        "env.observation_us_per_step",
        us * unit_cost(
            each,
            |_| (),
            |()| {
                (0..TINY)
                    .filter(|_| std::hint::black_box(&live).current_observation().is_some())
                    .count()
            },
        ),
    );
    layers.set(
        "env.snapshot_restore_us",
        us * unit_cost(
            each,
            |_| (),
            |()| {
                for _ in 0..TINY {
                    let snapshot = live.snapshot();
                    live.restore(std::hint::black_box(&snapshot));
                }
                TINY
            },
        ),
    );

    // nn: the policy's two stacks at its own sizes, fed real feature rows.
    let observations: Vec<Observation> = leaves
        .iter()
        .filter_map(|l| env.reset(l.module.clone()))
        .collect();
    if observations.is_empty() {
        return;
    }
    let obs_at = |rep: usize| &observations[rep % observations.len()];
    let hyper = policy.hyperparams();
    let h = hyper.hidden_size;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // `RefCell`: the backward measurements need the network in both the
    // untimed set-up (forward) and the timed op.
    let lstm = RefCell::new(Lstm::new(env_config.feature_len(), h, &mut rng));
    let mlp = RefCell::new(Mlp::new(
        &vec![h; hyper.backbone_layers + 1],
        true,
        &mut rng,
    ));
    let hidden_rows = |rows: usize, rng: &mut ChaCha8Rng| {
        Tensor2::from_flat(rows, h, (0..rows * h).map(|_| rng.gen::<f64>()).collect())
    };
    let feature_rows = |rows: usize, rep: usize, producer: bool| {
        Tensor2::from_rows(
            env_config.feature_len(),
            (0..rows).map(|r| {
                let obs = obs_at(rep + r);
                if producer {
                    obs.producer.as_slice()
                } else {
                    obs.consumer.as_slice()
                }
            }),
        )
    };
    let hidden_1 = hidden_rows(1, &mut rng);
    let hidden_16 = hidden_rows(16, &mut rng);
    layers.set(
        "nn.mlp_infer_us_per_row_b1",
        us * unit_cost(
            each,
            |_| (),
            |()| {
                let mut mlp = mlp.borrow_mut();
                (0..TINY)
                    .map(|_| {
                        mlp.infer(std::hint::black_box(hidden_1.row(0)))
                            .len()
                            .min(1)
                    })
                    .sum()
            },
        ),
    );
    layers.set(
        "nn.mlp_infer_us_per_row_b16",
        us * unit_cost(
            each,
            |_| (),
            |()| {
                let mut mlp = mlp.borrow_mut();
                (0..TINY)
                    .map(|_| mlp.infer_batch(std::hint::black_box(&hidden_16)).rows())
                    .sum()
            },
        ),
    );
    layers.set(
        "nn.mlp_backward_us_per_row_b16",
        us * unit_cost(
            each,
            |_| {
                let mut mlp = mlp.borrow_mut();
                mlp.zero_grad();
                mlp.forward_batch(&hidden_16)
            },
            |out| mlp.borrow_mut().backward_batch(&out).rows(),
        ),
    );
    layers.set(
        "nn.lstm_infer_us_per_row_b1",
        us * unit_cost(each, obs_at, |obs| {
            lstm.borrow_mut()
                .infer(&[obs.producer.as_slice(), obs.consumer.as_slice()])
                .len()
                .min(1)
        }),
    );
    layers.set(
        "nn.lstm_infer_us_per_row_b16",
        us * unit_cost(
            each,
            |rep| [feature_rows(16, rep, true), feature_rows(16, rep, false)],
            |steps| {
                lstm.borrow_mut()
                    .infer_batch(&[&steps[0], &steps[1]])
                    .rows()
            },
        ),
    );
    layers.set(
        "nn.lstm_backward_us_per_row_b16",
        us * unit_cost(
            each,
            |rep| {
                let mut lstm = lstm.borrow_mut();
                lstm.zero_grad();
                lstm.forward_batch(&[feature_rows(16, rep, true), feature_rows(16, rep, false)])
            },
            |h_final| lstm.borrow_mut().backward_batch(&h_final)[0].rows(),
        ),
    );

    // agent: one decode, one beam-4 frontier, one value prediction.
    let mut policy = policy.clone();
    let mut value = ValueNetwork::new(env_config, hyper, &mut rng);
    layers.set(
        "agent.select_action_us_per_call",
        us * unit_cost(each, obs_at, |obs| {
            usize::from(
                policy
                    .select_action(obs, true, &mut rng)
                    .log_prob
                    .is_finite(),
            )
        }),
    );
    let mut rank_rng = ChaCha8Rng::seed_from_u64(seed);
    layers.set(
        "agent.rank_batch_us_per_row",
        us * unit_cost(
            each,
            |rep| {
                [
                    obs_at(rep),
                    obs_at(rep + 1),
                    obs_at(rep + 2),
                    obs_at(rep + 3),
                ]
            },
            |frontier| policy.rank_actions_batch(&frontier, 4, &mut rank_rng).len(),
        ),
    );
    layers.set(
        "agent.value_predict_us_per_call",
        us * unit_cost(each, obs_at, |obs| {
            usize::from(value.predict_fast(obs).is_finite())
        }),
    );
}

/// Per-job counts the `share.*` estimates multiply unit costs by.
#[derive(Debug, Clone, Copy, Default)]
struct JobCounts {
    /// Mean seconds one job's search (or rollout, or iteration) took,
    /// single-threaded.
    job_s: f64,
    /// Mean seconds of it spent inside policy calls (measured spans).
    policy_s: f64,
    nodes: f64,
    evaluations: f64,
    cache_hits: f64,
}

/// `share.*`: where a job's time goes, by layer.
fn set_shares(layers: &mut Layers, counts: JobCounts) {
    if counts.job_s <= 0.0 {
        return;
    }
    let per_job = |name: &str, count: f64, scale: f64| count * layers.get(name) * scale;
    let transforms = per_job("transforms.apply_us_per_action", counts.nodes, 1e-6);
    let costmodel = per_job(
        "costmodel.cache_miss_us_per_lookup",
        counts.evaluations,
        1e-6,
    ) + per_job("costmodel.cache_hit_ns_per_lookup", counts.cache_hits, 1e-9);
    // `env.step` applies the transformation itself; net of it, what is
    // left is the environment's own bookkeeping, masks and features.
    let env = (per_job("env.step_us_per_step", counts.nodes, 1e-6) - transforms).max(0.0);
    let share = |seconds: f64| (seconds / counts.job_s).clamp(0.0, 1.0);
    layers.set("share.policy", share(counts.policy_s));
    layers.set("share.transforms", share(transforms));
    layers.set("share.costmodel", share(costmodel));
    layers.set("share.env", share(env));
    let known = layers.get("share.policy")
        + layers.get("share.transforms")
        + layers.get("share.costmodel")
        + layers.get("share.env");
    layers.set("share.search_self", (1.0 - known).max(0.0));
}

/// Seconds the `root`-named spans spent inside policy calls: their
/// duration minus their self time, i.e. what their child spans (the
/// probe's, the only children they have) cover.
fn policy_seconds(spans: &[Span], root: &str) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == root)
        .map(Span::duration_ns)
        .sum();
    let own = self_time_by_name(spans).get(root).copied().unwrap_or(0);
    total.saturating_sub(own) as f64 / 1e9
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

/// One closed-loop segment's observations.
#[derive(Default)]
struct Segment {
    jobs: u64,
    wall_s: f64,
    submit_s: f64,
    queue_s: Vec<f64>,
    run_s: Vec<f64>,
    overhead_s: Vec<f64>,
    nodes: u64,
    /// Fingerprint by job index, for the batched ≡ direct check.
    fingerprints: BTreeMap<u64, u64>,
    sampled: Vec<(u64, OptimizationResponse)>,
    /// The service's counters when the segment's window opened (after the
    /// warm-up) and when it closed.
    counters: Option<(ServiceMetrics, ServiceMetrics)>,
}

impl Segment {
    fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s.max(1e-9)
    }
}

/// Drives `plan` through a fresh, warmed service with `config` for
/// `seconds`, optionally recording spans, and returns the segment and the
/// (still running) service.
fn serve_segment(
    plan: &ServePlan,
    config: ServiceConfig,
    seconds: f64,
    seed: u64,
    log: Option<&SpanLog>,
    failures: &mut Failures,
) -> (Segment, OptimizationService) {
    let service = spawn_warm(plan, config);
    let before = service.metrics();
    let mut segment = Segment::default();
    let drive = drive(
        &service,
        plan,
        plan.warmup,
        seconds,
        plan.window as u64,
        None,
        |job| {
            check_reply(&job.response, job.index, failures);
            let latency = job.done.duration_since(job.submit).as_secs_f64();
            let r = &job.response;
            segment.submit_s += job.submitted.duration_since(job.submit).as_secs_f64();
            segment.queue_s.push(r.queue_s);
            segment.run_s.push(r.service_s);
            segment
                .overhead_s
                .push((latency - r.queue_s - r.service_s).max(0.0));
            segment.nodes += r.outcome.as_ref().map_or(0, |o| o.nodes_expanded as u64);
            segment.fingerprints.insert(job.index, r.fingerprint());
            if let Some(log) = log {
                let start = log.ns(job.submit);
                let queued = start + (r.queue_s * 1e9) as u64;
                let ran = queued + (r.service_s * 1e9) as u64;
                let root = log.record(None, job.index, "job", job.submit, job.done);
                log.record_ns(Some(root), job.index, "core.queue", start, queued);
                log.record_ns(Some(root), job.index, "core.run", queued, ran);
            }
            if sampled(seed, job.index, plan.sample_every) && segment.sampled.len() < REPLAY_CAP {
                segment.sampled.push((job.index, job.response));
            }
        },
    );
    segment.jobs = drive.jobs;
    segment.wall_s = drive.wall_s;
    segment.counters = Some((before, service.metrics()));
    (segment, service)
}

fn trace_serve(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> TraceResult {
    let plan = serve_plan(workload, seed, scale);
    let log = Arc::new(SpanLog::new());
    let mut failures = Failures::default();
    let mut layers = Layers::new();
    let wide = matches!(
        workload,
        Workload::ServeWideDirect | Workload::ServeWideBatched
    );
    let segment_s = seconds * if wide { 0.22 } else { 0.3 };

    // 1. The workload as it is, untraced: the base tracing is compared to.
    let (plain, service) = serve_segment(
        &plan,
        plan.config.clone(),
        segment_s,
        seed,
        None,
        &mut failures,
    );
    drop(service);

    // 2. The same with tracing on; spans, counters and samples come from
    // this segment.
    let (traced, service) = serve_segment(
        &plan,
        plan.config.clone().with_tracing(TRACE_CAPACITY),
        segment_s,
        seed,
        Some(&log),
        &mut failures,
    );
    let (before, after) = traced.counters.clone().expect("the segment ran");
    let served = (traced.jobs + plan.warmup) as f64;
    let jobs = traced.jobs.max(1) as f64;
    let delta = |a: u64, b: u64| (a - b) as f64;
    let hits = delta(after.cache_hits, before.cache_hits);
    let misses = delta(after.cache_misses, before.cache_misses);
    layers.set("costmodel.cache_hit_rate", hits / (hits + misses).max(1.0));
    layers.set("costmodel.lookups_per_job", (hits + misses) / jobs);
    layers.set(
        "costmodel.insertions_per_job",
        delta(after.cache_insertions, before.cache_insertions) / jobs,
    );
    layers.set(
        "costmodel.evictions_per_job",
        delta(after.cache_evictions, before.cache_evictions) / jobs,
    );
    layers.set(
        "costmodel.promotions_per_job",
        delta(after.cache_promotions, before.cache_promotions) / jobs,
    );
    layers.set("search.nodes_per_job", traced.nodes as f64 / jobs);
    layers.set("core.submit_us_per_job", traced.submit_s * 1e6 / jobs);
    let queue = stats::sorted(&traced.queue_s);
    layers.set(
        "core.queue_wait_p50_ms",
        1e3 * stats::percentile(&queue, 0.5),
    );
    layers.set(
        "core.queue_wait_p95_ms",
        1e3 * stats::percentile(&queue, 0.95),
    );
    layers.set("core.run_p50_ms", 1e3 * stats::median(&traced.run_s));
    layers.set(
        "core.overhead_us_per_job",
        1e6 * stats::median(&traced.overhead_s),
    );
    layers.set(
        "core.worker_busy_share",
        traced.run_s.iter().sum::<f64>() / (plan.config.workers as f64 * traced.wall_s.max(1e-9)),
    );
    layers.set("core.queue_high_water", after.queue_high_water as f64);
    layers.set(
        "core.quota_deferrals_per_job",
        delta(after.quota_deferrals, before.quota_deferrals) / jobs,
    );
    if let Some(agg) = service.aggregator_stats() {
        let batches = (agg.batches as f64).max(1.0);
        layers.set("agent.agg_rows_per_batch", agg.mean_rows_per_batch());
        layers.set("agent.agg_batches_per_job", agg.batches as f64 / served);
        layers.set(
            "agent.agg_queue_wait_us_mean",
            agg.mean_queue_wait_s() * 1e6,
        );
        layers.set(
            "agent.agg_flush_size_share",
            agg.flush_size as f64 / batches,
        );
        layers.set(
            "agent.agg_flush_idle_share",
            agg.flush_idle as f64 / batches,
        );
        layers.set(
            "agent.agg_flush_timeout_share",
            agg.flush_timeout as f64 / batches,
        );
        layers.set(
            "agent.agg_flush_inline_share",
            agg.flush_inline as f64 / batches,
        );
    }
    if let Some(snapshot) = service.trace_snapshot() {
        let events = snapshot.events.len() as f64 + snapshot.dropped as f64;
        layers.set("obs.events_per_job", events / served);
        layers.set("obs.dropped_events", snapshot.dropped as f64);
    } else {
        failures.record("traced service returned no trace snapshot".to_string());
    }
    layers.set(
        "obs.ns_per_event",
        mlir_rl_obs::recorder_overhead_ns(10_000),
    );
    layers.set(
        "obs.trace_overhead_share",
        1.0 - traced.jobs_per_s() / plain.jobs_per_s().max(1e-9),
    );
    // Tracing is observational: the two segments served the same jobs.
    for (index, fingerprint) in &traced.fingerprints {
        if let Some(untraced) = plain.fingerprints.get(index) {
            failures.check(untraced == fingerprint, || {
                format!("job {index}: traced and untraced fingerprints differ")
            });
        }
    }
    drop(service);

    // 3. The sibling configuration of the wide pair: same stream, same
    // policy, inference batched instead of direct (or the reverse).
    if wide {
        let direct = workload == Workload::ServeWideDirect;
        let sibling = &serve_plan(
            if direct {
                Workload::ServeWideBatched
            } else {
                Workload::ServeWideDirect
            },
            seed,
            scale,
        );
        let (other, service) = serve_segment(
            sibling,
            sibling.config.clone(),
            segment_s,
            seed,
            None,
            &mut failures,
        );
        drop(service);
        let (direct_jps, batched_jps) = if direct {
            (plain.jobs_per_s(), other.jobs_per_s())
        } else {
            (other.jobs_per_s(), plain.jobs_per_s())
        };
        layers.set(
            "agent.batched_vs_direct_ratio",
            batched_jps / direct_jps.max(1e-9),
        );
        for (index, fingerprint) in &other.fingerprints {
            if let Some(own) = plain.fingerprints.get(index) {
                failures.check(own == fingerprint, || {
                    format!("job {index}: batched and direct fingerprints differ")
                });
            }
        }
    }

    // 4. Sampled jobs again, outside the service, single-threaded, with
    // the probed policy: `search` spans with policy-call children.
    let probe = PolicyProbe::tracing(Arc::clone(&log));
    let mut probed = Probed::new(plan.policy.clone(), Arc::clone(&probe));
    let mut env = OptimizationEnv::new(
        plan.config.env.clone(),
        CostModel::new(plan.config.machine.clone()),
    );
    let replay_deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.15);
    let mut leaves = Vec::new();
    let mut counts = JobCounts::default();
    let first_replay_span = log.snapshot().len();
    for (index, response) in &traced.sampled {
        if !leaves.is_empty() && Instant::now() >= replay_deadline {
            break;
        }
        let request = plan.stream.request(*index);
        let searcher = request.spec.build::<Probed<PolicyNetwork>>();
        let start = Instant::now();
        let root = log.open(None, *index, "search", start);
        probe.set_context(Some(root), *index);
        let outcome = searcher.search(&mut env, &mut probed, &request.module, request.seed);
        let end = Instant::now();
        log.close(root, end);
        counts.job_s += end.duration_since(start).as_secs_f64();
        counts.nodes += outcome.nodes_expanded as f64;
        counts.evaluations += outcome.evaluations as f64;
        counts.cache_hits += outcome.cache_hits as f64;
        // The service's answer is the searcher's answer.
        let served = response.outcome.as_ref();
        failures.check(
            served.is_some_and(|s| {
                s.best_s.to_bits() == outcome.best_s.to_bits()
                    && s.best_actions == outcome.best_actions
                    && s.nodes_expanded == outcome.nodes_expanded
            }),
            || format!("job {index}: direct search differs from the served reply"),
        );
        leaves.push(Leaf {
            module: request.module,
            actions: outcome.best_actions,
            schedule: outcome.best_schedule,
        });
    }
    let replays = leaves.len().max(1) as f64;
    let spans = log.snapshot();
    counts.policy_s = policy_seconds(&spans[first_replay_span..], "search") / replays;
    counts.job_s /= replays;
    counts.nodes /= replays;
    counts.evaluations /= replays;
    counts.cache_hits /= replays;
    layers.set("search.direct_ms_per_job", counts.job_s * 1e3);
    layers.set(
        "agent.policy_calls_per_job",
        probe.policy_calls() as f64 / replays,
    );

    // 5. Leaf layers on the sampled jobs' modules and schedules.
    measure_leaves(
        &mut layers,
        &leaves,
        &plan.config.env,
        &plan.policy,
        seed,
        Duration::from_secs_f64(seconds * 0.15),
    );
    set_shares(&mut layers, counts);

    let attempted = plain.jobs + traced.jobs;
    TraceResult {
        result: RunResult {
            correct: failures.count == 0,
            attempted,
            failed: failures.count.min(attempted),
            metrics: layers.into_metrics(),
            digest: traced.fingerprints.values().fold(0, |d, f| d ^ f),
            problems: failures.problems,
            notes: Vec::new(),
        },
        spans,
    }
}

// ---------------------------------------------------------------------
// rollout-collect and train-ppo
// ---------------------------------------------------------------------

/// Leaf inputs for the non-serve workloads: the first modules of the
/// dataset with the actions one sampled episode took on each.
fn leaves_from_dataset(
    env: &OptimizationEnv,
    policy: &PolicyNetwork,
    value: &ValueNetwork,
    dataset: &[Module],
    seed: u64,
) -> Vec<Leaf> {
    let mut env = OptimizationEnv::new(env.config().clone(), env.cost_model().clone());
    let (mut policy, mut value) = (policy.clone(), value.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    dataset
        .iter()
        .take(16)
        .map(|module| {
            let trajectory = mlir_rl_agent::collect_episode(
                &mut env,
                module,
                &mut policy,
                &mut value,
                false,
                &mut rng,
            );
            let schedule = env
                .scheduled()
                .map(|s| s.states().iter().map(|st| st.schedule.clone()).collect())
                .unwrap_or_default();
            Leaf {
                module: module.clone(),
                actions: trajectory
                    .transitions
                    .into_iter()
                    .map(|t| t.record.action)
                    .collect(),
                schedule,
            }
        })
        .collect()
}

/// What one rollout segment did.
struct RolloutSegment {
    jobs: u64,
    steps: u64,
    evaluations: u64,
    cache_hits: u64,
    wall_s: f64,
    probe: Arc<PolicyProbe>,
}

/// Runs rollout jobs of `plan` at `workers` workers for `seconds` through
/// a probed policy, recording a `job` span per call.
fn rollout_segment(
    plan: &RolloutPlan,
    workers: usize,
    seconds: f64,
    log: &Arc<SpanLog>,
    failures: &mut Failures,
) -> RolloutSegment {
    let probe = PolicyProbe::tracing(Arc::clone(log));
    let mut probed = Probed::new(plan.policy.clone(), Arc::clone(&probe));
    // A fresh environment, so each segment starts from the same cold cache
    // (a clone would share the warmed table once it is thread-shared).
    let mut env = OptimizationEnv::new(plan.env.config().clone(), plan.env.cost_model().clone());
    let mut value = plan.value.clone();
    let mut segment = RolloutSegment {
        jobs: 0,
        steps: 0,
        evaluations: 0,
        cache_hits: 0,
        wall_s: 0.0,
        probe,
    };
    let start = Instant::now();
    while segment.jobs < 2 || start.elapsed().as_secs_f64() < seconds {
        let index = plan.warmup + segment.jobs;
        let modules = plan.modules(index);
        let root = log.open(None, index, "job", Instant::now());
        segment.probe.set_context(Some(root), index);
        let batch = collect_rollouts(
            &mut env,
            &modules,
            &mut probed,
            &mut value,
            false,
            plan.base_seed(index),
            workers,
        );
        log.close(root, Instant::now());
        check_batch(&batch, index, failures);
        segment.steps += batch.total_steps() as u64;
        segment.evaluations += batch.evaluations as u64;
        segment.cache_hits += batch.cache_hits as u64;
        segment.jobs += 1;
    }
    segment.wall_s = start.elapsed().as_secs_f64();
    segment
}

fn trace_rollout(seed: u64, seconds: f64, scale: Scale) -> TraceResult {
    let mut plan = rollout_plan(seed, scale);
    let workers = plan.workers;
    for index in 0..plan.warmup {
        rollout_job(&mut plan, index, workers);
    }
    let log = Arc::new(SpanLog::new());
    let mut failures = Failures::default();
    let mut layers = Layers::new();

    let parallel = rollout_segment(&plan, 2, seconds * 0.35, &log, &mut failures);
    let serial_from = log.snapshot().len();
    let serial = rollout_segment(&plan, 1, seconds * 0.35, &log, &mut failures);
    let spans = log.snapshot();
    let w1 = serial.steps as f64 / serial.wall_s.max(1e-9);
    let w2 = parallel.steps as f64 / parallel.wall_s.max(1e-9);
    layers.set("agent.rollout_steps_per_s_w1", w1);
    layers.set("agent.rollout_steps_per_s_w2", w2);
    layers.set("agent.rollout_parallel_speedup", w2 / w1.max(1e-9));

    // Attribution from the serial segment: one thread, so span time adds
    // up to wall time.
    let per_job = serial.jobs.max(1) as f64;
    let counts = JobCounts {
        job_s: serial.wall_s / per_job,
        policy_s: policy_seconds(&spans[serial_from..], "job") / per_job,
        nodes: serial.steps as f64 / per_job,
        evaluations: serial.evaluations as f64 / per_job,
        cache_hits: serial.cache_hits as f64 / per_job,
    };
    layers.set("search.nodes_per_job", counts.nodes);
    layers.set(
        "agent.policy_calls_per_job",
        serial.probe.policy_calls() as f64 / per_job,
    );
    let lookups = counts.evaluations + counts.cache_hits;
    layers.set("costmodel.lookups_per_job", lookups);
    layers.set(
        "costmodel.cache_hit_rate",
        counts.cache_hits / lookups.max(1.0),
    );
    layers.set("costmodel.insertions_per_job", counts.evaluations);

    let leaves = leaves_from_dataset(&plan.env, &plan.policy, &plan.value, &plan.dataset, seed);
    measure_leaves(
        &mut layers,
        &leaves,
        plan.env.config(),
        &plan.policy,
        seed,
        Duration::from_secs_f64(seconds * 0.2),
    );
    set_shares(&mut layers, counts);

    let attempted = serial.jobs + parallel.jobs;
    TraceResult {
        result: RunResult {
            correct: failures.count == 0,
            attempted,
            failed: failures.count.min(attempted),
            metrics: layers.into_metrics(),
            digest: 0,
            problems: failures.problems,
            notes: Vec::new(),
        },
        spans,
    }
}

fn trace_train(seconds: f64, scale: Scale) -> TraceResult {
    let seed = crate::workloads::TRAIN_SEED;
    let log = Arc::new(SpanLog::new());
    let probe = PolicyProbe::tracing(Arc::clone(&log));
    let mut plan = train_plan(scale, Arc::clone(&probe));
    for _ in 0..plan.warmup {
        plan.trainer.train_iteration(&mut plan.env, &plan.dataset);
    }
    let mut failures = Failures::default();
    let mut layers = Layers::new();
    let first_span = log.snapshot().len();
    let calls_before = probe.policy_calls();
    let per_iteration = plan.trainer.config().trajectories_per_iteration;

    let (mut iteration_s, mut rollout_s) = (Vec::new(), Vec::new());
    let (mut evaluations, mut cache_hits) = (0u64, 0u64);
    let mut shadow_env = plan.env.clone();
    let start = Instant::now();
    let mut jobs = 0u64;
    while jobs < 2 || start.elapsed().as_secs_f64() < seconds * 0.7 {
        let call = Instant::now();
        let root = log.open(None, jobs, "job", call);
        probe.set_context(Some(root), jobs);
        let stats = plan.trainer.train_iteration(&mut plan.env, &plan.dataset);
        let end = Instant::now();
        log.close(root, end);
        iteration_s.push(end.duration_since(call).as_secs_f64());
        failures.check(
            stats.policy_loss.is_finite() && stats.value_loss.is_finite(),
            || format!("iteration {jobs}: non-finite loss"),
        );
        evaluations += stats.evaluations as u64;
        cache_hits += stats.cache_hits as u64;
        // The trainer does not say how an iteration splits into
        // collection and update, so the same-sized collection is timed
        // again on its own, with the networks the iteration left behind
        // (unprobed copies, a shadow environment: training is undisturbed).
        let modules: Vec<&Module> = (0..per_iteration)
            .map(|i| &plan.dataset[(jobs as usize * per_iteration + i) % plan.dataset.len()])
            .collect();
        let mut policy = plan.trainer.policy.inner.clone();
        let mut value = plan.trainer.value.clone();
        let shadow = Instant::now();
        collect_rollouts(
            &mut shadow_env,
            &modules,
            &mut policy,
            &mut value,
            false,
            seed ^ jobs,
            1,
        );
        rollout_s.push(shadow.elapsed().as_secs_f64());
        jobs += 1;
    }
    let spans = log.snapshot();
    let per_job = jobs.max(1) as f64;
    let iteration = stats::median(&iteration_s);
    let rollout = stats::median(&rollout_s).min(iteration);
    layers.set(
        "agent.rollout_share_of_iteration",
        rollout / iteration.max(1e-12),
    );
    layers.set("agent.update_ms_per_iteration", (iteration - rollout) * 1e3);
    // The rollout engine takes one `select_action` per environment step.
    let steps = (probe.policy_calls() - calls_before) as f64 / per_job;
    let counts = JobCounts {
        job_s: iteration_s.iter().sum::<f64>() / per_job,
        policy_s: policy_seconds(&spans[first_span..], "job") / per_job,
        nodes: steps,
        evaluations: evaluations as f64 / per_job,
        cache_hits: cache_hits as f64 / per_job,
    };
    layers.set("search.nodes_per_job", steps);
    layers.set("agent.policy_calls_per_job", steps);
    let lookups = counts.evaluations + counts.cache_hits;
    layers.set("costmodel.lookups_per_job", lookups);
    layers.set(
        "costmodel.cache_hit_rate",
        counts.cache_hits / lookups.max(1.0),
    );
    layers.set("costmodel.insertions_per_job", counts.evaluations);

    let leaves = leaves_from_dataset(
        &plan.env,
        &plan.trainer.policy.inner,
        &plan.trainer.value,
        &plan.dataset,
        seed,
    );
    measure_leaves(
        &mut layers,
        &leaves,
        plan.env.config(),
        &plan.trainer.policy.inner,
        seed,
        Duration::from_secs_f64(seconds * 0.2),
    );
    set_shares(&mut layers, counts);

    TraceResult {
        result: RunResult {
            correct: failures.count == 0,
            attempted: jobs,
            failed: failures.count.min(jobs),
            metrics: layers.into_metrics(),
            digest: 0,
            problems: failures.problems,
            notes: Vec::new(),
        },
        spans,
    }
}

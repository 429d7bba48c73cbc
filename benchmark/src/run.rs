//! The untraced run: set-up (timed, repeated), a closed-loop timed window,
//! output verification, and the end-to-end metrics.
//!
//! Every workload is a stream of jobs issued by **one generator thread in
//! a closed loop**: at most `window` jobs are outstanding and the next is
//! submitted only when a reply frees a slot. The window stays open for
//! `--seconds`, and at least for the workload's fixed *prefix* of jobs —
//! the set the quality numbers are taken over, so they are a function of
//! the seed and not of how fast the machine is.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mlir_rl_agent::{collect_episode, collect_rollouts, RolloutBatch};
use mlir_rl_core::service::{
    OptimizationRequest, OptimizationResponse, OptimizationService, PendingResponse,
    ResponseStatus, ServiceConfig,
};
use mlir_rl_costmodel::CostModel;
use mlir_rl_env::OptimizationEnv;
use mlir_rl_workloads::dl_ops;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::json::Value;
use crate::probe::PolicyProbe;
use crate::speed::{Speedometer, NOMINAL_MS};
use crate::stats;
use crate::workloads::{
    job_modules, rollout_plan, serve_plan, train_plan, Fnv, RolloutPlan, Scale, ServePlan,
    TrainPlan, Workload,
};

/// `(name, unit, better)` of every end-to-end metric, in report order.
/// `BENCHMARK.json` carries the same list with the regression bounds.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p95_ms", "ms", "lower"),
    ("env_steps_per_s", "1/s", "higher"),
    ("evals_per_job", "count", "lower"),
    ("geomean_speedup", "x", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// How often the generator re-scans its window when the oldest job is not
/// the first to finish. Bounds the error on an out-of-order reply's time.
const POLL: Duration = Duration::from_micros(100);

/// Seed of `rollout-collect`'s reference batches (see `run_rollout`).
const REFERENCE_SEED: u64 = 0;

/// One in this many jobs is replayed against the reference after the
/// window closes (seeded choice, capped — see [`VERIFY_CAP`]).
const VERIFY_EVERY: u64 = 20;
const VERIFY_CAP: usize = 400;

/// What a run reports: the contract's last-line JSON plus a response
/// digest `all` compares across workloads.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// XOR of the prefix jobs' response fingerprints (serve workloads) or a
    /// hash of the prefix's speedups (the other two).
    pub digest: u64,
    /// First few verification failures, for the human reading the log.
    pub problems: Vec<String>,
    /// Context printed with the metrics (the un-normalised wall-clock
    /// readings of an untraced run).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The one-line JSON object the contract asks for.
    pub fn to_json_line(&self) -> String {
        let metrics = Value::obj(self.metrics.iter().map(|(name, value, unit)| {
            (
                *name,
                Value::obj([("value", Value::Num(*value)), ("unit", Value::str(*unit))]),
            )
        }));
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_json()
    }

    /// Prints every metric by name with its unit, then the digest and any
    /// problems.
    pub fn print_human(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        println!(
            "  samples={} failed={} digest={:016x}",
            self.attempted, self.failed, self.digest
        );
        for note in &self.notes {
            println!("  {note}");
        }
        for problem in &self.problems {
            println!("  PROBLEM: {problem}");
        }
    }
}

/// Collects failures without letting a broken run print thousands of
/// lines.
#[derive(Debug, Default)]
pub(crate) struct Failures {
    pub count: u64,
    pub problems: Vec<String>,
}

impl Failures {
    pub fn record(&mut self, problem: String) {
        self.count += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.record(problem());
        }
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `repeats` times, dropping each result before the next
/// (services join their workers on drop), and returns the last result with
/// the median set-up time — like every time the benchmark reports, at
/// nominal machine speed (the fastest of three speedometer samples taken
/// right after the set-up).
pub(crate) fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        let seconds = start.elapsed().as_secs_f64();
        let mut meter = Speedometer::new();
        (0..3).for_each(|_| meter.sample(0.0));
        let kernel_ms = meter
            .samples
            .iter()
            .map(|s| s.1)
            .fold(f64::INFINITY, f64::min);
        times.push(seconds * NOMINAL_MS / kernel_ms);
    }
    (
        last.expect("at least one set-up ran"),
        stats::median(&times),
    )
}

/// A finished job as the generator saw it.
#[derive(Debug)]
pub(crate) struct JobDone {
    pub index: u64,
    pub submit: Instant,
    /// When `submit` returned (its cost is `core.submit_us_per_job`).
    pub submitted: Instant,
    pub done: Instant,
    /// Seconds from the drive's first submit to `done`.
    pub at_s: f64,
    pub response: OptimizationResponse,
}

/// Totals of one closed-loop drive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Drive {
    pub jobs: u64,
    /// First submit to last reply.
    pub wall_s: f64,
}

/// The closed loop: keeps `plan.window` jobs of `plan.stream` (from job `first`)
/// outstanding until `seconds` have passed **and** `min_jobs` were
/// submitted, then drains. `on_done` sees every reply, in completion order.
pub(crate) fn drive(
    service: &OptimizationService,
    plan: &ServePlan,
    first: u64,
    seconds: f64,
    min_jobs: u64,
    mut meter: Option<&mut Speedometer>,
    mut on_done: impl FnMut(JobDone),
) -> Drive {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut inflight: VecDeque<(u64, Instant, Instant, PendingResponse)> =
        VecDeque::with_capacity(plan.window);
    let mut next = first;
    let mut jobs = 0;
    let mut last_done = start;
    loop {
        while inflight.len() < plan.window && (next - first < min_jobs || Instant::now() < deadline)
        {
            let request = plan.stream.request(next);
            let submit = Instant::now();
            let pending = service.submit(request);
            inflight.push_back((next, submit, Instant::now(), pending));
            next += 1;
        }
        if inflight.is_empty() {
            break;
        }
        if let Some(meter) = meter.as_deref_mut() {
            meter.tick(start.elapsed().as_secs_f64());
        }
        let mut finish = |slot: (u64, Instant, Instant, PendingResponse),
                          response: OptimizationResponse| {
            let done = Instant::now();
            last_done = done;
            jobs += 1;
            on_done(JobDone {
                index: slot.0,
                submit: slot.1,
                submitted: slot.2,
                done,
                at_s: done.duration_since(start).as_secs_f64(),
                response,
            });
        };
        let mut harvested = false;
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].3.try_response() {
                Some(response) => {
                    let slot = inflight.remove(i).expect("index in range");
                    finish(slot, response);
                    harvested = true;
                }
                None => i += 1,
            }
        }
        if !harvested {
            let oldest = inflight.front().expect("window is not empty");
            if let Some(response) = oldest.3.wait_timeout(POLL) {
                let slot = inflight.pop_front().expect("window is not empty");
                finish(slot, response);
            }
        }
    }
    Drive {
        jobs,
        wall_s: last_done.duration_since(start).as_secs_f64(),
    }
}

/// Seeded 1-in-`every` choice of job indices.
pub(crate) fn sampled(seed: u64, index: u64, every: u64) -> bool {
    mlir_rl_agent::episode_seed(seed ^ 0x5eed, index).is_multiple_of(every)
}

/// The per-job checks every serve reply must pass.
pub(crate) fn check_reply(response: &OptimizationResponse, index: u64, failures: &mut Failures) {
    failures.check(response.status == ResponseStatus::Completed, || {
        format!(
            "job {index}: status {:?} ({:?})",
            response.status, response.error
        )
    });
    if let Some(outcome) = &response.outcome {
        failures.check(
            response.evaluations + response.cache_hits == response.total_lookups()
                && outcome.evaluations + outcome.cache_hits == outcome.total_lookups()
                && outcome.speedup.is_finite()
                && outcome.speedup > 0.0,
            || format!("job {index}: lookup accounting or speedup is off"),
        );
    }
}

/// Re-derives a reply from scratch, bypassing search, service, cache and
/// policy: replays `best_actions` on a fresh environment with a fresh
/// cache and re-estimates the resulting schedule and the baseline with the
/// cost model directly. `best_s`, `baseline_s` and `speedup` must match
/// bit for bit, and the replayed schedule must be the reported one.
pub(crate) fn verify_against_reference(
    config: &ServiceConfig,
    request: &OptimizationRequest,
    response: &OptimizationResponse,
) -> Result<(), String> {
    let outcome = response
        .outcome
        .as_ref()
        .ok_or("reply carries no outcome")?;
    let model = CostModel::new(config.machine.clone());
    let mut env = OptimizationEnv::new(config.env.clone(), model.clone());
    env.reset(request.module.clone());
    for action in &outcome.best_actions {
        env.step(action);
    }
    let scheduled = env.scheduled().ok_or("replay left no scheduled module")?;
    let best_s = model.estimate_scheduled(scheduled).total_s;
    let baseline_s = model.estimate_baseline(&request.module).total_s;
    let speedup = if best_s > 0.0 {
        baseline_s / best_s
    } else {
        1.0
    };
    let schedule: Vec<_> = scheduled
        .states()
        .iter()
        .map(|s| s.schedule.clone())
        .collect();
    if outcome.best_s.to_bits() != best_s.to_bits() {
        return Err(format!("best_s {} != reference {best_s}", outcome.best_s));
    }
    if outcome.baseline_s.to_bits() != baseline_s.to_bits() {
        return Err(format!(
            "baseline_s {} != reference {baseline_s}",
            outcome.baseline_s
        ));
    }
    if outcome.speedup.to_bits() != speedup.to_bits() {
        return Err(format!(
            "speedup {} != reference {speedup}",
            outcome.speedup
        ));
    }
    if outcome.best_schedule != schedule {
        return Err("best_schedule differs from the replayed schedule".to_string());
    }
    Ok(())
}

/// Accumulates the timed window of a serve workload.
#[derive(Debug, Default)]
pub(crate) struct ServeTally {
    pub window: Window,
    pub failures: Failures,
    /// Speedup of each prefix job, by position: replies arrive in
    /// completion order, and a float sum must not depend on it.
    prefix_speedup: Vec<f64>,
    prefix_evals: u64,
    pub digest: u64,
    verify: Vec<(u64, OptimizationResponse)>,
}

impl ServeTally {
    /// Folds one reply in. `first` is the index of the window's first job.
    pub fn add(&mut self, job: JobDone, first: u64, prefix: u64, seed: u64) {
        let nodes = job
            .response
            .outcome
            .as_ref()
            .map_or(0, |o| o.nodes_expanded);
        self.window.push(
            job.at_s,
            job.done.duration_since(job.submit).as_secs_f64() * 1e3,
            nodes as u64,
        );
        check_reply(&job.response, job.index, &mut self.failures);
        if job.index - first < prefix {
            self.prefix_speedup.resize(prefix as usize, 1.0);
            self.prefix_speedup[(job.index - first) as usize] = job.response.speedup();
            self.prefix_evals += job.response.evaluations as u64;
            self.digest ^= job.response.fingerprint();
        }
        if sampled(seed, job.index, VERIFY_EVERY) && self.verify.len() < VERIFY_CAP {
            self.verify.push((job.index, job.response));
        }
    }

    /// Replays the sampled replies against the reference.
    pub fn verify(&mut self, plan: &ServePlan) {
        for (index, response) in std::mem::take(&mut self.verify) {
            let request = plan.stream.request(index);
            if let Err(problem) = verify_against_reference(&plan.config, &request, &response) {
                self.failures
                    .record(format!("job {index} ({}): {problem}", response.searcher));
            }
        }
    }

    pub fn evals_per_job(&self) -> f64 {
        self.prefix_evals as f64 / self.prefix_speedup.len().max(1) as f64
    }

    pub fn geomean_speedup(&self) -> f64 {
        stats::geomean(&self.prefix_speedup)
    }
}

/// Spawns a plan's service and serves the untimed warm-up through it.
pub(crate) fn spawn_warm(plan: &ServePlan, config: ServiceConfig) -> OptimizationService {
    let service = OptimizationService::new(config, plan.policy.clone());
    drive(&service, plan, 0, 0.0, plan.warmup, None, |_| {});
    service
}

/// The timed window as the generator saw it: one entry per finished job,
/// in completion order.
#[derive(Debug, Default)]
pub struct Window {
    /// `(seconds since the window opened, job time in ms, env steps)`.
    jobs: Vec<(f64, f64, u64)>,
    /// Speedometer samples over the same clock: `(seconds, kernel ms)`.
    pub speeds: Vec<(f64, f64)>,
}

/// The window is cut into this many slices of equal job count, and rates
/// and the tail are reported as the **median over slices**. The sandbox
/// slows by 20–30 % for a second at a time (same seed, same code: 33 to
/// 54 ms per PPO iteration between one-second blocks); a mean over the
/// window moves with how many slow seconds a run caught, the median slice
/// does not.
pub const SLICES: usize = 20;

impl Window {
    pub fn push(&mut self, at_s: f64, job_ms: f64, steps: u64) {
        self.jobs.push((at_s, job_ms, steps));
    }

    /// `(jobs_per_s, job_p50_ms, job_p95_ms, env_steps_per_s)`.
    pub fn timing(&self, normalise: bool) -> (f64, f64, f64, f64) {
        let n = self.jobs.len();
        // Preemption can only lengthen a sample, so a slice's kernel time
        // is taken from the fast side of its samples.
        let fast = |samples: Vec<f64>| stats::percentile(&stats::sorted(&samples), 0.25);
        let overall = fast(self.speeds.iter().map(|s| s.1).collect());
        let slices = SLICES.min(n).max(1);
        let (mut rates, mut step_rates) = (Vec::new(), Vec::new());
        let (mut medians, mut tails) = (Vec::new(), Vec::new());
        let mut opened = 0.0;
        for k in 0..slices {
            let slice = &self.jobs[k * n / slices..(k + 1) * n / slices];
            let Some(last) = slice.last() else { continue };
            let dt = (last.0 - opened).max(1e-9);
            let here: Vec<f64> = self
                .speeds
                .iter()
                .filter(|s| s.0 > opened && s.0 <= last.0)
                .map(|s| s.1)
                .collect();
            let kernel_ms = if here.is_empty() { overall } else { fast(here) };
            let factor = if normalise && kernel_ms > 0.0 {
                kernel_ms / NOMINAL_MS
            } else {
                1.0
            };
            opened = last.0;
            rates.push(slice.len() as f64 / dt * factor);
            step_rates.push(slice.iter().map(|j| j.2).sum::<u64>() as f64 / dt * factor);
            let times = stats::sorted(&slice.iter().map(|j| j.1).collect::<Vec<_>>());
            medians.push(stats::percentile(&times, 0.5) / factor);
            tails.push(stats::percentile(&times, 0.95) / factor);
        }
        (
            stats::median(&rates),
            stats::median(&medians),
            stats::median(&tails),
            stats::median(&step_rates),
        )
    }
}

/// The end-to-end metric table of a run, and a note with the window's
/// un-normalised wall-clock readings.
fn end_to_end(
    setup_s: f64,
    window: &Window,
    evals_per_job: f64,
    geomean_speedup: f64,
) -> (Vec<(&'static str, f64, &'static str)>, String) {
    let (jobs_per_s, p50, p95, steps_per_s) = window.timing(true);
    let values = [
        setup_s,
        jobs_per_s,
        p50,
        p95,
        steps_per_s,
        evals_per_job,
        geomean_speedup,
        peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), value)| (*name, value, *unit))
        .collect();
    let wall = window.timing(false);
    let note = format!(
        "wall clock, not normalised: jobs_per_s={:.4} job_p50_ms={:.4} job_p95_ms={:.4} \
         env_steps_per_s={:.2}; machine at {:.3} of nominal speed",
        wall.0,
        wall.1,
        wall.2,
        wall.3,
        wall.0 / jobs_per_s.max(1e-300),
    );
    (metrics, note)
}

fn untraced_result(
    failures: Failures,
    jobs: u64,
    digest: u64,
    (metrics, note): (Vec<(&'static str, f64, &'static str)>, String),
) -> RunResult {
    RunResult {
        correct: failures.count == 0,
        attempted: jobs,
        failed: failures.count.min(jobs),
        metrics,
        digest,
        problems: failures.problems,
        notes: vec![note],
    }
}

fn setup_repeats(scale: Scale) -> usize {
    if scale.smoke {
        1
    } else {
        3
    }
}

/// The untraced run of one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> RunResult {
    match workload {
        Workload::RolloutCollect => run_rollout(seed, seconds, scale),
        Workload::TrainPpo => run_train(seconds, scale),
        _ => run_serve(workload, seed, seconds, scale),
    }
}

fn run_serve(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> RunResult {
    let ((plan, service), setup_s) = timed_setup(setup_repeats(scale), || {
        let plan = serve_plan(workload, seed, scale);
        let service = spawn_warm(&plan, plan.config.clone());
        (plan, service)
    });
    let first = plan.warmup;
    let mut tally = ServeTally::default();
    let mut meter = Speedometer::new();
    let drive = drive(
        &service,
        &plan,
        first,
        seconds,
        plan.prefix,
        Some(&mut meter),
        |job| tally.add(job, first, plan.prefix, seed),
    );
    tally.window.speeds = meter.samples;
    let metrics = service.metrics();
    tally.failures.check(
        metrics.cache_hits + metrics.cache_misses > 0 && metrics.rejected + metrics.skipped == 0,
        || {
            format!(
                "service counters: {} rejected, {} skipped",
                metrics.rejected, metrics.skipped
            )
        },
    );
    drop(service);
    tally.verify(&plan);
    let (evals_per_job, geomean_speedup) = (tally.evals_per_job(), tally.geomean_speedup());
    untraced_result(
        tally.failures,
        drive.jobs,
        tally.digest,
        end_to_end(setup_s, &tally.window, evals_per_job, geomean_speedup),
    )
}

/// Checks a rollout batch's lookup accounting and step counts.
pub(crate) fn check_batch(batch: &RolloutBatch, index: u64, failures: &mut Failures) {
    let lookups: usize = batch
        .trajectories
        .iter()
        .map(|t| t.stats.total_lookups())
        .sum();
    failures.check(
        lookups == batch.total_lookups()
            && batch
                .trajectories
                .iter()
                .all(|t| t.stats.speedup.is_finite() && t.stats.steps == t.transitions.len()),
        || format!("job {index}: rollout accounting is off"),
    );
}

fn batches_identical(a: &RolloutBatch, b: &RolloutBatch) -> bool {
    a.trajectories.len() == b.trajectories.len()
        && a.trajectories.iter().zip(&b.trajectories).all(|(x, y)| {
            x.stats == y.stats
                && x.transitions.len() == y.transitions.len()
                && x.transitions.iter().zip(&y.transitions).all(|(t, u)| {
                    t.observation == u.observation
                        && t.record == u.record
                        && t.reward.to_bits() == u.reward.to_bits()
                        && t.value.to_bits() == u.value.to_bits()
                        && t.done == u.done
                })
        })
}

/// One `rollout-collect` job at `workers` workers.
pub(crate) fn rollout_job(plan: &mut RolloutPlan, index: u64, workers: usize) -> RolloutBatch {
    let base_seed = plan.base_seed(index);
    // `modules` borrows the dataset, so the other fields are split off.
    let RolloutPlan {
        env,
        policy,
        value,
        dataset,
        episodes_per_job,
        ..
    } = plan;
    let modules = job_modules(dataset, *episodes_per_job, index);
    collect_rollouts(env, &modules, policy, value, false, base_seed, workers)
}

fn run_rollout(seed: u64, seconds: f64, scale: Scale) -> RunResult {
    let (mut plan, setup_s) = timed_setup(setup_repeats(scale), || {
        let mut plan = rollout_plan(seed, scale);
        let workers = plan.workers;
        for index in 0..plan.warmup {
            rollout_job(&mut plan, index, workers);
        }
        plan
    });
    let mut failures = Failures::default();
    let mut window = Window::default();
    let mut prefix_evals = 0u64;
    let mut digest = Fnv::default();
    let first = plan.warmup;
    let workers = plan.workers;
    let start = Instant::now();
    let mut meter = Speedometer::new();
    let mut index = first;
    while index - first < plan.prefix || start.elapsed().as_secs_f64() < seconds {
        let call = Instant::now();
        let batch = rollout_job(&mut plan, index, workers);
        window.push(
            start.elapsed().as_secs_f64(),
            call.elapsed().as_secs_f64() * 1e3,
            batch.total_steps() as u64,
        );
        meter.tick(start.elapsed().as_secs_f64());
        check_batch(&batch, index, &mut failures);
        if index - first < plan.prefix {
            prefix_evals += batch.evaluations as u64;
            for t in &batch.trajectories {
                digest.write(&t.stats.speedup.to_bits().to_le_bytes());
            }
        }
        index += 1;
    }
    let jobs = index - first;
    window.speeds = meter.samples;

    // The reference batches: fixed modules and seeds (nothing from
    // `--seed`), collected on fresh state at 1 and at 2 workers. They must
    // be bit-identical — the rollout engine's determinism contract — and
    // their geomean is the workload's quality number: sampled episodes of
    // an untrained policy spread 11 % across seeds over the 400-episode
    // prefix, the reference does not move unless the code does.
    let mut serial = rollout_plan(REFERENCE_SEED, scale);
    let mut parallel = serial.clone();
    let mut reference = Vec::new();
    for index in 0..serial.reference_jobs {
        let one = rollout_job(&mut serial, index, 1);
        let two = rollout_job(&mut parallel, index, 2);
        failures.check(batches_identical(&one, &two), || {
            format!("reference batch {index} differs between 1 and 2 workers")
        });
        reference.extend(two.trajectories.iter().map(|t| t.stats.speedup));
    }

    untraced_result(
        failures,
        jobs,
        digest.0,
        end_to_end(
            setup_s,
            &window,
            prefix_evals as f64 / plan.prefix.max(1) as f64,
            stats::geomean(&reference),
        ),
    )
}

/// Greedy geomean speedup of a trainer's networks on the 15-module
/// evaluation benchmark (what `PpoTrainer::evaluate` computes, on a copy
/// so it can be taken at a fixed iteration without disturbing training).
fn greedy_geomean(plan: &TrainPlan) -> f64 {
    let mut policy = plan.trainer.policy.inner.clone();
    let mut value = plan.trainer.value.clone();
    let mut env = OptimizationEnv::new(plan.env.config().clone(), plan.env.cost_model().clone());
    // Greedy decoding consumes no randomness.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let speedups: Vec<f64> = dl_ops::evaluation_benchmark()
        .iter()
        .map(|(_, module)| {
            collect_episode(&mut env, module, &mut policy, &mut value, true, &mut rng)
                .stats
                .speedup
        })
        .collect();
    stats::geomean(&speedups)
}

fn run_train(seconds: f64, scale: Scale) -> RunResult {
    let (mut plan, setup_s) = timed_setup(setup_repeats(scale), || {
        let mut plan = train_plan(scale, PolicyProbe::counting());
        for _ in 0..plan.warmup {
            plan.trainer.train_iteration(&mut plan.env, &plan.dataset);
        }
        plan
    });
    let mut failures = Failures::default();
    let mut window = Window::default();
    let (mut prefix_evals, mut geomean_speedup) = (0u64, 1.0);
    let mut digest = Fnv::default();
    let steps_so_far = |plan: &TrainPlan| plan.probe.select_calls.load(Ordering::Relaxed);
    let start = Instant::now();
    let mut meter = Speedometer::new();
    let mut paused = Duration::ZERO;
    let mut jobs = 0u64;
    while jobs < plan.prefix || (start.elapsed() - paused).as_secs_f64() < seconds {
        let call = Instant::now();
        let steps_before = steps_so_far(&plan);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.trainer.train_iteration(&mut plan.env, &plan.dataset)
        }));
        window.push(
            (start.elapsed() - paused).as_secs_f64(),
            call.elapsed().as_secs_f64() * 1e3,
            steps_so_far(&plan) - steps_before,
        );
        meter.tick((start.elapsed() - paused).as_secs_f64());
        jobs += 1;
        let Ok(iteration) = outcome else {
            failures.record(format!("iteration {jobs}: train_iteration panicked"));
            break;
        };
        failures.check(
            iteration.policy_loss.is_finite()
                && iteration.value_loss.is_finite()
                && iteration.entropy.is_finite()
                && iteration.geomean_speedup.is_finite(),
            || format!("iteration {jobs}: non-finite loss"),
        );
        if jobs <= plan.prefix {
            prefix_evals += iteration.evaluations as u64;
            digest.write(&iteration.geomean_speedup.to_bits().to_le_bytes());
        }
        if jobs == plan.prefix {
            // Quality at a fixed training depth: how far a run gets in
            // `--seconds` must not decide what the policy is scored on.
            // The evaluation runs on copies of the networks (no probe, so
            // no step counts) and its time is taken off the clock.
            let pause = Instant::now();
            geomean_speedup = greedy_geomean(&plan);
            paused += pause.elapsed();
        }
    }
    window.speeds = meter.samples;
    untraced_result(
        failures,
        jobs,
        digest.0,
        end_to_end(
            setup_s,
            &window,
            prefix_evals as f64 / plan.prefix.max(1) as f64,
            geomean_speedup,
        ),
    )
}

//! The request/response serving layer: a long-lived [`OptimizationService`]
//! in front of the trained policy.
//!
//! The paper deploys the policy as a one-shot "optimize this module" call;
//! a production deployment is a *service*: requests arrive continuously,
//! and the wins come from amortizing state across them — one persistent
//! shared evaluation cache (every request warms every later request), one
//! policy snapshot per worker, one global evaluation budget. This module
//! composes the primitives the lower layers already provide
//! ([`SharedEvalCache`] via the environment, [`EvalBudget`], [`StopToken`],
//! [`SearchSpec::build`] + [`mlir_rl_search::Searcher::search_with_stop`])
//! into that serving surface:
//!
//! * [`OptimizationRequest`] — a module plus a declarative [`SearchSpec`]
//!   (greedy / beam / MCTS / random / portfolio), a seed, a priority, an
//!   optional client id, an optional end-to-end deadline and an optional
//!   per-request environment override.
//! * [`OptimizationService::submit`] / [`OptimizationService::submit_batch`]
//!   — enqueue requests; a pool of long-lived worker threads admits and
//!   executes them. Every submit returns a [`PendingResponse`] handle that
//!   can wait for — or cancel — its request.
//! * [`OptimizationResponse`] — the request's [`SearchOutcome`] plus
//!   per-request accounting (evaluations / cache hits, queue and service
//!   time) and a [`ResponseStatus`].
//!
//! ## Request lifecycle
//!
//! `submit` → **submit-time admission** (backpressure: a full bounded
//! queue answers [`ResponseStatus::Rejected`] immediately — the submitter
//! is never blocked — and the global [`EvalBudget`] is charged a
//! reservation from [`SearchSpec::cost_estimate`]; an exhausted ledger
//! answers [`ResponseStatus::Skipped`]) → **queued** (per-client lanes,
//! priority order and FIFO within a priority inside each lane; the
//! dispatcher interleaves lanes by deficit-weighted round-robin under the
//! per-client in-flight quota) → **dequeue admission** (cancellation,
//! expired-deadline load shedding, [`SearchSpec::try_validate`] and
//! [`EnvConfig::try_validate`] checks) → **running** (the worker builds the
//! spec's searcher and runs it with the request's seed on the service's
//! shared cache; the request's [`StopToken`] carries its deadline, so
//! stop-aware searchers wind down at their next boundary when it passes
//! mid-run) → **responded**. A malformed request is
//! [`ResponseStatus::Rejected`]; a request that never ran (cancelled in
//! the queue, deadline expired before a worker picked it up, budget
//! exhausted at submit) is [`ResponseStatus::Skipped`]; a request stopped
//! mid-run (cancel or deadline) winds down at its searcher's next stop
//! boundary and reports [`ResponseStatus::Stopped`] with its best-so-far —
//! the same semantics as portfolio [`mlir_rl_search::MemberStatus`] rows.
//!
//! ## Endings
//!
//! Submit-time admission, dequeue admission and the run only *decide* how a
//! request ends; one private function (`ending::finish`) acts on it —
//! status counter, sub-counter, budget reservation, trace event, the
//! response, the slot. The reservation is **refunded** in full, **kept**,
//! or **reconciled** to the run's real lookups:
//!
//! | ending (decided at)            | status    | sub-counter        | reservation | trace event                 |
//! |--------------------------------|-----------|--------------------|-------------|-----------------------------|
//! | shutting down (submit)         | Rejected  | —                  | none taken  | `Rejected` "shutdown"       |
//! | queue full (submit)            | Rejected  | `overflow_rejects` | none taken  | `Rejected` "queue_full"     |
//! | budget exhausted (submit)      | Skipped   | `budget_skips`     | none taken  | `BudgetSkip`                |
//! | cancelled in queue (dequeue)   | Skipped   | —                  | refunded    | `CancelledInQueue`          |
//! | deadline expired (dequeue)     | Skipped   | `deadline_sheds`   | refunded    | `Shed`                      |
//! | invalid spec / env / shape (dequeue) | Rejected | —             | refunded    | `Rejected` "invalid_spec" / "invalid_env" / "shape_mismatch" |
//! | search panicked (run)          | Rejected  | —                  | kept        | `RunEnd` "panicked"         |
//! | cancelled mid-run (run)        | Stopped   | —                  | reconciled  | `RunEnd`                    |
//! | deadline passed mid-run (run)  | Stopped   | `deadline_stops`   | reconciled  | `RunEnd`                    |
//! | completed (run)                | Completed | —                  | reconciled  | `RunEnd`, feeds the online trainer |
//!
//! Every submit bumps `submitted` and reaches exactly one row, so a drained
//! service reads `submitted == completed + stopped + skipped + rejected`
//! (live, the difference is what is queued, in flight or mid-submit).
//!
//! ## Determinism
//!
//! Responses extend the search subsystem's determinism contract to the
//! request level: a request's outcome depends only on `(module, spec, seed,
//! policy version, environment config)` — never on the worker count, the
//! submission order, queue priorities, client weights or what else is in
//! flight — because cost-model values are deterministic whether they hit or
//! miss the shared cache, and every searcher reseeds its noise stream from
//! the request seed. The policy version is pinned at submit: the request is
//! served on the [`PolicySnapshot`] checked out when it was admitted, even
//! when a hot swap (from the online trainer or a manual
//! [`OptimizationService::swap_policy`]) lands while it queues, and the
//! version is reported on [`OptimizationResponse::policy_version`] (a
//! constant `0` when no swap ever happens, so services without online
//! training keep their old fingerprints).
//! [`OptimizationResponse::fingerprint`] hashes exactly the deterministic
//! fields, the version included (accounting *counts* and timings
//! legitimately vary with cache warmth and load); the `service_api`
//! integration test battery locks the guarantee across worker counts and
//! shuffled submission orders — per policy version, with swaps landing
//! mid-stream — with quotas, bounded queues and admission reservations
//! enabled.
//!
//! ## Online learning
//!
//! [`ServiceConfig::with_online_training`] closes the loop between serving
//! and training: every `Completed` response (sampling-gated — the serving
//! path pays one branch when the subsystem is off) feeds an
//! [`Experience`] (the module and its fingerprint) into a bounded
//! [`ExperienceStream`]; a background [`OnlineTrainer`] thread takes the
//! buffered experiences as replay batches, runs PPO updates against a
//! private policy clone on a private environment (its rollouts never touch
//! the serving cache or budget), and publishes a new [`PolicySnapshot`]
//! into the service's [`PolicyRegistry`] only when the candidate's greedy
//! geomean speedup on recently-served modules is at least the incumbent's.
//! Swaps are atomic `Arc` exchanges; checkouts pinned before a swap keep
//! the old snapshot alive for as long as their requests need it.
//!
//! The *liveness* knobs are deliberately outside the guarantee: **which**
//! requests a deadline expires or a full queue rejects depends on load and
//! worker count.
//! Budget admission is the exception this layer works to keep sequenced:
//! reservations are charged under the submission lock in submission order
//! from a pure per-spec cost estimate, so for a fixed submission sequence
//! the set of budget-skipped requests is the same at any worker count
//! (reconciliation refunds after completion can reopen the ledger for
//! *later* submissions, which is a timing effect only sustained traffic
//! observes). Every request that *runs* keeps the full contract; services
//! configured without deadlines, quotas, a queue bound or a budget cap
//! answer every request deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mlir_rl_agent::{
    ExperienceStream, OnlineTrainer, OnlineTrainerStats, PolicyNetwork, PolicyRegistry,
};
use mlir_rl_costmodel::{CostModel, EvalBudget, SharedEvalCache};
use mlir_rl_env::OptimizationEnv;
use mlir_rl_obs::{EventKind, MetricsRegistry, ProbeRef, TraceRecorder, TraceSnapshot};
use mlir_rl_search::StopToken;

use crate::metrics::LatencyHistogram;
pub use crate::metrics::ServiceMetrics;

#[cfg(doc)]
use mlir_rl_agent::{Experience, PolicySnapshot};
#[cfg(doc)]
use mlir_rl_env::EnvConfig;
#[cfg(doc)]
use mlir_rl_search::{SearchOutcome, SearchSpec};

mod config;
mod ending;
mod queue;
mod request;
#[cfg(test)]
mod tests;
mod worker;

pub use config::{AggregatorStats, ServiceConfig};
pub use request::{
    wait_all, OptimizationRequest, OptimizationResponse, PendingResponse, ResponseStatus,
    BACKPRESSURE_PREFIX,
};

use ending::{finish, Ending};
use queue::{Queue, Refusal};
use request::ResponseSlot;
use worker::{worker_loop, Job};

struct ServiceShared {
    /// The queue state machine; `work` is notified on every submit, resume,
    /// completion and shutdown.
    queue: Mutex<Queue<Job>>,
    work: Condvar,
    budget: EvalBudget,
    cache: SharedEvalCache,
    /// Snapshot file the cache persists to at shutdown
    /// ([`ServiceConfig::cache_snapshot`]); `None` = memory-only.
    cache_snapshot: Option<String>,
    /// Entries restored from the snapshot at construction (0 on a cold
    /// start, including a missing or corrupt snapshot file).
    cache_restored: u64,
    counters: Counters,
    /// Present iff the service was built with
    /// [`ServiceConfig::with_tracing`]: ring 0 records submit-side
    /// lifecycle events, ring `1 + w` records worker `w`'s events.
    recorder: Option<TraceRecorder>,
    /// Versioned policy publication. Always present: version 0 is the
    /// policy the service was constructed with; the online trainer (or a
    /// manual [`OptimizationService::swap_policy`]) publishes later
    /// versions. Submits check out the current snapshot and pin it on the
    /// job.
    registry: Arc<PolicyRegistry>,
    /// Present iff the service was built with
    /// [`ServiceConfig::with_online_training`]: the experience feed the
    /// workers fill on `Completed` responses.
    online: Option<OnlineShared>,
}

/// Everything the service counts, lock-free ([`OptimizationService::metrics`]
/// reads it). Only `ending::finish` bumps the four terminal statuses and
/// their sub-counters.
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    stopped: AtomicU64,
    skipped: AtomicU64,
    rejected: AtomicU64,
    admitted: AtomicU64,
    overflow: AtomicU64,
    sheds: AtomicU64,
    deadline_stops: AtomicU64,
    quota_deferrals: AtomicU64,
    budget_skips: AtomicU64,
    queue_high_water: AtomicU64,
    queue_hist: LatencyHistogram,
    service_hist: LatencyHistogram,
}

impl ServiceShared {
    /// A probe on ring `ring` of the recorder (0 = the submit side,
    /// `1 + w` = worker `w`, the last = the online trainer), or the inert
    /// probe when tracing is off.
    fn probe(&self, ring: usize) -> ProbeRef {
        match &self.recorder {
            Some(recorder) => recorder.probe(ring),
            None => ProbeRef::none(),
        }
    }
}

/// The worker-facing half of the online learning subsystem.
struct OnlineShared {
    stream: Arc<ExperienceStream>,
    /// Feed every `sample_every`-th completed response.
    sample_every: u64,
    /// Completed responses seen by the sampling gate.
    sample_counter: AtomicU64,
}

/// A long-lived optimization service: worker threads serving
/// [`OptimizationRequest`]s against one policy snapshot, one persistent
/// shared evaluation cache and one global [`EvalBudget`]. See the module
/// docs for the request lifecycle and the determinism guarantee.
pub struct OptimizationService {
    shared: Arc<ServiceShared>,
    template: OptimizationEnv,
    policy: PolicyNetwork,
    workers: Vec<JoinHandle<()>>,
    /// Present iff the service was built with
    /// [`ServiceConfig::with_online_training`]: the background PPO trainer
    /// that drains the experience stream and publishes promoted policy
    /// versions into the registry. Shut down after the workers (they feed
    /// its stream).
    trainer: Option<OnlineTrainer>,
    next_id: AtomicU64,
}

impl OptimizationService {
    /// Creates a service from a configuration and a policy snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ServiceConfig::try_validate`];
    /// use [`OptimizationService::try_new`] for a non-panicking
    /// constructor.
    pub fn new(config: ServiceConfig, policy: PolicyNetwork) -> Self {
        Self::try_new(config, policy).expect("invalid service configuration")
    }

    /// Like [`OptimizationService::new`], but a malformed configuration
    /// becomes an error instead of a panic.
    pub fn try_new(config: ServiceConfig, policy: PolicyNetwork) -> Result<Self, String> {
        config.try_validate()?;
        let env = OptimizationEnv::new(config.env.clone(), CostModel::new(config.machine.clone()));
        Ok(Self::from_env_template(&env, policy, &config))
    }

    /// Creates a service whose requests run against duplicates of the given
    /// environment that **join its evaluation table**
    /// ([`OptimizationEnv::clone_sharing_cache`]) — this is how
    /// [`crate::MlirRlOptimizer`] keeps one warm cache across training, its
    /// own `optimize` calls and the services it spawns. Pass a plain clone
    /// of the environment to serve from a private copy of its entries
    /// instead. `config.env` / `config.machine` are ignored (the template
    /// environment provides them) and `config` is not re-validated; every
    /// serving knob comes from it.
    pub fn from_env_template(
        env: &OptimizationEnv,
        policy: PolicyNetwork,
        config: &ServiceConfig,
    ) -> Self {
        let mut template = env.clone_sharing_cache();
        if let Some(capacity) = config.cache_capacity {
            // A configured capacity always means a fresh table of exactly
            // that bound, not the template's.
            template.replace_cache(SharedEvalCache::new(capacity));
        }
        let cache = template.cache().clone();
        // Warm restart: merge the previous process's snapshot in before any
        // request runs. A missing or corrupt file is a clean cold start —
        // determinism is unaffected either way, only the hit-rate changes.
        let cache_restored = match &config.cache_snapshot {
            Some(path) => cache.restore_from(path).unwrap_or(0),
            None => 0,
        };
        let budget = match config.eval_budget {
            Some(cap) => EvalBudget::limited(cap),
            None => EvalBudget::unlimited(),
        };
        let shared = Arc::new(ServiceShared {
            queue: Mutex::new(Queue::new(config)),
            work: Condvar::new(),
            budget,
            cache,
            cache_snapshot: config.cache_snapshot.clone(),
            cache_restored,
            counters: Counters::default(),
            recorder: config.trace_capacity.map(|capacity| {
                // One ring per worker plus the submit side (shared by every
                // submitting thread), plus one for the online trainer when
                // training is on.
                let writers =
                    config.workers.max(1) + 1 + usize::from(config.online_training.is_some());
                TraceRecorder::new(capacity, writers)
            }),
            registry: Arc::new(PolicyRegistry::new(policy.clone())),
            online: config.online_training.as_ref().map(|online| OnlineShared {
                stream: Arc::new(ExperienceStream::new(online.capacity)),
                sample_every: online.sample_every,
                sample_counter: AtomicU64::new(0),
            }),
        });
        // The trainer runs against a *private* environment (own cache, own
        // cost model clone): its gate probes and PPO rollouts must never
        // perturb the serving cache's hit-rate metrics or the eval budget.
        let trainer = config.online_training.as_ref().map(|online| {
            let probe = shared.probe(config.workers.max(1) + 1);
            let trainer_env =
                OptimizationEnv::new(template.config().clone(), template.cost_model().clone());
            let stream = Arc::clone(
                &shared
                    .online
                    .as_ref()
                    .expect("online shared state exists when training is configured")
                    .stream,
            );
            OnlineTrainer::spawn(
                online.clone(),
                Arc::clone(&shared.registry),
                stream,
                trainer_env,
                probe,
            )
        });
        let workers = (0..config.workers.max(1))
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let env = template.clone_sharing_cache();
                let policy = policy.clone();
                std::thread::spawn(move || worker_loop(shared, env, policy, worker))
            })
            .collect();
        Self {
            shared,
            template,
            policy,
            workers,
            trainer,
            next_id: AtomicU64::new(0),
        }
    }

    /// Submits one request, returning a handle to wait on (or cancel).
    /// Never blocks on queue pressure: a full bounded queue or an
    /// exhausted budget answers the handle immediately (see the module
    /// docs' lifecycle).
    pub fn submit(&self, request: OptimizationRequest) -> PendingResponse {
        let pending = self.enqueue(request);
        self.shared.work.notify_one();
        pending
    }

    /// Submits a batch of requests — just N requests on the one shared
    /// cache — returning their handles in submission order.
    pub fn submit_batch(&self, requests: Vec<OptimizationRequest>) -> Vec<PendingResponse> {
        let pending: Vec<PendingResponse> = requests.into_iter().map(|r| self.enqueue(r)).collect();
        self.shared.work.notify_all();
        pending
    }

    /// Submit-time admission (see the module docs' lifecycle): assign an
    /// id, check backpressure against the bounded queue, charge the
    /// eval-budget reservation (in submission order, under the queue
    /// lock), and route the job into its client's lane — or end it.
    fn enqueue(&self, request: OptimizationRequest) -> PendingResponse {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let mut stop = StopToken::new();
        if let Some(deadline) = request.deadline {
            stop = stop.with_deadline(Instant::now() + deadline);
        }
        let slot = ResponseSlot::new();
        let pending = PendingResponse {
            id,
            stop: stop.clone(),
            slot: Arc::clone(&slot),
        };
        // Submit-side trace context: ring 0 of the recorder, with the
        // request id (+1 so id 0 stays distinguishable from "untraced")
        // as the trace id threaded through every later event.
        let probe = self.shared.probe(0).with_trace(id + 1);
        probe.emit(EventKind::Submitted, None, [request.priority as u64, 0, 0]);
        // The reservation estimate is a pure function of the request, so
        // computing it outside the lock keeps the critical section short.
        let est_env = request.env.as_ref().unwrap_or(self.template.config());
        let estimate = request.spec.cost_estimate(est_env, &request.module);
        let mut job = Job {
            id,
            submitted: Instant::now(),
            reserved: 0,
            // Admission pins the policy version: the request runs (and is
            // answered) on this snapshot even if swaps land while it queues.
            policy: self.shared.registry.checkout(),
            request,
            stop,
            slot,
        };
        let mut queue = self.shared.queue.lock().expect("service queue poisoned");
        let refused = match queue.refusal() {
            Some(Refusal::Shutdown) => Some(Ending::ShuttingDown),
            Some(Refusal::Full(capacity)) => Some(Ending::QueueFull(capacity)),
            None => (self.shared.budget.try_admit(estimate).err())
                .map(|spent| Ending::BudgetExhausted { estimate, spent }),
        };
        let Some(refused) = refused else {
            job.reserved = estimate;
            let lane = queue.admit(job);
            let depth = queue.depth() as u64;
            probe.emit(EventKind::Queued, None, [depth, estimate, lane]);
            let high_water = &self.shared.counters.queue_high_water;
            high_water.fetch_max(depth, Ordering::Relaxed);
            return pending;
        };
        drop(queue);
        finish(&self.shared, &probe, job, 0.0, refused);
        pending
    }

    /// Pauses the workers: queued requests stay queued until
    /// [`OptimizationService::resume`]. Requests already running finish.
    pub fn pause(&self) {
        self.shared
            .queue
            .lock()
            .expect("service queue poisoned")
            .set_paused(true);
    }

    /// Resumes a paused service.
    pub fn resume(&self) {
        self.shared
            .queue
            .lock()
            .expect("service queue poisoned")
            .set_paused(false);
        self.shared.work.notify_all();
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The version-0 policy the service was constructed with. Requests are
    /// served from the *registry's* current snapshot (see
    /// [`OptimizationService::policy_version`]), which starts as a clone
    /// of this network.
    pub fn policy(&self) -> &PolicyNetwork {
        &self.policy
    }

    /// The policy version new submits are admitted with right now. `0`
    /// until a swap is published; each published snapshot increments it.
    pub fn policy_version(&self) -> u64 {
        self.shared.registry.version()
    }

    /// Publishes `policy` as the next version and returns that version —
    /// the manual counterpart of the online trainer's promotion. In-flight
    /// and already-queued requests keep the version they were admitted
    /// with; only later submits see the new weights. The network must have
    /// the same observation/action shape as the service policy.
    pub fn swap_policy(&self, policy: PolicyNetwork) -> u64 {
        self.shared.registry.publish(policy)
    }

    /// Whether the service was built with
    /// [`ServiceConfig::with_online_training`].
    pub fn online_training_enabled(&self) -> bool {
        self.trainer.is_some()
    }

    /// A point-in-time snapshot of the online trainer's counters, or
    /// `None` when the service runs without
    /// [`ServiceConfig::with_online_training`].
    pub fn online_stats(&self) -> Option<OnlineTrainerStats> {
        self.trainer.as_ref().map(OnlineTrainer::stats)
    }

    /// Pauses the background online trainer (blocking until it
    /// acknowledges — no train step or swap is in flight afterwards).
    /// No-op when online training is off. Serving is unaffected.
    pub fn pause_online_training(&self) {
        if let Some(trainer) = &self.trainer {
            trainer.pause();
        }
    }

    /// Resumes a paused online trainer. No-op when online training is off.
    pub fn resume_online_training(&self) {
        if let Some(trainer) = &self.trainer {
            trainer.resume();
        }
    }

    /// The global admission ledger.
    pub fn budget(&self) -> &EvalBudget {
        &self.shared.budget
    }

    /// Handle to the service's persistent shared evaluation cache.
    pub fn cache(&self) -> &SharedEvalCache {
        &self.shared.cache
    }

    /// Snapshot of the overload-observability surface (see
    /// [`ServiceMetrics`]).
    pub fn metrics(&self) -> ServiceMetrics {
        let (queue_depth, clients) = {
            let queue = self.shared.queue.lock().expect("service queue poisoned");
            (queue.depth() as u64, queue.clients())
        };
        let online_stats = self.online_stats().unwrap_or_default();
        let s = &self.shared;
        // Versions start at 0 and only a publish advances them, so the
        // version is also the swap count.
        let policy_version = s.registry.version();
        let c = &s.counters;
        ServiceMetrics {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            stopped: c.stopped.load(Ordering::Relaxed),
            skipped: c.skipped.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            overflow_rejects: c.overflow.load(Ordering::Relaxed),
            deadline_sheds: c.sheds.load(Ordering::Relaxed),
            deadline_stops: c.deadline_stops.load(Ordering::Relaxed),
            quota_deferrals: c.quota_deferrals.load(Ordering::Relaxed),
            budget_skips: c.budget_skips.load(Ordering::Relaxed),
            queue_depth,
            queue_high_water: c.queue_high_water.load(Ordering::Relaxed),
            clients,
            queue_p50_s: c.queue_hist.quantile(0.5),
            queue_p99_s: c.queue_hist.quantile(0.99),
            queue_mean_s: c.queue_hist.mean(),
            service_p50_s: c.service_hist.quantile(0.5),
            service_p99_s: c.service_hist.quantile(0.99),
            service_mean_s: c.service_hist.mean(),
            queue_hist_buckets: c.queue_hist.buckets(),
            service_hist_buckets: c.service_hist.buckets(),
            cache_hits: s.cache.hits(),
            cache_misses: s.cache.misses(),
            cache_insertions: s.cache.insertions(),
            cache_evictions: s.cache.evictions(),
            cache_promotions: s.cache.promotions(),
            cache_len: s.cache.len() as u64,
            cache_capacity: s.cache.capacity() as u64,
            cache_restored: s.cache_restored,
            budget_spent: s.budget.spent(),
            budget_cap: s.budget.cap(),
            policy_version,
            policy_swaps: policy_version,
            online_experiences_accepted: s
                .online
                .as_ref()
                .map_or(0, |online| online.stream.accepted()),
            online_experiences_dropped: s
                .online
                .as_ref()
                .map_or(0, |online| online.stream.dropped()),
            online_train_steps: online_stats.train_steps,
            online_gate_rejects: online_stats.gate_rejects,
        }
    }

    /// Always `None` since PR 18 deleted the cross-request aggregator.
    /// Stays because the frozen `benchmark/` package calls it.
    pub fn aggregator_stats(&self) -> Option<AggregatorStats> {
        None
    }

    /// Whether the service records a structured trace
    /// ([`ServiceConfig::with_tracing`]).
    pub fn tracing_enabled(&self) -> bool {
        self.shared.recorder.is_some()
    }

    /// A point-in-time merged snapshot of the trace recorder's rings
    /// (submit side + every worker, sorted by timestamp), or `None` when
    /// the service was built without [`ServiceConfig::with_tracing`].
    /// Non-destructive: the recorder keeps recording; snapshot again
    /// later for more events.
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.shared
            .recorder
            .as_ref()
            .map(|recorder| recorder.snapshot())
    }

    /// The unified Prometheus-style text exposition: every
    /// [`ServiceMetrics`] series (serving counters, queue gauges, raw
    /// latency histograms) plus the cache and budget gauges, in one
    /// [`MetricsRegistry`]. Always available — tracing need not be on.
    pub fn prometheus(&self) -> String {
        let mut registry = MetricsRegistry::new();
        self.metrics().register(&mut registry);
        registry.to_prometheus()
    }

    /// Initiates shutdown and blocks until every queued request has been
    /// served and all workers have exited. Called automatically on drop.
    /// Requests submitted after shutdown begins are answered
    /// [`ResponseStatus::Rejected`] with a backpressure reason.
    pub fn shutdown(&mut self) {
        if (self.shared.queue.lock())
            .expect("service queue poisoned")
            .shut_down()
        {
            return;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // After the workers: nothing feeds the experience stream anymore,
        // so the trainer can stop without losing late experiences it might
        // still want to drain.
        if let Some(trainer) = &mut self.trainer {
            trainer.shutdown();
        }
        // Quiesced: persist the cache for the next process. Best effort —
        // a failed write costs the next start its warmth, nothing else.
        if let Some(path) = &self.shared.cache_snapshot {
            let _ = self.shared.cache.snapshot_to(path);
        }
    }
}

impl Drop for OptimizationService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for OptimizationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimizationService")
            .field("workers", &self.workers.len())
            .field("metrics", &self.metrics())
            .finish()
    }
}

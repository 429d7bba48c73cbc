//! The request/response serving layer: a long-lived [`OptimizationService`]
//! in front of the trained policy.
//!
//! The paper deploys the policy as a one-shot "optimize this module" call;
//! a production deployment is a *service*: requests arrive continuously,
//! and the wins come from amortizing state across them — one persistent
//! shared evaluation cache (every request warms every later request), one
//! policy snapshot per worker, one global evaluation budget. This module
//! composes the primitives the lower layers already provide
//! ([`SharedEvalCache`] via the environment, [`EvalBudget`],
//! [`StopToken`], [`SearchDriver`]) into that serving surface:
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
//! [`Experience`] (module, fingerprint, spec, seed, best action trace,
//! speedup, policy version) into a bounded lock-free [`ExperienceStream`];
//! a background [`OnlineTrainer`] thread drains the stream into replay
//! batches, runs PPO updates against a private policy clone on a private
//! environment (its rollouts never touch the serving cache or budget), and
//! publishes a new [`PolicySnapshot`] into the service's
//! [`PolicyRegistry`] only when the candidate's greedy geomean speedup on
//! recently-served modules is at least the incumbent's. Swaps are atomic
//! `Arc` exchanges; checkouts pinned before a swap keep the old snapshot
//! alive for as long as their requests need it.
//!
//! The *liveness* knobs are deliberately outside the guarantee, like the
//! racing portfolio's preempted-loser rows: **which** requests a deadline
//! expires or a full queue rejects depends on load and worker count.
//! Budget admission is the exception this layer works to keep sequenced:
//! reservations are charged under the submission lock in submission order
//! from a pure per-spec cost estimate, so for a fixed submission sequence
//! the set of budget-skipped requests is the same at any worker count
//! (reconciliation refunds after completion can reopen the ledger for
//! *later* submissions, which is a timing effect only sustained traffic
//! observes). Every request that *runs* keeps the full contract; services
//! configured without deadlines, quotas, a queue bound or a budget cap
//! answer every request deterministically.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use mlir_rl_agent::{
    Experience, ExperienceStream, OnlineTrainer, OnlineTrainerStats, OnlineTrainingConfig,
    PolicyNetwork, PolicyRegistry, PolicySnapshot,
};
use mlir_rl_costmodel::{
    module_fingerprint, CostModel, EvalBudget, EvalCache, MachineModel, SharedEvalCache,
};
use mlir_rl_env::{EnvConfig, OptimizationEnv};
use mlir_rl_ir::{Fnv1a, Module};
use mlir_rl_obs::{EventKind, MetricsRegistry, ProbeRef, TraceRecorder, TraceSnapshot};
use mlir_rl_search::{
    BatchSearchReport, SearchDriver, SearchJob, SearchOutcome, SearchSpec, Searcher, StopToken,
};

use crate::metrics::LatencyHistogram;
pub use crate::metrics::ServiceMetrics;

/// The rank a request's search runs at against its [`StopToken`]:
/// [`PendingResponse::cancel`] claims rank 0, which outranks the running
/// search, so stop-aware searchers wind down at their next boundary.
const RUN_RANK: usize = 1;
const CANCEL_RANK: usize = 0;

/// Every backpressure rejection reason starts with this prefix, and
/// [`OptimizationResponse::fingerprint`] excludes such reasons from the
/// hash: whether a queue overflows is a property of instantaneous load,
/// not of the request, so backpressure text must not break fingerprint
/// comparisons across runs.
pub const BACKPRESSURE_PREFIX: &str = "backpressure: ";

/// Static configuration of an [`OptimizationService`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Environment configuration requests run under by default (individual
    /// requests may override it with [`OptimizationRequest::with_env`]).
    pub env: EnvConfig,
    /// Machine the cost model targets.
    pub machine: MachineModel,
    /// Worker threads executing requests (at least 1).
    pub workers: usize,
    /// Global admission cap on cost-model lookups across every request the
    /// service executes (`None` = unlimited). The ledger is charged a
    /// *reservation* from [`SearchSpec::cost_estimate`] at submit, under
    /// the submission lock, and reconciled to the real spend when the
    /// request finishes — so for a fixed submission sequence, **which**
    /// requests an exhausted ledger answers [`ResponseStatus::Skipped`]
    /// does not depend on the worker count.
    pub eval_budget: Option<u64>,
    /// Upper bound on the number of *queued* (not yet dispatched)
    /// requests. A submit that would push past the bound is answered
    /// [`ResponseStatus::Rejected`] immediately with a
    /// [`BACKPRESSURE_PREFIX`] reason — the submitter is never blocked and
    /// queue memory stays flat under overload. `None` = unbounded
    /// (pre-hardening behaviour, useful for drain-everything batch runs).
    pub queue_capacity: Option<usize>,
    /// Per-client cap on requests *in flight* (dispatched, not yet
    /// responded). A lane at its quota is passed over by the dispatcher
    /// until one of its requests finishes — later-submitted clients run
    /// instead, so one hot client cannot occupy every worker. `None` = no
    /// quota. Must be at least 1 when set.
    pub client_quota: Option<usize>,
    /// Deficit-round-robin weights by client id (see
    /// [`OptimizationRequest::with_client`]); a client absent from the
    /// list weighs 1. A weight-`w` client is offered `w` dequeues per
    /// round-robin cycle. Requests submitted without a client id share
    /// the anonymous `""` lane.
    pub client_weights: Vec<(String, u64)>,
    /// Start with the workers paused: requests queue up but none executes
    /// until [`OptimizationService::resume`]. Useful for deterministic
    /// admission tests and for pre-loading a batch before serving begins.
    pub start_paused: bool,
    /// Per-writer event capacity of the structured trace recorder, or
    /// `None` (the default) for tracing off. When set, the service records
    /// request lifecycle spans and searcher phase events into bounded
    /// lock-free rings (one per worker plus one for the submit side) and
    /// exposes them via [`OptimizationService::trace_snapshot`]. Tracing is
    /// purely observational: responses stay bit-identical
    /// ([`OptimizationResponse::fingerprint`] never covers trace data).
    pub trace_capacity: Option<usize>,
    /// Capacity of the service's persistent shared evaluation cache, or
    /// `None` (the default) to keep the template environment's capacity.
    /// When set, the service always starts its *own* table of this
    /// capacity (even when the template environment already shares one).
    /// The bound is global and exact; a full cache evicts entry-wise by
    /// the segmented cost-aware policy (see `SharedEvalCache`). Must be at
    /// least 1 when set.
    pub cache_capacity: Option<usize>,
    /// Path of the cache's persistence snapshot, or `None` (the default)
    /// for a memory-only cache. When set, construction restores warmth
    /// from the file if it exists and is valid (a missing or corrupt file
    /// means a clean cold start — never an error or a panic), and
    /// [`OptimizationService::shutdown`] writes the table back, so a
    /// restarted service resumes with the previous process's warmth at
    /// bit-identical responses. Must be non-empty when set.
    pub cache_snapshot: Option<String>,
    /// Online learning from served traffic, or `None` (the default) for a
    /// frozen policy. When set, every `sample_every`-th
    /// [`ResponseStatus::Completed`] response is fed into a bounded
    /// lock-free experience stream, a background trainer drains the
    /// stream into PPO updates against a private policy clone, and
    /// gate-passing candidates are hot-swapped in as new *versions*
    /// through the service's policy registry. Requests pin the published
    /// version at submit and finish on it regardless of later swaps;
    /// [`OptimizationResponse::policy_version`] reports the version each
    /// response ran under.
    pub online_training: Option<OnlineTrainingConfig>,
}

impl ServiceConfig {
    /// A laptop-scale configuration: small environment, one worker, a
    /// bounded queue of 1024 requests, no per-client quotas, no eval
    /// budget. The bounded-queue default means a runaway submitter gets
    /// [`ResponseStatus::Rejected`] backpressure instead of growing the
    /// queue without limit; callers that want the old unbounded behaviour
    /// opt in with [`ServiceConfig::with_unbounded_queue`].
    pub fn quick() -> Self {
        Self {
            env: EnvConfig::small(),
            machine: MachineModel::xeon_e5_2680_v4(),
            workers: 1,
            eval_budget: None,
            queue_capacity: Some(1024),
            client_quota: None,
            client_weights: Vec::new(),
            start_paused: false,
            trace_capacity: None,
            cache_capacity: None,
            cache_snapshot: None,
            online_training: None,
        }
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the global eval-budget cap.
    pub fn with_eval_budget(mut self, cap: u64) -> Self {
        self.eval_budget = Some(cap);
        self
    }

    /// Bounds the queue at `capacity` requests (see
    /// [`ServiceConfig::queue_capacity`]).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Removes the queue bound: every submit queues, memory grows with
    /// the backlog.
    pub fn with_unbounded_queue(mut self) -> Self {
        self.queue_capacity = None;
        self
    }

    /// Caps each client's in-flight requests (see
    /// [`ServiceConfig::client_quota`]).
    pub fn with_client_quota(mut self, quota: usize) -> Self {
        self.client_quota = Some(quota);
        self
    }

    /// Sets a client's deficit-round-robin weight (replacing any earlier
    /// weight for the same client).
    pub fn with_client_weight(mut self, client: impl Into<String>, weight: u64) -> Self {
        let client = client.into();
        self.client_weights.retain(|(name, _)| *name != client);
        self.client_weights.push((client, weight));
        self
    }

    /// Starts the service paused (see [`ServiceConfig::start_paused`]).
    pub fn paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Enables structured tracing with `capacity` events retained per
    /// writer (see [`ServiceConfig::trace_capacity`]).
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Accepted and ignored since PR 18: every worker runs its own forward.
    /// Stays because the frozen `benchmark/` package calls it.
    pub fn with_inference_batching(self, _max_batch: usize, _max_wait_us: u64) -> Self {
        self
    }

    /// Bounds the persistent shared cache at `capacity` entries (see
    /// [`ServiceConfig::cache_capacity`]).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Persists the cache across restarts via a snapshot file at `path`
    /// (see [`ServiceConfig::cache_snapshot`]): restored on construction,
    /// written on shutdown.
    pub fn with_cache_snapshot(mut self, path: impl Into<String>) -> Self {
        self.cache_snapshot = Some(path.into());
        self
    }

    /// Enables online learning from served traffic (see
    /// [`ServiceConfig::online_training`]).
    pub fn with_online_training(mut self, config: OnlineTrainingConfig) -> Self {
        self.online_training = Some(config);
        self
    }

    /// Validates the serving knobs: a zero queue capacity would reject
    /// every request and a zero quota would block every client forever —
    /// both are configuration bugs, not useful modes, so they fail here
    /// (and in [`OptimizationService::try_new`]) instead of deadlocking a
    /// live service.
    pub fn try_validate(&self) -> Result<(), String> {
        self.env.try_validate()?;
        if self.queue_capacity == Some(0) {
            return Err("queue_capacity must be at least 1 (0 rejects every request)".to_string());
        }
        if self.client_quota == Some(0) {
            return Err(
                "client_quota must be at least 1 (0 would block every client forever)".to_string(),
            );
        }
        if let Some((client, _)) = self.client_weights.iter().find(|(_, w)| *w == 0) {
            return Err(format!(
                "client weight for {client:?} must be at least 1 (0 would starve the lane)"
            ));
        }
        if self.trace_capacity == Some(0) {
            return Err(
                "trace_capacity must be at least 1 (0 records nothing; use None to disable)"
                    .to_string(),
            );
        }
        if self.cache_capacity == Some(0) {
            return Err(
                "cache_capacity must be at least 1 (0 memoizes nothing; use None for the default)"
                    .to_string(),
            );
        }
        if self.cache_snapshot.as_deref() == Some("") {
            return Err(
                "cache_snapshot must name a file (empty path; use None for memory-only)"
                    .to_string(),
            );
        }
        if let Some(online) = &self.online_training {
            online.try_validate()?;
        }
        Ok(())
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// One optimization request: a module plus everything needed to search its
/// schedule space deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationRequest {
    /// Module to optimize.
    pub module: Module,
    /// Declarative description of the search to run.
    pub spec: SearchSpec,
    /// Search seed — with the module, spec and policy, this fully
    /// determines the response's outcome.
    pub seed: u64,
    /// Scheduling priority: higher-priority requests leave their client's
    /// lane first (FIFO within a priority). Priorities affect *when* a
    /// request runs, never *what* it computes.
    pub priority: i32,
    /// End-to-end deadline, measured from submission. A request still
    /// queued when it passes is load-shed at dequeue
    /// ([`ResponseStatus::Skipped`], nothing ran); a request already
    /// running carries the deadline on its [`StopToken`], so stop-aware
    /// searchers wind down at their next boundary and answer
    /// [`ResponseStatus::Stopped`] with the best-so-far. `None` waits
    /// indefinitely. A liveness knob — responses produced under deadline
    /// pressure are still deterministic, but *which* requests expire
    /// depends on load.
    pub deadline: Option<Duration>,
    /// Client id for fair scheduling: requests from the same client share
    /// one queue lane, and the dispatcher interleaves lanes by
    /// deficit-weighted round-robin (weights from
    /// [`ServiceConfig::client_weights`], per-client in-flight cap from
    /// [`ServiceConfig::client_quota`]). `None` shares the anonymous
    /// lane. Scheduling-only: never affects a response's outcome or
    /// fingerprint.
    pub client: Option<String>,
    /// Per-request environment override. Validated at admission with
    /// [`EnvConfig::try_validate`], and additionally required to preserve
    /// the observation/action *shape* the service policy was built for
    /// (fields like `reward_mode` and `noise_seed` may differ; `max_loops`,
    /// tile candidates, feature sizes may not) — a malformed or
    /// shape-changing config yields [`ResponseStatus::Rejected`] instead of
    /// a panic. The override environment still shares the service's
    /// evaluation cache.
    pub env: Option<EnvConfig>,
}

impl OptimizationRequest {
    /// A request with seed 0, default priority, no deadline, no client id
    /// and the service's environment.
    pub fn new(module: Module, spec: SearchSpec) -> Self {
        Self {
            module,
            spec,
            seed: 0,
            priority: 0,
            deadline: None,
            client: None,
            env: None,
        }
    }

    /// Sets the search seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the end-to-end deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tags the request with a client id for fair scheduling.
    pub fn with_client(mut self, client: impl Into<String>) -> Self {
        self.client = Some(client.into());
        self
    }

    /// Overrides the environment configuration for this request.
    pub fn with_env(mut self, env: EnvConfig) -> Self {
        self.env = Some(env);
        self
    }
}

/// How a request left the service — the request-level analogue of
/// [`mlir_rl_search::MemberStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResponseStatus {
    /// The search ran to completion.
    Completed,
    /// The request was stopped mid-run (cancelled, or its deadline passed);
    /// the outcome is the search's best-so-far at the stop boundary
    /// (stop-unaware searchers such as greedy decoding finish their run
    /// regardless).
    Stopped,
    /// The request never ran: cancelled while queued, deadline expired
    /// before dispatch, or the service's eval budget was exhausted at
    /// submit. All accounting is zero; `error` says why.
    Skipped,
    /// The request was refused: malformed (spec or environment override
    /// failed validation) or pushed back by backpressure (queue full,
    /// service shutting down — reasons prefixed [`BACKPRESSURE_PREFIX`]).
    /// `error` carries the problem. Nothing ran.
    Rejected,
}

/// The answer to one [`OptimizationRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationResponse {
    /// Service-assigned request id (submission order).
    pub id: u64,
    /// Name of the requested module.
    pub module: String,
    /// Display name of the requested searcher.
    pub searcher: String,
    /// How the request finished.
    pub status: ResponseStatus,
    /// The search outcome ([`ResponseStatus::Completed`] and
    /// [`ResponseStatus::Stopped`] only).
    pub outcome: Option<SearchOutcome>,
    /// Why the request was skipped, rejected or deadline-stopped.
    pub error: Option<String>,
    /// Estimator runs this request caused (cache misses).
    pub evaluations: usize,
    /// Lookups the shared cache served for this request.
    pub cache_hits: usize,
    /// Seconds the request waited in the queue before a worker picked it
    /// up.
    pub queue_s: f64,
    /// Seconds the search itself ran.
    pub service_s: f64,
    /// Trace id of this request in the service's trace recorder (`None`
    /// when the service ran without tracing). Like all timing data, it is
    /// excluded from [`OptimizationResponse::fingerprint`]: which id a
    /// request drew depends on submission order, never on the outcome.
    pub trace_id: Option<u64>,
    /// The policy version this request was admitted with (and therefore
    /// ran under — in-flight requests are immune to later swaps). Always
    /// 0 when the service runs without
    /// [`ServiceConfig::with_online_training`] and no manual
    /// [`OptimizationService::swap_policy`] happened. Part of the
    /// request-level determinism contract and of
    /// [`OptimizationResponse::fingerprint`]: the outcome depends only on
    /// `(module, spec, seed, policy version, env config)`.
    pub policy_version: u64,
}

impl OptimizationResponse {
    /// Speedup of the best schedule found (1.0 when nothing ran).
    pub fn speedup(&self) -> f64 {
        self.outcome.as_ref().map_or(1.0, |o| o.speedup)
    }

    /// Total cost-model lookups of the request
    /// (`evaluations + cache_hits`).
    pub fn total_lookups(&self) -> usize {
        self.evaluations + self.cache_hits
    }

    /// FNV-1a hash of exactly the fields the service's determinism
    /// guarantee covers: module, searcher, status, the policy version the
    /// request was admitted with (a constant 0 when online training is
    /// off, so fingerprint comparisons across runs are unaffected by the
    /// field's existence), the rejection reason
    /// (validation messages are a deterministic function of the request),
    /// and the outcome's baseline/best estimates, speedup, action
    /// sequence, schedule and nodes expanded. Excludes the request id,
    /// the trace id, timings, cache accounting *counts*, portfolio member attribution
    /// rows, the error text of [`ResponseStatus::Skipped`] and
    /// [`ResponseStatus::Stopped`] responses (skip/stop reasons embed
    /// load-dependent measurements such as queue wait and budget spend),
    /// and [`BACKPRESSURE_PREFIX`] rejection reasons (whether a bounded
    /// queue overflows is a property of load, not of the request) — those
    /// legitimately vary with submission order, load and table warmth.
    /// Two runs of the same request set produce equal fingerprints for
    /// matching requests, regardless of worker count or arrival order.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.module.as_bytes());
        h.write(self.searcher.as_bytes());
        h.write(format!("{:?}", self.status).as_bytes());
        h.write(&self.policy_version.to_le_bytes());
        let backpressure = self
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with(BACKPRESSURE_PREFIX));
        if self.status == ResponseStatus::Rejected && !backpressure {
            h.write(format!("{:?}", self.error).as_bytes());
        }
        if let Some(outcome) = &self.outcome {
            for bits in [
                outcome.baseline_s.to_bits(),
                outcome.best_s.to_bits(),
                outcome.speedup.to_bits(),
                outcome.nodes_expanded as u64,
            ] {
                h.write(&bits.to_le_bytes());
            }
            h.write(format!("{:?}", outcome.best_actions).as_bytes());
            h.write(format!("{:?}", outcome.best_schedule).as_bytes());
        }
        h.finish()
    }
}

/// Handle to a submitted request: wait for the response, poll it, or
/// cancel the request.
#[derive(Debug, Clone)]
pub struct PendingResponse {
    id: u64,
    stop: StopToken,
    slot: Arc<ResponseSlot>,
}

impl PendingResponse {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response is available (condvar wait, no polling).
    pub fn wait(&self) -> OptimizationResponse {
        let mut ready = self.slot.ready.lock().expect("response slot poisoned");
        while ready.is_none() {
            ready = self.slot.cond.wait(ready).expect("response slot poisoned");
        }
        ready.clone().expect("checked above")
    }

    /// Waits for the response for at most `timeout`, returning `None` when
    /// the request is still outstanding after that long. The request keeps
    /// running — call again, [`PendingResponse::wait`], or
    /// [`PendingResponse::cancel`] as appropriate.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<OptimizationResponse> {
        let ready = self.slot.ready.lock().expect("response slot poisoned");
        let (ready, _) = self
            .slot
            .cond
            .wait_timeout_while(ready, timeout, |ready| ready.is_none())
            .expect("response slot poisoned");
        ready.clone()
    }

    /// The response, if it is already available.
    pub fn try_response(&self) -> Option<OptimizationResponse> {
        self.slot
            .ready
            .lock()
            .expect("response slot poisoned")
            .clone()
    }

    /// Cancels the request: if it has not started it is answered
    /// [`ResponseStatus::Skipped`]; if it is running, stop-aware searchers
    /// wind down at their next boundary and the response is
    /// [`ResponseStatus::Stopped`] with the best-so-far; if it already
    /// finished, this is a no-op.
    pub fn cancel(&self) {
        self.stop.claim(CANCEL_RANK);
    }
}

/// Waits for every pending response, in handle order.
pub fn wait_all(pending: &[PendingResponse]) -> Vec<OptimizationResponse> {
    pending.iter().map(PendingResponse::wait).collect()
}

#[derive(Debug)]
struct ResponseSlot {
    ready: Mutex<Option<OptimizationResponse>>,
    cond: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            ready: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    fn fill(&self, response: OptimizationResponse) {
        let mut ready = self.ready.lock().expect("response slot poisoned");
        *ready = Some(response);
        self.cond.notify_all();
    }
}

/// A queued request plus its routing state. Ordered by (priority, FIFO)
/// within its client's lane: each lane is a max-heap, so higher priorities
/// pop first and equal priorities pop in submission order.
struct QueuedJob {
    id: u64,
    submitted: Instant,
    /// Eval-budget reservation charged at submit, reconciled (refunded or
    /// topped up to the real spend) when the request leaves the service.
    reserved: u64,
    /// The policy snapshot checked out at submit: the request runs on this
    /// version no matter how many hot swaps happen while it is queued.
    policy: Arc<PolicySnapshot>,
    request: OptimizationRequest,
    stop: StopToken,
    slot: Arc<ResponseSlot>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.request.priority == other.request.priority && self.id == other.id
    }
}

impl Eq for QueuedJob {}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.request
            .priority
            .cmp(&other.request.priority)
            .then(other.id.cmp(&self.id))
    }
}

/// One client's slice of the queue: its pending requests, its
/// deficit-round-robin credit and its in-flight count (against
/// [`ServiceConfig::client_quota`]).
struct ClientLane {
    heap: BinaryHeap<QueuedJob>,
    weight: u64,
    credit: u64,
    in_flight: usize,
}

/// What the dispatcher found when it asked for work.
//
// `Job` dwarfs the unit variants, but a `Popped` lives only for the
// hand-off from the queue lock to the worker — boxing would buy nothing
// except an allocation per dequeue.
#[allow(clippy::large_enum_variant)]
enum Popped {
    /// A job to run, plus its lane index (for the in-flight decrement).
    Job(QueuedJob, usize),
    /// Requests are queued but every non-empty lane is at its in-flight
    /// quota: wait for a completion, then try again.
    Blocked,
    /// The queue is empty.
    Idle,
}

struct ServiceState {
    /// Per-client lanes in creation (first-submission) order. Lanes are
    /// never removed — a client's weight and in-flight count persist for
    /// the service's lifetime.
    lanes: Vec<ClientLane>,
    /// Client id → lane index.
    index: HashMap<String, usize>,
    /// Deficit-round-robin scan position.
    cursor: usize,
    /// Total queued (not yet dispatched) requests across all lanes.
    depth: usize,
    paused: bool,
    shutdown: bool,
}

impl ServiceState {
    /// The lane for `client`, created on first use with its configured
    /// weight (default 1).
    fn lane_for(&mut self, client: &str, weights: &[(String, u64)]) -> usize {
        if let Some(&i) = self.index.get(client) {
            return i;
        }
        let weight = weights
            .iter()
            .find(|(name, _)| name == client)
            .map_or(1, |(_, w)| *w)
            .max(1);
        let i = self.lanes.len();
        self.lanes.push(ClientLane {
            heap: BinaryHeap::new(),
            weight,
            credit: 0,
            in_flight: 0,
        });
        self.index.insert(client.to_string(), i);
        i
    }

    /// Deficit-weighted round-robin dispatch. Pass 0 serves the first
    /// lane (from the cursor) that has queued work, remaining credit and
    /// quota headroom; if none has credit, every eligible lane is
    /// replenished by its weight (capped at twice the weight so an idle
    /// heavy client cannot bank an unbounded burst) and pass 1 serves. A
    /// lane drained empty forfeits its credit — deficit round-robin's
    /// classic rule, keeping long-idle lanes from hoarding turns.
    fn pop_next(&mut self, quota: Option<usize>) -> Popped {
        if self.depth == 0 {
            return Popped::Idle;
        }
        let n = self.lanes.len();
        for pass in 0..2 {
            for step in 0..n {
                let i = (self.cursor + step) % n;
                let lane = &mut self.lanes[i];
                if lane.heap.is_empty() {
                    lane.credit = 0;
                    continue;
                }
                if quota.is_some_and(|q| lane.in_flight >= q) || lane.credit == 0 {
                    continue;
                }
                lane.credit -= 1;
                lane.in_flight += 1;
                let job = lane.heap.pop().expect("non-empty lane");
                self.depth -= 1;
                self.cursor = (i + 1) % n;
                return Popped::Job(job, i);
            }
            if pass == 0 {
                let mut eligible = false;
                for lane in &mut self.lanes {
                    if lane.heap.is_empty() || quota.is_some_and(|q| lane.in_flight >= q) {
                        continue;
                    }
                    lane.credit = (lane.credit + lane.weight).min(lane.weight.saturating_mul(2));
                    eligible = true;
                }
                if !eligible {
                    return Popped::Blocked;
                }
            }
        }
        // Unreachable: a replenished lane has credit >= 1 and pass 1
        // serves it; kept as a safe fallback.
        Popped::Blocked
    }
}

struct ServiceShared {
    state: Mutex<ServiceState>,
    work: Condvar,
    budget: EvalBudget,
    cache: SharedEvalCache,
    /// Snapshot file the cache persists to at shutdown
    /// ([`ServiceConfig::cache_snapshot`]); `None` = memory-only.
    cache_snapshot: Option<String>,
    /// Entries restored from the snapshot at construction (0 on a cold
    /// start, including a missing or corrupt snapshot file).
    cache_restored: u64,
    queue_capacity: Option<usize>,
    client_quota: Option<usize>,
    client_weights: Vec<(String, u64)>,
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

/// The worker-facing half of the online learning subsystem.
struct OnlineShared {
    stream: Arc<ExperienceStream>,
    /// Feed every `sample_every`-th completed response.
    sample_every: u64,
    /// Completed responses seen by the sampling gate.
    sample_counter: AtomicU64,
}

/// What [`OptimizationService::aggregator_stats`] would return; never
/// constructed. Exactly the members the frozen `benchmark/` package reads.
#[derive(Debug, Clone, Copy)]
pub struct AggregatorStats {
    /// Batches flushed.
    pub batches: u64,
    /// Flushes triggered by a full batch.
    pub flush_size: u64,
    /// Flushes triggered because every in-flight run was waiting.
    pub flush_idle: u64,
    /// Flushes triggered by the wait bound.
    pub flush_timeout: u64,
    /// Flushes run on the submitting thread.
    pub flush_inline: u64,
}

impl AggregatorStats {
    /// Mean observation rows per batch.
    pub fn mean_rows_per_batch(&self) -> f64 {
        0.0
    }

    /// Mean seconds a group waited for its flush.
    pub fn mean_queue_wait_s(&self) -> f64 {
        0.0
    }
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
        Ok(Self::from_env_template_with(&env, policy, &config))
    }

    /// Creates a service whose requests run against duplicates of the given
    /// environment that **join its evaluation table**
    /// ([`OptimizationEnv::clone_sharing_cache`]) — this is how the
    /// deprecated [`crate::MlirRlOptimizer`] facade keeps one warm cache
    /// across its own calls and the service's. Pass a plain clone of the
    /// environment to serve from a private copy of its entries instead.
    /// Serving knobs are [`ServiceConfig::quick`] defaults with the given
    /// worker count.
    pub fn from_env_template(env: &OptimizationEnv, policy: PolicyNetwork, workers: usize) -> Self {
        Self::from_env_template_with(env, policy, &ServiceConfig::quick().with_workers(workers))
    }

    /// The engine under both constructors: `config.env` / `config.machine`
    /// are ignored (the template environment provides them); every serving
    /// knob comes from `config`.
    pub(crate) fn from_env_template_with(
        env: &OptimizationEnv,
        policy: PolicyNetwork,
        config: &ServiceConfig,
    ) -> Self {
        let mut template = env.clone_sharing_cache();
        if let Some(capacity) = config.cache_capacity {
            // A configured capacity always means a fresh table of exactly
            // that bound, not the template's.
            template.replace_cache(EvalCache::new(capacity));
        }
        let cache = template.cache().shared_backend().clone();
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
            state: Mutex::new(ServiceState {
                lanes: Vec::new(),
                index: HashMap::new(),
                cursor: 0,
                depth: 0,
                paused: config.start_paused,
                shutdown: false,
            }),
            work: Condvar::new(),
            budget,
            cache,
            cache_snapshot: config.cache_snapshot.clone(),
            cache_restored,
            queue_capacity: config.queue_capacity,
            client_quota: config.client_quota,
            client_weights: config.client_weights.clone(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            stopped: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            deadline_stops: AtomicU64::new(0),
            quota_deferrals: AtomicU64::new(0),
            budget_skips: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            queue_hist: LatencyHistogram::new(),
            service_hist: LatencyHistogram::new(),
            recorder: config.trace_capacity.map(|capacity| {
                // One ring per worker plus the submit side, plus one for
                // the online trainer when training is on — every ring stays
                // single-writer.
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
            let probe = match &shared.recorder {
                Some(recorder) => recorder.probe(config.workers.max(1) + 1),
                None => ProbeRef::none(),
            };
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
    /// eval-budget reservation (in submission order, under the state
    /// lock), and route the job into its client's lane.
    fn enqueue(&self, request: OptimizationRequest) -> PendingResponse {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
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
        let probe = submit_probe(&self.shared, id);
        let trace_id = probe.trace_id_if_enabled();
        probe.emit(EventKind::Submitted, None, [request.priority as u64, 0, 0]);
        // Admission pins the policy version: the request runs (and is
        // answered) on this snapshot even if swaps land while it queues.
        let snapshot = self.shared.registry.checkout();
        let refusal = |status: ResponseStatus, error: String| OptimizationResponse {
            id,
            module: request.module.name().to_string(),
            searcher: request.spec.name(),
            status,
            outcome: None,
            error: Some(error),
            evaluations: 0,
            cache_hits: 0,
            queue_s: 0.0,
            service_s: 0.0,
            trace_id,
            policy_version: snapshot.version,
        };
        // The reservation estimate is a pure function of the request, so
        // computing it outside the lock keeps the critical section short.
        let est_env = request.env.as_ref().unwrap_or(self.template.config());
        let reserved = request.spec.cost_estimate(est_env, &request.module);

        let mut state = self.shared.state.lock().expect("service state poisoned");
        if state.shutdown {
            drop(state);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            probe.emit(EventKind::Rejected, Some("shutdown"), [0, 0, 0]);
            slot.fill(refusal(
                ResponseStatus::Rejected,
                format!("{BACKPRESSURE_PREFIX}service is shutting down"),
            ));
            return pending;
        }
        if let Some(capacity) = self.shared.queue_capacity {
            if state.depth >= capacity {
                drop(state);
                self.shared.overflow.fetch_add(1, Ordering::Relaxed);
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                probe.emit(
                    EventKind::Rejected,
                    Some("queue_full"),
                    [capacity as u64, 0, 0],
                );
                slot.fill(refusal(
                    ResponseStatus::Rejected,
                    format!("{BACKPRESSURE_PREFIX}queue full (capacity {capacity})"),
                ));
                return pending;
            }
        }
        if let Err(spent) = self.shared.budget.try_admit(reserved) {
            drop(state);
            self.shared.budget_skips.fetch_add(1, Ordering::Relaxed);
            self.shared.skipped.fetch_add(1, Ordering::Relaxed);
            probe.emit(
                EventKind::BudgetSkip,
                None,
                [reserved, spent, self.shared.budget.cap().unwrap_or(0)],
            );
            slot.fill(refusal(
                ResponseStatus::Skipped,
                format!(
                    "service eval budget exhausted ({spent} lookups spent or reserved, \
                     estimate {reserved} refused)"
                ),
            ));
            return pending;
        }
        let lane = state.lane_for(
            request.client.as_deref().unwrap_or(""),
            &self.shared.client_weights,
        );
        state.lanes[lane].heap.push(QueuedJob {
            id,
            submitted: Instant::now(),
            reserved,
            policy: snapshot,
            request,
            stop,
            slot,
        });
        state.depth += 1;
        probe.emit(
            EventKind::Queued,
            None,
            [state.depth as u64, reserved, lane as u64],
        );
        self.shared
            .queue_high_water
            .fetch_max(state.depth as u64, Ordering::Relaxed);
        pending
    }

    /// Pauses the workers: queued requests stay queued until
    /// [`OptimizationService::resume`]. Requests already running finish.
    pub fn pause(&self) {
        self.shared
            .state
            .lock()
            .expect("service state poisoned")
            .paused = true;
    }

    /// Resumes a paused service.
    pub fn resume(&self) {
        self.shared
            .state
            .lock()
            .expect("service state poisoned")
            .paused = false;
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

    /// Policy snapshots published so far (trainer promotions plus manual
    /// [`OptimizationService::swap_policy`] calls).
    pub fn policy_swaps(&self) -> u64 {
        self.shared.registry.swaps()
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
            let state = self.shared.state.lock().expect("service state poisoned");
            (state.depth as u64, state.lanes.len() as u64)
        };
        let online_stats = self.online_stats().unwrap_or_default();
        let s = &self.shared;
        ServiceMetrics {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            stopped: s.stopped.load(Ordering::Relaxed),
            skipped: s.skipped.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            admitted: s.admitted.load(Ordering::Relaxed),
            overflow_rejects: s.overflow.load(Ordering::Relaxed),
            deadline_sheds: s.sheds.load(Ordering::Relaxed),
            deadline_stops: s.deadline_stops.load(Ordering::Relaxed),
            quota_deferrals: s.quota_deferrals.load(Ordering::Relaxed),
            budget_skips: s.budget_skips.load(Ordering::Relaxed),
            queue_depth,
            queue_high_water: s.queue_high_water.load(Ordering::Relaxed),
            clients,
            queue_p50_s: s.queue_hist.quantile(0.5),
            queue_p99_s: s.queue_hist.quantile(0.99),
            queue_mean_s: s.queue_hist.mean(),
            service_p50_s: s.service_hist.quantile(0.5),
            service_p99_s: s.service_hist.quantile(0.99),
            service_mean_s: s.service_hist.mean(),
            queue_hist_buckets: s.queue_hist.buckets(),
            service_hist_buckets: s.service_hist.buckets(),
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
            policy_version: s.registry.version(),
            policy_swaps: s.registry.swaps(),
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

    /// Runs a *borrowed* custom [`Searcher`] on one module, synchronously,
    /// against the service's policy and persistent cache — the entry point
    /// for searcher objects (baseline adapters, hand-built portfolios) that
    /// have no [`SearchSpec`] and therefore cannot be queued. The seed is
    /// passed to the searcher verbatim.
    pub fn run_searcher(
        &self,
        searcher: &dyn Searcher<PolicyNetwork>,
        module: &Module,
        seed: u64,
    ) -> SearchOutcome {
        let jobs = [SearchJob::new(module, searcher, seed)];
        let snapshot = self.shared.registry.checkout();
        let mut report = SearchDriver::new(1).run_jobs(&self.template, &snapshot.policy, &jobs);
        report.outcomes.remove(0)
    }

    /// Runs a borrowed custom [`Searcher`] over a module batch through
    /// [`SearchDriver`] — the driver is the engine *underneath* the queued
    /// path too, so this shares the same persistent cache and the same
    /// worker-count-invariance contract. Seeds are derived per module index
    /// from `base_seed` exactly like [`SearchDriver::run`].
    pub fn run_searcher_batch(
        &self,
        searcher: &dyn Searcher<PolicyNetwork>,
        modules: &[Module],
        base_seed: u64,
        workers: usize,
    ) -> BatchSearchReport {
        let snapshot = self.shared.registry.checkout();
        SearchDriver::new(workers).with_seed(base_seed).run(
            &self.template,
            &snapshot.policy,
            &searcher,
            modules,
        )
    }

    /// Initiates shutdown and blocks until every queued request has been
    /// served and all workers have exited. Called automatically on drop.
    /// Requests submitted after shutdown begins are answered
    /// [`ResponseStatus::Rejected`] with a backpressure reason.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("service state poisoned");
            if state.shutdown {
                return;
            }
            state.shutdown = true;
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

/// Submit-side probe (ring 0 of the recorder) scoped to request `id`, or
/// the inert probe when tracing is off. Trace ids are `id + 1` so an id
/// of `0` on the wire still means "untraced".
fn submit_probe(shared: &ServiceShared, id: u64) -> ProbeRef {
    match &shared.recorder {
        Some(recorder) => recorder.probe(0).with_trace(id + 1),
        None => ProbeRef::none(),
    }
}

fn worker_loop(
    shared: Arc<ServiceShared>,
    mut env: OptimizationEnv,
    mut policy: PolicyNetwork,
    worker: usize,
) {
    // Worker `w` owns ring `1 + w` exclusively, so its writes never
    // contend with other workers or the submit side.
    let probe = match &shared.recorder {
        Some(recorder) => recorder.probe(worker + 1),
        None => ProbeRef::none(),
    };
    // The worker caches one policy clone and the version it came from;
    // `execute` re-clones from the job's pinned snapshot only when the
    // version changed since the last run (swaps are rare, clones are not
    // free).
    let mut policy_version = 0u64;
    loop {
        let popped = {
            let mut state = shared.state.lock().expect("service state poisoned");
            loop {
                // Shutdown drains the queue even while paused, so dropping
                // a paused service still answers every request.
                if state.shutdown || !state.paused {
                    match state.pop_next(shared.client_quota) {
                        Popped::Job(job, lane) => break Some((job, lane)),
                        Popped::Blocked => {
                            // Work is queued but every lane is at quota:
                            // a completion will notify this condvar.
                            shared.quota_deferrals.fetch_add(1, Ordering::Relaxed);
                        }
                        Popped::Idle => {
                            if state.shutdown {
                                break None;
                            }
                        }
                    }
                }
                state = shared.work.wait(state).expect("service state poisoned");
            }
        };
        match popped {
            Some((job, lane)) => {
                execute(
                    &shared,
                    &mut env,
                    &mut policy,
                    &mut policy_version,
                    job,
                    &probe,
                );
                shared.state.lock().expect("service state poisoned").lanes[lane].in_flight -= 1;
                // Wake quota-blocked dispatchers (and the shutdown drain).
                shared.work.notify_all();
            }
            None => return,
        }
    }
}

/// Admission + execution of one dequeued request (see the module docs for
/// the lifecycle). Always fills the job's response slot, and always
/// reconciles the job's budget reservation: refunded in full when nothing
/// ran, adjusted to the real spend after a search (a panicked search keeps
/// its reservation charged — the estimate is the best available bound on
/// what it consumed before dying).
fn execute(
    shared: &ServiceShared,
    env: &mut OptimizationEnv,
    policy: &mut PolicyNetwork,
    policy_version: &mut u64,
    job: QueuedJob,
    worker_probe: &ProbeRef,
) {
    // Serve on the snapshot the request was admitted with — never on
    // whatever the registry publishes later.
    if job.policy.version != *policy_version {
        *policy = job.policy.policy.clone();
        *policy_version = job.policy.version;
    }
    let queue_s = job.submitted.elapsed().as_secs_f64();
    shared.queue_hist.record(queue_s);
    let probe = worker_probe.with_trace(job.id + 1);
    let trace_id = probe.trace_id_if_enabled();
    let queue_us = (queue_s * 1e6) as u64;
    probe.emit(EventKind::Dispatched, None, [queue_us, 0, 0]);
    let skeleton = |status: ResponseStatus, error: Option<String>| OptimizationResponse {
        id: job.id,
        module: job.request.module.name().to_string(),
        searcher: job.request.spec.name(),
        status,
        outcome: None,
        error,
        evaluations: 0,
        cache_hits: 0,
        queue_s,
        service_s: 0.0,
        trace_id,
        policy_version: job.policy.version,
    };

    // --- dequeue admission -------------------------------------------
    if job.stop.claimant().is_some_and(|rank| rank < RUN_RANK) {
        shared.budget.refund(job.reserved);
        shared.skipped.fetch_add(1, Ordering::Relaxed);
        probe.emit(EventKind::CancelledInQueue, None, [queue_us, 0, 0]);
        job.slot.fill(skeleton(
            ResponseStatus::Skipped,
            Some("cancelled while queued".to_string()),
        ));
        return;
    }
    if job.stop.expired() {
        shared.budget.refund(job.reserved);
        shared.sheds.fetch_add(1, Ordering::Relaxed);
        shared.skipped.fetch_add(1, Ordering::Relaxed);
        let deadline_s = job.request.deadline.map_or(0.0, |d| d.as_secs_f64());
        probe.emit(
            EventKind::Shed,
            None,
            [queue_us, (deadline_s * 1e6) as u64, 0],
        );
        job.slot.fill(skeleton(
            ResponseStatus::Skipped,
            Some(format!(
                "deadline of {deadline_s:.3}s expired after {queue_s:.3}s in the queue; \
                 request shed at dequeue"
            )),
        ));
        return;
    }
    if let Err(problem) = job.request.spec.try_validate() {
        shared.budget.refund(job.reserved);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        probe.emit(EventKind::Rejected, Some("invalid_spec"), [0, 0, 0]);
        job.slot.fill(skeleton(
            ResponseStatus::Rejected,
            Some(format!("invalid search spec: {problem}")),
        ));
        return;
    }
    if let Some(config) = &job.request.env {
        if let Err(problem) = config.try_validate() {
            shared.budget.refund(job.reserved);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            probe.emit(EventKind::Rejected, Some("invalid_env"), [0, 0, 0]);
            job.slot.fill(skeleton(
                ResponseStatus::Rejected,
                Some(format!("invalid environment override: {problem}")),
            ));
            return;
        }
        // The service policy's layer and head sizes are fixed by the
        // service environment; an override that changes the observation or
        // action shape cannot run against it.
        let base = env.config();
        if config.feature_len() != base.feature_len()
            || config.max_loops != base.max_loops
            || config.num_tile_candidates() != base.num_tile_candidates()
            || config.interchange_mode != base.interchange_mode
            || config.action_space_mode != base.action_space_mode
        {
            shared.budget.refund(job.reserved);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            probe.emit(EventKind::Rejected, Some("shape_mismatch"), [0, 0, 0]);
            job.slot.fill(skeleton(
                ResponseStatus::Rejected,
                Some(
                    "environment override changes the observation/action shape the \
                     service policy was built for (only shape-preserving fields such \
                     as reward_mode and noise_seed may differ)"
                        .to_string(),
                ),
            ));
            return;
        }
    }
    shared.admitted.fetch_add(1, Ordering::Relaxed);

    // --- execution ---------------------------------------------------
    // An override request runs on a fresh environment that joins the
    // service's shared table (the cache is keyed by module/schedule
    // fingerprints, so entries are config-independent).
    let mut override_env;
    let run_env: &mut OptimizationEnv = match &job.request.env {
        Some(config) => {
            override_env = OptimizationEnv::new(config.clone(), env.cost_model().clone());
            override_env.replace_cache(EvalCache::with_shared_backend(shared.cache.clone()));
            &mut override_env
        }
        None => env,
    };
    // Scope the environment's probe to this request: searcher phase
    // events and cache hit/miss events recorded during the run carry its
    // trace id. Purely observational — emission never touches RNG state
    // or control flow, so traced and untraced runs are bit-identical.
    run_env.set_probe(probe.clone());
    let searcher_name = job.request.spec.name();
    probe.emit(
        EventKind::RunBegin,
        Some(&searcher_name),
        [job.reserved, job.request.seed, 0],
    );
    let start = Instant::now();
    // Panic isolation: a search that panics (e.g. on a malformed module no
    // validation anticipated) must become an error *response*, never a
    // dead worker with a forever-blocked client. State safety: the
    // environment is reset at the start of every search and the policy's
    // scratch buffers are overwritten by every forward pass, so the worker
    // keeps serving after a caught panic.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let searcher = job.request.spec.build::<PolicyNetwork>();
        searcher.search_with_stop(
            run_env,
            policy,
            &job.request.module,
            job.request.seed,
            RUN_RANK,
            &job.stop,
        )
    }));
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            probe.emit(EventKind::RunEnd, Some("panicked"), [3, 0, 0]);
            job.slot.fill(skeleton(
                ResponseStatus::Rejected,
                Some(format!("search panicked: {message}")),
            ));
            return;
        }
    };
    let service_s = start.elapsed().as_secs_f64();
    shared.service_hist.record(service_s);
    // Reconcile the reservation to the real spend.
    let actual = outcome.total_lookups() as u64;
    if actual >= job.reserved {
        shared.budget.charge(actual - job.reserved);
    } else {
        shared.budget.refund(job.reserved - actual);
    }

    let cancelled = job.stop.claimant().is_some_and(|rank| rank < RUN_RANK);
    let (status, error) = if cancelled {
        shared.stopped.fetch_add(1, Ordering::Relaxed);
        (ResponseStatus::Stopped, None)
    } else if job.stop.expired() {
        shared.stopped.fetch_add(1, Ordering::Relaxed);
        shared.deadline_stops.fetch_add(1, Ordering::Relaxed);
        let deadline_s = job.request.deadline.map_or(0.0, |d| d.as_secs_f64());
        (
            ResponseStatus::Stopped,
            Some(format!(
                "deadline of {deadline_s:.3}s passed mid-run; best-so-far returned"
            )),
        )
    } else {
        shared.completed.fetch_add(1, Ordering::Relaxed);
        (ResponseStatus::Completed, None)
    };
    let status_code = match status {
        ResponseStatus::Completed => 0u64,
        ResponseStatus::Stopped => 1,
        ResponseStatus::Skipped => 2,
        ResponseStatus::Rejected => 3,
    };
    probe.emit(
        EventKind::RunEnd,
        None,
        [
            status_code,
            outcome.evaluations as u64,
            outcome.cache_hits as u64,
        ],
    );
    // Feed served traffic back to the online trainer. Sampling-gated so a
    // disabled subsystem costs the hot path exactly one branch; a full
    // stream drops (and counts) rather than blocks.
    if status == ResponseStatus::Completed {
        if let Some(online) = &shared.online {
            let n = online.sample_counter.fetch_add(1, Ordering::Relaxed);
            if n % online.sample_every == 0 {
                online.stream.push(Experience {
                    module: job.request.module.clone(),
                    module_fingerprint: module_fingerprint(&job.request.module),
                    searcher: job.request.spec.name(),
                    seed: job.request.seed,
                    actions: outcome.best_actions.clone(),
                    speedup: outcome.speedup,
                    policy_version: job.policy.version,
                });
                probe.emit(
                    EventKind::ExperienceEnqueued,
                    None,
                    [
                        job.policy.version,
                        online.stream.accepted(),
                        online.stream.dropped(),
                    ],
                );
            }
        }
    }
    let mut response = skeleton(status, error);
    response.evaluations = outcome.evaluations;
    response.cache_hits = outcome.cache_hits;
    response.service_s = service_s;
    response.outcome = Some(outcome);
    job.slot.fill(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_agent::PolicyHyperparams;
    use mlir_rl_ir::ModuleBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn policy() -> PolicyNetwork {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        PolicyNetwork::new(
            EnvConfig::small(),
            PolicyHyperparams {
                hidden_size: 16,
                backbone_layers: 1,
            },
            &mut rng,
        )
    }

    fn module(size: u64) -> Module {
        let mut b = ModuleBuilder::new(format!("mm{size}"));
        let a = b.argument("A", vec![size, size]);
        let w = b.argument("B", vec![size, size]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        b.finish()
    }

    #[test]
    fn greedy_request_round_trips() {
        let service = OptimizationService::new(ServiceConfig::quick(), policy());
        let response = service
            .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy).with_seed(7))
            .wait();
        assert_eq!(response.status, ResponseStatus::Completed);
        let outcome = response.outcome.as_ref().expect("completed");
        assert!(outcome.speedup > 0.0);
        assert_eq!(response.evaluations, outcome.evaluations);
        assert!(response.queue_s >= 0.0 && response.service_s > 0.0);
        assert!(response.error.is_none());
        let stats = service.metrics();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.queue_depth, 0);
        // Reconciliation nets the budget back to the real spend.
        assert_eq!(stats.budget_spent, response.total_lookups() as u64);
    }

    #[test]
    fn malformed_spec_and_env_are_rejected_not_fatal() {
        let service = OptimizationService::new(ServiceConfig::quick(), policy());
        let bad_spec = service
            .submit(OptimizationRequest::new(module(64), SearchSpec::beam(0)))
            .wait();
        assert_eq!(bad_spec.status, ResponseStatus::Rejected);
        assert!(bad_spec.error.as_ref().unwrap().contains("beam width"));
        assert!(bad_spec.outcome.is_none());

        let mut bad_env = EnvConfig::small();
        bad_env.tile_candidates = vec![4, 8];
        let rejected = service
            .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy).with_env(bad_env))
            .wait();
        assert_eq!(rejected.status, ResponseStatus::Rejected);
        assert!(rejected.error.as_ref().unwrap().contains("no tiling"));

        // The service survived both and still serves good requests.
        let ok = service
            .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy))
            .wait();
        assert_eq!(ok.status, ResponseStatus::Completed);
        assert_eq!(service.metrics().rejected, 2);
        // Both rejections refunded their reservations in full.
        assert_eq!(
            service.metrics().budget_spent,
            ok.total_lookups() as u64,
            "rejected requests must not leak budget reservations"
        );
    }

    #[test]
    fn cancelled_while_paused_is_skipped() {
        let service = OptimizationService::new(ServiceConfig::quick().paused(), policy());
        let keep = service.submit(OptimizationRequest::new(module(64), SearchSpec::Greedy));
        let cancel = service.submit(OptimizationRequest::new(module(96), SearchSpec::Greedy));
        cancel.cancel();
        assert!(keep.try_response().is_none(), "paused service must not run");
        service.resume();
        let kept = keep.wait();
        let cancelled = cancel.wait();
        assert_eq!(kept.status, ResponseStatus::Completed);
        assert_eq!(cancelled.status, ResponseStatus::Skipped);
        assert!(cancelled
            .error
            .as_ref()
            .unwrap()
            .contains("cancelled while queued"));
        assert_eq!(cancelled.total_lookups(), 0);
    }

    #[test]
    fn exhausted_budget_skips_in_submission_order() {
        // Cap the budget at exactly the first request's reservation
        // estimate: request 1 is admitted at submit (spend 0 < cap) and
        // charges the whole cap; requests 2 and 3 are refused *at submit*,
        // before any worker runs — the skip set is a pure function of the
        // submission sequence, not of load or worker count.
        let est = SearchSpec::Greedy.cost_estimate(&EnvConfig::small(), &module(64));
        let service = OptimizationService::new(
            ServiceConfig::quick().with_eval_budget(est).paused(),
            policy(),
        );
        let pending = service.submit_batch(vec![
            OptimizationRequest::new(module(64), SearchSpec::Greedy).with_seed(3),
            OptimizationRequest::new(module(96), SearchSpec::Greedy).with_seed(4),
            OptimizationRequest::new(module(128), SearchSpec::Greedy).with_seed(5),
        ]);
        // Budget decisions are already made: later requests answered
        // immediately, while the service is still paused.
        for late in &pending[1..] {
            let response = late.try_response().expect("skipped at submit");
            assert_eq!(response.status, ResponseStatus::Skipped);
            assert!(response
                .error
                .as_ref()
                .unwrap()
                .contains("budget exhausted"));
            assert_eq!(response.total_lookups(), 0);
        }
        service.resume();
        let first = pending[0].wait();
        assert_eq!(first.status, ResponseStatus::Completed);
        // Reconciliation nets the ledger to the real spend, which the
        // estimate upper-bounds.
        assert!(service.budget().spent() <= est);
        assert_eq!(service.budget().spent(), first.total_lookups() as u64);
        assert_eq!(service.metrics().budget_skips, 2);
    }

    #[test]
    fn bounded_queue_rejects_overflow_immediately() {
        // Paused 1-worker service, capacity 2: the third submit is
        // answered Rejected synchronously — the submitter is never
        // blocked and the queue never grows past its bound.
        let service = OptimizationService::new(
            ServiceConfig::quick().with_queue_capacity(2).paused(),
            policy(),
        );
        let a = service.submit(OptimizationRequest::new(module(64), SearchSpec::Greedy));
        let b = service.submit(OptimizationRequest::new(module(96), SearchSpec::Greedy));
        let c = service.submit(OptimizationRequest::new(module(128), SearchSpec::Greedy));
        let rejected = c.try_response().expect("rejected synchronously");
        assert_eq!(rejected.status, ResponseStatus::Rejected);
        let reason = rejected.error.as_deref().unwrap();
        assert!(reason.starts_with(BACKPRESSURE_PREFIX), "got {reason:?}");
        assert!(reason.contains("queue full (capacity 2)"));
        // Backpressure text is excluded from the fingerprint, so two
        // overflows of different instantaneous depth still match.
        let mut other = rejected.clone();
        other.error = Some(format!("{BACKPRESSURE_PREFIX}queue full (capacity 7)"));
        assert_eq!(rejected.fingerprint(), other.fingerprint());
        let metrics = service.metrics();
        assert_eq!(metrics.overflow_rejects, 1);
        assert_eq!(metrics.queue_depth, 2);
        assert_eq!(metrics.queue_high_water, 2);
        service.resume();
        assert_eq!(a.wait().status, ResponseStatus::Completed);
        assert_eq!(b.wait().status, ResponseStatus::Completed);
        // The overflow reject never occupied queue memory.
        assert_eq!(service.metrics().queue_high_water, 2);
    }

    #[test]
    fn expired_deadline_is_shed_at_dequeue() {
        let service = OptimizationService::new(ServiceConfig::quick().paused(), policy());
        let doomed = service.submit(
            OptimizationRequest::new(module(64), SearchSpec::Greedy).with_deadline(Duration::ZERO),
        );
        let fine = service.submit(OptimizationRequest::new(module(96), SearchSpec::Greedy));
        service.resume();
        let shed = doomed.wait();
        assert_eq!(shed.status, ResponseStatus::Skipped);
        assert!(shed.error.as_ref().unwrap().contains("shed at dequeue"));
        assert_eq!(shed.total_lookups(), 0);
        assert_eq!(fine.wait().status, ResponseStatus::Completed);
        let metrics = service.metrics();
        assert_eq!(metrics.deadline_sheds, 1);
        // The shed request's reservation was refunded in full.
        assert_eq!(service.budget().spent(), fine.wait().total_lookups() as u64);
    }

    #[test]
    fn weighted_lanes_serve_every_client() {
        // Two named clients with different weights plus the anonymous
        // lane, a quota of 1 in flight, 2 workers: everything completes
        // and outcomes stay seed-deterministic.
        let service = OptimizationService::new(
            ServiceConfig::quick()
                .with_workers(2)
                .with_client_quota(1)
                .with_client_weight("heavy", 3)
                .paused(),
            policy(),
        );
        let mut pending = Vec::new();
        for i in 0..3u64 {
            pending.push(
                service.submit(
                    OptimizationRequest::new(module(64), SearchSpec::Greedy)
                        .with_seed(i)
                        .with_client("heavy"),
                ),
            );
            pending.push(
                service.submit(
                    OptimizationRequest::new(module(96), SearchSpec::Greedy)
                        .with_seed(i)
                        .with_client("light"),
                ),
            );
            pending
                .push(service.submit(
                    OptimizationRequest::new(module(128), SearchSpec::Greedy).with_seed(i),
                ));
        }
        service.resume();
        let responses = wait_all(&pending);
        for response in &responses {
            assert_eq!(response.status, ResponseStatus::Completed);
        }
        let metrics = service.metrics();
        assert_eq!(metrics.clients, 3);
        assert_eq!(metrics.completed, 9);
        // Identical requests answered identically regardless of lanes.
        assert_eq!(responses[0].fingerprint(), {
            let solo = OptimizationService::new(ServiceConfig::quick(), policy());
            solo.submit(OptimizationRequest::new(module(64), SearchSpec::Greedy).with_seed(0))
                .wait()
                .fingerprint()
        });
    }

    /// The dispatcher alone — no workers, no clock: three lanes (weights
    /// 3 / 1 / 1), an in-flight quota of 2, mixed priorities, and the exact
    /// `(lane, job id)` sequence they pop in.
    #[test]
    fn dispatch_order_is_pinned() {
        let weights = vec![("a".to_string(), 3)];
        let snapshot = PolicyRegistry::new(policy()).checkout();
        let mut state = ServiceState {
            lanes: Vec::new(),
            index: HashMap::new(),
            cursor: 0,
            depth: 0,
            paused: false,
            shutdown: false,
        };
        let push = |state: &mut ServiceState, client: &str, id: u64, priority: i32| {
            let lane = state.lane_for(client, &weights);
            state.lanes[lane].heap.push(QueuedJob {
                id,
                submitted: Instant::now(),
                reserved: 0,
                policy: Arc::clone(&snapshot),
                request: OptimizationRequest::new(module(8), SearchSpec::Greedy)
                    .with_priority(priority)
                    .with_client(client),
                stop: StopToken::new(),
                slot: ResponseSlot::new(),
            });
            state.depth += 1;
        };
        let pop = |state: &mut ServiceState| match state.pop_next(Some(2)) {
            Popped::Job(job, lane) => Ok((lane, job.id)),
            Popped::Blocked => Err("blocked"),
            Popped::Idle => Err("idle"),
        };
        let done = |state: &mut ServiceState, lane: usize| state.lanes[lane].in_flight -= 1;
        let (a, b, c) = (0, 1, 2);

        for (client, id, priority) in [
            ("a", 0, 0),
            ("b", 1, 0),
            ("a", 2, 5),
            ("c", 3, 0),
            ("a", 4, 0),
            ("b", 5, 9),
            ("a", 6, 0),
            ("c", 7, 0),
        ] {
            push(&mut state, client, id, priority);
        }
        // One replenish (3 / 1 / 1) serves a round; `a` keeps two credits
        // and spends one more before its quota closes it; priorities lead
        // inside a lane, submission order breaks their ties.
        assert_eq!(pop(&mut state), Ok((a, 2)));
        assert_eq!(pop(&mut state), Ok((b, 5)));
        assert_eq!(pop(&mut state), Ok((c, 3)));
        assert_eq!(pop(&mut state), Ok((a, 0)));
        assert_eq!(pop(&mut state), Ok((b, 1)));
        assert_eq!(pop(&mut state), Ok((c, 7)));
        // `a` still queues 4 and 6 but has two in flight; `b` and `c` are
        // drained: work is queued and nobody may take it.
        assert_eq!(pop(&mut state), Err("blocked"));
        done(&mut state, a);
        assert_eq!(pop(&mut state), Ok((a, 4)));
        assert_eq!(pop(&mut state), Err("blocked"));
        done(&mut state, a);
        // A fresh replenish: `a` pops its last job with two credits left.
        assert_eq!(pop(&mut state), Ok((a, 6)));
        assert_eq!(pop(&mut state), Err("idle"));

        // The scan that serves `b` passes the drained `a`, which forfeits
        // those two credits ...
        done(&mut state, b);
        push(&mut state, "b", 8, 0);
        assert_eq!(pop(&mut state), Ok((b, 8)));
        // ... so when `a` and `c` both have work again, `a` has nothing
        // banked to jump the cursor with: `c` goes first.
        done(&mut state, a);
        done(&mut state, c);
        push(&mut state, "a", 9, 0);
        push(&mut state, "c", 10, 0);
        assert_eq!(pop(&mut state), Ok((c, 10)));
        assert_eq!(pop(&mut state), Ok((a, 9)));
        assert_eq!(pop(&mut state), Err("idle"));
        assert_eq!(state.depth, 0);
    }

    #[test]
    fn priorities_order_the_queue_without_changing_outcomes() {
        // A paused 1-worker service: the high-priority latecomer runs
        // first. Outcomes are seed-deterministic either way.
        let service = OptimizationService::new(ServiceConfig::quick().paused(), policy());
        let low = service.submit(
            OptimizationRequest::new(module(64), SearchSpec::Greedy)
                .with_seed(9)
                .with_priority(-1),
        );
        let high = service.submit(
            OptimizationRequest::new(module(96), SearchSpec::Greedy)
                .with_seed(9)
                .with_priority(5),
        );
        service.resume();
        let (low, high) = (low.wait(), high.wait());
        assert_eq!(low.status, ResponseStatus::Completed);
        assert_eq!(high.status, ResponseStatus::Completed);

        // Same requests, opposite submission order: identical fingerprints.
        let service2 = OptimizationService::new(ServiceConfig::quick().paused(), policy());
        let high2 = service2.submit(
            OptimizationRequest::new(module(96), SearchSpec::Greedy)
                .with_seed(9)
                .with_priority(5),
        );
        let low2 = service2.submit(
            OptimizationRequest::new(module(64), SearchSpec::Greedy)
                .with_seed(9)
                .with_priority(-1),
        );
        service2.resume();
        assert_eq!(low.fingerprint(), low2.wait().fingerprint());
        assert_eq!(high.fingerprint(), high2.wait().fingerprint());
    }

    #[test]
    fn env_override_shares_the_persistent_cache() {
        let service = OptimizationService::new(ServiceConfig::quick(), policy());
        // A shape-preserving override: a noise stream (searchers reseed it
        // deterministically from the request seed).
        let mut override_env = EnvConfig::small();
        override_env.noise_seed = Some(5);
        let first = service
            .submit(
                OptimizationRequest::new(module(64), SearchSpec::Greedy)
                    .with_seed(2)
                    .with_env(override_env.clone()),
            )
            .wait();
        assert_eq!(first.status, ResponseStatus::Completed);
        // The same override request again: the persistent table answers
        // (almost) everything.
        let again = service
            .submit(
                OptimizationRequest::new(module(64), SearchSpec::Greedy)
                    .with_seed(2)
                    .with_env(override_env),
            )
            .wait();
        assert!(again.cache_hits > 0, "second run must hit the shared table");
        assert_eq!(first.fingerprint(), again.fingerprint());
    }

    #[test]
    fn shape_changing_override_is_rejected_not_fatal() {
        // A schedule-length change resizes the feature vector the policy
        // was built for: admission must reject it (previously this
        // panicked a worker and hung the client).
        let service = OptimizationService::new(ServiceConfig::quick(), policy());
        let mut reshaped = EnvConfig::small();
        reshaped.max_schedule_len = 3;
        let response = service
            .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy).with_env(reshaped))
            .wait();
        assert_eq!(response.status, ResponseStatus::Rejected);
        assert!(response.error.as_ref().unwrap().contains("shape"));
        // The worker is alive and keeps serving.
        let ok = service
            .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy))
            .wait();
        assert_eq!(ok.status, ResponseStatus::Completed);
    }

    #[test]
    fn wait_timeout_returns_none_then_the_response() {
        let service = OptimizationService::new(ServiceConfig::quick().paused(), policy());
        let pending = service.submit(OptimizationRequest::new(module(64), SearchSpec::Greedy));
        assert!(
            pending.wait_timeout(Duration::from_millis(20)).is_none(),
            "paused service must time the wait out"
        );
        service.resume();
        let response = pending
            .wait_timeout(Duration::from_secs(30))
            .expect("resumed service answers well before the timeout");
        assert_eq!(response.status, ResponseStatus::Completed);
        // Once filled, every further wait_timeout returns instantly.
        assert_eq!(
            pending.wait_timeout(Duration::ZERO).map(|r| r.id),
            Some(response.id)
        );
    }

    #[test]
    fn metrics_surface_reports_latency_and_admission() {
        let service = OptimizationService::new(ServiceConfig::quick(), policy());
        for seed in 0..3 {
            let response = service
                .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy).with_seed(seed))
                .wait();
            assert_eq!(response.status, ResponseStatus::Completed);
        }
        let metrics = service.metrics();
        assert_eq!(metrics.submitted, 3);
        assert_eq!(metrics.admitted, 3);
        assert_eq!(metrics.completed, 3);
        assert_eq!(metrics.queue_depth, 0);
        assert!(metrics.queue_high_water >= 1);
        assert!(metrics.queue_p50_s > 0.0 && metrics.queue_p99_s >= metrics.queue_p50_s);
        assert!(metrics.service_p50_s > 0.0 && metrics.service_p99_s >= metrics.service_p50_s);
        assert!(metrics.service_mean_s > 0.0);
        assert!(metrics.cache_hit_rate() > 0.0, "repeat modules must hit");
    }

    #[test]
    fn zero_knobs_fail_validation_instead_of_wedging() {
        assert!(ServiceConfig::quick()
            .with_queue_capacity(0)
            .try_validate()
            .is_err());
        assert!(ServiceConfig::quick()
            .with_client_quota(0)
            .try_validate()
            .is_err());
        assert!(ServiceConfig::quick()
            .with_client_weight("a", 0)
            .try_validate()
            .is_err());
        assert!(OptimizationService::try_new(
            ServiceConfig::quick().with_queue_capacity(0),
            policy()
        )
        .is_err());
    }

    #[test]
    fn drop_drains_the_queue() {
        let mut service = OptimizationService::new(ServiceConfig::quick().paused(), policy());
        let pending = service.submit_batch(vec![
            OptimizationRequest::new(module(64), SearchSpec::Greedy),
            OptimizationRequest::new(module(96), SearchSpec::beam(2)),
        ]);
        // Shut down while paused: every queued request is still answered.
        service.shutdown();
        for p in &pending {
            assert!(p.try_response().is_some(), "shutdown must drain the queue");
        }
    }

    #[test]
    fn submit_after_shutdown_is_backpressure_rejected() {
        let mut service = OptimizationService::new(ServiceConfig::quick(), policy());
        service.shutdown();
        let late = service
            .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy))
            .wait();
        assert_eq!(late.status, ResponseStatus::Rejected);
        assert!(late
            .error
            .as_deref()
            .unwrap()
            .starts_with(BACKPRESSURE_PREFIX));
    }

    #[test]
    fn cache_config_knobs_validate() {
        assert!(ServiceConfig::quick()
            .with_cache_capacity(0)
            .try_validate()
            .is_err());
        assert!(ServiceConfig::quick()
            .with_cache_snapshot("")
            .try_validate()
            .is_err());
        assert!(ServiceConfig::quick()
            .with_cache_capacity(8)
            .with_cache_snapshot("/tmp/cache.snap")
            .try_validate()
            .is_ok());
    }

    /// Serves the same small request stream and returns its fingerprints.
    fn serve_stream(service: &OptimizationService) -> Vec<u64> {
        let pending = service.submit_batch(
            [48u64, 64, 80, 96, 48, 64]
                .iter()
                .enumerate()
                .map(|(i, size)| {
                    OptimizationRequest::new(module(*size), SearchSpec::Greedy).with_seed(i as u64)
                })
                .collect(),
        );
        pending
            .into_iter()
            .map(|p| {
                let response = p.wait();
                assert_eq!(response.status, ResponseStatus::Completed);
                response.fingerprint()
            })
            .collect()
    }

    #[test]
    fn tiny_cache_evicts_entry_wise_at_identical_responses() {
        let roomy = OptimizationService::new(ServiceConfig::quick(), policy());
        let want = serve_stream(&roomy);
        assert_eq!(roomy.metrics().cache_evictions, 0);

        let tiny =
            OptimizationService::new(ServiceConfig::quick().with_cache_capacity(4), policy());
        let got = serve_stream(&tiny);
        assert_eq!(got, want, "eviction must never change responses");
        let metrics = tiny.metrics();
        assert_eq!(metrics.cache_capacity, 4);
        assert!(metrics.cache_len <= 4, "the bound is global and exact");
        assert!(metrics.cache_evictions > 0, "churn must show in metrics");
        assert_eq!(
            metrics.cache_insertions - metrics.cache_evictions,
            metrics.cache_len
        );
        // Accounting contract: every lookup is exactly one hit or miss.
        assert_eq!(
            metrics.cache_hits + metrics.cache_misses,
            roomy.metrics().cache_hits + roomy.metrics().cache_misses,
            "eviction changes the hit/miss split, never the lookup count"
        );
    }

    #[test]
    fn snapshot_restart_restores_warmth_bit_identically() {
        let path = std::env::temp_dir().join(format!(
            "mlir-rl-service-restart-{}.snap",
            std::process::id()
        ));
        let snapshot = path.to_string_lossy().into_owned();
        std::fs::remove_file(&path).ok();

        // First process: cold start (the snapshot file does not exist yet),
        // serve, persist at shutdown.
        let mut first = OptimizationService::new(
            ServiceConfig::quick().with_cache_snapshot(&snapshot),
            policy(),
        );
        assert_eq!(first.metrics().cache_restored, 0, "nothing to restore yet");
        let want = serve_stream(&first);
        let cold = first.metrics();
        assert!(cold.cache_misses > 0, "a cold start runs the estimator");
        first.shutdown();
        assert!(path.exists(), "shutdown must write the snapshot");

        // Second process: restores the previous warmth before serving and
        // beats the cold hit-rate at bit-identical responses.
        let restarted = OptimizationService::new(
            ServiceConfig::quick().with_cache_snapshot(&snapshot),
            policy(),
        );
        let metrics = restarted.metrics();
        assert!(metrics.cache_restored > 0, "warm restart restores entries");
        assert_eq!(metrics.cache_len, metrics.cache_restored);
        let got = serve_stream(&restarted);
        assert_eq!(got, want, "restart must not change responses");
        let warm = restarted.metrics();
        assert!(
            warm.cache_hit_rate() > cold.cache_hit_rate(),
            "restored warmth must beat the cold start: {} vs {}",
            warm.cache_hit_rate(),
            cold.cache_hit_rate()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_snapshot_file_cold_starts() {
        let path = std::env::temp_dir().join(format!(
            "mlir-rl-service-corrupt-{}.snap",
            std::process::id()
        ));
        std::fs::write(&path, b"definitely not a cache snapshot").unwrap();
        let service = OptimizationService::new(
            ServiceConfig::quick().with_cache_snapshot(path.to_string_lossy().into_owned()),
            policy(),
        );
        assert_eq!(
            service.metrics().cache_restored,
            0,
            "a corrupt snapshot must cold-start, not fail"
        );
        let response = service
            .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy))
            .wait();
        assert_eq!(response.status, ResponseStatus::Completed);
        std::fs::remove_file(&path).ok();
    }
}

//! What crosses the service boundary: the request, the response and its
//! status, and the handle a submitter waits on.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mlir_rl_env::EnvConfig;
use mlir_rl_ir::{Fnv1a, Module};
use mlir_rl_search::{SearchOutcome, SearchSpec, StopToken};

#[cfg(doc)]
use super::*;

/// Every backpressure rejection reason starts with this prefix, and
/// [`OptimizationResponse::fingerprint`] excludes such reasons from the
/// hash: whether a queue overflows is a property of instantaneous load,
/// not of the request, so backpressure text must not break fingerprint
/// comparisons across runs.
pub const BACKPRESSURE_PREFIX: &str = "backpressure: ";

/// One optimization request: a module plus everything needed to search its
/// schedule space deterministically.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq)]
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
    pub(super) id: u64,
    pub(super) stop: StopToken,
    pub(super) slot: Arc<ResponseSlot>,
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
        self.stop.cancel();
    }
}

/// Waits for every pending response, in handle order.
pub fn wait_all(pending: &[PendingResponse]) -> Vec<OptimizationResponse> {
    pending.iter().map(PendingResponse::wait).collect()
}

#[derive(Debug)]
pub(super) struct ResponseSlot {
    ready: Mutex<Option<OptimizationResponse>>,
    cond: Condvar,
}

impl ResponseSlot {
    pub(super) fn new() -> Arc<Self> {
        Arc::new(Self {
            ready: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    pub(super) fn fill(&self, response: OptimizationResponse) {
        let mut ready = self.ready.lock().expect("response slot poisoned");
        *ready = Some(response);
        self.cond.notify_all();
    }
}

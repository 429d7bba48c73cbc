//! Static configuration of the service, and its validation.

use serde::{Deserialize, Serialize};

use mlir_rl_agent::OnlineTrainingConfig;
use mlir_rl_costmodel::MachineModel;
use mlir_rl_env::EnvConfig;

#[cfg(doc)]
use super::*;

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
    /// rings (one per worker plus one for the submit side) and
    /// exposes them via [`OptimizationService::trace_snapshot`]. Tracing is
    /// purely observational: responses stay bit-identical
    /// ([`OptimizationResponse::fingerprint`] never covers trace data).
    pub trace_capacity: Option<usize>,
    /// Capacity of the service's persistent shared evaluation cache, or
    /// `None` (the default) to keep the template environment's capacity.
    /// When set, the service always starts its *own* table of this
    /// capacity (even when the template environment already shares one).
    /// The bound is global and exact; a full cache evicts entry-wise by
    /// second chance (see `SharedEvalCache`). Must be at least 1 when set.
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
    /// experience stream, a background trainer drains the stream into PPO
    /// updates against a private policy clone, and
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

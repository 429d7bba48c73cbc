//! [`Probed`]: a benchmark-side [`PolicyModel`] wrapper that counts — and,
//! in a traced run, records a span around — every inference call a
//! searcher, the rollout engine or the PPO trainer makes.
//!
//! The program exposes no per-call hook on the policy, so the benchmark
//! observes the `agent` layer from outside by being the policy the caller
//! holds. Every method delegates to the wrapped model, so results are
//! bit-identical to running the model directly.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mlir_rl_agent::{ActionRecord, GroupResult, InferenceGroup, PolicyModel};
use mlir_rl_env::{Observation, ObservationBatch};
use mlir_rl_nn::Param;
use rand_chacha::ChaCha8Rng;

use crate::spans::SpanLog;

const NO_PARENT: u32 = u32::MAX;

/// Span name of a `select_action` call.
const SPAN_SELECT: &str = "agent.select_action";
/// Span name of a `rank_actions` / `rank_actions_batch` / `infer_groups`
/// call.
const SPAN_RANK: &str = "agent.rank_batch";

/// Counters (and the optional span sink) shared by every clone of one
/// [`Probed`] policy — the rollout engine and racing portfolios clone the
/// policy per thread, and their calls must land in one place.
#[derive(Debug, Default)]
pub struct PolicyProbe {
    /// `select_action` calls. The rollout engine takes exactly one per
    /// environment step, which is how `train-ppo` counts its steps.
    pub select_calls: AtomicU64,
    /// Ranking calls (`rank_actions`, `rank_actions_batch`, `infer_groups`).
    pub rank_calls: AtomicU64,
    trace: Option<ProbeTrace>,
}

#[derive(Debug)]
struct ProbeTrace {
    log: Arc<SpanLog>,
    parent: AtomicU32,
    job: AtomicU64,
}

impl PolicyProbe {
    /// A probe that only counts (used by untraced runs: one relaxed atomic
    /// add per call).
    pub fn counting() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A probe that also records a span per call into `log`.
    pub fn tracing(log: Arc<SpanLog>) -> Arc<Self> {
        Arc::new(Self {
            trace: Some(ProbeTrace {
                log,
                parent: AtomicU32::new(NO_PARENT),
                job: AtomicU64::new(0),
            }),
            ..Self::default()
        })
    }

    /// Names the span and job the following calls belong to.
    pub fn set_context(&self, parent: Option<u32>, job: u64) {
        if let Some(trace) = &self.trace {
            // Relaxed: the context is set by the thread that then calls
            // the policy; clones on other threads only need *a* recent
            // value, and the span log itself is behind a mutex.
            trace
                .parent
                .store(parent.unwrap_or(NO_PARENT), Ordering::Relaxed);
            trace.job.store(job, Ordering::Relaxed);
        }
    }

    pub fn policy_calls(&self) -> u64 {
        self.select_calls.load(Ordering::Relaxed) + self.rank_calls.load(Ordering::Relaxed)
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> T {
        match &self.trace {
            None => call(),
            Some(trace) => {
                let start = Instant::now();
                let out = call();
                let end = Instant::now();
                let parent = trace.parent.load(Ordering::Relaxed);
                trace.log.record(
                    (parent != NO_PARENT).then_some(parent),
                    trace.job.load(Ordering::Relaxed),
                    name,
                    start,
                    end,
                );
                out
            }
        }
    }

    fn select<T>(&self, call: impl FnOnce() -> T) -> T {
        self.select_calls.fetch_add(1, Ordering::Relaxed);
        self.timed(SPAN_SELECT, call)
    }

    fn rank<T>(&self, call: impl FnOnce() -> T) -> T {
        self.rank_calls.fetch_add(1, Ordering::Relaxed);
        self.timed(SPAN_RANK, call)
    }
}

/// A policy that reports every inference call to a shared [`PolicyProbe`]
/// and otherwise *is* the wrapped policy.
#[derive(Debug, Clone)]
pub struct Probed<P> {
    pub inner: P,
    pub probe: Arc<PolicyProbe>,
}

impl<P> Probed<P> {
    pub fn new(inner: P, probe: Arc<PolicyProbe>) -> Self {
        Self { inner, probe }
    }
}

impl<P: PolicyModel> PolicyModel for Probed<P> {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        let inner = &mut self.inner;
        self.probe.select(|| inner.select_action(obs, greedy, rng))
    }

    fn evaluate(&mut self, obs: &Observation, record: &ActionRecord) -> (f64, f64) {
        self.inner.evaluate(obs, record)
    }

    fn backward(
        &mut self,
        obs: &Observation,
        record: &ActionRecord,
        coeff_logprob: f64,
        coeff_entropy: f64,
    ) {
        self.inner
            .backward(obs, record, coeff_logprob, coeff_entropy);
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.inner.parameters_mut()
    }

    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        self.inner.evaluate_batch(batch, items)
    }

    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        self.inner.backward_batch(items, coeffs);
    }

    fn rank_actions(
        &mut self,
        obs: &Observation,
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<ActionRecord> {
        let inner = &mut self.inner;
        self.probe.rank(|| inner.rank_actions(obs, k, rng))
    }

    fn rank_actions_batch(
        &mut self,
        observations: &[&Observation],
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<ActionRecord>> {
        let inner = &mut self.inner;
        self.probe
            .rank(|| inner.rank_actions_batch(observations, k, rng))
    }

    fn infer_groups(&mut self, groups: &mut [InferenceGroup]) -> Vec<GroupResult> {
        let inner = &mut self.inner;
        self.probe.rank(|| inner.infer_groups(groups))
    }
}

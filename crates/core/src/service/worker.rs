//! The worker side of the service: the dispatch loop, dequeue admission
//! and the run itself. Both only *decide* how a request ends;
//! [`finish`] acts on it.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use mlir_rl_agent::{PolicyNetwork, PolicySnapshot};
use mlir_rl_env::{EnvConfig, OptimizationEnv};
use mlir_rl_obs::{EventKind, ProbeRef};
use mlir_rl_search::StopToken;

use super::ending::{finish, Ending, Run};
use super::queue::{Popped, Routed};
use super::request::{OptimizationRequest, ResponseSlot};
use super::ServiceShared;

/// A submitted request plus everything that travels with it through the
/// queue to its ending.
pub(super) struct Job {
    pub(super) id: u64,
    pub(super) submitted: Instant,
    /// Eval-budget reservation charged at submit (0 until the ledger
    /// admitted it), settled by [`finish`].
    pub(super) reserved: u64,
    /// The policy snapshot checked out at submit: the request runs on this
    /// version no matter how many hot swaps happen while it is queued.
    pub(super) policy: Arc<PolicySnapshot>,
    pub(super) request: OptimizationRequest,
    pub(super) stop: StopToken,
    pub(super) slot: Arc<ResponseSlot>,
}

impl Routed for Job {
    fn client(&self) -> &str {
        self.request.client.as_deref().unwrap_or("")
    }

    fn priority(&self) -> i32 {
        self.request.priority
    }

    fn id(&self) -> u64 {
        self.id
    }
}

pub(super) fn worker_loop(
    shared: Arc<ServiceShared>,
    mut env: OptimizationEnv,
    mut policy: PolicyNetwork,
    worker: usize,
) {
    // Worker `w` owns ring `1 + w` exclusively, so its writes never
    // contend with other workers or the submit side.
    let probe = shared.probe(worker + 1);
    // The worker caches one policy clone and the version it came from;
    // `execute` re-clones from the job's pinned snapshot only when the
    // version changed since the last run (swaps are rare, clones are not
    // free).
    let mut policy_version = 0u64;
    loop {
        let (job, lane) = {
            let mut queue = shared.queue.lock().expect("service queue poisoned");
            loop {
                match queue.pop() {
                    Popped::Job(job, lane) => break (job, lane),
                    // A completion (Blocked: every lane with work is at
                    // quota), a submit or a resume will notify the condvar.
                    Popped::Blocked => {
                        let deferrals = &shared.counters.quota_deferrals;
                        deferrals.fetch_add(1, Ordering::Relaxed);
                    }
                    Popped::Idle => {}
                    Popped::Closed => return,
                }
                queue = shared.work.wait(queue).expect("service queue poisoned");
            }
        };
        execute(
            &shared,
            &mut env,
            &mut policy,
            &mut policy_version,
            job,
            &probe,
        );
        let mut queue = shared.queue.lock().expect("service queue poisoned");
        queue.complete(lane);
        drop(queue);
        // Wake quota-blocked dispatchers (and the shutdown drain).
        shared.work.notify_all();
    }
}

/// Serves one dequeued request: dequeue admission, then the run; either
/// way it ends in [`finish`].
fn execute(
    shared: &ServiceShared,
    env: &mut OptimizationEnv,
    policy: &mut PolicyNetwork,
    policy_version: &mut u64,
    job: Job,
    worker_probe: &ProbeRef,
) {
    // Serve on the snapshot the request was admitted with — never on
    // whatever the registry publishes later.
    if job.policy.version != *policy_version {
        *policy = job.policy.policy.clone();
        *policy_version = job.policy.version;
    }
    let queue_s = job.submitted.elapsed().as_secs_f64();
    shared.counters.queue_hist.record(queue_s);
    let probe = worker_probe.with_trace(job.id + 1);
    probe.emit(EventKind::Dispatched, None, [(queue_s * 1e6) as u64, 0, 0]);
    let ending = match dequeue_refusal(&job, env.config()) {
        Some(refusal) => refusal,
        None => {
            shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
            run(shared, env, policy, &job, &probe)
        }
    };
    finish(shared, &probe, job, queue_s, ending);
}

/// Dequeue admission: why a request that reached a worker must not run, if
/// anything. `base` is the service environment's configuration.
fn dequeue_refusal(job: &Job, base: &EnvConfig) -> Option<Ending> {
    if job.stop.is_cancelled() {
        return Some(Ending::Cancelled);
    }
    if job.stop.expired() {
        return Some(Ending::Shed);
    }
    if let Err(problem) = job.request.spec.try_validate() {
        let problem = format!("invalid search spec: {problem}");
        return Some(Ending::Malformed("invalid_spec", problem));
    }
    let config = job.request.env.as_ref()?;
    if let Err(problem) = config.try_validate() {
        let problem = format!("invalid environment override: {problem}");
        return Some(Ending::Malformed("invalid_env", problem));
    }
    // The service policy's layer and head sizes are fixed by the service
    // environment; an override that changes the observation length or a
    // head (loop count, tile candidates, interchange formulation) cannot run
    // against it. The Fig. 6 flat action space is a policy type, not an
    // environment field, so no override can select it.
    (config.feature_len() != base.feature_len()
        || config.max_loops != base.max_loops
        || config.num_tile_candidates() != base.num_tile_candidates()
        || config.interchange_mode != base.interchange_mode)
        .then(|| {
            let problem = "environment override changes the observation/action shape the \
                           service policy was built for (feature length, max_loops, tile \
                           candidates or interchange_mode; only shape-preserving fields such \
                           as reward_mode and noise_seed may differ)";
            Ending::Malformed("shape_mismatch", problem.to_string())
        })
}

/// Module name that makes [`run`] panic inside its isolation boundary, so
/// the tests can reach [`Ending::Panicked`] through the public API.
#[cfg(test)]
pub(super) const PANIC_MODULE: &str = "test-hook-panic";

/// Runs an admitted request's search and classifies how it ended.
fn run(
    shared: &ServiceShared,
    env: &mut OptimizationEnv,
    policy: &mut PolicyNetwork,
    job: &Job,
    probe: &ProbeRef,
) -> Ending {
    // An override request runs on a fresh environment that joins the
    // service's shared table (the cache is keyed by module/schedule
    // fingerprints, so entries are config-independent).
    let mut override_env;
    let run_env: &mut OptimizationEnv = match &job.request.env {
        Some(config) => {
            override_env = OptimizationEnv::new(config.clone(), env.cost_model().clone());
            override_env.replace_cache(shared.cache.clone());
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
        #[cfg(test)]
        assert!(job.request.module.name() != PANIC_MODULE, "test hook");
        let searcher = job.request.spec.build::<PolicyNetwork>();
        searcher.search_with_stop(
            run_env,
            policy,
            &job.request.module,
            job.request.seed,
            &job.stop,
        )
    }));
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            return Ending::Panicked(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string()),
            )
        }
    };
    let service_s = start.elapsed().as_secs_f64();
    shared.counters.service_hist.record(service_s);
    let run = Run { outcome, service_s };
    if job.stop.is_cancelled() {
        Ending::Stopped(run)
    } else if job.stop.expired() {
        Ending::DeadlineStopped(run)
    } else {
        Ending::Completed(run)
    }
}

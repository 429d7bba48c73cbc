use std::time::Duration;

use super::*;
use mlir_rl_agent::PolicyHyperparams;
use mlir_rl_env::EnvConfig;
use mlir_rl_ir::Module;
use mlir_rl_ir::ModuleBuilder;
use mlir_rl_search::SearchSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub(super) fn policy() -> PolicyNetwork {
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

pub(super) fn module(size: u64) -> Module {
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

    // A repeated tile candidate is refused by validation, before the shape
    // check could see its shorter list.
    let mut repeated = EnvConfig::small();
    repeated.tile_candidates = vec![0, 4, 4];
    let rejected = service
        .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy).with_env(repeated))
        .wait();
    assert_eq!(rejected.status, ResponseStatus::Rejected);
    let error = rejected.error.as_ref().unwrap();
    assert!(error.contains("invalid environment override") && error.contains("listed twice"));

    // The service survived all three and still serves good requests.
    let ok = service
        .submit(OptimizationRequest::new(module(64), SearchSpec::Greedy))
        .wait();
    assert_eq!(ok.status, ResponseStatus::Completed);
    assert_eq!(service.metrics().rejected, 3);
    // Every rejection refunded its reservation in full.
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
        pending.push(
            service.submit(OptimizationRequest::new(module(128), SearchSpec::Greedy).with_seed(i)),
        );
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
    assert!(
        OptimizationService::try_new(ServiceConfig::quick().with_queue_capacity(0), policy())
            .is_err()
    );
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

    let tiny = OptimizationService::new(ServiceConfig::quick().with_cache_capacity(4), policy());
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

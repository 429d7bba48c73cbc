//! The service-API determinism battery: the same request set, submitted in
//! shuffled orders to services with 1/2/4 workers, must produce
//! bitwise-identical responses (the deterministic response fields — status,
//! outcome estimates, action sequences, schedules — not the warmth- and
//! load-dependent accounting counts) with every hardening knob (bounded
//! queue, client quotas and weights, budget reservations) enabled;
//! budget-exhausted and cancelled requests report `Skipped`/`Stopped`
//! consistently with the portfolio `MemberStatus` semantics; and the
//! overload battery proves a saturated service sheds/rejects
//! deterministically and never hangs a client.

use mlir_rl::agent::{PolicyHyperparams, PolicyNetwork};
use mlir_rl::env::EnvConfig;
use mlir_rl::ir::{Module, ModuleBuilder};
use mlir_rl::obs::EventKind;
use mlir_rl::search::SearchSpec;
use mlir_rl::{
    wait_all, MlirRlOptimizer, OptimizationRequest, OptimizationService, OptimizerConfig,
    ResponseStatus, ServiceConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn policy(seed: u64) -> PolicyNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    PolicyNetwork::new(
        EnvConfig::small(),
        PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        },
        &mut rng,
    )
}

fn chain(m: u64, n: u64, k: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("chain_{m}x{n}x{k}"));
    let a = b.argument("A", vec![m, k]);
    let w = b.argument("B", vec![k, n]);
    let mm = b.matmul(a, w);
    b.relu(mm);
    b.finish()
}

/// A mixed request set exercising every spec variant, with fixed seeds.
fn request_set() -> Vec<OptimizationRequest> {
    let modules = [chain(64, 64, 64), chain(128, 64, 32), chain(96, 48, 64)];
    let specs = [
        SearchSpec::Greedy,
        SearchSpec::beam(3),
        SearchSpec::Mcts {
            iterations: 6,
            branch: 2,
            widening: Some((1.0, 0.6)),
        },
        SearchSpec::random(3),
        SearchSpec::round_robin(vec![SearchSpec::Greedy, SearchSpec::beam(2)]),
        SearchSpec::racing(vec![SearchSpec::Greedy, SearchSpec::beam(2)], 0.0),
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            OptimizationRequest::new(modules[i % modules.len()].clone(), spec.clone())
                .with_seed(1000 + i as u64)
                .with_priority((i % 3) as i32)
        })
        .collect()
}

/// The deterministic outcome fields: baseline/best/speedup bits, the action
/// sequence and the node count.
type OutcomeBits = (u64, u64, u64, String, usize);

/// Everything the determinism guarantee covers, extracted from a response.
fn deterministic_fields(
    response: &mlir_rl::OptimizationResponse,
) -> (String, String, ResponseStatus, Option<OutcomeBits>, u64) {
    (
        response.module.clone(),
        response.searcher.clone(),
        response.status,
        response.outcome.as_ref().map(|o| {
            (
                o.baseline_s.to_bits(),
                o.best_s.to_bits(),
                o.speedup.to_bits(),
                format!("{:?}", o.best_actions),
                o.nodes_expanded,
            )
        }),
        response.fingerprint(),
    )
}

#[test]
fn responses_are_identical_across_worker_counts_and_submission_orders() {
    let requests = request_set();
    let n = requests.len();
    // Three submission orders: as-built, reversed, and an interleave.
    let orders: Vec<Vec<usize>> = vec![
        (0..n).collect(),
        (0..n).rev().collect(),
        (0..n).map(|i| (i * 5 + 2) % n).collect(),
    ];
    assert!(orders.iter().all(|o| {
        let mut sorted = o.clone();
        sorted.sort_unstable();
        sorted == (0..n).collect::<Vec<_>>()
    }));

    let mut reference: Option<Vec<_>> = None;
    for workers in [1usize, 2, 4] {
        for (iteration, order) in orders.iter().enumerate() {
            // Every hardening knob enabled at once: a bounded queue (large
            // enough that nothing overflows), per-client quotas and
            // weights, and a budget cap high enough that reservation
            // admission passes — none of them may move a single bit of an
            // admitted response. Alternate iterations also pass the
            // accepted-and-ignored batching knobs.
            let mut config = ServiceConfig::quick()
                .with_workers(workers)
                .with_queue_capacity(64)
                .with_client_quota(2)
                .with_client_weight("alice", 3)
                .with_eval_budget(1_000_000);
            if iteration % 2 == 1 {
                config = config.with_inference_batching(16, 500);
            }
            let service = OptimizationService::new(config, policy(7));
            assert!(service.aggregator_stats().is_none());
            let pending: Vec<_> = order
                .iter()
                .map(|&i| {
                    let client = ["alice", "bob"][i % 2];
                    service.submit(requests[i].clone().with_client(client))
                })
                .collect();
            let mut fields = vec![None; n];
            for (&i, p) in order.iter().zip(&pending) {
                fields[i] = Some(deterministic_fields(&p.wait()));
            }
            let fields: Vec<_> = fields.into_iter().map(Option::unwrap).collect();
            match &reference {
                None => reference = Some(fields),
                Some(reference) => assert_eq!(
                    reference, &fields,
                    "responses diverged at {workers} workers, order {order:?}"
                ),
            }
        }
    }
    // Every request completed (valid specs, no budget, no cancellation).
    for fields in reference.expect("at least one run") {
        assert_eq!(fields.2, ResponseStatus::Completed);
        assert!(fields.3.is_some());
    }
}

#[test]
fn tracing_is_observational_and_traces_every_request() {
    let requests = request_set();
    let n = requests.len();

    // Reference: the same stream on an untraced service.
    let untraced_service =
        OptimizationService::new(ServiceConfig::quick().with_workers(2), policy(7));
    assert!(!untraced_service.tracing_enabled());
    assert!(untraced_service.trace_snapshot().is_none());
    let untraced = wait_all(&untraced_service.submit_batch(requests.clone()));
    assert!(untraced.iter().all(|r| r.trace_id.is_none()));

    // Tracing on: same responses, bit for bit, plus a full trace.
    let traced_service = OptimizationService::new(
        ServiceConfig::quick()
            .with_workers(2)
            .with_inference_batching(16, 200)
            .with_tracing(4096),
        policy(7),
    );
    assert!(traced_service.tracing_enabled());
    let traced = wait_all(&traced_service.submit_batch(requests.clone()));
    for (u, t) in untraced.iter().zip(&traced) {
        assert_eq!(
            deterministic_fields(u),
            deterministic_fields(t),
            "tracing must not move a single bit of a response"
        );
        assert_eq!(u.fingerprint(), t.fingerprint());
    }

    // Every response carries a distinct trace id (never 0 — that means
    // "untraced" on the wire)...
    let mut ids: Vec<u64> = traced
        .iter()
        .map(|r| r.trace_id.expect("traced service stamps every response"))
        .collect();
    assert!(ids.iter().all(|&id| id != 0));
    let unsorted = ids.clone();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "trace ids must be unique per request");

    // ...and the snapshot holds the full lifecycle for each of them.
    let snapshot = traced_service.trace_snapshot().expect("tracing is on");
    assert_eq!(
        snapshot.writers, 3,
        "one ring per worker plus the submit side; none for an inference engine"
    );
    assert_eq!(snapshot.dropped, 0, "4096-deep rings must not overflow");
    for &id in &unsorted {
        let events = snapshot.for_trace(id);
        for kind in [
            EventKind::Submitted,
            EventKind::Queued,
            EventKind::Dispatched,
            EventKind::RunBegin,
            EventKind::RunEnd,
        ] {
            assert!(
                events.iter().any(|e| e.kind == kind),
                "trace {id} is missing its {kind:?} lifecycle event"
            );
        }
    }
    // The request set exercises every searcher family, so every phase
    // event kind must appear, scoped to some request's trace.
    for kind in [
        EventKind::GreedyStep,
        EventKind::BeamDepth,
        EventKind::MctsIteration,
        EventKind::RandomEpisode,
        EventKind::MemberBegin,
        EventKind::MemberEnd,
        EventKind::MemberWin,
    ] {
        assert!(
            snapshot.count(kind) > 0,
            "expected at least one {kind:?} searcher phase event"
        );
    }

    // The exporters accept the snapshot: Chrome JSON with one complete
    // span per admitted request, and one JSONL line per event.
    let chrome = snapshot.to_chrome_json();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.matches("\"ph\":\"X\"").count() >= n);
    assert_eq!(snapshot.to_jsonl().lines().count(), snapshot.events.len());
}

/// The golden pin of both metrics surfaces: a paused, never-used service
/// reads all-zero counters, so `ServiceMetrics::to_json` is pinned byte for
/// byte and the Prometheus exposition line for line (sorted, because only
/// the set of `# HELP` / `# TYPE` / sample lines is the contract, not the
/// order series are registered in). Every JSON key and every series name,
/// label, type and help string is in the pin, so a series dropped from or
/// mistyped in either surface fails here.
#[test]
fn metrics_json_and_prometheus_match_the_golden_pin() {
    let service = OptimizationService::new(ServiceConfig::quick().paused(), policy(1));
    assert_eq!(
        service.metrics().to_json() + "\n",
        include_str!("golden/service_metrics.json")
    );
    let exposition = service.prometheus();
    let mut lines: Vec<&str> = exposition.lines().collect();
    lines.sort_unstable();
    assert_eq!(
        lines.join("\n") + "\n",
        include_str!("golden/service_prometheus_sorted.txt")
    );
}

/// Prometheus naming: a counter only ever grows, and exactly the counters
/// carry a `_total` / histogram suffix. `mlir_rl_budget_spent` includes
/// outstanding reservations that `EvalBudget::refund` hands back, so it is
/// a gauge. Checked with every optional series present (budget cap set).
#[test]
fn exactly_the_counter_series_carry_counter_suffixes() {
    let service = OptimizationService::new(
        ServiceConfig::quick().paused().with_eval_budget(1_000),
        policy(1),
    );
    let exposition = service.prometheus();
    let mut typed = 0;
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let (name, kind) = rest.split_once(' ').expect("# TYPE <name> <kind>");
        let counter_name = ["_total", "_bucket", "_sum", "_count"]
            .iter()
            .any(|suffix| name.ends_with(suffix));
        assert_eq!(
            kind == "counter",
            counter_name,
            "{name} is exported as a {kind}"
        );
        typed += 1;
    }
    assert!(typed > 30, "the exposition lost its # TYPE lines");
}

#[test]
fn budget_exhaustion_skips_in_submission_order_at_any_worker_count() {
    // The ledger is charged a reservation from the spec's cost estimate at
    // *submit*, in submission order, so which requests an exhausted budget
    // refuses is a pure function of the submission sequence — not of the
    // worker count or of when earlier searches happen to finish. Capping
    // the budget at exactly the first request's reservation admits request
    // 1 and refuses 2 and 3, every time, at every worker count — the
    // request-level analogue of the round-robin portfolio's
    // budget-skipped members.
    let requests: Vec<OptimizationRequest> = [64u64, 96, 128]
        .iter()
        .map(|&s| OptimizationRequest::new(chain(s, s, s), SearchSpec::Greedy).with_seed(5))
        .collect();
    let est = SearchSpec::Greedy.cost_estimate(&EnvConfig::small(), &requests[0].module);

    for workers in [1usize, 4] {
        for _ in 0..2 {
            // Twice per worker count: the skip pattern is reproducible.
            let service = OptimizationService::new(
                ServiceConfig::quick()
                    .with_workers(workers)
                    .with_eval_budget(est)
                    .paused(),
                policy(9),
            );
            let pending = service.submit_batch(requests.clone());
            // Refusals are decided at submit: the skipped responses are
            // already available while the service is still paused.
            for skipped in &pending[1..] {
                let response = skipped.try_response().expect("refused at submit");
                // Skipped == never ran: no outcome, zero accounting, a
                // reason.
                assert_eq!(response.status, ResponseStatus::Skipped);
                assert!(response.outcome.is_none());
                assert_eq!(response.total_lookups(), 0);
                assert!(response.error.as_ref().unwrap().contains("budget"));
            }
            service.resume();
            let responses = wait_all(&pending);
            assert_eq!(responses[0].status, ResponseStatus::Completed);
            assert_eq!(service.metrics().skipped, 2);
        }
    }
}

#[test]
fn saturated_service_sheds_and_rejects_deterministically_and_never_hangs() {
    // Overflow: a paused capacity-2 service answers the overflowing tail
    // Rejected synchronously at submit, in submission order — the same
    // refusal set at 1 worker and at 4, run after run.
    for workers in [1usize, 4] {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let service = OptimizationService::new(
                ServiceConfig::quick()
                    .with_workers(workers)
                    .with_queue_capacity(2)
                    .paused(),
                policy(17),
            );
            let pending: Vec<_> = (0..5u64)
                .map(|i| {
                    service.submit(
                        OptimizationRequest::new(chain(64, 64, 64), SearchSpec::Greedy)
                            .with_seed(i),
                    )
                })
                .collect();
            // The overflowed requests never block the submitter.
            for p in &pending[2..] {
                let r = p.try_response().expect("rejected at submit");
                assert_eq!(r.status, ResponseStatus::Rejected);
                assert!(r.error.as_deref().unwrap().starts_with("backpressure: "));
                assert!(r.outcome.is_none());
            }
            service.resume();
            let statuses: Vec<ResponseStatus> =
                wait_all(&pending).iter().map(|r| r.status).collect();
            runs.push(statuses);
        }
        assert_eq!(runs[0], runs[1], "refusal set must be reproducible");
        assert_eq!(
            runs[0],
            vec![
                ResponseStatus::Completed,
                ResponseStatus::Completed,
                ResponseStatus::Rejected,
                ResponseStatus::Rejected,
                ResponseStatus::Rejected,
            ]
        );
    }

    // Shedding + quotas: expired deadlines are load-shed at dequeue with
    // Skipped, and a quota-1 4-worker service interleaving a hot and a
    // cold client still answers every request — no deadlock, no hang.
    let service = OptimizationService::new(
        ServiceConfig::quick()
            .with_workers(4)
            .with_client_quota(1)
            .paused(),
        policy(17),
    );
    let mut pending = Vec::new();
    for i in 0..4u64 {
        pending.push(
            service.submit(
                OptimizationRequest::new(chain(64, 64, 64), SearchSpec::Greedy)
                    .with_seed(i)
                    .with_client("hot")
                    .with_deadline(std::time::Duration::ZERO),
            ),
        );
        pending.push(
            service.submit(
                OptimizationRequest::new(chain(96, 48, 64), SearchSpec::Greedy)
                    .with_seed(i)
                    .with_client("cold"),
            ),
        );
    }
    service.resume();
    let responses = wait_all(&pending);
    for (i, response) in responses.iter().enumerate() {
        if i % 2 == 0 {
            assert_eq!(response.status, ResponseStatus::Skipped);
            assert!(response.error.as_ref().unwrap().contains("shed"));
            assert_eq!(response.total_lookups(), 0);
        } else {
            assert_eq!(response.status, ResponseStatus::Completed);
        }
    }
    let metrics = service.metrics();
    assert_eq!(metrics.deadline_sheds, 4);
    assert_eq!(metrics.completed, 4);
}

#[test]
fn cancellation_reports_skipped_or_stopped_never_a_lie() {
    // Cancelled while queued (deterministic via the paused service):
    // Skipped, zero accounting.
    let service = OptimizationService::new(ServiceConfig::quick().paused(), policy(3));
    let cancelled = service
        .submit(OptimizationRequest::new(chain(64, 64, 64), SearchSpec::random(50)).with_seed(2));
    cancelled.cancel();
    service.resume();
    let response = cancelled.wait();
    assert_eq!(response.status, ResponseStatus::Skipped);
    assert!(response.error.as_ref().unwrap().contains("cancelled"));
    assert_eq!(response.total_lookups(), 0);
    assert!(response.outcome.is_none());

    // Cancelled mid-run (inherently racy, so accept each legal landing
    // spot and assert its *semantics*): Stopped must carry a valid
    // best-so-far with no more work than the uncancelled run; Completed
    // must be bitwise the uncancelled outcome; Skipped must be empty.
    let uncancelled = OptimizationService::new(ServiceConfig::quick(), policy(3))
        .submit(OptimizationRequest::new(chain(64, 64, 64), SearchSpec::random(50)).with_seed(2))
        .wait();
    let full = uncancelled.outcome.as_ref().expect("uncancelled completes");
    let service = OptimizationService::new(ServiceConfig::quick(), policy(3));
    let pending = service
        .submit(OptimizationRequest::new(chain(64, 64, 64), SearchSpec::random(50)).with_seed(2));
    pending.cancel();
    let raced = pending.wait();
    match raced.status {
        ResponseStatus::Skipped => {
            assert!(raced.outcome.is_none());
            assert_eq!(raced.total_lookups(), 0);
        }
        ResponseStatus::Stopped => {
            let partial = raced.outcome.as_ref().expect("stopped keeps best-so-far");
            assert!(partial.nodes_expanded <= full.nodes_expanded);
            assert!(
                partial.speedup >= 1.0 - 1e-12,
                "baseline bounds best-so-far"
            );
        }
        ResponseStatus::Completed => {
            assert_eq!(raced.fingerprint(), uncancelled.fingerprint());
        }
        ResponseStatus::Rejected => panic!("a valid request is never rejected"),
    }
}

#[test]
fn rejected_requests_answer_with_errors_and_service_survives() {
    let service = OptimizationService::new(ServiceConfig::quick(), policy(11));
    let mut bad_env = EnvConfig::small();
    bad_env.max_schedule_len = 0;
    let responses = wait_all(&service.submit_batch(vec![
        OptimizationRequest::new(chain(64, 64, 64), SearchSpec::round_robin(Vec::new())),
        OptimizationRequest::new(chain(64, 64, 64), SearchSpec::Greedy).with_env(bad_env),
        OptimizationRequest::new(chain(64, 64, 64), SearchSpec::Greedy).with_seed(1),
    ]));
    assert_eq!(responses[0].status, ResponseStatus::Rejected);
    assert!(responses[0].error.as_ref().unwrap().contains("roster"));
    assert_eq!(responses[1].status, ResponseStatus::Rejected);
    assert!(responses[1]
        .error
        .as_ref()
        .unwrap()
        .contains("schedule length"));
    assert_eq!(responses[2].status, ResponseStatus::Completed);
    let stats = service.metrics();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.completed, 1);
}

#[test]
fn portfolio_spec_requests_carry_member_attribution() {
    let service = OptimizationService::new(ServiceConfig::quick(), policy(13));
    let response = service
        .submit(
            OptimizationRequest::new(
                chain(96, 48, 64),
                SearchSpec::round_robin(vec![
                    SearchSpec::Greedy,
                    SearchSpec::beam(2),
                    SearchSpec::random(2),
                ]),
            )
            .with_seed(21),
        )
        .wait();
    assert_eq!(response.status, ResponseStatus::Completed);
    assert_eq!(response.searcher, "portfolio-rr-3");
    let outcome = response.outcome.expect("completed");
    assert_eq!(outcome.members.len(), 3);
    assert_eq!(outcome.members.iter().filter(|m| m.winner).count(), 1);
    // The greedy-seeded roster is never worse than its greedy member.
    assert!(outcome.speedup >= outcome.members[0].speedup);
}

#[test]
fn facade_wrappers_share_the_service_cache() {
    let mut opt = MlirRlOptimizer::new(OptimizerConfig::quick());
    let module = chain(64, 64, 64);
    // Warm through a deprecated wrapper...
    let wrapped = opt.optimize(&module);
    assert!(wrapped.speedup > 0.0);
    // ...then a direct request for the same module mostly hits the same
    // persistent table.
    let response = opt
        .submit(OptimizationRequest::new(module.clone(), SearchSpec::Greedy).with_seed(77))
        .wait();
    assert_eq!(response.status, ResponseStatus::Completed);
    assert!(
        response.cache_hits > 0,
        "facade warmth must serve direct requests"
    );
    // And a spawned standalone service joins the same table too.
    let service = opt.spawn_service(2);
    let standalone = service
        .submit(OptimizationRequest::new(module, SearchSpec::Greedy).with_seed(77))
        .wait();
    assert!(standalone.cache_hits > 0, "spawned service joins the table");
    assert_eq!(standalone.fingerprint(), response.fingerprint());
}

// ---------------------------------------------------------------------------
// Online learning: versioned policy swaps
// ---------------------------------------------------------------------------

/// Per-version determinism with swaps landing mid-stream: the full request
/// set is admitted under version 0, a hot swap publishes version 1 while
/// those requests are still queued (the service is paused), and the set is
/// admitted again under version 1. At 1/2/4 workers and shuffled orders
/// within each half, every response must be bit-identical *per version* —
/// and the pre-swap half must be served on version 0 even though the swap
/// landed before any of it ran.
#[test]
fn responses_are_identical_per_policy_version_while_swaps_land_mid_stream() {
    let requests = request_set();
    let n = requests.len();
    let orders: Vec<Vec<usize>> = vec![
        (0..n).collect(),
        (0..n).rev().collect(),
        (0..n).map(|i| (i * 5 + 2) % n).collect(),
    ];

    let mut reference: Option<(Vec<_>, Vec<_>)> = None;
    for workers in [1usize, 2, 4] {
        for order in &orders {
            let service = OptimizationService::new(
                ServiceConfig::quick()
                    .with_workers(workers)
                    .with_inference_batching(16, 200)
                    .paused(),
                policy(7),
            );
            assert_eq!(service.policy_version(), 0);
            // First half of the stream: admitted (and pinned) at version 0.
            let before: Vec<_> = order
                .iter()
                .map(|&i| service.submit(requests[i].clone()))
                .collect();
            // The swap lands while every one of those requests is queued.
            assert_eq!(service.swap_policy(policy(23)), 1);
            assert_eq!(service.policy_version(), 1);
            assert_eq!(service.metrics().policy_swaps, 1);
            // Second half: the same logical requests, now admitted at v1.
            let after: Vec<_> = order
                .iter()
                .map(|&i| service.submit(requests[i].clone()))
                .collect();
            service.resume();

            let mut v0 = vec![None; n];
            let mut v1 = vec![None; n];
            for (&i, p) in order.iter().zip(&before) {
                let response = p.wait();
                assert_eq!(
                    response.policy_version, 0,
                    "a request admitted before the swap must be served on its \
                     admission version"
                );
                v0[i] = Some(deterministic_fields(&response));
            }
            for (&i, p) in order.iter().zip(&after) {
                let response = p.wait();
                assert_eq!(response.policy_version, 1);
                v1[i] = Some(deterministic_fields(&response));
            }
            let v0: Vec<_> = v0.into_iter().map(Option::unwrap).collect();
            let v1: Vec<_> = v1.into_iter().map(Option::unwrap).collect();
            match &reference {
                None => reference = Some((v0, v1)),
                Some((r0, r1)) => {
                    assert_eq!(
                        r0, &v0,
                        "version-0 responses diverged at {workers} workers, order {order:?}"
                    );
                    assert_eq!(
                        r1, &v1,
                        "version-1 responses diverged at {workers} workers, order {order:?}"
                    );
                }
            }
        }
    }
    let (v0, v1) = reference.expect("at least one run");
    for fields in v0.iter().chain(&v1) {
        assert_eq!(fields.2, ResponseStatus::Completed);
        assert!(fields.3.is_some());
    }
}

/// The fingerprint covers the policy version: swapping in a bitwise copy of
/// the current weights changes *nothing* about the outcome, yet the
/// response fingerprints must diverge — `(module, spec, seed, policy
/// version, env config)` is the determinism key, and version 0 vs 1 are
/// different keys even when the weights collide.
#[test]
fn fingerprint_distinguishes_policy_versions_even_with_identical_weights() {
    let request = OptimizationRequest::new(chain(64, 64, 64), SearchSpec::Greedy).with_seed(42);

    let service = OptimizationService::new(ServiceConfig::quick(), policy(7));
    let v0 = service.submit(request.clone()).wait();
    assert_eq!(v0.policy_version, 0);
    // Same weights, new version.
    service.swap_policy(policy(7));
    let v1 = service.submit(request.clone()).wait();
    assert_eq!(v1.policy_version, 1);

    let o0 = v0.outcome.as_ref().expect("completed");
    let o1 = v1.outcome.as_ref().expect("completed");
    assert_eq!(o0.best_s.to_bits(), o1.best_s.to_bits());
    assert_eq!(
        format!("{:?}", o0.best_actions),
        format!("{:?}", o1.best_actions)
    );
    assert_ne!(
        v0.fingerprint(),
        v1.fingerprint(),
        "the version is part of the fingerprint"
    );

    // And a genuinely different policy at version 1 reproduces bit-for-bit
    // against a fresh service that starts from those weights (modulo the
    // version field, which admission stamps differently).
    service.swap_policy(policy(23));
    let swapped = service.submit(request.clone()).wait();
    assert_eq!(swapped.policy_version, 2);
    let fresh = OptimizationService::new(ServiceConfig::quick(), policy(23))
        .submit(request)
        .wait();
    assert_eq!(fresh.policy_version, 0);
    let a = swapped.outcome.as_ref().expect("completed");
    let b = fresh.outcome.as_ref().expect("completed");
    assert_eq!(a.best_s.to_bits(), b.best_s.to_bits());
    assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
    assert_eq!(
        format!("{:?}", a.best_actions),
        format!("{:?}", b.best_actions)
    );
}

/// A published version reads the weight buffers of the network it was
/// cloned from. Training that network afterwards — while requests pinned
/// to the version are still queued — must not move a bit of their
/// responses: the trainer's first write takes a private copy.
#[test]
fn requests_pinned_to_a_version_are_immune_to_training_its_source() {
    use mlir_rl::agent::{PpoConfig, PpoTrainer, ValueNetwork, WeightSnapshot};
    use mlir_rl::costmodel::{CostModel, MachineModel};
    use mlir_rl::env::OptimizationEnv;

    let config = ServiceConfig::quick().with_workers(2).paused();
    let untouched = OptimizationService::new(config.clone(), policy(7));
    let expected = untouched.submit_batch(request_set());
    untouched.resume();

    let source = policy(7);
    let service = OptimizationService::new(config, source.clone());
    let pending = service.submit_batch(request_set());
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let value = ValueNetwork::new(source.env_config(), source.hyperparams(), &mut rng);
    let mut env = OptimizationEnv::new(
        source.env_config().clone(),
        CostModel::new(MachineModel::default()),
    );
    let mut trainer = PpoTrainer::with_policy(source, value, PpoConfig::small(), rng);
    let before = trainer.policy.weights_fingerprint();
    trainer.train_iteration(&mut env, &[chain(32, 32, 32)]);
    assert_ne!(trainer.policy.weights_fingerprint(), before);
    assert_eq!(service.policy().clone().weights_fingerprint(), before);

    service.resume();
    for (served, expected) in wait_all(&pending).iter().zip(wait_all(&expected)) {
        assert_eq!(served.fingerprint(), expected.fingerprint());
    }
}

/// Tracing stays purely observational while swaps land mid-stream.
#[test]
fn tracing_moves_no_bit_while_swaps_land() {
    let requests = request_set();
    let run = |config: ServiceConfig| {
        let service = OptimizationService::new(config.paused(), policy(7));
        let before: Vec<_> = requests.iter().map(|r| service.submit(r.clone())).collect();
        service.swap_policy(policy(23));
        let after: Vec<_> = requests.iter().map(|r| service.submit(r.clone())).collect();
        service.resume();
        let mut responses = wait_all(&before);
        responses.extend(wait_all(&after));
        responses
    };
    let untraced = run(ServiceConfig::quick().with_workers(2));
    let traced = run(ServiceConfig::quick().with_workers(2).with_tracing(4096));
    for (u, t) in untraced.iter().zip(&traced) {
        assert_eq!(deterministic_fields(u), deterministic_fields(t));
        assert_eq!(u.policy_version, t.policy_version);
        assert_eq!(u.fingerprint(), t.fingerprint());
    }
}

// ---------------------------------------------------------------------------
// Online learning: the background trainer
// ---------------------------------------------------------------------------

fn online_config() -> mlir_rl::agent::OnlineTrainingConfig {
    mlir_rl::agent::OnlineTrainingConfig {
        sample_every: 1,
        capacity: 64,
        min_batch: 1,
        train_seed: 7,
        ppo: mlir_rl::agent::PpoConfig {
            trajectories_per_iteration: 2,
            minibatch_size: 4,
            update_epochs: 1,
            ..mlir_rl::agent::PpoConfig::paper()
        },
        // Gate off: every train step publishes, so the smoke test needs no
        // luck to observe a swap. The gate's metric itself is covered by
        // the agent crate's greedy_geomean tests and the `exp online` CI run.
        promotion_gate: false,
        max_probe_modules: 8,
    }
}

/// The closed loop end to end: served `Completed` responses feed the
/// experience stream, the background trainer runs PPO steps and publishes
/// new versions, later submits are admitted on those versions, and the
/// whole subsystem shows up on the metrics/trace surfaces.
#[test]
fn online_training_feeds_experiences_and_hot_swaps_the_policy() {
    let service = OptimizationService::new(
        ServiceConfig::quick()
            .with_workers(2)
            .with_online_training(online_config())
            .with_tracing(8192),
        policy(7),
    );
    assert!(service.online_training_enabled());

    let request =
        |seed: u64| OptimizationRequest::new(chain(16, 16, 16), SearchSpec::Greedy).with_seed(seed);
    // Keep serving until the trainer has published at least one version
    // (bounded: the loop is cheap and the trainer needs one experience).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut seed = 0u64;
    while service.policy_version() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "trainer published no version within the bound; stats: {:?}",
            service.online_stats()
        );
        let responses = wait_all(&service.submit_batch(vec![request(seed), request(seed + 1)]));
        assert!(responses
            .iter()
            .all(|r| r.status == ResponseStatus::Completed));
        seed += 2;
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Quiesce the trainer so the version stops moving, then check the
    // loop actually closed: a new submit is admitted on a version > 0.
    service.pause_online_training();
    let version = service.policy_version();
    assert!(version >= 1);
    let response = service.submit(request(1_000)).wait();
    assert_eq!(response.status, ResponseStatus::Completed);
    assert_eq!(response.policy_version, version);

    let stats = service.online_stats().expect("online training is on");
    assert!(stats.train_steps >= 1);
    assert!(stats.experiences_consumed >= 1);

    let metrics = service.metrics();
    assert!(metrics.online_experiences_accepted >= 1);
    assert!(metrics.online_train_steps >= 1);
    assert!(metrics.policy_swaps >= 1);
    assert_eq!(metrics.policy_version, version);

    // The trace holds the subsystem's lifecycle events.
    let snapshot = service.trace_snapshot().expect("tracing is on");
    assert!(snapshot.count(EventKind::ExperienceEnqueued) > 0);
    assert!(snapshot.count(EventKind::TrainStep) > 0);
    assert!(snapshot.count(EventKind::PolicySwap) > 0);
}

/// Config validation: the online knobs are checked, and online training is
/// accepted next to the (ignored) inference-batching knobs.
#[test]
fn online_training_config_is_validated_against_the_service_config() {
    let mut zero = online_config();
    zero.sample_every = 0;
    assert!(OptimizationService::try_new(
        ServiceConfig::quick().with_online_training(zero),
        policy(7),
    )
    .is_err());

    let service = OptimizationService::try_new(
        ServiceConfig::quick()
            .with_online_training(online_config())
            .with_inference_batching(4, 100),
        policy(7),
    )
    .expect("online training + inference batching is a valid configuration");
    assert!(service.online_training_enabled());
}

/// Regression: `MlirRlOptimizer::train` must invalidate the lazily-built
/// internal service, and the service rebuilt afterwards must serve the
/// *new* weights (checked bitwise through the weight-snapshot
/// fingerprint), not a stale pre-training snapshot.
#[test]
fn facade_training_invalidates_the_internal_service_policy_snapshot() {
    use mlir_rl::agent::WeightSnapshot;
    let mut opt = MlirRlOptimizer::new(OptimizerConfig::quick());
    let module = chain(64, 64, 64);

    // Force the internal service into existence and pin its weights.
    let request = OptimizationRequest::new(module.clone(), SearchSpec::Greedy).with_seed(3);
    let before = opt.submit(request.clone()).wait();
    assert_eq!(before.status, ResponseStatus::Completed);
    let before_fp = opt.service().policy().clone().weights_fingerprint();
    assert_eq!(before_fp, opt.policy().clone().weights_fingerprint());

    // Training moves the trainer's weights...
    opt.train(&[module], 1);
    let trained_fp = opt.policy().clone().weights_fingerprint();
    assert_ne!(
        before_fp, trained_fp,
        "a PPO iteration must move the policy weights"
    );

    // ...and the next deployment call rebuilds the service on them.
    let after = opt.submit(request).wait();
    assert_eq!(after.status, ResponseStatus::Completed);
    assert_eq!(
        opt.service().policy().clone().weights_fingerprint(),
        trained_fp,
        "the rebuilt service must serve the post-training weights"
    );
}

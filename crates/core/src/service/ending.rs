//! How a request leaves the service: every way is a variant of [`Ending`],
//! and [`finish`] is the one place that acts on it — whether the request
//! was refused at submit, refused at dequeue or ran.

use std::sync::atomic::Ordering;

use mlir_rl_agent::Experience;
use mlir_rl_costmodel::module_fingerprint;
use mlir_rl_obs::{EventKind, ProbeRef};
use mlir_rl_search::SearchOutcome;

use super::request::{OptimizationResponse, ResponseStatus, BACKPRESSURE_PREFIX};
use super::worker::Job;
use super::ServiceShared;

/// A search that returned: what it found and how long it took.
pub(super) struct Run {
    pub(super) outcome: SearchOutcome,
    pub(super) service_s: f64,
}

/// Every way a request leaves the service (the module docs' endings table
/// says what [`finish`] does with each).
pub(super) enum Ending {
    /// Submitted after shutdown began.
    ShuttingDown,
    /// Submitted to a queue already holding its capacity.
    QueueFull(usize),
    /// Submitted to an exhausted ledger, which had `spent` charged when it
    /// refused the request's `estimate`.
    BudgetExhausted { estimate: u64, spent: u64 },
    /// Cancelled before a worker picked it up.
    Cancelled,
    /// Deadline passed before a worker picked it up.
    Shed,
    /// Failed dequeue validation: the spec, the environment override, or
    /// the override's shape. `(trace label, what is wrong)`.
    Malformed(&'static str, String),
    /// The search panicked; the payload's message.
    Panicked(String),
    /// Cancelled mid-run: the best-so-far at the stop boundary.
    Stopped(Run),
    /// Deadline passed mid-run: the best-so-far at the stop boundary.
    DeadlineStopped(Run),
    /// Ran to completion.
    Completed(Run),
}

/// Ends a request — the only place one ends. Bumps the terminal status
/// counter (and the ending's sub-counter), settles the budget reservation,
/// emits the ending's trace event, feeds a completed run to the online
/// trainer, builds the response and fills the slot: exactly once per
/// submitted request, so `submitted == completed + stopped + skipped +
/// rejected` once the queue is drained and nothing is in flight.
pub(super) fn finish(
    shared: &ServiceShared,
    probe: &ProbeRef,
    job: Job,
    queue_s: f64,
    ending: Ending,
) {
    use Ending::*;
    let counters = &shared.counters;
    let (status, status_counter) = match &ending {
        Completed(_) => (ResponseStatus::Completed, &counters.completed),
        Stopped(_) | DeadlineStopped(_) => (ResponseStatus::Stopped, &counters.stopped),
        BudgetExhausted { .. } | Cancelled | Shed => (ResponseStatus::Skipped, &counters.skipped),
        ShuttingDown | QueueFull(_) | Malformed(..) | Panicked(_) => {
            (ResponseStatus::Rejected, &counters.rejected)
        }
    };
    let sub_counter = match &ending {
        QueueFull(_) => Some(&counters.overflow),
        BudgetExhausted { .. } => Some(&counters.budget_skips),
        Shed => Some(&counters.sheds),
        DeadlineStopped(_) => Some(&counters.deadline_stops),
        _ => None,
    };
    status_counter.fetch_add(1, Ordering::Relaxed);
    if let Some(counter) = sub_counter {
        counter.fetch_add(1, Ordering::Relaxed);
    }
    // The reservation: a run reconciles it to its real lookups; a panic
    // keeps it charged (the estimate is the best available bound on what
    // the search consumed before dying); every refusal refunds it in full
    // (nothing, for the submit-time ones).
    let (evaluations, cache_hits) = match &ending {
        Stopped(run) | DeadlineStopped(run) | Completed(run) => {
            let actual = run.outcome.total_lookups() as u64;
            if actual >= job.reserved {
                shared.budget.charge(actual - job.reserved);
            } else {
                shared.budget.refund(job.reserved - actual);
            }
            (run.outcome.evaluations, run.outcome.cache_hits)
        }
        Panicked(_) => (0, 0),
        _ => {
            shared.budget.refund(job.reserved);
            (0, 0)
        }
    };
    let queue_us = (queue_s * 1e6) as u64;
    let deadline_s = job.request.deadline.map_or(0.0, |d| d.as_secs_f64());
    let (kind, label, args) = match &ending {
        ShuttingDown => (EventKind::Rejected, Some("shutdown"), [0; 3]),
        QueueFull(capacity) => (
            EventKind::Rejected,
            Some("queue_full"),
            [*capacity as u64, 0, 0],
        ),
        Malformed(why, _) => (EventKind::Rejected, Some(*why), [0; 3]),
        BudgetExhausted { estimate, spent } => {
            let cap = shared.budget.cap().unwrap_or(0);
            (EventKind::BudgetSkip, None, [*estimate, *spent, cap])
        }
        Cancelled => (EventKind::CancelledInQueue, None, [queue_us, 0, 0]),
        Shed => (
            EventKind::Shed,
            None,
            [queue_us, (deadline_s * 1e6) as u64, 0],
        ),
        Panicked(_) => (EventKind::RunEnd, Some("panicked"), [3, 0, 0]),
        Stopped(_) | DeadlineStopped(_) | Completed(_) => {
            let code = u64::from(status == ResponseStatus::Stopped);
            (
                EventKind::RunEnd,
                None,
                [code, evaluations as u64, cache_hits as u64],
            )
        }
    };
    probe.emit(kind, label, args);
    let error = match &ending {
        ShuttingDown => Some(format!("{BACKPRESSURE_PREFIX}service is shutting down")),
        QueueFull(capacity) => Some(format!(
            "{BACKPRESSURE_PREFIX}queue full (capacity {capacity})"
        )),
        BudgetExhausted { estimate, spent } => Some(format!(
            "service eval budget exhausted ({spent} lookups spent or reserved, \
             estimate {estimate} refused)"
        )),
        Cancelled => Some("cancelled while queued".to_string()),
        Shed => Some(format!(
            "deadline of {deadline_s:.3}s expired after {queue_s:.3}s in the queue; \
             request shed at dequeue"
        )),
        Malformed(_, problem) => Some(problem.clone()),
        Panicked(message) => Some(format!("search panicked: {message}")),
        DeadlineStopped(_) => Some(format!(
            "deadline of {deadline_s:.3}s passed mid-run; best-so-far returned"
        )),
        Stopped(_) | Completed(_) => None,
    };
    let run = match ending {
        Stopped(run) | DeadlineStopped(run) | Completed(run) => Some(run),
        _ => None,
    };
    // Feed served traffic back to the online trainer. Sampling-gated so a
    // disabled subsystem costs the hot path exactly one branch; a full
    // stream drops (and counts) rather than blocks.
    if let (ResponseStatus::Completed, Some(online)) = (status, &shared.online) {
        let n = online.sample_counter.fetch_add(1, Ordering::Relaxed);
        if n % online.sample_every == 0 {
            online.stream.push(Experience {
                module: job.request.module.clone(),
                module_fingerprint: module_fingerprint(&job.request.module),
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
    job.slot.fill(OptimizationResponse {
        id: job.id,
        module: job.request.module.name().to_string(),
        searcher: job.request.spec.name(),
        status,
        error,
        evaluations,
        cache_hits,
        queue_s,
        service_s: run.as_ref().map_or(0.0, |run| run.service_s),
        outcome: run.map(|run| run.outcome),
        trace_id: probe.trace_id_if_enabled(),
        policy_version: job.policy.version,
    });
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use mlir_rl_search::SearchSpec;

    use super::super::request::OptimizationRequest;
    use super::super::tests::{module, policy};
    use super::super::worker::PANIC_MODULE;
    use super::super::{OptimizationService, PendingResponse, ServiceConfig};
    use super::*;
    use mlir_rl_env::EnvConfig;

    /// One way for a request to end, reached through the public API.
    struct Row {
        name: &'static str,
        config: ServiceConfig,
        /// Submits and steers; the *last* handle is the request under test
        /// (earlier ones are fillers that complete). The duration is the
        /// deadline of the one row that races the clock.
        drive: fn(&mut OptimizationService, Duration) -> Vec<PendingResponse>,
        status: ResponseStatus,
        /// The sub-counter the ending moves, by `ServiceMetrics` field name.
        sub_counter: Option<&'static str>,
        /// The reservation stays charged (a panicked run's).
        keeps_reservation: bool,
    }

    fn greedy(size: u64) -> OptimizationRequest {
        OptimizationRequest::new(module(size), SearchSpec::Greedy)
    }

    /// A stop-aware search far longer than any test waits.
    fn endless() -> OptimizationRequest {
        OptimizationRequest::new(module(64), SearchSpec::random(10_000_000))
    }

    fn panicking() -> OptimizationRequest {
        let mut request = greedy(64);
        request.module = {
            let mut b = mlir_rl_ir::ModuleBuilder::new(PANIC_MODULE);
            let a = b.argument("A", vec![64, 64]);
            b.relu(a);
            b.finish()
        };
        request
    }

    fn rows() -> Vec<Row> {
        let quick = ServiceConfig::quick;
        let row = |name, config, drive, status| Row {
            name,
            config,
            drive,
            status,
            sub_counter: None,
            keeps_reservation: false,
        };
        vec![
            row(
                "shutdown",
                quick(),
                |service, _| {
                    service.shutdown();
                    vec![service.submit(greedy(64))]
                },
                ResponseStatus::Rejected,
            ),
            Row {
                sub_counter: Some("overflow_rejects"),
                ..row(
                    "queue full",
                    quick().with_queue_capacity(1).paused(),
                    |service, _| {
                        let handles = service.submit_batch(vec![greedy(64), greedy(96)]);
                        service.resume();
                        handles
                    },
                    ResponseStatus::Rejected,
                )
            },
            Row {
                sub_counter: Some("budget_skips"),
                ..row(
                    "budget exhausted",
                    quick().with_eval_budget(1).paused(),
                    |service, _| {
                        let handles = service.submit_batch(vec![greedy(64), greedy(96)]);
                        service.resume();
                        handles
                    },
                    ResponseStatus::Skipped,
                )
            },
            row(
                "cancelled while paused",
                quick().paused(),
                |service, _| {
                    let handle = service.submit(greedy(64));
                    handle.cancel();
                    service.resume();
                    vec![handle]
                },
                ResponseStatus::Skipped,
            ),
            Row {
                sub_counter: Some("deadline_sheds"),
                ..row(
                    "deadline expired in the queue",
                    quick().paused(),
                    |service, _| {
                        let handle = service.submit(greedy(64).with_deadline(Duration::ZERO));
                        service.resume();
                        vec![handle]
                    },
                    ResponseStatus::Skipped,
                )
            },
            row(
                "invalid spec",
                quick(),
                |service, _| {
                    vec![service.submit(OptimizationRequest::new(module(64), SearchSpec::beam(0)))]
                },
                ResponseStatus::Rejected,
            ),
            row(
                "invalid env",
                quick(),
                |service, _| {
                    let mut env = EnvConfig::small();
                    env.tile_candidates = vec![4, 8];
                    vec![service.submit(greedy(64).with_env(env))]
                },
                ResponseStatus::Rejected,
            ),
            row(
                "repeated tile candidate",
                quick(),
                |service, _| {
                    // The service env's shape, so only validation refuses it.
                    let mut env = EnvConfig::small();
                    env.tile_candidates = vec![0, 4, 16, 16, 64];
                    vec![service.submit(greedy(64).with_env(env))]
                },
                ResponseStatus::Rejected,
            ),
            row(
                "shape-changing env",
                quick(),
                |service, _| {
                    let mut env = EnvConfig::small();
                    env.max_schedule_len = 3;
                    vec![service.submit(greedy(64).with_env(env))]
                },
                ResponseStatus::Rejected,
            ),
            Row {
                keeps_reservation: true,
                ..row(
                    "panicked",
                    quick(),
                    |service, _| vec![service.submit(greedy(96)), service.submit(panicking())],
                    ResponseStatus::Rejected,
                )
            },
            row(
                "cancelled mid-run",
                quick(),
                |service, _| {
                    let handle = service.submit(endless());
                    while service.metrics().admitted == 0 {
                        std::thread::yield_now();
                    }
                    handle.cancel();
                    vec![handle]
                },
                ResponseStatus::Stopped,
            ),
            Row {
                sub_counter: Some("deadline_stops"),
                ..row(
                    "deadline passed mid-run",
                    quick(),
                    |service, deadline| vec![service.submit(endless().with_deadline(deadline))],
                    ResponseStatus::Stopped,
                )
            },
            row(
                "completed",
                quick(),
                |service, _| vec![service.submit(greedy(64))],
                ResponseStatus::Completed,
            ),
        ]
    }

    /// Runs one row on a fresh service. `Err` only when the clock-racing
    /// row lost its race (a stall between submit and dispatch outlasted the
    /// deadline, so the request was shed instead of stopped).
    fn check(row: &Row, deadline: Duration) -> Result<(), ()> {
        let name = row.name;
        let mut service = OptimizationService::new(row.config.clone(), policy());
        let handles = (row.drive)(&mut service, deadline);
        let responses = crate::service::wait_all(&handles);
        service.shutdown();
        let last = responses.last().expect("the request under test");
        if row.sub_counter == Some("deadline_stops") && last.status == ResponseStatus::Skipped {
            return Err(());
        }
        assert_eq!(last.status, row.status, "{name}: {:?}", last.error);
        for filler in &responses[..responses.len() - 1] {
            assert_eq!(filler.status, ResponseStatus::Completed, "{name}: filler");
        }
        assert_eq!(
            last.outcome.is_some(),
            matches!(
                last.status,
                ResponseStatus::Completed | ResponseStatus::Stopped
            ),
            "{name}: an outcome iff the search returned"
        );

        // Conservation: every submit ended exactly once.
        let m = service.metrics();
        assert_eq!(m.submitted, responses.len() as u64, "{name}");
        assert_eq!(
            m.submitted,
            m.completed + m.stopped + m.skipped + m.rejected,
            "{name}: {m:?}"
        );
        let ended_as = |status| responses.iter().filter(|r| r.status == status).count() as u64;
        assert_eq!(m.completed, ended_as(ResponseStatus::Completed), "{name}");
        assert_eq!(m.stopped, ended_as(ResponseStatus::Stopped), "{name}");
        assert_eq!(m.skipped, ended_as(ResponseStatus::Skipped), "{name}");
        assert_eq!(m.rejected, ended_as(ResponseStatus::Rejected), "{name}");
        assert_eq!(m.queue_depth, 0, "{name}");
        // The ending's sub-counter moved by one; no other moved at all.
        for (counter, value) in [
            ("overflow_rejects", m.overflow_rejects),
            ("deadline_sheds", m.deadline_sheds),
            ("budget_skips", m.budget_skips),
            ("deadline_stops", m.deadline_stops),
        ] {
            let want = u64::from(row.sub_counter == Some(counter));
            assert_eq!(value, want, "{name}: {counter}");
        }
        // The ledger: real lookups for what ran, nothing for a refusal, the
        // whole reservation for a panicked run.
        let looked_up: u64 = responses.iter().map(|r| r.total_lookups() as u64).sum();
        let kept = if row.keeps_reservation {
            SearchSpec::Greedy.cost_estimate(&EnvConfig::small(), &panicking().module)
        } else {
            0
        };
        assert!(!row.keeps_reservation || kept > 0);
        assert_eq!(service.budget().spent(), looked_up + kept, "{name}");
        if !matches!(
            last.status,
            ResponseStatus::Completed | ResponseStatus::Stopped
        ) {
            assert_eq!(last.total_lookups(), 0, "{name}: nothing ran");
        }
        Ok(())
    }

    #[test]
    fn every_ending_conserves_requests_counters_and_budget() {
        for row in rows() {
            let mut deadline = Duration::from_millis(50);
            while check(&row, deadline).is_err() {
                deadline *= 4;
                assert!(deadline < Duration::from_secs(60), "the clock never won");
            }
        }
    }
}

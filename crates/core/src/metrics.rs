//! The service's metrics surface: the lock-free latency histogram the hot
//! path records into, and [`ServiceMetrics`] — the snapshot
//! [`OptimizationService::metrics`] takes — with its JSON and Prometheus
//! exporters.
//!
//! Every scalar series is declared **once**, as a row of the table in the
//! `service_metrics!` invocation below: doc comment, field name (which is
//! also the JSON key), type, kind (`counter` / `gauge` / `json` for
//! JSON-only) and, for the exported kinds, the Prometheus name and help
//! string. The macro generates the struct field, the `to_json` entry and the
//! `register` call from that row, so a series cannot exist in one surface
//! and be missing or mistyped in another. Adding a series is one row here
//! plus its one-line read in `OptimizationService::metrics`. The members
//! that are not one number (the two raw histograms and the optional
//! budget cap) and the derived hit rate are written by hand below the
//! table.

use std::sync::atomic::{AtomicU64, Ordering};

use mlir_rl_costmodel::hit_rate;
use mlir_rl_obs::MetricsRegistry;

use crate::report::json;
#[cfg(doc)]
use crate::service::{OptimizationService, ResponseStatus, ServiceConfig};

/// Number of power-of-two microsecond latency buckets: bucket `i` counts
/// samples in `(2^i, 2^(i+1)]` µs, so 40 buckets span sub-microsecond to
/// ~13 days.
const HIST_BUCKETS: usize = 40;

/// A fixed-bucket, lock-free latency histogram: recording is two relaxed
/// atomic adds, so the serving hot path never contends on metrics.
/// Quantiles report the matched bucket's *upper* bound — a conservative
/// (never under-reported) tail estimate that is also never zero for a
/// non-empty histogram.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    pub(crate) fn record(&self, seconds: f64) {
        let us = (seconds * 1e6).max(0.0) as u64;
        let idx = (63 - us.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// The `q`-quantile in seconds (0 when nothing was recorded).
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return (1u64 << (i + 1)) as f64 / 1e6;
            }
        }
        (1u64 << HIST_BUCKETS) as f64 / 1e6
    }

    /// Mean recorded latency in seconds (exact, from the running sum).
    pub(crate) fn mean(&self) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / count as f64 / 1e6
        }
    }

    /// Relaxed snapshot of the raw per-bucket counts, for exporters that
    /// want the distribution rather than derived quantiles.
    pub(crate) fn buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Generates [`ServiceMetrics`] and the scalar halves of its two exporters
/// from one table (see the module docs for the row format).
macro_rules! service_metrics {
    (
        $(#[$struct_doc:meta])*
        scalars {$(
            $(#[$doc:meta])*
            $field:ident: $ty:ident, $kind:ident $(($prom:literal, $help:literal))?;
        )*}
        members {$(
            $(#[$member_doc:meta])*
            $member:ident: $member_ty:ty;
        )*}
    ) => {
        $(#[$struct_doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct ServiceMetrics {
            $($(#[$doc])* pub $field: $ty,)*
            $($(#[$member_doc])* pub $member: $member_ty,)*
        }

        impl ServiceMetrics {
            /// One rendered `(key, value)` JSON field per table row, in
            /// table order.
            fn scalar_json(&self) -> Vec<(&'static str, String)> {
                vec![$((
                    stringify!($field),
                    json::number(service_metrics!(@f64 $ty, self.$field)),
                ),)*]
            }

            /// One sample per `counter` / `gauge` table row.
            fn register_scalars(&self, registry: &mut MetricsRegistry) {
                $(service_metrics!(
                    @register $kind, registry,
                    service_metrics!(@f64 $ty, self.$field) $(, $prom, $help)?
                );)*
            }
        }
    };
    (@f64 u64, $value:expr) => { $value as f64 };
    (@f64 f64, $value:expr) => { $value };
    (@register counter, $registry:ident, $value:expr, $prom:literal, $help:literal) => {
        $registry.counter(concat!("mlir_rl_", $prom), $help, $value)
    };
    (@register gauge, $registry:ident, $value:expr, $prom:literal, $help:literal) => {
        $registry.gauge(concat!("mlir_rl_", $prom), $help, $value)
    };
    (@register json, $registry:ident, $value:expr) => {};
}

service_metrics! {
    /// A point-in-time snapshot of the service's overload-observability
    /// surface, taken by [`OptimizationService::metrics`]: queue depth and
    /// high-water mark, the admission/backpressure/shedding counters, and
    /// fixed-bucket latency distributions for queue wait and service time.
    /// All counters are lifetime totals; reading them is lock-free except for
    /// the queue depth (one brief state lock), the policy version (the
    /// registry's slot lock), the online counters (the experience stream's
    /// lock) and the cache occupancy (one brief lock per cache shard).
    scalars {
        /// Requests submitted so far.
        submitted: u64, counter("requests_submitted_total", "Requests submitted to the service");
        /// Requests answered [`ResponseStatus::Completed`].
        completed: u64, counter("requests_completed_total", "Requests answered Completed");
        /// Requests answered [`ResponseStatus::Stopped`].
        stopped: u64, counter("requests_stopped_total",
            "Requests answered Stopped (cancel or mid-run deadline)");
        /// Requests answered [`ResponseStatus::Skipped`].
        skipped: u64, counter("requests_skipped_total", "Requests answered Skipped (never ran)");
        /// Requests answered [`ResponseStatus::Rejected`].
        rejected: u64, counter("requests_rejected_total", "Requests answered Rejected");
        /// Requests that passed dequeue admission and ran a search.
        admitted: u64, counter("requests_admitted_total",
            "Requests that passed dequeue admission and ran");
        /// Submits rejected because the bounded queue was full.
        overflow_rejects: u64, counter("queue_overflow_rejects_total",
            "Submits rejected by the bounded queue");
        /// Requests load-shed at dequeue because their deadline had passed.
        deadline_sheds: u64, counter("deadline_sheds_total",
            "Requests shed at dequeue on an expired deadline");
        /// Requests whose deadline passed mid-run (answered
        /// [`ResponseStatus::Stopped`] with best-so-far).
        deadline_stops: u64, counter("deadline_stops_total",
            "Requests stopped mid-run by their deadline");
        /// Times a dispatcher found work queued but every non-empty lane at
        /// its in-flight quota (it waited for a completion).
        quota_deferrals: u64, counter("quota_deferrals_total",
            "Dispatcher waits with all non-empty lanes at quota");
        /// Submits skipped because the eval budget could not cover their
        /// reservation.
        budget_skips: u64, counter("budget_skips_total",
            "Submits refused by the eval-budget ledger");
        /// Requests currently waiting in the queue.
        queue_depth: u64, gauge("queue_depth", "Requests currently queued");
        /// Maximum queue depth ever observed — under a burst against a
        /// bounded queue this plateaus at the capacity.
        queue_high_water: u64, gauge("queue_high_water", "Maximum queue depth observed");
        /// Client lanes created so far (the anonymous lane counts once it
        /// has seen a request). Monotone: a lane is dropped when its client
        /// has nothing queued or in flight, and a client that returns
        /// after that gets — and counts as — a new one.
        clients: u64, gauge("clients", "Distinct client lanes created");
        /// Median queue wait in seconds (bucket upper bound).
        queue_p50_s: f64, json;
        /// 99th-percentile queue wait in seconds (bucket upper bound).
        queue_p99_s: f64, json;
        /// Mean queue wait in seconds.
        queue_mean_s: f64, json;
        /// Median search run time in seconds (bucket upper bound).
        service_p50_s: f64, json;
        /// 99th-percentile search run time in seconds (bucket upper bound).
        service_p99_s: f64, json;
        /// Mean search run time in seconds.
        service_mean_s: f64, json;
        /// Lifetime hits of the service's persistent shared cache.
        cache_hits: u64, counter("cache_hits_total", "Persistent shared-cache hits");
        /// Lifetime misses (estimator runs) of the persistent shared cache.
        cache_misses: u64, counter("cache_misses_total",
            "Persistent shared-cache misses (estimator runs)");
        /// Entries ever inserted into the persistent shared cache.
        cache_insertions: u64, counter("cache_insertions_total",
            "Entries inserted into the persistent shared cache");
        /// Entries evicted one at a time by the cache's clock hand (second
        /// chance). Stays 0 until the table actually fills.
        cache_evictions: u64, counter("cache_evictions_total",
            "Entries evicted by the second-chance clock hand");
        /// Cache hits that set an entry's clear reference bit.
        cache_promotions: u64, counter("cache_promotions_total",
            "Cache hits that set a clear reference bit");
        /// Entries currently memoized in the persistent shared cache.
        cache_len: u64, gauge("cache_len", "Entries currently memoized in the shared cache");
        /// Capacity bound of the persistent shared cache (global and exact).
        cache_capacity: u64, gauge("cache_capacity", "Capacity bound of the shared cache");
        /// Entries restored from the snapshot file at construction (0 on a
        /// cold start or when [`ServiceConfig::cache_snapshot`] is unset).
        cache_restored: u64, gauge("cache_restored_entries",
            "Entries restored from the snapshot file at startup");
        /// Cost-model lookups charged against the global eval budget. A
        /// gauge, not a counter: it includes outstanding reservations, which
        /// `EvalBudget::refund` hands back when a request is reconciled.
        budget_spent: u64, gauge("budget_spent",
            "Cost-model lookups charged against the eval budget");
        /// The policy version new submits are admitted with right now (0
        /// until a swap is published).
        policy_version: u64, gauge("online_policy_version",
            "Policy version new submits are admitted with");
        /// Policy snapshots published so far (online-trainer promotions plus
        /// manual [`OptimizationService::swap_policy`] calls).
        policy_swaps: u64, counter("online_policy_swaps_total",
            "Policy snapshots published (trainer promotions + manual swaps)");
        /// Experiences accepted into the online experience stream. Zero when
        /// the service runs without [`ServiceConfig::with_online_training`].
        online_experiences_accepted: u64, counter("online_experiences_accepted_total",
            "Experiences accepted into the online experience stream");
        /// Experiences dropped because the bounded experience stream was full
        /// (the hot path never blocks on the trainer).
        online_experiences_dropped: u64, counter("online_experiences_dropped_total",
            "Experiences dropped because the bounded stream was full");
        /// PPO updates the background online trainer has run.
        online_train_steps: u64, counter("online_train_steps_total",
            "PPO updates run by the background online trainer");
        /// Candidate policies the promotion gate refused to publish (their
        /// greedy geomean fell below the incumbent's).
        online_gate_rejects: u64, counter("online_gate_rejects_total",
            "Candidate policies the promotion gate refused to publish");
    }
    members {
        /// Raw queue-wait histogram counts: bucket `i` counts waits in
        /// `(2^i, 2^(i+1)]` µs. The derived `queue_p*_s` fields report bucket
        /// upper bounds; the raw counts let consumers recompute any quantile
        /// (or merge histograms across services) without loss.
        queue_hist_buckets: Vec<u64>;
        /// Raw service-time histogram counts, same bucket layout as
        /// [`ServiceMetrics::queue_hist_buckets`].
        service_hist_buckets: Vec<u64>;
        /// The global eval-budget cap (`None` = unlimited).
        budget_cap: Option<u64>;
    }
}

impl ServiceMetrics {
    /// Lifetime fraction of lookups served by the persistent cache.
    pub fn cache_hit_rate(&self) -> f64 {
        hit_rate(self.cache_hits, self.cache_misses)
    }

    /// Serializes the snapshot to JSON (via [`crate::report::json`], like
    /// every other report type in this crate): the table's scalars in table
    /// order, with the hand-written members spliced in behind the key they
    /// have always followed (consumers and the golden test pin the order).
    pub fn to_json(&self) -> String {
        let counts = |buckets: &[u64]| json::array(buckets.iter().map(|c| json::number(*c as f64)));
        let cap = self
            .budget_cap
            .map_or("null".to_string(), |cap| json::number(cap as f64));
        let mut fields = self.scalar_json();
        let mut splice = |after: &str, member: &'static str, value: String| {
            let at = fields
                .iter()
                .position(|(key, _)| *key == after)
                .expect("every anchor is an earlier key");
            fields.insert(at + 1, (member, value));
        };
        splice(
            "service_mean_s",
            "queue_hist_buckets",
            counts(&self.queue_hist_buckets),
        );
        splice(
            "queue_hist_buckets",
            "service_hist_buckets",
            counts(&self.service_hist_buckets),
        );
        splice(
            "cache_misses",
            "cache_hit_rate",
            json::number(self.cache_hit_rate()),
        );
        splice("budget_spent", "budget_cap", cap);
        json::object(1, fields)
    }

    /// Registers every serving, cache and budget series into one
    /// [`MetricsRegistry`] under the `mlir_rl_` prefix — the unified
    /// surface behind [`OptimizationService::prometheus`]. Raw histogram
    /// buckets export as cumulative `_bucket{le="..."}` counters in the
    /// Prometheus histogram convention (`+Inf` bucket, `_sum`, `_count`).
    pub fn register(&self, registry: &mut MetricsRegistry) {
        self.register_scalars(registry);
        registry.gauge(
            "mlir_rl_cache_hit_rate",
            "Lifetime fraction of lookups served by the cache",
            self.cache_hit_rate(),
        );
        match self.budget_cap {
            Some(cap) => registry.gauge("mlir_rl_budget_cap", "Global eval-budget cap", cap as f64),
            None => registry.gauge(
                "mlir_rl_budget_cap",
                "Global eval-budget cap (-1 = unlimited)",
                -1.0,
            ),
        }
        register_histogram(
            registry,
            "mlir_rl_queue_wait_seconds",
            "Queue wait distribution",
            &self.queue_hist_buckets,
            self.queue_mean_s,
        );
        register_histogram(
            registry,
            "mlir_rl_service_time_seconds",
            "Search run-time distribution",
            &self.service_hist_buckets,
            self.service_mean_s,
        );
    }
}

/// Exports raw per-bucket latency counts as one Prometheus histogram:
/// cumulative `{name}_bucket{le=…}` counters for the touched buckets and the
/// last one (untouched buckets are skipped to keep the exposition compact),
/// the `+Inf` bucket, `{name}_sum` and `{name}_count`. Bucket `i` is bounded
/// above by 2^(i+1) µs, exported in seconds; `_sum` is approximated by
/// `mean_s * count`.
fn register_histogram(
    registry: &mut MetricsRegistry,
    name: &str,
    help: &str,
    buckets: &[u64],
    mean_s: f64,
) {
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (i, count) in buckets.iter().enumerate() {
        cumulative += count;
        if *count == 0 && i + 1 != buckets.len() {
            continue;
        }
        registry.counter_with(
            &bucket_name,
            help,
            &[("le", &format!("{:.6}", (1u64 << (i + 1)) as f64 / 1e6))],
            cumulative as f64,
        );
    }
    registry.counter_with(&bucket_name, help, &[("le", "+Inf")], cumulative as f64);
    registry.counter(&format!("{name}_sum"), help, mean_s * cumulative as f64);
    registry.counter(&format!("{name}_count"), help, cumulative as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucket loop: touched buckets + the last, cumulative counts,
    /// `+Inf`, `_sum` as `mean_s * count` and `_count`.
    #[test]
    fn histograms_export_cumulative_touched_buckets() {
        let mut registry = MetricsRegistry::new();
        register_histogram(&mut registry, "wait", "Wait", &[2, 0, 3, 0], 0.5);
        assert_eq!(
            registry.to_prometheus(),
            "# HELP wait_bucket Wait\n# TYPE wait_bucket counter\n\
             wait_bucket{le=\"0.000002\"} 2\nwait_bucket{le=\"0.000008\"} 5\n\
             wait_bucket{le=\"0.000016\"} 5\nwait_bucket{le=\"+Inf\"} 5\n\
             # HELP wait_sum Wait\n# TYPE wait_sum counter\nwait_sum 2.5\n\
             # HELP wait_count Wait\n# TYPE wait_count counter\nwait_count 5\n"
        );
    }

    #[test]
    fn latency_histogram_reports_bucket_upper_bounds_and_the_exact_mean() {
        let hist = LatencyHistogram::default();
        assert_eq!((hist.quantile(0.5), hist.mean()), (0.0, 0.0));
        for seconds in [0.25, 0.25, 0.25, 4.0] {
            hist.record(seconds);
        }
        // 250 000 µs lands in (2^17, 2^18] µs, 4 000 000 µs in (2^21, 2^22].
        assert_eq!(hist.quantile(0.5), (1u64 << 18) as f64 / 1e6);
        assert_eq!(hist.quantile(0.99), (1u64 << 22) as f64 / 1e6);
        assert_eq!(hist.mean(), 1.1875);
        let buckets = hist.buckets();
        assert_eq!(buckets.len(), HIST_BUCKETS);
        assert_eq!((buckets[17], buckets[21]), (3, 1));
        assert_eq!(buckets.iter().sum::<u64>(), 4);
    }
}

//! The batch optimization driver: many modules, many threads, one cache.
//!
//! [`SearchDriver::run`] is the batch entry point of the search subsystem:
//! it fans a batch out through the rollout engine's claim loop
//! ([`mlir_rl_agent::fan_out`]) — the caller searches as worker 0, named
//! `search-worker-<w>` threads claim the next module index from one shared
//! counter, outcomes merge back in module order — so training and serving
//! share one fan-out.

use std::time::Instant;

use mlir_rl_agent::{episode_seed, fan_out, PolicyModel};
use mlir_rl_costmodel::hit_rate;
use mlir_rl_env::OptimizationEnv;
use mlir_rl_ir::Module;

use crate::searcher::{MemberStatus, SearchOutcome, Searcher};

/// Fans a batch of modules out over worker threads, each running the same
/// [`Searcher`] with its own environment and policy snapshot — the
/// batch-serving entry point of the search subsystem. A [`crate::Portfolio`]
/// is a searcher like any other: pass one to run its roster on every module
/// and aggregate the attribution with
/// [`BatchSearchReport::member_attribution`].
///
/// Every worker environment, the caller's included, is an
/// [`OptimizationEnv::clone_sharing_cache`] duplicate of the template, so
/// every worker (and every branch of every search) hits the template's own
/// evaluation table, which stays warm for the caller's next batch (pass a
/// plain clone of the template to search on a private copy instead); the
/// report carries the table's global hit/miss counters for the batch. Each
/// module's search is seeded with `episode_seed(base_seed, module_index)`,
/// so the outcomes are **bit-for-bit identical for any worker count**
/// (cached values are deterministic; only cache hit/miss *counts* may
/// differ) — the worker count is purely a throughput knob, exactly like the
/// rollout engine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchDriver {
    /// Worker threads, the caller included (1 = search in the calling
    /// thread only).
    pub workers: usize,
    /// Base seed mixed with each module index.
    pub base_seed: u64,
}

impl SearchDriver {
    /// Creates a driver with the given worker count and base seed 0.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            base_seed: 0,
        }
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Optimizes every module of the batch with `searcher`, returning
    /// outcomes in module order plus the batch-wide shared-cache
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics if a search panics on any thread (see [`fan_out`]).
    pub fn run<P, S>(
        &self,
        env_template: &OptimizationEnv,
        policy: &P,
        searcher: &S,
        modules: &[Module],
    ) -> BatchSearchReport
    where
        P: PolicyModel,
        S: Searcher<P> + ?Sized,
    {
        let start = Instant::now();
        let shared = env_template.cache();
        let (hits_before, misses_before) = (shared.hits(), shared.misses());
        let workers = self.workers.max(1).min(modules.len().max(1));
        let states = (0..workers)
            .map(|_| (env_template.clone_sharing_cache(), policy.clone()))
            .collect();
        let outcomes = fan_out(
            modules.len(),
            "search-worker",
            states,
            |(env, policy), index| {
                let seed = episode_seed(self.base_seed, index as u64);
                searcher.search(env, policy, &modules[index], seed)
            },
        );
        BatchSearchReport {
            outcomes,
            shared_cache_hits: shared.hits() - hits_before,
            shared_cache_misses: shared.misses() - misses_before,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

impl Default for SearchDriver {
    fn default() -> Self {
        Self::new(1)
    }
}

/// The result of one batch search.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSearchReport {
    /// Per-module outcomes, in the order the modules were given.
    pub outcomes: Vec<SearchOutcome>,
    /// Lookups served by the shared table across the whole batch.
    pub shared_cache_hits: u64,
    /// Lookups that ran the estimator across the whole batch.
    pub shared_cache_misses: u64,
    /// Wall-clock time of the batch, seconds.
    pub wall_s: f64,
}

impl BatchSearchReport {
    /// Batch-wide fraction of lookups served by the shared cache.
    pub fn shared_cache_hit_rate(&self) -> f64 {
        hit_rate(self.shared_cache_hits, self.shared_cache_misses)
    }

    /// Geometric mean of the per-module speedups (1.0 for an empty batch).
    pub fn geomean_speedup(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        (self
            .outcomes
            .iter()
            .map(|o| o.speedup.max(1e-12).ln())
            .sum::<f64>()
            / self.outcomes.len() as f64)
            .exp()
    }

    /// Total estimator runs across the batch (the evaluation budget spent).
    pub fn total_evaluations(&self) -> usize {
        self.outcomes.iter().map(|o| o.evaluations).sum()
    }

    /// Total environment steps across every branch of every search.
    pub fn total_nodes_expanded(&self) -> usize {
        self.outcomes.iter().map(|o| o.nodes_expanded).sum()
    }

    /// Aggregates the per-member attribution of a portfolio batch: one row
    /// per roster rank, in rank order, summed over every module's outcome.
    /// Empty for non-portfolio batches (no outcome carries member rows).
    pub fn member_attribution(&self) -> Vec<MemberAggregate> {
        let mut rows: Vec<MemberAggregate> = Vec::new();
        for outcome in &self.outcomes {
            for member in &outcome.members {
                if rows.len() <= member.rank {
                    rows.resize_with(member.rank + 1, || MemberAggregate {
                        member: member.member.clone(),
                        rank: member.rank,
                        ..MemberAggregate::default()
                    });
                }
                let row = &mut rows[member.rank];
                row.member = member.member.clone();
                row.rank = member.rank;
                if member.winner {
                    row.wins += 1;
                }
                if member.reached_target {
                    row.reached_target += 1;
                }
                if member.status == MemberStatus::Stopped {
                    row.stopped += 1;
                }
                if member.status == MemberStatus::Skipped {
                    row.skipped += 1;
                }
                row.evaluations += member.evaluations;
                row.cache_hits += member.cache_hits;
                row.nodes_expanded += member.nodes_expanded;
            }
        }
        rows
    }
}

/// One roster member's totals across a whole portfolio batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MemberAggregate {
    /// Display name of the member searcher.
    pub member: String,
    /// Roster rank.
    pub rank: usize,
    /// Modules on which this member's schedule was the portfolio's best.
    pub wins: usize,
    /// Modules on which this member reached the racing target.
    pub reached_target: usize,
    /// Modules on which the caller's stop cut this member short.
    pub stopped: usize,
    /// Modules on which this member never ran (budget spent, stop fired or
    /// an earlier racing member won).
    pub skipped: usize,
    /// Estimator runs attributed to this member across the batch.
    pub evaluations: usize,
    /// Shared-cache hits attributed to this member across the batch.
    pub cache_hits: usize,
    /// Environment steps attributed to this member across the batch.
    pub nodes_expanded: usize,
}

impl MemberAggregate {
    /// Total cost-model lookups attributed to this member.
    pub fn total_lookups(&self) -> usize {
        self.evaluations + self.cache_hits
    }
}

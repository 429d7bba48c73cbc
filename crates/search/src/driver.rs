//! The batch optimization driver: many modules, many threads, one cache.

use std::time::Instant;

use mlir_rl_agent::{episode_seed, PolicyModel};
use mlir_rl_env::OptimizationEnv;
use mlir_rl_ir::Module;

use crate::portfolio::Portfolio;
use crate::searcher::{MemberStatus, SearchOutcome, Searcher};

/// One unit of work for [`SearchDriver::run_jobs`]: a module, the searcher
/// to run on it, and the search seed. This is the driver's most general
/// interface — every job may pair a different searcher, module and seed on
/// one shared cache; the homogeneous [`SearchDriver::run`] entry point
/// builds its jobs from a single searcher and per-index seeds.
pub struct SearchJob<'a, P: PolicyModel> {
    /// Module to optimize.
    pub module: &'a Module,
    /// Searcher to run.
    pub searcher: &'a (dyn Searcher<P> + 'a),
    /// Search seed (the determinism contract is per-job: same module,
    /// searcher, policy and seed ⇒ same outcome, any worker count).
    pub seed: u64,
}

impl<'a, P: PolicyModel> SearchJob<'a, P> {
    /// A run-to-completion job.
    pub fn new(module: &'a Module, searcher: &'a (dyn Searcher<P> + 'a), seed: u64) -> Self {
        Self {
            module,
            searcher,
            seed,
        }
    }

    fn run(&self, env: &mut OptimizationEnv, policy: &mut P) -> SearchOutcome {
        self.searcher.search(env, policy, self.module, self.seed)
    }
}

/// Fans a batch of modules out over worker threads, each running the same
/// [`Searcher`] with its own environment handle and policy snapshot —
/// the batch-serving entry point of the search subsystem.
///
/// Every worker environment is an
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
    /// Worker threads (1 = search in the calling thread).
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
        let jobs: Vec<SearchJob<P>> = modules
            .iter()
            .enumerate()
            .map(|(index, module)| {
                SearchJob::new(
                    module,
                    &searcher,
                    episode_seed(self.base_seed, index as u64),
                )
            })
            .collect();
        self.run_jobs(env_template, policy, &jobs)
    }

    /// Runs an arbitrary list of [`SearchJob`]s — possibly every one with a
    /// different searcher, module and seed — over the worker threads,
    /// returning outcomes in job order plus the batch-wide shared-cache
    /// accounting. The determinism contract of [`SearchDriver::run`] holds
    /// per job: outcomes are bit-for-bit identical for any worker count
    /// (only cache hit/miss *counts* shift with table warmth).
    pub fn run_jobs<P: PolicyModel>(
        &self,
        env_template: &OptimizationEnv,
        policy: &P,
        jobs: &[SearchJob<P>],
    ) -> BatchSearchReport {
        let start = Instant::now();
        let mut master = env_template.clone_sharing_cache();
        let shared = master.cache().shared_backend().clone();
        let hits_before = shared.hits();
        let misses_before = shared.misses();

        let n = jobs.len();
        let workers = self.workers.min(n.max(1));
        let mut slots: Vec<Option<SearchOutcome>> = (0..n).map(|_| None).collect();

        if workers <= 1 {
            let mut policy = policy.clone();
            for (job, slot) in jobs.iter().zip(slots.iter_mut()) {
                *slot = Some(job.run(&mut master, &mut policy));
            }
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for worker in 0..workers {
                    let mut worker_env = master.clone_sharing_cache();
                    let mut worker_policy = policy.clone();
                    handles.push(scope.spawn(move || {
                        let mut collected = Vec::new();
                        let mut index = worker;
                        while index < n {
                            collected.push((
                                index,
                                jobs[index].run(&mut worker_env, &mut worker_policy),
                            ));
                            index += workers;
                        }
                        collected
                    }));
                }
                for handle in handles {
                    for (index, outcome) in handle.join().expect("search worker panicked") {
                        slots[index] = Some(outcome);
                    }
                }
            });
        }

        BatchSearchReport {
            outcomes: slots
                .into_iter()
                .map(|o| o.expect("every job was assigned to a worker"))
                .collect(),
            shared_cache_hits: shared.hits() - hits_before,
            shared_cache_misses: shared.misses() - misses_before,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Optimizes every module of the batch with a [`Portfolio`]: each
    /// module's search runs the whole roster (round-robin or racing) and
    /// all modules — and all members of every module's roster — share one
    /// evaluation cache, so warmth crosses both member and module
    /// boundaries. Outcomes carry per-member attribution; aggregate it
    /// across the batch with [`BatchSearchReport::member_attribution`].
    /// Like [`SearchDriver::run`], results are bit-for-bit identical for
    /// any worker count (both portfolio modes run their members serially
    /// in rank order — see [`Portfolio`]).
    pub fn run_portfolio<P>(
        &self,
        env_template: &OptimizationEnv,
        policy: &P,
        portfolio: &Portfolio<P>,
        modules: &[Module],
    ) -> BatchSearchReport
    where
        P: PolicyModel,
    {
        self.run(env_template, policy, portfolio, modules)
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
        let total = self.shared_cache_hits + self.shared_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.shared_cache_hits as f64 / total as f64
        }
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

//! The common search interface and its outcome type.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mlir_rl_agent::PolicyModel;
use mlir_rl_costmodel::hit_rate;
use mlir_rl_env::{Action, OptimizationEnv};
use mlir_rl_ir::Module;
use mlir_rl_transforms::Schedule;

/// The result of searching the schedule space of one module.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Name of the searcher that produced this outcome.
    pub searcher: String,
    /// Name of the optimized module.
    pub module: String,
    /// Baseline (untransformed) execution-time estimate, seconds. Like
    /// `best_s`, this is the noise-free cost-model quantity — search scores
    /// schedules analytically; the measurement-noise protocol belongs to
    /// the training environment's episode stats.
    pub baseline_s: f64,
    /// Best execution-time estimate found, seconds (noise-free).
    pub best_s: f64,
    /// Speedup of the best schedule over the baseline.
    pub speedup: f64,
    /// The environment action sequence that reproduces the best schedule.
    pub best_actions: Vec<Action>,
    /// The best per-operation transformation lists (indexed by operation
    /// id), as materialized by replaying `best_actions`.
    pub best_schedule: Vec<Schedule>,
    /// Environment steps taken across every branch of the search.
    pub nodes_expanded: usize,
    /// Cost-model evaluations actually performed (cache misses) during the
    /// search.
    pub evaluations: usize,
    /// Evaluation requests served by the schedule-keyed cache.
    pub cache_hits: usize,
    /// Per-member attribution when this outcome came from a
    /// [`crate::Portfolio`] search (empty for plain searchers), one row per
    /// roster rank.
    pub members: Vec<MemberOutcome>,
}

impl SearchOutcome {
    /// Total cost-model lookups of the search
    /// (`evaluations + cache_hits`; the same invariant as
    /// [`mlir_rl_env::EpisodeStats::total_lookups`]).
    pub fn total_lookups(&self) -> usize {
        self.evaluations + self.cache_hits
    }

    /// Fraction of lookups served by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        hit_rate(self.cache_hits as u64, self.evaluations as u64)
    }
}

/// How one member of a portfolio search finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// The member ran its full search.
    Completed,
    /// The caller's stop (a cancellation or deadline) fired during this
    /// member's run; its numbers cover only the work up to the stop.
    Stopped,
    /// The member never ran: the portfolio's lookup budget was spent, the
    /// caller's stop had fired, or an earlier member won the race.
    Skipped,
}

/// One portfolio member's contribution to a [`SearchOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberOutcome {
    /// Display name of the member searcher.
    pub member: String,
    /// Roster index (members run in rank order).
    pub rank: usize,
    /// Best speedup this member found (1.0 for a skipped member).
    pub speedup: f64,
    /// Best execution-time estimate this member found, seconds.
    pub best_s: f64,
    /// Environment steps this member took.
    pub nodes_expanded: usize,
    /// Estimator runs this member's lookups caused.
    pub evaluations: usize,
    /// Lookups the shared cache served for this member.
    pub cache_hits: usize,
    /// Whether this member reached the racing target speedup.
    pub reached_target: bool,
    /// Whether this member's schedule is the portfolio's reported best.
    pub winner: bool,
    /// How the member finished.
    pub status: MemberStatus,
}

impl MemberOutcome {
    /// Total cost-model lookups of the member
    /// (`evaluations + cache_hits`).
    pub fn total_lookups(&self) -> usize {
        self.evaluations + self.cache_hits
    }
}

/// Cooperative early-stop channel of a search: a cancel flag shared by
/// every clone of the token, plus an optional wall-clock deadline.
///
/// A stop-aware search checks [`StopToken::stops`] at its iteration
/// boundaries and finishes early with its best-so-far once the token is
/// cancelled or its deadline has passed. Both are timing-based, so anything
/// cut short by a stop is outside the determinism contract; a fresh token
/// never fires.
#[derive(Debug, Clone, Default)]
pub struct StopToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl StopToken {
    /// A token that is not cancelled and has no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a wall-clock deadline: from `deadline` on,
    /// [`StopToken::stops`] fires.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True once the attached deadline has passed (never for a token
    /// without one).
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Cancels the token and every clone of it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`StopToken::cancel`] was called on this token or a clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// True when a search should wind down with its best-so-far: the token
    /// was cancelled or its deadline has passed.
    pub fn stops(&self) -> bool {
        self.is_cancelled() || self.expired()
    }
}

/// A schedule-search procedure over the RL environment.
///
/// Implementations must be deterministic in `seed`: the same environment
/// configuration, policy, module and seed produce the same outcome (up to
/// cache hit/miss counts, which depend on what was already memoized). The
/// environment is handed in hot — its evaluation cache persists across
/// calls, which is what makes repeated searches (and batch searches through
/// [`crate::SearchDriver`]) cheap.
pub trait Searcher<P: PolicyModel>: Send + Sync {
    /// Display name of the searcher (used in tables and reports).
    fn name(&self) -> String;

    /// Searches the schedule space of `module` and returns the best
    /// schedule found, cooperatively interruptible: the search should check
    /// `stop.stops()` at its iteration boundaries and finish early with its
    /// best-so-far once it fires (a served request's cancellation or
    /// deadline). Atomic searchers (greedy decoding, the baseline
    /// adapters), whose one episode cannot meaningfully be cut short,
    /// ignore the token.
    fn search_with_stop(
        &self,
        env: &mut OptimizationEnv,
        policy: &mut P,
        module: &Module,
        seed: u64,
        stop: &StopToken,
    ) -> SearchOutcome;

    /// Searches the schedule space of `module` to completion, under a
    /// fresh token that never fires.
    fn search(
        &self,
        env: &mut OptimizationEnv,
        policy: &mut P,
        module: &Module,
        seed: u64,
    ) -> SearchOutcome {
        self.search_with_stop(env, policy, module, seed, &StopToken::new())
    }
}

/// Puts the environment's measurement-noise stream (when configured) in a
/// canonical per-search state derived from the search seed, the same way
/// the rollout engine reseeds per episode — so a search is deterministic in
/// its seed regardless of what ran on this environment before, and the
/// driver's outcomes stay worker-count invariant under noise.
pub(crate) fn reseed_for_search(env: &mut OptimizationEnv, seed: u64) {
    if let Some(noise_seed) = env.config().noise_seed {
        env.reseed_noise(mlir_rl_agent::episode_seed(noise_seed, seed));
    }
}

/// Snapshot of an environment's lifetime lookup counters, to attribute a
/// delta of lookups to one search (the counters survive `env.reset`, which
/// zeroes only the per-episode accounting, and count only this
/// environment's lookups, not those of other environments on its table).
pub(crate) struct LookupMeter {
    hits: u64,
    misses: u64,
}

impl LookupMeter {
    pub(crate) fn start(env: &OptimizationEnv) -> Self {
        Self {
            hits: env.lifetime_hits(),
            misses: env.lifetime_misses(),
        }
    }

    /// `(evaluations, cache_hits)` observed since `start`.
    pub(crate) fn finish(&self, env: &OptimizationEnv) -> (usize, usize) {
        (
            (env.lifetime_misses() - self.misses) as usize,
            (env.lifetime_hits() - self.hits) as usize,
        )
    }
}

/// Replays an action sequence on a fresh episode and returns the resulting
/// per-operation schedules (the materialized best schedule).
pub(crate) fn materialize_schedule(
    env: &mut OptimizationEnv,
    module: &Arc<Module>,
    actions: &[Action],
) -> Vec<Schedule> {
    env.restart(Arc::clone(module));
    for action in actions {
        env.step(action);
    }
    env.scheduled()
        .map(|s| s.states().iter().map(|st| st.schedule.clone()).collect())
        .unwrap_or_default()
}

/// The best terminal state a search has found so far: its estimated time
/// and the action sequence that reproduces it.
pub(crate) struct BestFound {
    pub(crate) time_s: f64,
    pub(crate) actions: Vec<Action>,
}

/// Assembles a [`SearchOutcome`] from a finished search: materializes the
/// best schedule by replay and reads the lookup meter.
pub(crate) fn finish_outcome(
    name: String,
    env: &mut OptimizationEnv,
    module: &Arc<Module>,
    meter: &LookupMeter,
    baseline_s: f64,
    best: BestFound,
    nodes_expanded: usize,
) -> SearchOutcome {
    let best_schedule = materialize_schedule(env, module, &best.actions);
    let (evaluations, cache_hits) = meter.finish(env);
    SearchOutcome {
        searcher: name,
        module: module.name().to_string(),
        baseline_s,
        best_s: best.time_s,
        speedup: if best.time_s > 0.0 {
            baseline_s / best.time_s
        } else {
            1.0
        },
        best_actions: best.actions,
        best_schedule,
        nodes_expanded,
        evaluations,
        cache_hits,
        members: Vec::new(),
    }
}

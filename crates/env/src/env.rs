//! The MLIR RL optimization environment (Sec. III and IV).
//!
//! An episode optimizes one module: operations are visited in reverse
//! program order (consumers before producers, so fusion opportunities are
//! preserved); at every step the agent applies one transformation to the
//! operation currently being optimized; terminal actions (vectorization or
//! "no transformation") move to the next operation; the episode ends when
//! every operation has been visited. The reward is the log-speedup of the
//! optimized module over the untransformed baseline, estimated by the
//! analytical cost model (the substitute for the paper's real executions).
//!
//! An observation is a read of the current decision point, not a by-product
//! of acting: [`OptimizationEnv::step`] applies the action, advances the
//! visit cursor and scores the reward, but extracts no features. The first
//! observation comes back from [`OptimizationEnv::reset`], which is
//! [`OptimizationEnv::restart`] plus that observation; after a step, a
//! caller that decides from features asks for
//! [`OptimizationEnv::current_observation`], and one that needs only the
//! legal actions (random search) asks for the cheaper
//! [`OptimizationEnv::current_mask`]. Replays, random episodes and search
//! branches that are re-observed after a restore pay for no observation at
//! all.
//!
//! Every estimate goes through the environment's schedule-keyed
//! [`SharedEvalCache`], which the environment holds directly together with
//! its trace probe. One private method, `cached_total_s`, makes every
//! lookup and classifies it into the episode's counters
//! ([`EpisodeStats::evaluations`] / [`EpisodeStats::cache_hits`]) and the
//! environment's lifetime pair ([`OptimizationEnv::lifetime_hits`] /
//! [`OptimizationEnv::lifetime_misses`]); the table's own counters are
//! global across every environment that shares it.
//!
//! What the episode's module alone determines — its fingerprint and its
//! ops' operand accesses — is one record per module allocation, built by
//! [`OptimizationEnv::restart`] and shared by `Arc` with every snapshot,
//! restore and clone of the episodes on that allocation. A restart on the
//! live episode's own allocation keeps the record and rewinds the schedule
//! states inside their buffers. The visit order is not stored: op ids are
//! positions, so with `ops` ops the op visited at cursor `i` is
//! `ops - 1 - i`. A miss is priced from the record's
//! operand accesses, built on the module's first miss, so an episode whose
//! lookups all hit builds none.

use std::sync::{Arc, OnceLock};

use mlir_rl_costmodel::{
    module_fingerprint, operand_accesses, CostModel, MeasurementNoise, OperandAccess,
    PricingScratch, ScheduleKey, SharedEvalCache, DEFAULT_EVAL_CACHE_CAPACITY,
};
use mlir_rl_ir::{Module, OpId};
use mlir_rl_obs::ProbeRef;
use mlir_rl_transforms::{ScheduledModule, TransformError, Transformation, TransformationKind};

use crate::action::Action;
use crate::config::{EnvConfig, RewardMode};
use crate::features::{extract_features, zero_features, Features};
use crate::mask::{compute_mask, ActionMask};
use crate::reward::{log_speedup, step_reward};

/// What the agent observes before choosing an action.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Representation vector of the operation being optimized (the
    /// consumer), as the list of its non-zeros.
    pub consumer: Features,
    /// Representation vector of its last producer (all zeros — an empty
    /// list — when there is none).
    pub producer: Features,
    /// Action masks for every policy head.
    pub mask: ActionMask,
    /// Number of loops of the operation being optimized.
    pub num_loops: usize,
    /// The operation being optimized.
    pub op: OpId,
}

/// Result of one environment step. It carries no observation: the next one
/// is [`OptimizationEnv::current_observation`] (or its mask alone,
/// [`OptimizationEnv::current_mask`]), `None` exactly when `done`.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// The reward of this step.
    pub reward: f64,
    /// Whether the episode has ended.
    pub done: bool,
    /// Whether the requested transformation was actually applied (illegal
    /// requests are ignored but still consume a step).
    pub applied: bool,
    /// Execution-time estimate of the module after this step, in seconds
    /// (only refreshed when the reward mode required an evaluation).
    pub current_time_s: f64,
}

/// The per-episode statistics the training loop and the benchmark harness
/// consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeStats {
    /// Baseline (untransformed) execution time, seconds.
    pub baseline_s: f64,
    /// Final optimized execution time, seconds.
    pub final_s: f64,
    /// End-to-end speedup over the baseline.
    pub speedup: f64,
    /// Environment steps taken.
    pub steps: usize,
    /// Cost-model evaluations performed (the execution count that makes the
    /// immediate-reward mode expensive, Fig. 7). Evaluations served from the
    /// schedule-keyed cache are *not* counted here.
    pub evaluations: usize,
    /// Evaluation requests answered by the schedule-keyed cache instead of
    /// running the estimator.
    pub cache_hits: usize,
}

impl EpisodeStats {
    /// Total cost-model lookups of the episode. Every lookup is classified
    /// as exactly one of `evaluations` (estimator ran) or `cache_hits`
    /// (served from memory), so `evaluations + cache_hits == total_lookups`
    /// always holds — the invariant the rollout engine and the search
    /// subsystem both report against.
    pub fn total_lookups(&self) -> usize {
        self.evaluations + self.cache_hits
    }
}

/// What the environment derives from one module allocation. The episode's
/// [`ScheduledModule`] holds that allocation, so a record never outlives
/// its module's address.
#[derive(Debug)]
struct ModuleRecord {
    fingerprint: u64,
    /// The operand accesses of each op, in op order; built on the first miss.
    accesses: OnceLock<Vec<Vec<OperandAccess>>>,
}

/// A resumable snapshot of a live episode.
///
/// Search procedures branch the environment: they take a snapshot at a
/// decision point, try an action, and [`OptimizationEnv::restore`] to try
/// the next one — without re-running the transformation sequence from the
/// episode start. The snapshot captures everything episode-specific
/// (schedule state — whose transformation lists are also the observations'
/// action histories — visit cursor, timings, counters and the noise
/// stream); the configuration, cost model and evaluation cache
/// stay with the environment, so all branches of a search share one cache.
#[derive(Debug, Clone)]
pub struct EpisodeSnapshot {
    scheduled: Option<ScheduledModule>,
    /// The record of `scheduled`'s module (`None` exactly when it is).
    module: Option<Arc<ModuleRecord>>,
    current_index: usize,
    baseline_s: f64,
    current_s: f64,
    steps_on_current_op: usize,
    total_steps: usize,
    evaluations: usize,
    cache_hits: usize,
    noise: Option<MeasurementNoise>,
}

impl EpisodeSnapshot {
    /// The state before any [`OptimizationEnv::reset`]: no module, zeroed
    /// counters. Owns no heap memory.
    fn idle(noise: Option<MeasurementNoise>) -> Self {
        Self {
            scheduled: None,
            module: None,
            current_index: 0,
            baseline_s: 0.0,
            current_s: 0.0,
            steps_on_current_op: 0,
            total_steps: 0,
            evaluations: 0,
            cache_hits: 0,
            noise,
        }
    }
}

/// The optimization environment.
///
/// Every environment looks its cost-model evaluations up in one
/// [`SharedEvalCache`] table, and the two ways to duplicate an environment
/// differ only in which table the duplicate uses: [`Clone::clone`] gives an
/// independent environment — a private table that starts with the
/// original's entries — while [`OptimizationEnv::clone_sharing_cache`]
/// gives another environment on the *same* table, which is what worker
/// threads of one rollout batch, search or service take.
/// [`OptimizationEnv::new`] starts an empty private table;
/// [`OptimizationEnv::replace_cache`] swaps the table for any other.
///
/// The table's own counters are global across every environment on it;
/// this environment's lookups are counted here, by
/// [`OptimizationEnv::lifetime_hits`] / [`OptimizationEnv::lifetime_misses`]
/// and the episode counters.
#[derive(Debug)]
pub struct OptimizationEnv {
    config: EnvConfig,
    cost_model: CostModel,
    /// Everything episode-specific, so [`OptimizationEnv::snapshot`] is a
    /// clone of this member and [`OptimizationEnv::restore`] an assignment.
    episode: EpisodeSnapshot,
    cache: SharedEvalCache,
    /// Mirrors every lookup of this environment into a trace; off by
    /// default.
    probe: ProbeRef,
    /// Lookups of this environment served by the table, since it was made.
    hits: u64,
    /// Lookups of this environment that ran the estimator, since it was
    /// made.
    misses: u64,
    /// Where misses are lowered and priced. Not episode state: it sits
    /// outside [`EpisodeSnapshot`], and duplicates start with an empty one.
    pricing: PricingScratch,
}

impl Clone for OptimizationEnv {
    /// An independent environment: the same configuration, cost model, live
    /// episode, probe and lifetime counters over a
    /// [`SharedEvalCache::private_copy`] of the table.
    fn clone(&self) -> Self {
        Self {
            cache: self.cache.private_copy(),
            hits: self.hits,
            misses: self.misses,
            ..self.clone_sharing_cache()
        }
    }
}

impl OptimizationEnv {
    /// Creates an environment with the given configuration and cost model.
    pub fn new(config: EnvConfig, cost_model: CostModel) -> Self {
        config.validate();
        let episode = EpisodeSnapshot::idle(config.noise_seed.map(MeasurementNoise::new));
        Self {
            config,
            cost_model,
            episode,
            cache: SharedEvalCache::new(DEFAULT_EVAL_CACHE_CAPACITY),
            probe: ProbeRef::none(),
            hits: 0,
            misses: 0,
            pricing: PricingScratch::default(),
        }
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The cost model used for rewards.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Starts a new episode on the given module and returns the first
    /// observation (`None` if the module has no operations): a
    /// [`Self::restart`], then the observation of its first decision point.
    pub fn reset(&mut self, module: impl Into<Arc<Module>>) -> Option<Observation> {
        self.restart(module);
        self.observation()
    }

    /// Starts a new episode on the given module without observing it, for
    /// callers that read only the mask ([`Self::current_mask`]) or the
    /// schedule; [`Self::reset`] is this plus the first observation.
    ///
    /// A plain `Module` is moved into a new allocation. A search that runs
    /// many episodes on one module wraps it in an `Arc` once and passes
    /// clones of that `Arc`: when it points at the live episode's own
    /// module, the episode keeps that module's record (fingerprint and
    /// operand accesses) and rewinds its schedule states in place
    /// ([`ScheduledModule::rewind`]) instead of reallocating them. That is
    /// sound because nothing writes a module once a [`ScheduledModule`]
    /// wraps it, and the live episode's reference keeps the address from
    /// being reused. Schedule states (and with them the observations'
    /// action histories), counters, the baseline lookup and the noise draw
    /// are always fresh.
    pub fn restart(&mut self, module: impl Into<Arc<Module>>) {
        let module = module.into();
        let max_len = self.config.max_schedule_len;
        let scheduled = match self.episode.scheduled.take() {
            Some(mut live) if live.shares_module(&module) && live.max_schedule_len() == max_len => {
                live.rewind();
                live
            }
            _ => {
                self.episode.module = Some(Arc::new(ModuleRecord {
                    fingerprint: module_fingerprint(&module),
                    accesses: OnceLock::new(),
                }));
                ScheduledModule::with_max_schedule_len(module, max_len)
            }
        };
        self.episode.current_index = 0;
        self.episode.steps_on_current_op = 0;
        self.episode.total_steps = 0;
        self.episode.evaluations = 0;
        self.episode.cache_hits = 0;
        let baseline = self.cached_total_s(&scheduled);
        self.episode.baseline_s = self.measure(baseline);
        self.episode.current_s = self.episode.baseline_s;
        self.episode.scheduled = Some(scheduled);
        self.skip_unavailable_ops();
    }

    /// The operation currently being optimized, if the episode is live.
    /// Operations are visited in reverse program order, and an op's id is
    /// its position.
    pub fn current_op(&self) -> Option<OpId> {
        let ops = self.episode.scheduled.as_ref()?.module().ops().len();
        let index = self.episode.current_index;
        (index < ops).then(|| OpId(ops - 1 - index))
    }

    /// The scheduled module of the current episode.
    pub fn scheduled(&self) -> Option<&ScheduledModule> {
        self.episode.scheduled.as_ref()
    }

    /// Number of cost-model evaluations actually performed (cache misses)
    /// so far this episode.
    pub fn evaluations(&self) -> usize {
        self.episode.evaluations
    }

    /// The schedule-keyed evaluation table this environment looks up in.
    /// Its counters are global across every environment on the table; this
    /// environment's own are [`OptimizationEnv::lifetime_hits`] and
    /// [`OptimizationEnv::lifetime_misses`].
    pub fn cache(&self) -> &SharedEvalCache {
        &self.cache
    }

    /// Lookups of this environment served by the table since it was made
    /// (or duplicated with [`OptimizationEnv::clone_sharing_cache`]); they
    /// survive [`OptimizationEnv::reset`], unlike the episode counters.
    pub fn lifetime_hits(&self) -> u64 {
        self.hits
    }

    /// Lookups of this environment that ran the estimator since it was made
    /// (or duplicated with [`OptimizationEnv::clone_sharing_cache`]).
    pub fn lifetime_misses(&self) -> u64 {
        self.misses
    }

    /// Attaches a trace probe to this environment's evaluation path:
    /// cache hits/misses and budget charges are mirrored as trace events,
    /// and searchers read the handle back (via [`OptimizationEnv::probe`])
    /// to emit their own phase events against the same trace id. Emission
    /// is purely observational and never perturbs outcomes; pass
    /// [`ProbeRef::none`] to detach. The probe rides along on environment
    /// clones but is *not* part of episode snapshots.
    pub fn set_probe(&mut self, probe: ProbeRef) {
        self.probe = probe;
    }

    /// The trace probe events from this environment are attributed to.
    pub fn probe(&self) -> &ProbeRef {
        &self.probe
    }

    /// Replaces the evaluation table, returning the previous one. The
    /// lifetime counters and the probe stay with the environment.
    pub fn replace_cache(&mut self, cache: SharedEvalCache) -> SharedEvalCache {
        std::mem::replace(&mut self.cache, cache)
    }

    /// A duplicate of this environment (configuration, cost model, live
    /// episode, probe) whose lookups go through the *same* evaluation
    /// table: an estimate computed by either serves hits to the other. The
    /// rollout engine, the search driver and the service
    /// give every worker one of these, so all workers and all branches of a
    /// search share one cache. The duplicate's lifetime counters start at
    /// zero.
    pub fn clone_sharing_cache(&self) -> Self {
        Self {
            config: self.config.clone(),
            cost_model: self.cost_model.clone(),
            episode: self.episode.clone(),
            cache: self.cache.clone(),
            probe: self.probe.clone(),
            hits: 0,
            misses: 0,
            pricing: PricingScratch::default(),
        }
    }

    /// Total cost-model lookups so far this episode
    /// (`evaluations + cache_hits`).
    pub fn total_lookups(&self) -> usize {
        self.episode.evaluations + self.episode.cache_hits
    }

    /// Reseeds the measurement-noise stream (no-op when the configuration
    /// disables noise). The parallel rollout engine calls this with a
    /// per-episode seed so that trajectories are identical no matter which
    /// worker runs them.
    pub fn reseed_noise(&mut self, seed: u64) {
        if let Some(noise) = &mut self.episode.noise {
            let sigma = noise.relative_sigma;
            *noise = MeasurementNoise::with_sigma(seed, sigma);
        }
    }

    /// Episode statistics; meaningful once the episode is done (but callable
    /// at any point).
    pub fn stats(&mut self) -> EpisodeStats {
        let final_s = self.evaluate_current();
        EpisodeStats {
            baseline_s: self.episode.baseline_s,
            final_s,
            speedup: if final_s > 0.0 {
                self.episode.baseline_s / final_s
            } else {
                1.0
            },
            steps: self.episode.total_steps,
            evaluations: self.episode.evaluations,
            cache_hits: self.episode.cache_hits,
        }
    }

    /// Takes a snapshot of the live episode for later [`Self::restore`].
    /// The snapshot copies the schedule state and shares the episode's IR
    /// module (nothing writes it after [`Self::reset`]).
    pub fn snapshot(&self) -> EpisodeSnapshot {
        self.episode.clone()
    }

    /// Restores a previously taken snapshot, rewinding the episode to that
    /// decision point. The evaluation cache is *not* rewound: estimates
    /// memoized on an abandoned branch stay warm for the next one.
    pub fn restore(&mut self, snapshot: &EpisodeSnapshot) {
        // Release the abandoned branch's buffers *before* cloning, so the
        // allocator hands the clone the blocks it just got back; cloning
        // first measured 10 % slower (`env.snapshot_restore_us`, benchmark).
        self.episode = EpisodeSnapshot::idle(None);
        self.episode = snapshot.clone();
    }

    /// The observation of the current decision point (`None` when the
    /// episode is over): the consumer and producer feature lists plus the
    /// action mask. Besides [`Self::reset`], this is the only way to get
    /// an observation — after a [`Self::step`] or a [`Self::restore`] the
    /// caller asks for it, and pays for the two feature extractions only
    /// when it does.
    pub fn current_observation(&self) -> Option<Observation> {
        self.observation()
    }

    /// The action mask of the current decision point alone (`None` when the
    /// episode is over); equal to `current_observation()`'s mask, without
    /// extracting any features. Its [`ActionMask::num_loops`] is the
    /// observation's `num_loops`.
    pub fn current_mask(&self) -> Option<ActionMask> {
        let scheduled = self.episode.scheduled.as_ref()?;
        let op = self.current_op()?;
        Some(compute_mask(scheduled, op, &self.config))
    }

    /// Estimated execution time of the current schedule, through the cache,
    /// *without* measurement noise and without touching the episode's
    /// running time. Search procedures score branches with this (the
    /// lookup still counts toward `evaluations`/`cache_hits`).
    pub fn peek_time_s(&mut self) -> f64 {
        let Some(scheduled) = self.episode.scheduled.take() else {
            return self.episode.current_s;
        };
        let t = self.cached_total_s(&scheduled);
        self.episode.scheduled = Some(scheduled);
        t
    }

    /// Evaluates `scheduled` through the schedule-keyed cache, classifying
    /// the request into this episode's and this environment's hit/miss
    /// counters (the only place that accounting happens). The key's schedule
    /// half is the fingerprint `scheduled` keeps, so a hit hashes nothing. A
    /// miss prices the schedule from the module record's operand accesses
    /// in the environment's pricing scratch, bit for bit what
    /// [`CostModel::estimate_scheduled`] would report. `scheduled` reads
    /// the episode's module, whose record is [`EpisodeSnapshot`]'s.
    fn cached_total_s(&mut self, scheduled: &ScheduledModule) -> f64 {
        let record = self.episode.module.as_ref().expect("a reset module");
        let key = ScheduleKey {
            module: record.fingerprint,
            schedule: scheduled.fingerprint(),
        };
        let (total_s, was_hit) = self.cache.lookup(
            key,
            || {
                let accesses = record.accesses.get_or_init(|| {
                    let accesses =
                        |op| operand_accesses(op).expect("validated op has well-formed maps");
                    scheduled.module().ops().iter().map(accesses).collect()
                });
                self.cost_model
                    .total_s_with_accesses(scheduled, accesses, &mut self.pricing)
            },
            &self.probe,
        );
        if was_hit {
            self.episode.cache_hits += 1;
            self.hits += 1;
        } else {
            self.episode.evaluations += 1;
            self.misses += 1;
        }
        total_s
    }

    fn measure(&mut self, time_s: f64) -> f64 {
        match &mut self.episode.noise {
            Some(noise) => noise.measure_median(time_s, 5),
            None => time_s,
        }
    }

    /// Evaluates the current schedule with the cost model, through the
    /// schedule-keyed cache: a repeated schedule is served from memory and
    /// counted as a cache hit, a new schedule runs the roofline estimator
    /// and counts as an evaluation. It is [`Self::peek_time_s`] plus a
    /// measurement that becomes the episode's running time; before any
    /// episode it returns that time without drawing noise.
    pub fn evaluate_current(&mut self) -> f64 {
        if self.episode.scheduled.is_none() {
            return self.episode.current_s;
        }
        let t = self.peek_time_s();
        let measured = self.measure(t);
        self.episode.current_s = measured;
        measured
    }

    fn observation(&self) -> Option<Observation> {
        let mask = self.current_mask()?;
        let scheduled = self.episode.scheduled.as_ref()?;
        let op = self.current_op()?;
        let num_loops = scheduled.module().op(op).ok()?.num_loops();
        let consumer = extract_features(scheduled, op, &self.config);
        let producer = match scheduled.module().last_producer(op) {
            Some(p) => extract_features(scheduled, p, &self.config),
            None => zero_features(&self.config),
        };
        Some(Observation {
            consumer,
            producer,
            mask,
            num_loops,
            op,
        })
    }

    /// Skips operations that can no longer be optimized (already fused into
    /// a consumer).
    fn skip_unavailable_ops(&mut self) {
        while let (Some(op), Some(scheduled)) = (self.current_op(), self.episode.scheduled.as_ref())
        {
            if scheduled.state(op).fused_into.is_some() {
                self.episode.current_index += 1;
                self.episode.steps_on_current_op = 0;
            } else {
                return;
            }
        }
    }

    fn episode_done(&self) -> bool {
        self.current_op().is_none()
    }

    /// Applies one agent action: applies the transformation (the schedule
    /// it joins is also the op's action history), advances the visit cursor
    /// and scores the reward. It builds no observation; read the next one
    /// with [`Self::current_observation`] or [`Self::current_mask`].
    ///
    /// Illegal actions (which the masks normally prevent) are not applied
    /// but still consume a step; a tiled parallelization whose outermost
    /// tiled loop is a reduction is downgraded to plain tiling, mirroring
    /// how `scf.forall` tiling skips reduction dimensions.
    ///
    /// Every step counts against the current op, and the op is finished
    /// after at most `max_schedule_len + 2` of them, legal or not; the
    /// cursor never returns to a finished op. An episode therefore ends
    /// within `ops x (max_schedule_len + 2)` steps, whatever the actions,
    /// and a caller stepping until [`Self::current_observation`] reads
    /// `None` needs no bound of its own.
    pub fn step(&mut self, action: &Action) -> StepOutcome {
        if self.episode_done() || self.episode.scheduled.is_none() {
            return StepOutcome {
                reward: 0.0,
                done: true,
                applied: false,
                current_time_s: self.episode.current_s,
            };
        }
        let op = self.current_op().expect("episode not done");
        let scheduled = self.episode.scheduled.as_mut().expect("episode live");
        let num_loops = scheduled
            .module()
            .op(op)
            .expect("op belongs to module")
            .num_loops();
        let producer = scheduled.module().last_producer(op);

        self.episode.total_steps += 1;
        self.episode.steps_on_current_op += 1;
        let previous_s = self.episode.current_s;

        // Decode and apply. `apply` consumes the transformation; the rare
        // downgrade decodes the action a second time.
        let mut applied = false;
        let mut applied_kind = action.kind();
        if let Ok(transformation) = action.to_transformation(&self.config, num_loops, producer) {
            match scheduled.apply(op, transformation) {
                Ok(()) => applied = true,
                Err(TransformError::ParallelizingReduction { .. }) => {
                    // Downgrade to plain tiling.
                    if let Ok(Transformation::TiledParallelization { tile_sizes }) =
                        action.to_transformation(&self.config, num_loops, producer)
                    {
                        if scheduled
                            .apply(op, Transformation::Tiling { tile_sizes })
                            .is_ok()
                        {
                            applied = true;
                            applied_kind = TransformationKind::Tiling;
                        }
                    }
                }
                Err(_) => {}
            }
        }

        // Does this step end the optimization of the current operation?
        let op_finished = applied_kind.is_terminal()
            || (applied && scheduled.state(op).schedule.len() >= self.config.max_schedule_len)
            || self.episode.steps_on_current_op >= self.config.max_schedule_len + 2;
        if op_finished {
            // Freeze the op if it was not already terminated so that later
            // masks report it as closed.
            if !scheduled.state(op).is_terminated() {
                let _ = scheduled.apply(op, Transformation::NoTransformation);
            }
            self.episode.current_index += 1;
            self.episode.steps_on_current_op = 0;
            self.skip_unavailable_ops();
        }
        let done = self.episode_done();

        // Reward.
        let needs_evaluation = matches!(self.config.reward_mode, RewardMode::Immediate)
            || (done && matches!(self.config.reward_mode, RewardMode::Final));
        let current_s = if needs_evaluation {
            self.evaluate_current()
        } else {
            self.episode.current_s
        };
        let reward = step_reward(
            self.config.reward_mode,
            done,
            self.episode.baseline_s,
            previous_s,
            current_s,
        );

        StepOutcome {
            reward,
            done,
            applied,
            current_time_s: current_s,
        }
    }

    /// Final speedup of the episode (1.0 before any step).
    pub fn final_speedup(&self) -> f64 {
        if self.episode.current_s > 0.0 {
            self.episode.baseline_s / self.episode.current_s
        } else {
            1.0
        }
    }

    /// Accumulated log-speedup, for comparing against episode rewards.
    pub fn log_speedup(&self) -> f64 {
        log_speedup(self.episode.baseline_s, self.episode.current_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::InterchangeSpec;
    use mlir_rl_costmodel::{MachineModel, SharedEvalCache};
    use mlir_rl_ir::ModuleBuilder;

    fn matmul_relu_module() -> Module {
        let mut b = ModuleBuilder::new("chain");
        let a = b.argument("A", vec![128, 256]);
        let w = b.argument("B", vec![256, 64]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        b.finish()
    }

    fn env() -> OptimizationEnv {
        OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()))
    }

    #[test]
    fn reset_visits_last_consumer_first() {
        let mut e = env();
        let obs = e.reset(matmul_relu_module()).unwrap();
        // The relu (op 1) is the last consumer and is optimized first.
        assert_eq!(obs.op, OpId(1));
        assert_eq!(obs.num_loops, 2);
        assert!(e.episode.baseline_s > 0.0);
        // Its producer slot holds the matmul features (non-zero).
        assert!(obs.producer.as_slice().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn full_episode_with_stop_actions() {
        let mut e = env();
        e.reset(matmul_relu_module()).unwrap();
        let out1 = e.step(&Action::NoTransformation);
        assert!(!out1.done);
        assert_eq!(e.current_observation().unwrap().op, OpId(0));
        let out2 = e.step(&Action::NoTransformation);
        assert!(out2.done);
        assert!(e.current_observation().is_none());
        // Doing nothing gives (approximately) zero reward.
        assert!(out2.reward.abs() < 1e-9);
        let stats = e.stats();
        assert_eq!(stats.steps, 2);
        assert!((stats.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn optimizing_yields_positive_final_reward() {
        let mut e = env();
        e.reset(matmul_relu_module()).unwrap();
        // Fuse the matmul into the relu, then stop; then parallelize nothing
        // further (the matmul is fused away, so the episode ends).
        let out = e.step(&Action::TiledFusion {
            tile_indices: vec![2, 2],
        });
        assert!(out.applied);
        let out = e.step(&Action::NoTransformation);
        assert!(out.done, "the fused-away matmul is skipped");
        assert!(out.reward > 0.0, "fusion should speed the module up");
        assert!(e.final_speedup() > 1.0);
    }

    #[test]
    fn parallelization_gives_large_speedup() {
        let mut e = env();
        e.reset(matmul_relu_module()).unwrap();
        // Optimize the relu trivially, then parallelize the matmul.
        e.step(&Action::NoTransformation);
        let out = e.step(&Action::TiledParallelization {
            tile_indices: vec![2, 2, 0],
        });
        assert!(out.applied);
        let out = e.step(&Action::Vectorization);
        assert!(out.done);
        assert!(out.reward > 1.0, "log-speedup should exceed 1 (e >= 2.7x)");
    }

    #[test]
    fn illegal_action_is_not_applied_but_consumes_a_step() {
        let mut e = env();
        e.reset(matmul_relu_module()).unwrap();
        // Wrong arity for the relu (2 loops).
        let out = e.step(&Action::Tiling {
            tile_indices: vec![1, 1, 1, 1],
        });
        assert!(!out.applied);
        assert!(!out.done);
    }

    #[test]
    fn parallelizing_a_reduction_outer_loop_downgrades_to_tiling() {
        let mut b = ModuleBuilder::new("softmax");
        let x = b.argument("x", vec![64, 128]);
        b.softmax_2d(x);
        let mut e = env();
        e.reset(b.finish()).unwrap();
        // Interchange so the reduction is outermost, then ask for tiled
        // parallelization: the environment downgrades it to plain tiling.
        e.step(&Action::Interchange(InterchangeSpec::Permutation(vec![
            1, 0,
        ])));
        let out = e.step(&Action::TiledParallelization {
            tile_indices: vec![1, 1],
        });
        assert!(out.applied);
        let scheduled = e.scheduled().unwrap();
        assert!(!scheduled.state(OpId(0)).parallelized);
        assert!(scheduled.state(OpId(0)).tile_sizes.iter().any(|t| *t > 0));
    }

    #[test]
    fn schedule_length_limit_moves_to_next_op() {
        let mut e = env();
        e.reset(matmul_relu_module()).unwrap();
        // Apply more non-terminal actions than the schedule allows.
        let mut moved = false;
        for _ in 0..10 {
            let out = e.step(&Action::Tiling {
                tile_indices: vec![1, 1],
            });
            if out.done || e.current_op() == Some(OpId(0)) {
                moved = true;
                break;
            }
        }
        assert!(moved, "the environment must eventually move to the next op");
    }

    #[test]
    fn immediate_reward_mode_evaluates_every_step() {
        let mut config = EnvConfig::small();
        config.reward_mode = RewardMode::Immediate;
        let mut e = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
        e.reset(matmul_relu_module()).unwrap();
        let evals_before = e.evaluations();
        e.step(&Action::Tiling {
            tile_indices: vec![1, 1],
        });
        e.step(&Action::NoTransformation);
        assert!(e.evaluations() >= evals_before + 2);

        // Final mode evaluates only at the end.
        let mut e2 = env();
        e2.reset(matmul_relu_module()).unwrap();
        let evals_start = e2.evaluations();
        e2.step(&Action::Tiling {
            tile_indices: vec![1, 1],
        });
        assert_eq!(e2.evaluations(), evals_start);
    }

    #[test]
    fn noise_seed_produces_reproducible_baselines() {
        let mut config = EnvConfig::small();
        config.noise_seed = Some(7);
        let cm = CostModel::new(MachineModel::default());
        let mut a = OptimizationEnv::new(config.clone(), cm.clone());
        let mut b = OptimizationEnv::new(config, cm);
        a.reset(matmul_relu_module());
        b.reset(matmul_relu_module());
        assert_eq!(a.episode.baseline_s, b.episode.baseline_s);
    }

    #[test]
    fn snapshot_restore_rewinds_the_episode_exactly() {
        let mut e = env();
        e.reset(matmul_relu_module()).unwrap();
        let out = e.step(&Action::Tiling {
            tile_indices: vec![1, 1],
        });
        assert!(out.applied);
        let snap = e.snapshot();
        let obs_at_snap = e.current_observation().unwrap();

        // Branch A: parallelize, finish.
        let a1 = e.step(&Action::TiledParallelization {
            tile_indices: vec![2, 2],
        });
        assert!(a1.applied);
        let t_a = e.peek_time_s();

        // Rewind and take branch B: stop immediately.
        e.restore(&snap);
        assert_eq!(e.current_observation().unwrap(), obs_at_snap);
        let t_b = e.peek_time_s();
        assert_ne!(t_a, t_b, "branches must be scored on their own schedules");

        // Replaying branch A after the restore gives bit-identical timing.
        let a2 = e.step(&Action::TiledParallelization {
            tile_indices: vec![2, 2],
        });
        assert!(a2.applied);
        assert_eq!(e.peek_time_s(), t_a);
    }

    #[test]
    fn snapshots_share_the_module_instead_of_copying_it() {
        let mut e = env();
        e.reset(matmul_relu_module()).unwrap();
        let before: *const Module = e.scheduled().unwrap().module();
        let snap = e.snapshot();
        let out = e.step(&Action::Tiling {
            tile_indices: vec![1, 1],
        });
        assert!(out.applied);
        assert!(std::ptr::eq(before, e.scheduled().unwrap().module()));
        e.restore(&snap);
        assert!(std::ptr::eq(before, e.scheduled().unwrap().module()));
        // Clones, sharing or not, read the same IR too.
        assert!(std::ptr::eq(
            before,
            e.clone().scheduled().unwrap().module()
        ));
        let sharing = e.clone_sharing_cache();
        assert!(std::ptr::eq(before, sharing.scheduled().unwrap().module()));
    }

    /// Two steps past the first decision point, then the episode's stats.
    fn walk_and_stats(e: &mut OptimizationEnv) -> EpisodeStats {
        e.step(&Action::Tiling {
            tile_indices: vec![1, 1],
        });
        e.step(&Action::NoTransformation);
        e.stats()
    }

    /// A matmul feeding two relus: three ops, so one walk can fuse, stop,
    /// interchange, parallelize and vectorize.
    fn fused_chain_module() -> Module {
        let mut b = ModuleBuilder::new("fused_chain");
        let a = b.argument("A", vec![128, 256]);
        let w = b.argument("B", vec![256, 64]);
        let mm = b.matmul(a, w);
        let r = b.relu(mm);
        b.relu(r);
        b.finish()
    }

    /// Walks `fused_chain_module` so that every `OpScheduleState` field
    /// leaves its initial value: the last relu is interchanged, tiled in
    /// parallel and vectorized; the first relu fuses the matmul (its
    /// `fused_producers`, the matmul's `fused_into`) and is stopped.
    fn walk_every_field(e: &mut OptimizationEnv) {
        let actions = [
            Action::Interchange(InterchangeSpec::Permutation(vec![1, 0])),
            Action::TiledParallelization {
                tile_indices: vec![2, 2],
            },
            Action::Vectorization,
            Action::TiledFusion {
                tile_indices: vec![2, 2],
            },
            Action::NoTransformation,
        ];
        for action in &actions {
            assert!(e.step(action).applied, "{action:?}");
        }
        assert!(e.current_op().is_none(), "the fused matmul is skipped");
        let state = |op| e.scheduled().unwrap().state(OpId(op));
        let (last, first, matmul) = (state(2), state(1), state(0));
        assert_eq!(last.order, [1, 0]);
        assert!(last.parallelized && last.vectorized);
        assert!(first.stopped && first.tile_sizes.iter().all(|t| *t > 0));
        assert_eq!(first.fused_producers, [OpId(0)]);
        assert_eq!(matmul.fused_into, Some(OpId(1)));
        assert!(last.schedule.len() == 3 && first.schedule.len() == 2);
    }

    #[test]
    fn resets_on_the_live_module_share_it_and_match_a_deep_copy() {
        let mut config = EnvConfig::small();
        config.noise_seed = Some(7);
        config.reward_mode = RewardMode::Immediate;
        let mut e = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
        let m = Arc::new(fused_chain_module());
        e.reset(Arc::clone(&m)).unwrap();
        walk_every_field(&mut e);
        let buffers = |e: &OptimizationEnv| -> Vec<(*const usize, *const u64)> {
            let states = e.scheduled().unwrap().states();
            states
                .iter()
                .map(|s| (s.order.as_ptr(), s.tile_sizes.as_ptr()))
                .collect()
        };
        let walked = buffers(&e);
        // The twin copies the episode, the noise stream and the table, then
        // resets on a deep copy: the record and every state are rebuilt.
        let mut twin = e.clone();
        e.restart(Arc::clone(&m));
        assert!(std::ptr::eq(e.scheduled().unwrap().module(), &*m));
        assert_eq!(buffers(&e), walked, "the states were rewound in place");
        let twin_obs = twin.reset((*m).clone());
        assert!(!std::ptr::eq(twin.scheduled().unwrap().module(), &*m));
        assert_eq!(e.scheduled(), twin.scheduled());
        assert_eq!(e.current_observation(), twin_obs);
        assert_eq!(
            e.episode.baseline_s.to_bits(),
            twin.episode.baseline_s.to_bits()
        );
        let episode_lookups = |e: &OptimizationEnv| (e.evaluations(), e.episode.cache_hits);
        assert_eq!(episode_lookups(&e), episode_lookups(&twin));
        assert_eq!(e.peek_time_s().to_bits(), twin.peek_time_s().to_bits());
        assert_eq!(episode_lookups(&e), episode_lookups(&twin));
        walk_every_field(&mut e);
        assert_eq!(
            buffers(&e),
            walked,
            "a second walk, interchange included, writes inside the same buffers"
        );
        walk_every_field(&mut twin);
        assert_eq!(e.stats(), twin.stats());
        let table = |env: &OptimizationEnv| env.cache().to_snapshot_bytes();
        assert_eq!(table(&e), table(&twin), "the same keys were looked up");
        assert_eq!(
            (e.lifetime_hits(), e.lifetime_misses()),
            (twin.lifetime_hits(), twin.lifetime_misses())
        );
        // `reset` is the same restart plus the first observation.
        let walked = buffers(&e);
        let obs = e.reset(Arc::clone(&m));
        assert!(std::ptr::eq(e.scheduled().unwrap().module(), &*m));
        assert_eq!(buffers(&e), walked);
        assert_eq!(obs, twin.reset((*m).clone()));
        assert_eq!(e.scheduled(), twin.scheduled());
    }

    #[test]
    fn a_reset_after_another_module_recomputes_its_identity() {
        let m = Arc::new(matmul_relu_module());
        let mut b = ModuleBuilder::new("lone");
        let x = b.argument("x", vec![32, 32]);
        b.relu(x);
        let other = b.finish();

        let mut e = env();
        e.reset(Arc::clone(&m)).unwrap();
        // Another module's episode in between.
        e.reset(other.clone()).unwrap();
        let after_other = e.reset(Arc::clone(&m));
        // A snapshot of another module's episode restored in between.
        e.reset(other.clone()).unwrap();
        let snap = e.snapshot();
        e.reset(Arc::clone(&m)).unwrap();
        e.restore(&snap);
        let after_restore = e.reset(Arc::clone(&m));
        assert!(std::ptr::eq(e.scheduled().unwrap().module(), &*m));

        // The same resets, each on a new environment joined to one table.
        let table = SharedEvalCache::new(1 << 10);
        let fresh: Vec<_> = [&*m, &other, &*m, &other, &*m, &*m]
            .into_iter()
            .map(|module| {
                let mut f = env();
                f.replace_cache(table.clone());
                f.reset(module.clone())
            })
            .collect();
        assert_eq!(after_other, fresh[2]);
        assert_eq!(after_restore, fresh[5]);
        let own = e.cache();
        assert_eq!(
            own.to_snapshot_bytes(),
            table.to_snapshot_bytes(),
            "every baseline was looked up under its own module's key"
        );
        assert_eq!((own.hits(), own.misses()), (table.hits(), table.misses()));
    }

    #[test]
    fn lookup_accounting_is_consistent() {
        // hits + evaluations == total lookups, and the episode counters
        // agree with the environment's lifetime counters (a fresh env has
        // run one episode, so the lifetime counters are the episode's).
        let mut config = EnvConfig::small();
        config.reward_mode = RewardMode::Immediate;
        let mut e = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
        e.reset(matmul_relu_module()).unwrap();
        e.step(&Action::Tiling {
            tile_indices: vec![1, 1],
        });
        e.step(&Action::NoTransformation);
        e.step(&Action::Tiling {
            tile_indices: vec![1, 1, 0],
        });
        e.step(&Action::NoTransformation);
        let stats = e.stats();
        assert_eq!(
            stats.total_lookups(),
            stats.evaluations + stats.cache_hits,
            "every lookup is exactly one of evaluation or hit"
        );
        assert_eq!(stats.evaluations, e.lifetime_misses() as usize);
        assert_eq!(stats.cache_hits, e.lifetime_hits() as usize);
        assert_eq!(e.total_lookups(), stats.total_lookups());
        assert!(stats.cache_hits > 0, "repeated schedules must hit");
    }

    #[test]
    fn shared_cache_mode_preserves_episode_results() {
        // An environment joined to somebody else's table behaves exactly
        // like one on a private table.
        let module = matmul_relu_module();
        let run = |e: &mut OptimizationEnv| {
            e.reset(module.clone()).unwrap();
            e.step(&Action::TiledFusion {
                tile_indices: vec![2, 2],
            });
            let out = e.step(&Action::NoTransformation);
            (out.reward, e.stats())
        };
        let mut private = env();
        let mut joined = env();
        let table = SharedEvalCache::new(1 << 10);
        joined.replace_cache(table.clone());
        let (r_private, s_private) = run(&mut private);
        let (r_joined, s_joined) = run(&mut joined);
        assert_eq!(r_private, r_joined);
        assert_eq!(s_private, s_joined);
        assert_eq!(
            table.hits() + table.misses(),
            s_joined.total_lookups() as u64
        );
    }

    #[test]
    fn clones_copy_the_table_and_sharing_clones_join_it() {
        let module = matmul_relu_module();
        let table = |e: &OptimizationEnv| e.cache().clone();
        let tiled_episode = |e: &mut OptimizationEnv| {
            e.reset(module.clone()).unwrap();
            e.step(&Action::TiledFusion {
                tile_indices: vec![2, 2],
            });
            e.step(&Action::NoTransformation);
            e.stats()
        };
        let mut original = env();

        // A sharing clone looks up in the same table: what it computes is a
        // hit through the original.
        let mut sharing = original.clone_sharing_cache();
        assert!(table(&sharing).same_table(&table(&original)));
        let learned = tiled_episode(&mut sharing);
        assert!(learned.evaluations > 0);
        let replay = tiled_episode(&mut original);
        assert_eq!(replay.evaluations, 0, "every schedule is already known");
        assert_eq!(replay.cache_hits, learned.total_lookups());

        // A plain clone starts from the same entries in a table of its
        // own, and what it learns stays with it.
        let entries = original.cache().len();
        let mut copy = original.clone();
        assert!(!table(&copy).same_table(&table(&original)));
        assert_eq!(tiled_episode(&mut copy), replay);
        let mut b = ModuleBuilder::new("other");
        let x = b.argument("x", vec![32, 32]);
        b.relu(x);
        copy.reset(b.finish()).unwrap();
        assert_eq!(copy.cache().len(), entries + 1);
        assert_eq!(original.cache().len(), entries);

        // Two environments made with `new` never meet.
        assert!(!table(&env()).same_table(&table(&env())));
    }

    #[test]
    fn environments_on_one_table_count_only_their_own_lookups() {
        let mut config = EnvConfig::small();
        config.reward_mode = RewardMode::Immediate;
        let first = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
        let second = first.clone_sharing_cache();
        // Episodes on one thread: the environment back, with the summed
        // (cache_hits, evaluations) of its episodes.
        let run = |mut e: OptimizationEnv, episodes: usize| {
            let mut own = (0, 0);
            for _ in 0..episodes {
                e.reset(matmul_relu_module()).unwrap();
                let stats = walk_and_stats(&mut e);
                own.0 += stats.cache_hits as u64;
                own.1 += stats.evaluations as u64;
            }
            (e, own)
        };
        let ((a, a_own), (b, b_own)) = std::thread::scope(|scope| {
            let a = scope.spawn(move || run(first, 1));
            let b = scope.spawn(move || run(second, 3));
            (a.join().unwrap(), b.join().unwrap())
        });
        // Each environment counts exactly its own lookups — both made
        // some, so the table's global counters would fail this.
        for (e, own) in [(&a, a_own), (&b, b_own)] {
            assert!(own.0 > 0 || own.1 > 0);
            assert_eq!((e.lifetime_hits(), e.lifetime_misses()), own);
        }
        let table = a.cache();
        assert!(table.same_table(b.cache()));
        assert_eq!(
            (table.hits(), table.misses()),
            (a_own.0 + b_own.0, a_own.1 + b_own.1)
        );
    }

    /// A conv → relu → pool chain plus the matmul chain and a softmax:
    /// producers, fusion, reductions and seven-loop operations.
    fn walk_modules() -> Vec<Module> {
        let mut b = ModuleBuilder::new("conv");
        let x = b.argument("x", vec![1, 8, 18, 18]);
        let f = b.argument("f", vec![16, 8, 3, 3]);
        let c = b.conv2d(x, f, 1);
        let r = b.relu(c);
        b.max_pool(r, 2, 2);
        let conv = b.finish();
        let mut b = ModuleBuilder::new("softmax");
        let x = b.argument("x", vec![64, 128]);
        b.softmax_2d(x);
        vec![conv, matmul_relu_module(), b.finish()]
    }

    /// A seeded walk's next action: a kind the mask allows and, per loop, a
    /// tile candidate its row allows (splitmix64 draws; what is under test
    /// is the environment's contract, not the distribution).
    fn masked_action(mask: &ActionMask, state: &mut u64) -> Action {
        let mut draw = |n: usize| {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut pick = |allowed: &[bool]| {
            let legal: Vec<usize> = (0..allowed.len()).filter(|i| allowed[*i]).collect();
            legal[draw(legal.len())]
        };
        let kind = TransformationKind::from_index(pick(&mask.transformation));
        let tile_indices: Vec<usize> = (0..mask.num_loops())
            .map(|level| pick(mask.tile_row(level)))
            .collect();
        match kind {
            TransformationKind::Tiling => Action::Tiling { tile_indices },
            TransformationKind::TiledParallelization => {
                Action::TiledParallelization { tile_indices }
            }
            TransformationKind::TiledFusion => Action::TiledFusion { tile_indices },
            TransformationKind::Interchange => {
                let mut order: Vec<usize> = (0..mask.num_loops()).collect();
                order.rotate_left(1);
                Action::Interchange(InterchangeSpec::Permutation(order))
            }
            TransformationKind::Vectorization => Action::Vectorization,
            TransformationKind::NoTransformation => Action::NoTransformation,
        }
    }

    #[test]
    fn the_mask_alone_matches_the_observation_and_ends_with_the_episode() {
        for config in [EnvConfig::paper(), EnvConfig::small()] {
            let mut e = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
            // A tiling of the wrong arity: never applied, always a step.
            let illegal = |mask: &ActionMask| Action::Tiling {
                tile_indices: vec![0; mask.num_loops() + 1],
            };
            let (mut steps, mut applied, mut refused) = (0usize, 0usize, 0usize);
            for (index, module) in walk_modules().into_iter().enumerate() {
                // The bound `step` documents, which callers rely on
                // instead of a guard of their own.
                let bound = module.ops().len() * (e.config().max_schedule_len + 2);
                for seed in 0..8u64 {
                    let mut state = seed << 32 | index as u64;
                    let mut obs = e.reset(module.clone());
                    assert_eq!(obs, e.current_observation());
                    let mut episode_steps = 0;
                    while let Some(current) = obs {
                        let mask = e.current_mask().expect("live episode has a mask");
                        assert_eq!(mask, current.mask);
                        assert_eq!(mask.num_loops(), current.num_loops);
                        // Odd seeds put an illegal action at every third step.
                        let out = if seed % 2 == 1 && episode_steps % 3 == 2 {
                            let out = e.step(&illegal(&mask));
                            assert!(!out.applied);
                            refused += 1;
                            out
                        } else {
                            e.step(&masked_action(&mask, &mut state))
                        };
                        steps += 1;
                        episode_steps += 1;
                        applied += usize::from(out.applied);
                        obs = e.current_observation();
                        assert_eq!(e.current_mask().is_none(), out.done);
                        assert_eq!(obs.is_none(), out.done);
                    }
                    assert!(episode_steps <= bound, "{episode_steps} > {bound}");
                    // Stepping a finished episode stays done and unobserved.
                    assert!(e.step(&Action::NoTransformation).done);
                    assert_eq!((e.current_mask(), e.current_observation()), (None, None));
                }
                // Only illegal actions: nothing applies, so every op takes
                // all its steps and the episode reaches the bound exactly.
                e.reset(module.clone());
                let mut episode_steps = 0;
                while let Some(mask) = e.current_mask() {
                    assert!(!e.step(&illegal(&mask)).applied);
                    episode_steps += 1;
                }
                assert_eq!(episode_steps, bound);
            }
            assert!(refused > 0);
            assert_eq!(
                applied + refused,
                steps,
                "the mask allowed every drawn action"
            );
        }
    }

    #[test]
    fn empty_module_episode_is_immediately_done() {
        let mut e = env();
        let obs = e.reset(Module::new("empty"));
        assert!(obs.is_none());
        let out = e.step(&Action::NoTransformation);
        assert!(out.done);
    }
}

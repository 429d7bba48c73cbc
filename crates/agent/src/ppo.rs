//! Proximal Policy Optimization (Sec. VII-A-5).
//!
//! One training *step* (iteration) collects trajectories from a batch of
//! code samples, computes GAE advantages (γ = 1 because rewards are delayed
//! to the end of the trajectory, λ = 0.95), and performs several epochs of
//! clipped-surrogate updates over shuffled minibatches, with a value loss
//! (coefficient 0.5) and an entropy bonus (coefficient 0.01). The paper's
//! hyper-parameters are the defaults of [`PpoConfig::paper`].
//!
//! Each minibatch is gathered into an [`mlir_rl_env::ObservationBatch`] —
//! each row's producer and consumer feature lists, borrowed, no dense row —
//! and pushed through the batched tensor engine
//! ([`PolicyModel::evaluate_batch`] / `backward_batch` and
//! [`ValueNetwork::forward_batch`] / `backward_batch`): the embedding LSTM
//! contracts each row's input over its own list, and every other layer is
//! one blocked matmul per minibatch. This pair is the only training code
//! the networks have; it is bit-identical to the same minibatch fed
//! through it one sample at a time (property-tested), so batching is a
//! throughput choice, never a numerics change.
//!
//! # The update runs as two chains
//!
//! Per minibatch the update is two chains over disjoint state — policy:
//! `evaluate_batch` → surrogate coefficients → `backward_batch` → one
//! clip-and-Adam pass ([`Adam::clip_and_step`]); value: `forward_batch` →
//! squared-error gradients → `backward_batch` → clip-and-Adam — that share
//! only read-only inputs (the samples with their advantages and returns,
//! fixed before the first minibatch, and each epoch's shuffled index order,
//! drawn before the chains start). [`PpoTrainer::train_iteration`]
//! therefore runs the value chain on one scoped thread (`ppo-value-update`)
//! and the policy chain on the calling thread, each walking every epoch and
//! minibatch on its own with nothing between them until the join. Each chain adds to its own
//! loss sums in the serial order, so the statistics, every weight and both
//! optimizer states are bit-identical to the interleaved loop (kept as a
//! test-only reference in this module's tests). There is one code path: on
//! a single CPU the two threads take turns and cost what the interleaved
//! loop did.
//!
//! # Rollout engine
//!
//! Episode collection is handled by [`collect_rollouts`]: every episode of
//! a batch gets its own RNG (and, when measurement noise is enabled, its
//! own noise stream) derived deterministically from a base seed and the
//! episode index. An episode is collected in two passes: the policy *acts*
//! it to the end (`select_action`, `env.step`), then the critic *estimates*
//! the value of every observation it stored (`predict_fast`). No action
//! depends on a value, so the second pass may run later and elsewhere.
//!
//! With one worker the caller acts episode after episode and hands each
//! finished one to a scoped critic thread (`rollout-critic`), which fills
//! its values while the caller acts the next. With two or more workers the
//! batch fans out through [`fan_out`], the workspace's one claim loop — the
//! caller is worker 0 on its own environment and networks, every further
//! worker takes an environment duplicate, an inference-only snapshot of the
//! policy and a value network clone, each claims the next uncollected
//! episode index from one shared counter until none is left, and each runs
//! both passes of the episodes it claims. Because no state flows between
//! episodes, and `predict_fast` is a pure function of the weights and the
//! observation, the merged result is **bit-for-bit identical to serial
//! collection** for a fixed seed, no matter the worker count or which
//! thread acted or estimated which episode. The worker environments share
//! the master environment's own sharded cost-model table
//! ([`OptimizationEnv::clone_sharing_cache`]), so the parallel hit-rate
//! matches serial collection and warmth persists across iterations with no
//! fold-back step. The search crate's batch driver fans out through the
//! same [`fan_out`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mlir_rl_env::{
    hit_rate, EnvConfig, EpisodeStats, Observation, ObservationBatch, OptimizationEnv,
};
use mlir_rl_ir::Module;
use mlir_rl_nn::{Adam, Param};

use crate::policy::{rank_candidates, ActionRecord, PolicyHyperparams, PolicyNetwork};
use crate::value::ValueNetwork;

/// How one [`InferenceGroup`] wants its observations decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceMode {
    /// Decode like [`PolicyModel::rank_actions_batch`]: up to `k` distinct
    /// candidates per observation, greedy first.
    Rank {
        /// Candidate count per observation.
        k: usize,
    },
    /// Decode like one [`PolicyModel::select_action`] per observation, in
    /// order, threading the group RNG sequentially.
    Sample {
        /// Take the sequential argmax instead of sampling (consumes no RNG).
        greedy: bool,
    },
}

/// One unit of policy inference: a set of observations decoded together
/// with a single RNG threaded across them in order, so per-group RNG
/// consumption matches the direct call exactly. Kept, with
/// [`InferenceMode`], [`GroupResult`] and [`PolicyModel::infer_groups`],
/// because the frozen `benchmark/` package overrides that method.
#[derive(Debug, Clone)]
pub struct InferenceGroup {
    /// The observations to decode, in submission order.
    pub observations: Vec<Observation>,
    /// How to decode them.
    pub mode: InferenceMode,
    /// The caller's RNG, moved in with the group and returned advanced.
    pub rng: ChaCha8Rng,
}

/// The decoded result for one [`InferenceGroup`], shape matching its mode.
#[derive(Debug, Clone)]
pub enum GroupResult {
    /// Per-observation candidate lists ([`InferenceMode::Rank`]).
    Ranked(Vec<Vec<ActionRecord>>),
    /// One record per observation ([`InferenceMode::Sample`]).
    Sampled(Vec<ActionRecord>),
}

/// Abstraction over policy networks so that the same PPO trainer drives both
/// the multi-discrete policy and the flat-action-space policy of the Fig. 6
/// ablation.
///
/// `Clone + Send` is required so the rollout engine can hand each worker
/// thread an inference-only snapshot of the policy.
///
/// Training goes through one pair, [`PolicyModel::evaluate_batch`] /
/// [`PolicyModel::backward_batch`], which every implementation provides.
/// The per-sample [`PolicyModel::evaluate`] / [`PolicyModel::backward`]
/// are defaults that run a batch of one; only tests call them, and they
/// stay on the trait because the frozen `benchmark/` package's `Probed`
/// wrapper overrides them (`benchmark/src/probe.rs`).
pub trait PolicyModel: Clone + Send {
    /// Samples (or greedily selects) an action for an observation.
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord;
    /// Clears gradients and cached activations.
    fn zero_grad(&mut self);
    /// Trainable parameters in a stable order.
    fn parameters_mut(&mut self) -> Vec<&mut Param>;

    /// Recomputes the log-probability and entropy of every stored action
    /// of a minibatch under the current parameters, caching activations
    /// for the matching [`PolicyModel::backward_batch`]. `batch` must hold
    /// the items' observations in the same order (the PPO update's policy
    /// chain gathers it per minibatch; the value chain gathers its own).
    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch<'_>,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)>;

    /// Backward pass for the most recent un-consumed
    /// [`PolicyModel::evaluate_batch`] call: accumulates
    /// `coeff_logprob * dlogp/dθ + coeff_entropy * dH/dθ` per item, with
    /// `coeffs[i]` holding `(coeff_logprob, coeff_entropy)` for item `i`.
    /// Parameter gradients accumulate in **reverse** item order, so the
    /// result does not depend on how a minibatch is split into calls.
    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]);

    /// [`PolicyModel::evaluate_batch`] for one action (a batch of one).
    fn evaluate(&mut self, obs: &Observation, record: &ActionRecord) -> (f64, f64) {
        let batch = ObservationBatch::from_observations(std::iter::once(obs));
        self.evaluate_batch(&batch, &[(obs, record)])[0]
    }

    /// [`PolicyModel::backward_batch`] for the most recent un-consumed
    /// [`PolicyModel::evaluate`] (a batch of one); several `evaluate` calls
    /// are answered by `backward` calls in reverse order (the layer caches
    /// are stacks).
    fn backward(
        &mut self,
        obs: &Observation,
        record: &ActionRecord,
        coeff_logprob: f64,
        coeff_entropy: f64,
    ) {
        self.backward_batch(&[(obs, record)], &[(coeff_logprob, coeff_entropy)]);
    }

    /// Policy-inference hook for search: proposes up to `k` *distinct*
    /// candidate actions for an observation, the greedy (sequential-argmax)
    /// action first, followed by sampled candidates in descending
    /// log-probability order. Deterministic given the RNG state, and
    /// `rank_actions(obs, 1, rng)` is exactly `[select_action(obs, true)]`
    /// — which is what makes a width-1 beam search step-for-step identical
    /// to greedy decoding.
    fn rank_actions(
        &mut self,
        obs: &Observation,
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<ActionRecord> {
        rank_candidates(k, rng, |greedy, rng| self.select_action(obs, greedy, rng))
    }

    /// Ranks candidates for a whole frontier of observations (beam search
    /// ranks every live beam state through one call): one
    /// [`PolicyModel::rank_actions`] per observation, in order, threading
    /// `rng` through them. No network overrides it: batch-1 inference keeps
    /// the embedding LSTM's producer memo and computes only the heads a
    /// draw reads, and measured faster per row than one batched forward
    /// pass over the frontier. It stays a trait method because wrappers
    /// (the frozen `benchmark/` package's `Probed`) override it.
    fn rank_actions_batch(
        &mut self,
        observations: &[&Observation],
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<ActionRecord>> {
        observations
            .iter()
            .map(|obs| self.rank_actions(obs, k, rng))
            .collect()
    }

    /// Runs a set of independent inference groups group by group,
    /// returning one result per group in order and leaving each group's
    /// `rng` advanced exactly as the equivalent direct call would. Nothing
    /// in the workspace calls or overrides it since PR 18 deleted the
    /// cross-request aggregator; it stays because the frozen `benchmark/`
    /// package overrides it (`benchmark/src/probe.rs`).
    fn infer_groups(&mut self, groups: &mut [InferenceGroup]) -> Vec<GroupResult> {
        groups
            .iter_mut()
            .map(|group| {
                let InferenceGroup {
                    observations,
                    mode,
                    rng,
                } = group;
                match *mode {
                    InferenceMode::Rank { k } => {
                        let refs: Vec<&Observation> = observations.iter().collect();
                        GroupResult::Ranked(self.rank_actions_batch(&refs, k, rng))
                    }
                    InferenceMode::Sample { greedy } => GroupResult::Sampled(
                        observations
                            .iter()
                            .map(|obs| self.select_action(obs, greedy, rng))
                            .collect(),
                    ),
                }
            })
            .collect()
    }
}

impl PolicyModel for PolicyNetwork {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        PolicyNetwork::select_action(self, obs, greedy, rng)
    }
    fn zero_grad(&mut self) {
        PolicyNetwork::zero_grad(self);
    }
    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        PolicyNetwork::parameters_mut(self)
    }
    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch<'_>,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        PolicyNetwork::evaluate_batch(self, batch, items)
    }
    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        PolicyNetwork::backward_batch(self, items, coeffs);
    }
    fn rank_actions(
        &mut self,
        obs: &Observation,
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<ActionRecord> {
        PolicyNetwork::rank_actions(self, obs, k, rng)
    }
}

/// PPO hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoConfig {
    /// Adam learning rate: finite and `>= +0.0` ([`Adam::try_new`];
    /// [`PpoTrainer`] panics on any other rate).
    pub learning_rate: f64,
    /// PPO clipping range ε.
    pub clip_range: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE parameter λ.
    pub gae_lambda: f64,
    /// Trajectories (code samples) collected per iteration.
    pub trajectories_per_iteration: usize,
    /// Minibatch size for the update epochs.
    pub minibatch_size: usize,
    /// Number of update epochs per iteration.
    pub update_epochs: usize,
    /// Value-loss coefficient.
    pub value_coef: f64,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f64,
    /// Worker threads used by the rollout engine (1 = the caller acts, one
    /// critic thread estimates; see [`collect_rollouts`]). Collection is
    /// deterministic in the seed regardless of this value.
    pub rollout_workers: usize,
}

impl PpoConfig {
    /// The paper's training configuration (Sec. VII-A-5).
    pub fn paper() -> Self {
        Self {
            learning_rate: 1e-3,
            clip_range: 0.2,
            gamma: 1.0,
            gae_lambda: 0.95,
            trajectories_per_iteration: 64,
            minibatch_size: 32,
            update_epochs: 4,
            value_coef: 0.5,
            entropy_coef: 0.01,
            max_grad_norm: 0.5,
            rollout_workers: 1,
        }
    }

    /// A scaled-down configuration for tests and the benchmark harness.
    pub fn small() -> Self {
        Self {
            trajectories_per_iteration: 8,
            minibatch_size: 8,
            ..Self::paper()
        }
    }
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One stored environment transition.
#[derive(Debug, Clone)]
pub struct Transition {
    /// The observation the action was taken in.
    pub observation: Observation,
    /// The sampled action with its old log-probability.
    pub record: ActionRecord,
    /// Reward received after the action.
    pub reward: f64,
    /// Value estimate of the observation at collection time.
    pub value: f64,
    /// Whether the episode ended after this transition.
    pub done: bool,
}

/// One collected episode.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// The transitions of the episode, in order.
    pub transitions: Vec<Transition>,
    /// Episode statistics (speedup, evaluations, ...).
    pub stats: EpisodeStats,
}

/// Collects one episode on `module` with the given policy and value
/// networks, on the calling thread: the policy acts the episode to its end,
/// then `value` estimates every stored observation. It ends within
/// `ops x (max_schedule_len + 2)` steps ([`OptimizationEnv::step`]).
///
/// The trajectory is bit-identical to what [`collect_rollouts`] collects
/// for the same episode RNG at any worker count.
pub fn collect_episode<P: PolicyModel>(
    env: &mut OptimizationEnv,
    module: &Module,
    policy: &mut P,
    value: &mut ValueNetwork,
    greedy: bool,
    rng: &mut ChaCha8Rng,
) -> Trajectory {
    let mut trajectory = act_episode(env, module, policy, greedy, rng);
    estimate_values(value, &mut trajectory);
    trajectory
}

/// The acting pass of an episode: every transition but its `value`, which
/// reads `0.0` until [`estimate_values`] fills it.
fn act_episode<P: PolicyModel>(
    env: &mut OptimizationEnv,
    module: &Module,
    policy: &mut P,
    greedy: bool,
    rng: &mut ChaCha8Rng,
) -> Trajectory {
    let mut transitions = Vec::new();
    let mut obs = env.reset(module.clone());
    while let Some(current) = obs {
        let record = policy.select_action(&current, greedy, rng);
        let outcome = env.step(&record.action);
        transitions.push(Transition {
            observation: current,
            record,
            reward: outcome.reward,
            value: 0.0,
            done: outcome.done,
        });
        obs = env.current_observation();
    }
    let stats = env.stats();
    Trajectory { transitions, stats }
}

/// The estimating pass of an episode: the critic's value of every stored
/// observation, in order.
fn estimate_values(value: &mut ValueNetwork, trajectory: &mut Trajectory) {
    for transition in &mut trajectory.transitions {
        transition.value = value.predict_fast(&transition.observation);
    }
}

/// Mixes a base seed and an episode index into an independent 64-bit seed
/// (SplitMix64 finalizer), so every episode of a rollout batch gets its own
/// deterministic RNG stream.
pub fn episode_seed(base: u64, episode: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(episode.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The number of rollout workers matching the machine's available
/// parallelism (fallback 1).
///
/// Whether fanning out pays depends on the batch, not only on the cores.
/// [`collect_rollouts`] makes its caller worker 0, so `W >= 2` workers cost
/// `W - 1` spawns and one set of clones per spawned thread (a scope with
/// one spawn reads 56-105 us, `exp rollout_throughput`); one worker spawns
/// its critic thread and clones nothing. The readings below predate the
/// critic thread, so their serial side acted and estimated inline. Measured at
/// 2 vCPUs with 32x2 networks at paper width (PR 23, three traced
/// `rollout-collect` runs a side): 2 workers collect 4-episode batches at
/// **0.99-1.01x** of one worker (34.8-35.6k steps/s serial against
/// 34.6-35.9k), where the striding fan-out that parked its caller read
/// 0.82-0.85x on the same day (35.5-38.1k against 29.1-31.3k);
/// 48-episode batches read 1.07-1.76x at 2 workers (PR 16). What is left
/// of the small-batch gap is not spawn cost: with both threads collecting,
/// each thread's time per step rises by about half (ROADMAP, "training
/// side"), so a batch-size threshold would not close it and nothing here
/// gates on one.
pub fn default_rollout_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One collected batch of episodes plus aggregate cost-model accounting.
#[derive(Debug, Clone)]
pub struct RolloutBatch {
    /// Collected trajectories, in episode order (independent of worker
    /// count).
    pub trajectories: Vec<Trajectory>,
    /// Cost-model evaluations actually performed (cache misses).
    pub evaluations: usize,
    /// Evaluation requests served by the schedule-keyed cache.
    pub cache_hits: usize,
}

impl RolloutBatch {
    /// Total environment steps across the batch.
    pub fn total_steps(&self) -> usize {
        self.trajectories.iter().map(|t| t.stats.steps).sum()
    }

    /// Fraction of evaluation requests served by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        hit_rate(self.cache_hits as u64, self.evaluations as u64)
    }

    /// Total cost-model lookups of the batch
    /// (`evaluations + cache_hits`, the sum of the per-episode
    /// [`EpisodeStats::total_lookups`]).
    pub fn total_lookups(&self) -> usize {
        self.evaluations + self.cache_hits
    }
}

/// The one fan-out of the workspace: runs `job(state, index)` once for
/// every index in `0..n` and returns the results in index order.
///
/// `states[0]` stays with the caller, which is worker 0 and claims indices
/// on its own thread; every further state moves to a scoped thread named
/// `<thread_name>-<w>`. Every thread claims the next unclaimed index from
/// one shared counter until none is left, so no index runs twice and no
/// thread idles while one remains; with a single state nothing is spawned
/// and the caller's claim loop *is* the serial loop. Which thread runs
/// which index depends on timing, so `job`'s result must depend on the
/// index alone (not on what its state ran before) for the output to be the
/// same at any thread count. [`collect_rollouts`] (at two or more workers,
/// or for a batch of at most one episode) and the search crate's batch
/// driver fan out through here.
///
/// # Panics
///
/// Panics if `states` is empty, and if `job` panics on any thread: the
/// other threads drain the counter, then the caller's own panic resumes,
/// or else the first panicking spawned thread's, at its join.
pub fn fan_out<S: Send, T: Send>(
    n: usize,
    thread_name: &str,
    states: Vec<S>,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    // `Relaxed`: the counter only hands out indices and publishes no data —
    // results reach the caller through `join`.
    let next = AtomicUsize::new(0);
    let claim_all = |state: &mut S| {
        let mut claimed = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                return claimed;
            }
            claimed.push((index, job(state, index)));
        }
    };
    let mut states = states.into_iter();
    let mut caller = states.next().expect("fan_out needs the caller's state");
    let mut results = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .enumerate()
            .map(|(w, mut state)| {
                let claim_all = &claim_all;
                std::thread::Builder::new()
                    .name(format!("{thread_name}-{}", w + 1))
                    .spawn_scoped(scope, move || claim_all(&mut state))
                    .expect("failed to spawn a fan-out thread")
            })
            .collect();
        let mut results = claim_all(&mut caller);
        for handle in handles {
            match handle.join() {
                Ok(claimed) => results.extend(claimed),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    });
    results.sort_unstable_by_key(|(index, _)| *index);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Acts one episode with a per-episode RNG (and noise stream) derived from
/// `(base_seed, episode)`, making the episode independent of whatever was
/// collected before it.
fn act_seeded_episode<P: PolicyModel>(
    env: &mut OptimizationEnv,
    module: &Module,
    policy: &mut P,
    greedy: bool,
    base_seed: u64,
    episode: usize,
) -> Trajectory {
    let mut rng = ChaCha8Rng::seed_from_u64(episode_seed(base_seed, episode as u64));
    if let Some(noise_seed) = env.config().noise_seed {
        env.reseed_noise(episode_seed(
            noise_seed.wrapping_add(base_seed),
            episode as u64,
        ));
    }
    act_episode(env, module, policy, greedy, &mut rng)
}

/// Runs `act(episode)` for every episode of `0..n` in order on the calling
/// thread while one scoped thread (`rollout-critic`) fills each finished
/// episode's values with `value`, and returns the trajectories in episode
/// order. The critic borrows `value`; nothing is cloned.
///
/// # Panics
///
/// If `act` panics, the critic finishes what it was handed and the
/// caller's panic resumes; if the critic panics, the caller stops at its
/// next hand-over and the critic's panic resumes.
fn act_beside_critic(
    n: usize,
    value: &mut ValueNetwork,
    mut act: impl FnMut(usize) -> Trajectory,
) -> Vec<Trajectory> {
    std::thread::scope(|scope| {
        let (hand_over, finished) = mpsc::channel::<Trajectory>();
        let critic = std::thread::Builder::new()
            .name("rollout-critic".into())
            .spawn_scoped(scope, move || {
                let estimate = |mut trajectory| {
                    estimate_values(value, &mut trajectory);
                    trajectory
                };
                finished.into_iter().map(estimate).collect()
            })
            .expect("failed to spawn the rollout critic");
        for episode in 0..n {
            if hand_over.send(act(episode)).is_err() {
                break;
            }
        }
        drop(hand_over);
        critic
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Collects `modules.len()` episodes on `workers` threads.
///
/// Every episode's randomness comes from
/// [`episode_seed`]`(base_seed, episode)`, so a fixed `base_seed` produces
/// bit-for-bit identical trajectories for any worker count and any claim
/// order (module docs, "Rollout engine"). `workers` is clamped to
/// `1..=modules.len()`.
///
/// * **One worker.** The caller acts every episode, in order, on `env` and
///   `policy`, and hands each finished one to a scoped critic thread that
///   borrows `value` and fills the transitions' values while the caller
///   acts the next. A batch of at most one episode has nothing to overlap
///   and is collected inline.
/// * **Two or more.** The caller is worker 0 and collects on `env`,
///   `policy` and `value` themselves; each of the other `workers - 1`
///   threads (`rollout-worker-<w>`) gets its own duplicate of the
///   environment, an inference-only snapshot of the policy and a clone of
///   the value network. Every thread claims the next uncollected episode
///   index from one shared counter until none is left ([`fan_out`]), acts
///   it and estimates its values, and results are merged back in episode
///   order.
///
/// Which episode `env` is left holding afterwards is unspecified (the last
/// one the caller happened to claim); only its noise stream is put in a
/// canonical post-batch state.
///
/// Worker environments are [`OptimizationEnv::clone_sharing_cache`]
/// duplicates of `env` — environments on `env`'s own evaluation table — so
/// every estimate is computed at most once per batch (modulo benign races)
/// and the warm table persists across batches with no fold-back step; the
/// caller looks up in that same table through `env` itself. Because cached
/// values are deterministic functions of the schedule, table warmth and
/// capacity affect only hit/miss counts, never the collected trajectories.
///
/// # Panics
///
/// Panics if acting or estimating an episode panics on any thread, with
/// that panic's payload (see [`fan_out`] and the critic above).
pub fn collect_rollouts<P: PolicyModel>(
    env: &mut OptimizationEnv,
    modules: &[&Module],
    policy: &mut P,
    value: &mut ValueNetwork,
    greedy: bool,
    base_seed: u64,
    workers: usize,
) -> RolloutBatch {
    let n = modules.len();
    let workers = workers.max(1).min(n.max(1));
    let act = |env: &mut OptimizationEnv, policy: &mut P, episode: usize| {
        act_seeded_episode(env, modules[episode], policy, greedy, base_seed, episode)
    };
    let trajectories = if workers == 1 && n > 1 {
        act_beside_critic(n, value, |episode| act(env, policy, episode))
    } else {
        // The worker environments look up in the master's table, so an
        // estimate computed by any thread serves hits to every other within
        // the same batch — the parallel hit-rate matches serial collection
        // instead of every worker re-discovering the same schedules on a
        // cold copy.
        let mut forks: Vec<_> = (1..workers)
            .map(|_| (env.clone_sharing_cache(), policy.clone(), value.clone()))
            .collect();
        let mut states = vec![(&mut *env, policy, value)];
        states.extend(forks.iter_mut().map(|(e, p, v)| (e, p, v)));
        fan_out(
            n,
            "rollout-worker",
            states,
            |(env, policy, value), episode| {
                let mut trajectory = act(env, policy, episode);
                estimate_values(value, &mut trajectory);
                trajectory
            },
        )
    };

    // Leave the master environment's noise stream in a canonical post-batch
    // state: it was last reseeded for whichever episode the caller claimed
    // last, so without this the master's later measurements would depend on
    // the worker count and the claim order.
    if let Some(noise_seed) = env.config().noise_seed {
        env.reseed_noise(episode_seed(noise_seed.wrapping_add(base_seed), n as u64));
    }

    let evaluations = trajectories.iter().map(|t| t.stats.evaluations).sum();
    let cache_hits = trajectories.iter().map(|t| t.stats.cache_hits).sum();
    RolloutBatch {
        trajectories,
        evaluations,
        cache_hits,
    }
}

/// Computes GAE advantages and returns (targets for the value function) for
/// one trajectory.
pub fn compute_gae(trajectory: &Trajectory, gamma: f64, lambda: f64) -> (Vec<f64>, Vec<f64>) {
    let n = trajectory.transitions.len();
    let mut advantages = vec![0.0; n];
    let mut returns = vec![0.0; n];
    let mut gae = 0.0;
    for i in (0..n).rev() {
        let t = &trajectory.transitions[i];
        let next_value = if t.done || i + 1 >= n {
            0.0
        } else {
            trajectory.transitions[i + 1].value
        };
        let delta = t.reward + gamma * next_value - t.value;
        gae = delta + gamma * lambda * if t.done { 0.0 } else { gae };
        advantages[i] = gae;
        returns[i] = advantages[i] + t.value;
    }
    (advantages, returns)
}

/// Statistics of one PPO training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Arithmetic mean of the episode speedups over the baseline.
    pub mean_speedup: f64,
    /// Geometric mean of the episode speedups.
    pub geomean_speedup: f64,
    /// Mean episode reward (sum of step rewards).
    pub mean_reward: f64,
    /// Mean clipped-surrogate policy loss.
    pub policy_loss: f64,
    /// Mean value loss.
    pub value_loss: f64,
    /// Mean policy entropy.
    pub entropy: f64,
    /// Cost-model evaluations performed while collecting this iteration
    /// (the execution count that dominates wall-clock time, Fig. 7).
    pub evaluations: usize,
    /// Cumulative evaluations since training started.
    pub cumulative_evaluations: usize,
    /// Evaluation requests served by the schedule-keyed cost-model cache
    /// while collecting this iteration.
    pub cache_hits: usize,
}

impl IterationStats {
    /// Total cost-model lookups of the iteration's collection phase
    /// (`evaluations + cache_hits`).
    pub fn total_lookups(&self) -> usize {
        self.evaluations + self.cache_hits
    }
}

/// One sample of an update: observation, stored action, normalised
/// advantage, return.
type Sample<'a> = (&'a Observation, &'a ActionRecord, f64, f64);

/// What the policy chain of one update sums up, in minibatch order.
#[derive(Debug, Default)]
struct PolicySums {
    policy_loss: f64,
    entropy: f64,
    /// Samples seen, over all epochs.
    updates: usize,
}

/// The read-only inputs the two chains of one PPO update share.
#[derive(Debug)]
struct Update<'a> {
    config: &'a PpoConfig,
    batch: &'a [Sample<'a>],
    /// One shuffled index order over `batch` per epoch.
    orders: &'a [Vec<usize>],
}

impl Update<'_> {
    /// Every minibatch of every epoch, in update order.
    fn minibatches(&self) -> impl Iterator<Item = &[usize]> {
        let size = self.config.minibatch_size.max(1);
        self.orders.iter().flat_map(move |order| order.chunks(size))
    }

    /// A minibatch's observations as the batched engine reads them: each
    /// row's feature lists, borrowed from the samples. Each chain gathers
    /// its own, one minibatch at a time.
    fn gather(&self, chunk: &[usize]) -> ObservationBatch<'_> {
        ObservationBatch::from_observations(chunk.iter().map(|&idx| self.batch[idx].0))
    }

    /// The policy chain: clipped-surrogate loss with an entropy bonus, one
    /// batched forward and one batched backward per layer per minibatch
    /// (the stacked activations mean the backward pass never re-runs the
    /// forward network).
    ///
    /// Neither chain calls `zero_grad`: each `backward_batch` pops the
    /// caches its forward pushed, and the gradients it accumulates into read
    /// `+0.0` (or are not materialised yet) before every minibatch —
    /// [`Adam::clip_and_step`] clears them, and a network fresh from `new`,
    /// a clone or the previous iteration starts that way.
    fn policy_chain<P: PolicyModel>(&self, policy: &mut P, optimizer: &mut Adam) -> PolicySums {
        let config = self.config;
        let mut sums = PolicySums::default();
        for chunk in self.minibatches() {
            let scale = 1.0 / chunk.len() as f64;
            let items: Vec<(&Observation, &ActionRecord)> = chunk
                .iter()
                .map(|&idx| (self.batch[idx].0, self.batch[idx].1))
                .collect();
            let evals = policy.evaluate_batch(&self.gather(chunk), &items);
            let mut coeffs: Vec<(f64, f64)> = Vec::with_capacity(chunk.len());
            for (&idx, &(log_prob, entropy)) in chunk.iter().zip(&evals) {
                let (_, record, advantage, _) = &self.batch[idx];
                let ratio = (log_prob - record.log_prob).exp();
                let clipped = ratio.clamp(1.0 - config.clip_range, 1.0 + config.clip_range);
                let surrogate = (ratio * advantage).min(clipped * advantage);
                sums.policy_loss += -surrogate;
                sums.entropy += entropy;
                // Gradient of the loss w.r.t. log_prob: the surrogate is
                // active only when the un-clipped branch is selected.
                let use_unclipped = (ratio * advantage) <= (clipped * advantage) + 1e-12;
                let dl_dlogp = if use_unclipped {
                    -advantage * ratio
                } else {
                    0.0
                };
                coeffs.push((dl_dlogp * scale, -config.entropy_coef * scale));
                sums.updates += 1;
            }
            // Parameter gradients accumulate in reverse sample order —
            // bit-identical to replaying per-sample backward calls against
            // the stacks.
            policy.backward_batch(&items, &coeffs);
            optimizer.clip_and_step(&mut policy.parameters_mut(), config.max_grad_norm);
        }
        sums
    }

    /// The value chain: squared-error loss against the returns. Returns the
    /// summed loss.
    fn value_chain(&self, value: &mut ValueNetwork, optimizer: &mut Adam) -> f64 {
        let config = self.config;
        let mut value_loss = 0.0;
        for chunk in self.minibatches() {
            let scale = 1.0 / chunk.len() as f64;
            let values = value.forward_batch(&self.gather(chunk));
            let mut grads: Vec<f64> = Vec::with_capacity(chunk.len());
            for (&idx, &v) in chunk.iter().zip(&values) {
                let v_err = v - self.batch[idx].3;
                value_loss += 0.5 * v_err * v_err;
                grads.push(config.value_coef * v_err * scale);
            }
            value.backward_batch(&grads);
            optimizer.clip_and_step(&mut value.parameters_mut(), config.max_grad_norm);
        }
        value_loss
    }
}

/// The PPO trainer: owns the policy, the value network and their optimizers.
#[derive(Debug)]
pub struct PpoTrainer<P: PolicyModel> {
    /// The actor.
    pub policy: P,
    /// The critic.
    pub value: ValueNetwork,
    config: PpoConfig,
    policy_optimizer: Adam,
    value_optimizer: Adam,
    rng: ChaCha8Rng,
    history: Vec<IterationStats>,
    cumulative_evaluations: usize,
}

impl PpoTrainer<PolicyNetwork> {
    /// Creates a trainer with the standard multi-discrete policy network.
    pub fn new(
        env_config: &EnvConfig,
        hyper: PolicyHyperparams,
        config: PpoConfig,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let policy = PolicyNetwork::new(env_config.clone(), hyper, &mut rng);
        let value = ValueNetwork::new(env_config, hyper, &mut rng);
        Self::with_policy(policy, value, config, rng)
    }
}

impl<P: PolicyModel> PpoTrainer<P> {
    /// Creates a trainer around an existing policy/value pair (used by the
    /// flat-action-space ablation).
    pub fn with_policy(policy: P, value: ValueNetwork, config: PpoConfig, rng: ChaCha8Rng) -> Self {
        Self {
            policy,
            value,
            policy_optimizer: Adam::new(config.learning_rate),
            value_optimizer: Adam::new(config.learning_rate),
            config,
            rng,
            history: Vec::new(),
            cumulative_evaluations: 0,
        }
    }

    /// The PPO configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Per-iteration training statistics collected so far.
    pub fn history(&self) -> &[IterationStats] {
        &self.history
    }

    /// Runs one PPO iteration: collects trajectories over modules drawn
    /// round-robin from `dataset` and performs the update epochs.
    ///
    /// # Panics
    ///
    /// Panics if `dataset` is empty.
    pub fn train_iteration(
        &mut self,
        env: &mut OptimizationEnv,
        dataset: &[Module],
    ) -> IterationStats {
        assert!(!dataset.is_empty(), "training dataset must not be empty");
        let iteration = self.history.len();

        // --- Collect ------------------------------------------------------
        let modules: Vec<&Module> = (0..self.config.trajectories_per_iteration)
            .map(|i| {
                &dataset[(iteration * self.config.trajectories_per_iteration + i) % dataset.len()]
            })
            .collect();
        let base_seed = self.rng.gen::<u64>();
        let batch_result = collect_rollouts(
            env,
            &modules,
            &mut self.policy,
            &mut self.value,
            false,
            base_seed,
            self.config.rollout_workers,
        );
        let evaluations = batch_result.evaluations;
        let cache_hits = batch_result.cache_hits;
        let trajectories = batch_result.trajectories;

        // --- Advantages ---------------------------------------------------
        // The batch borrows observations/records from the trajectories; no
        // per-transition clones are made.
        let mut batch: Vec<Sample> = Vec::new();
        for traj in &trajectories {
            let (advantages, returns) =
                compute_gae(traj, self.config.gamma, self.config.gae_lambda);
            for (i, t) in traj.transitions.iter().enumerate() {
                batch.push((&t.observation, &t.record, advantages[i], returns[i]));
            }
        }
        // Normalize advantages across the batch.
        let mean_adv = batch.iter().map(|b| b.2).sum::<f64>() / batch.len().max(1) as f64;
        let var_adv =
            batch.iter().map(|b| (b.2 - mean_adv).powi(2)).sum::<f64>() / batch.len().max(1) as f64;
        let std_adv = var_adv.sqrt().max(1e-8);
        for b in &mut batch {
            b.2 = (b.2 - mean_adv) / std_adv;
        }

        // --- Update -------------------------------------------------------
        // Every epoch's shuffled order is drawn before the chains start (the
        // same draws in the same order; nothing else consumes the RNG during
        // the update), so the two chains share only read-only inputs.
        let orders: Vec<Vec<usize>> = (0..self.config.update_epochs)
            .map(|_| {
                let mut indices: Vec<usize> = (0..batch.len()).collect();
                indices.shuffle(&mut self.rng);
                indices
            })
            .collect();
        let update = Update {
            config: &self.config,
            batch: &batch,
            orders: &orders,
        };
        let (policy, policy_optimizer) = (&mut self.policy, &mut self.policy_optimizer);
        let (value, value_optimizer) = (&mut self.value, &mut self.value_optimizer);
        // The value chain on its own thread, the policy chain on this one,
        // nothing between them until the join.
        let (policy_sums, value_loss) = std::thread::scope(|scope| {
            let value_chain = std::thread::Builder::new()
                .name("ppo-value-update".into())
                .spawn_scoped(scope, || update.value_chain(value, value_optimizer))
                .expect("failed to spawn the value update thread");
            let policy_sums = update.policy_chain(policy, policy_optimizer);
            (
                policy_sums,
                value_chain.join().expect("value update panicked"),
            )
        });
        let updates = policy_sums.updates.max(1) as f64;

        // --- Stats ----------------------------------------------------------
        let n_traj = trajectories.len() as f64;
        let mean_speedup = trajectories.iter().map(|t| t.stats.speedup).sum::<f64>() / n_traj;
        let geomean_speedup = (trajectories
            .iter()
            .map(|t| t.stats.speedup.max(1e-12).ln())
            .sum::<f64>()
            / n_traj)
            .exp();
        let mean_reward = trajectories
            .iter()
            .map(|t| t.transitions.iter().map(|tr| tr.reward).sum::<f64>())
            .sum::<f64>()
            / n_traj;
        self.cumulative_evaluations += evaluations;
        let stats = IterationStats {
            iteration,
            mean_speedup,
            geomean_speedup,
            mean_reward,
            policy_loss: policy_sums.policy_loss / updates,
            value_loss: value_loss / updates,
            entropy: policy_sums.entropy / updates,
            evaluations,
            cumulative_evaluations: self.cumulative_evaluations,
            cache_hits,
        };
        self.history.push(stats);
        stats
    }

    /// Runs `iterations` PPO iterations and returns the full history.
    pub fn train(
        &mut self,
        env: &mut OptimizationEnv,
        dataset: &[Module],
        iterations: usize,
    ) -> Vec<IterationStats> {
        for _ in 0..iterations {
            self.train_iteration(env, dataset);
        }
        self.history.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatPolicyNetwork;
    use crate::snapshot::WeightSnapshot;
    use mlir_rl_costmodel::{CostModel, MachineModel};
    use mlir_rl_env::{EnvConfig, Features};
    use mlir_rl_ir::ModuleBuilder;

    fn small_dataset() -> Vec<Module> {
        let mut out = Vec::new();
        for (m, n, k) in [(64, 64, 64), (128, 64, 32), (32, 128, 64)] {
            let mut b = ModuleBuilder::new(format!("mm_{m}x{n}x{k}"));
            let a = b.argument("A", vec![m, k]);
            let w = b.argument("B", vec![k, n]);
            let mm = b.matmul(a, w);
            b.relu(mm);
            out.push(b.finish());
        }
        out
    }

    fn env() -> OptimizationEnv {
        OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()))
    }

    fn tiny_ppo() -> PpoConfig {
        PpoConfig {
            trajectories_per_iteration: 3,
            minibatch_size: 4,
            update_epochs: 2,
            ..PpoConfig::paper()
        }
    }

    /// Builds a fresh deterministic (env, trainer) pair for the rollout
    /// engine tests.
    fn engine_fixture(seed: u64) -> (OptimizationEnv, PpoTrainer<PolicyNetwork>) {
        let hyper = PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        };
        (
            env(),
            PpoTrainer::new(&EnvConfig::small(), hyper, tiny_ppo(), seed),
        )
    }

    fn assert_trajectories_identical(a: &[Trajectory], b: &[Trajectory]) {
        assert_eq!(a.len(), b.len(), "trajectory counts differ");
        for (ta, tb) in a.iter().zip(b) {
            assert_eq!(ta.transitions.len(), tb.transitions.len());
            for (x, y) in ta.transitions.iter().zip(&tb.transitions) {
                assert_eq!(x.observation, y.observation);
                assert_eq!(x.record, y.record);
                assert_eq!(x.reward, y.reward, "rewards must match bit-for-bit");
                assert_eq!(x.value, y.value, "value estimates must match bit-for-bit");
                assert_eq!(x.done, y.done);
            }
            // Performance-relevant stats are identical; cache accounting may
            // differ (worker caches start cold on their own slice).
            assert_eq!(ta.stats.baseline_s, tb.stats.baseline_s);
            assert_eq!(ta.stats.final_s, tb.stats.final_s);
            assert_eq!(ta.stats.speedup, tb.stats.speedup);
            assert_eq!(ta.stats.steps, tb.stats.steps);
        }
    }

    #[test]
    fn parallel_rollouts_match_serial_bit_for_bit() {
        let dataset = small_dataset();
        // Collect each module twice so the batch is bigger than the worker
        // count and strides interleave.
        let modules: Vec<&Module> = dataset.iter().chain(dataset.iter()).collect();

        let (mut env_serial, mut trainer_serial) = engine_fixture(99);
        let serial = collect_rollouts(
            &mut env_serial,
            &modules,
            &mut trainer_serial.policy,
            &mut trainer_serial.value,
            false,
            4242,
            1,
        );

        for workers in [2, 4] {
            let (mut env_par, mut trainer_par) = engine_fixture(99);
            let parallel = collect_rollouts(
                &mut env_par,
                &modules,
                &mut trainer_par.policy,
                &mut trainer_par.value,
                false,
                4242,
                workers,
            );
            assert_trajectories_identical(&serial.trajectories, &parallel.trajectories);
        }
    }

    #[test]
    fn parallel_rollouts_with_noise_match_serial() {
        use mlir_rl_costmodel::{CostModel, MachineModel};
        let mut config = EnvConfig::small();
        config.noise_seed = Some(11);
        let build = || {
            let env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
            let hyper = PolicyHyperparams {
                hidden_size: 16,
                backbone_layers: 1,
            };
            let trainer = PpoTrainer::new(&config, hyper, tiny_ppo(), 5);
            (env, trainer)
        };
        let dataset = small_dataset();
        let modules: Vec<&Module> = dataset.iter().collect();
        let (mut env_a, mut tr_a) = build();
        let (mut env_b, mut tr_b) = build();
        let serial = collect_rollouts(
            &mut env_a,
            &modules,
            &mut tr_a.policy,
            &mut tr_a.value,
            false,
            7,
            1,
        );
        let parallel = collect_rollouts(
            &mut env_b,
            &modules,
            &mut tr_b.policy,
            &mut tr_b.value,
            false,
            7,
            3,
        );
        assert_trajectories_identical(&serial.trajectories, &parallel.trajectories);
    }

    #[test]
    fn rollout_batch_reports_cache_hits() {
        // Collecting the same module repeatedly must hit the schedule cache
        // (at minimum, every episode's baseline after the first).
        let dataset = small_dataset();
        let modules: Vec<&Module> = std::iter::repeat_n(&dataset[0], 6).collect();
        let (mut env, mut trainer) = engine_fixture(3);
        let batch = collect_rollouts(
            &mut env,
            &modules,
            &mut trainer.policy,
            &mut trainer.value,
            false,
            1,
            1,
        );
        assert_eq!(batch.trajectories.len(), 6);
        assert!(
            batch.cache_hits > 0,
            "repeated schedules must hit the cache"
        );
        assert!(
            batch.evaluations > 0,
            "novel schedules must still be evaluated"
        );
        assert!(batch.cache_hit_rate() > 0.0 && batch.cache_hit_rate() < 1.0);
        assert!(batch.total_steps() > 0);
    }

    #[test]
    fn parallel_collection_warms_the_master_cache() {
        let dataset = small_dataset();
        let modules: Vec<&Module> = dataset.iter().collect();
        let (mut env, mut trainer) = engine_fixture(8);
        assert!(env.cache().is_empty());
        collect_rollouts(
            &mut env,
            &modules,
            &mut trainer.policy,
            &mut trainer.value,
            false,
            21,
            2,
        );
        // Workers are handles onto the master's table, so their entries are
        // visible to the master with no fold-back step.
        assert!(
            !env.cache().is_empty(),
            "parallel collection must warm the master cache"
        );
    }

    #[test]
    fn shared_cache_makes_parallel_hit_rate_match_serial() {
        let dataset = small_dataset();
        let modules: Vec<&Module> = dataset.iter().chain(dataset.iter()).collect();
        let (mut env_serial, mut tr_serial) = engine_fixture(13);
        let serial = collect_rollouts(
            &mut env_serial,
            &modules,
            &mut tr_serial.policy,
            &mut tr_serial.value,
            false,
            5150,
            1,
        );
        let (mut env_par, mut tr_par) = engine_fixture(13);
        let parallel = collect_rollouts(
            &mut env_par,
            &modules,
            &mut tr_par.policy,
            &mut tr_par.value,
            false,
            5150,
            3,
        );
        // Identical trajectories -> identical lookup sequences.
        assert_eq!(serial.total_lookups(), parallel.total_lookups());
        // Neither table evicts, so serial evaluates each distinct schedule
        // exactly once, and the shared table ends up holding the same set.
        let (serial_table, parallel_table) = (env_serial.cache(), env_par.cache());
        assert_eq!(
            (serial_table.evictions(), parallel_table.evictions()),
            (0, 0)
        );
        assert_eq!(serial_table.insertions(), serial.evaluations as u64);
        assert_eq!(parallel_table.insertions(), serial_table.insertions());
        // Every hit parallel loses is an evaluation whose insert lost a race
        // (two workers missing the same key at once, one insert wins) —
        // never a table of its own a worker would have started cold.
        assert_eq!(
            (serial.cache_hits - parallel.cache_hits) as u64,
            parallel.evaluations as u64 - parallel_table.insertions()
        );
    }

    #[test]
    fn iteration_stats_lookup_accounting_is_consistent() {
        let mut env = env();
        let hyper = PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        };
        let mut trainer = PpoTrainer::new(&EnvConfig::small(), hyper, tiny_ppo(), 6);
        let stats = trainer.train_iteration(&mut env, &small_dataset());
        assert_eq!(stats.total_lookups(), stats.evaluations + stats.cache_hits);
        // The iteration's counters are the sum of the per-episode counters,
        // which are themselves hit/miss classifications of every lookup.
        assert!(stats.total_lookups() > 0);
    }

    #[test]
    fn rank_actions_returns_greedy_first_then_distinct_sorted_candidates() {
        let (mut env, mut trainer) = engine_fixture(4);
        let obs = env.reset(small_dataset()[0].clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let greedy = trainer.policy.select_action(&obs, true, &mut rng);

        let mut rng1 = ChaCha8Rng::seed_from_u64(77);
        let one = trainer.policy.rank_actions(&obs, 1, &mut rng1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].action, greedy.action, "k = 1 is exactly greedy");

        let mut rng2 = ChaCha8Rng::seed_from_u64(77);
        let many = trainer.policy.rank_actions(&obs, 6, &mut rng2);
        assert!(!many.is_empty() && many.len() <= 6);
        assert_eq!(many[0].action, greedy.action, "greedy always leads");
        for (i, a) in many.iter().enumerate() {
            for b in &many[i + 1..] {
                assert_ne!(a.action, b.action, "candidates must be distinct");
            }
        }
        for pair in many[1..].windows(2) {
            assert!(
                pair[0].log_prob >= pair[1].log_prob,
                "tail sorted by log-prob"
            );
        }
        // Deterministic in the RNG seed.
        let mut rng3 = ChaCha8Rng::seed_from_u64(77);
        let again = trainer.policy.rank_actions(&obs, 6, &mut rng3);
        assert_eq!(many.len(), again.len());
        for (a, b) in many.iter().zip(&again) {
            assert_eq!(a.action, b.action);
        }
    }

    #[test]
    fn episode_seed_is_injective_enough() {
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for ep in 0..64u64 {
                assert!(seen.insert(episode_seed(base, ep)), "seed collision");
            }
        }
    }

    #[test]
    fn paper_config_matches_section_7a5() {
        let c = PpoConfig::paper();
        assert_eq!(c.learning_rate, 1e-3);
        assert_eq!(c.clip_range, 0.2);
        assert_eq!(c.gamma, 1.0);
        assert_eq!(c.gae_lambda, 0.95);
        assert_eq!(c.trajectories_per_iteration, 64);
        assert_eq!(c.minibatch_size, 32);
        assert_eq!(c.update_epochs, 4);
        assert_eq!(c.value_coef, 0.5);
        assert_eq!(c.entropy_coef, 0.01);
    }

    #[test]
    fn collect_episode_produces_consistent_trajectory() {
        let mut env = env();
        let hyper = PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        };
        let mut trainer = PpoTrainer::new(&EnvConfig::small(), hyper, tiny_ppo(), 0);
        let module = &small_dataset()[0];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let traj = collect_episode(
            &mut env,
            module,
            &mut trainer.policy,
            &mut trainer.value,
            false,
            &mut rng,
        );
        assert!(!traj.transitions.is_empty());
        assert!(traj.transitions.last().unwrap().done);
        assert!(traj.stats.speedup > 0.0);
        // Final-reward mode: every non-terminal reward is 0.
        for t in &traj.transitions[..traj.transitions.len() - 1] {
            assert_eq!(t.reward, 0.0);
        }
    }

    #[test]
    fn gae_with_gamma_one_final_reward_gives_uniform_advantage_signal() {
        // A hand-built trajectory: zero rewards then a final reward of 2,
        // zero value estimates everywhere -> every return equals 2.
        let obs_placeholder = || Observation {
            consumer: Features::zeros(1),
            producer: Features::zeros(1),
            mask: mlir_rl_env::ActionMask {
                transformation: [true; 6],
                tile_sizes: vec![],
                num_tile_candidates: 0,
            },
            num_loops: 1,
            op: mlir_rl_ir::OpId(0),
        };
        let record = ActionRecord {
            action: mlir_rl_env::Action::NoTransformation,
            kind_index: 5,
            tile_indices: vec![],
            interchange_candidate: None,
            interchange_permutation: None,
            log_prob: -1.0,
            entropy: 0.5,
        };
        let traj = Trajectory {
            transitions: (0..3)
                .map(|i| Transition {
                    observation: obs_placeholder(),
                    record: record.clone(),
                    reward: if i == 2 { 2.0 } else { 0.0 },
                    value: 0.0,
                    done: i == 2,
                })
                .collect(),
            stats: EpisodeStats {
                baseline_s: 1.0,
                final_s: 1.0,
                speedup: 1.0,
                steps: 3,
                evaluations: 1,
                cache_hits: 0,
            },
        };
        let (adv, ret) = compute_gae(&traj, 1.0, 0.95);
        assert_eq!(ret.len(), 3);
        // With zero values, returns are the discounted-lambda future reward.
        assert!(ret[2] > 1.99);
        assert!(adv[0] > 0.0 && adv[1] > 0.0 && adv[2] > 0.0);
        assert!(adv[2] >= adv[0], "later steps are closer to the reward");
    }

    #[test]
    fn training_iteration_runs_and_records_stats() {
        let mut env = env();
        let hyper = PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        };
        let mut trainer = PpoTrainer::new(&EnvConfig::small(), hyper, tiny_ppo(), 42);
        let dataset = small_dataset();
        let stats = trainer.train_iteration(&mut env, &dataset);
        assert_eq!(stats.iteration, 0);
        assert!(stats.mean_speedup.is_finite());
        assert!(stats.value_loss >= 0.0);
        assert!(stats.entropy >= 0.0);
        assert!(stats.evaluations > 0);
        assert_eq!(trainer.history().len(), 1);
        // The update leaves no gradient behind, which is what lets the
        // chains skip `zero_grad`: every value is unmaterialised or `+0.0`.
        let mut params = trainer.policy.parameters_mut();
        params.extend(trainer.value.parameters_mut());
        for (i, param) in params.iter().enumerate() {
            assert!(
                param.grad().iter().all(|g| g.to_bits() == 0),
                "parameter {i} holds a gradient after the update"
            );
        }
    }

    #[test]
    fn short_training_improves_mean_speedup() {
        // With a tiny network and a small dataset, a handful of iterations
        // should already push the policy toward profitable schedules
        // (parallelization alone is a large win).
        let mut env = env();
        let hyper = PolicyHyperparams {
            hidden_size: 24,
            backbone_layers: 1,
        };
        let mut trainer = PpoTrainer::new(&EnvConfig::small(), hyper, tiny_ppo(), 7);
        let dataset = small_dataset();
        let history = trainer.train(&mut env, &dataset, 6);
        let first = history.first().unwrap().geomean_speedup;
        let best_late = history[2..]
            .iter()
            .map(|s| s.geomean_speedup)
            .fold(f64::MIN, f64::max);
        assert!(
            best_late > first * 0.8,
            "training must not collapse: first {first}, best later {best_late}"
        );
        // Greedy episodes after training produce finite speedups.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for module in &dataset {
            let greedy = collect_episode(
                &mut env,
                module,
                &mut trainer.policy,
                &mut trainer.value,
                true,
                &mut rng,
            );
            assert!(greedy.stats.speedup.is_finite() && greedy.stats.speedup > 0.0);
        }
    }

    /// The parent's `train_iteration`, verbatim: one loop that interleaves
    /// the policy and the value update minibatch by minibatch and draws each
    /// epoch's shuffle as it gets there. The reference the two-chain update
    /// is held to, bit for bit.
    fn train_iteration_interleaved<P: PolicyModel>(
        trainer: &mut PpoTrainer<P>,
        env: &mut OptimizationEnv,
        dataset: &[Module],
    ) -> IterationStats {
        assert!(!dataset.is_empty(), "training dataset must not be empty");
        let iteration = trainer.history.len();

        // --- Collect ------------------------------------------------------
        let modules: Vec<&Module> = (0..trainer.config.trajectories_per_iteration)
            .map(|i| {
                &dataset
                    [(iteration * trainer.config.trajectories_per_iteration + i) % dataset.len()]
            })
            .collect();
        let base_seed = trainer.rng.gen::<u64>();
        let batch_result = collect_rollouts(
            env,
            &modules,
            &mut trainer.policy,
            &mut trainer.value,
            false,
            base_seed,
            trainer.config.rollout_workers,
        );
        let evaluations = batch_result.evaluations;
        let cache_hits = batch_result.cache_hits;
        let trajectories = batch_result.trajectories;

        // --- Advantages ---------------------------------------------------
        // The batch borrows observations/records from the trajectories; no
        // per-transition clones are made.
        let mut batch: Vec<(&Observation, &ActionRecord, f64, f64)> = Vec::new();
        for traj in &trajectories {
            let (advantages, returns) =
                compute_gae(traj, trainer.config.gamma, trainer.config.gae_lambda);
            for (i, t) in traj.transitions.iter().enumerate() {
                batch.push((&t.observation, &t.record, advantages[i], returns[i]));
            }
        }
        // Normalize advantages across the batch.
        let mean_adv = batch.iter().map(|b| b.2).sum::<f64>() / batch.len().max(1) as f64;
        let var_adv =
            batch.iter().map(|b| (b.2 - mean_adv).powi(2)).sum::<f64>() / batch.len().max(1) as f64;
        let std_adv = var_adv.sqrt().max(1e-8);
        for b in &mut batch {
            b.2 = (b.2 - mean_adv) / std_adv;
        }

        // --- Update -------------------------------------------------------
        let mut policy_loss_acc = 0.0;
        let mut value_loss_acc = 0.0;
        let mut entropy_acc = 0.0;
        let mut updates = 0usize;
        for _epoch in 0..trainer.config.update_epochs {
            let mut indices: Vec<usize> = (0..batch.len()).collect();
            indices.shuffle(&mut trainer.rng);
            for chunk in indices.chunks(trainer.config.minibatch_size.max(1)) {
                trainer.policy.zero_grad();
                trainer.value.zero_grad();
                let scale = 1.0 / chunk.len() as f64;
                // Pass 1: the whole minibatch goes through ONE batched
                // forward per layer (policy heads and value head) instead
                // of one matvec sweep per sample; the stacked activations
                // mean the backward pass never re-runs the forward network.
                let items: Vec<(&Observation, &ActionRecord)> = chunk
                    .iter()
                    .map(|&idx| (batch[idx].0, batch[idx].1))
                    .collect();
                // Gathered once, shared by the policy and the value network.
                let obs_batch =
                    ObservationBatch::from_observations(items.iter().map(|(obs, _)| *obs));
                let evals = trainer.policy.evaluate_batch(&obs_batch, &items);
                let values = trainer.value.forward_batch(&obs_batch);
                let mut policy_coeffs: Vec<(f64, f64)> = Vec::with_capacity(chunk.len());
                let mut value_grads: Vec<f64> = Vec::with_capacity(chunk.len());
                for ((&idx, &(log_prob, entropy)), &v) in chunk.iter().zip(&evals).zip(&values) {
                    let (_, record, advantage, ret) = &batch[idx];
                    // Policy: clipped surrogate objective.
                    let ratio = (log_prob - record.log_prob).exp();
                    let clipped = ratio.clamp(
                        1.0 - trainer.config.clip_range,
                        1.0 + trainer.config.clip_range,
                    );
                    let surrogate = (ratio * advantage).min(clipped * advantage);
                    policy_loss_acc += -surrogate;
                    entropy_acc += entropy;
                    // Gradient of the loss w.r.t. log_prob: the surrogate is
                    // active only when the un-clipped branch is selected.
                    let use_unclipped = (ratio * advantage) <= (clipped * advantage) + 1e-12;
                    let dl_dlogp = if use_unclipped {
                        -advantage * ratio
                    } else {
                        0.0
                    };

                    // Value: squared-error loss.
                    let v_err = v - ret;
                    value_loss_acc += 0.5 * v_err * v_err;
                    policy_coeffs.push((dl_dlogp * scale, -trainer.config.entropy_coef * scale));
                    value_grads.push(trainer.config.value_coef * v_err * scale);
                    updates += 1;
                }
                // Pass 2: one batched backward per layer, accumulating
                // parameter gradients in reverse sample order — bit-identical
                // to replaying per-sample backward calls against the stacks.
                trainer.policy.backward_batch(&items, &policy_coeffs);
                trainer.value.backward_batch(&value_grads);
                let max_norm = trainer.config.max_grad_norm;
                trainer
                    .policy_optimizer
                    .clip_and_step(&mut trainer.policy.parameters_mut(), max_norm);
                trainer
                    .value_optimizer
                    .clip_and_step(&mut trainer.value.parameters_mut(), max_norm);
            }
        }

        // --- Stats ----------------------------------------------------------
        let n_traj = trajectories.len() as f64;
        let mean_speedup = trajectories.iter().map(|t| t.stats.speedup).sum::<f64>() / n_traj;
        let geomean_speedup = (trajectories
            .iter()
            .map(|t| t.stats.speedup.max(1e-12).ln())
            .sum::<f64>()
            / n_traj)
            .exp();
        let mean_reward = trajectories
            .iter()
            .map(|t| t.transitions.iter().map(|tr| tr.reward).sum::<f64>())
            .sum::<f64>()
            / n_traj;
        trainer.cumulative_evaluations += evaluations;
        let stats = IterationStats {
            iteration,
            mean_speedup,
            geomean_speedup,
            mean_reward,
            policy_loss: policy_loss_acc / updates.max(1) as f64,
            value_loss: value_loss_acc / updates.max(1) as f64,
            entropy: entropy_acc / updates.max(1) as f64,
            evaluations,
            cumulative_evaluations: trainer.cumulative_evaluations,
            cache_hits,
        };
        trainer.history.push(stats);
        stats
    }

    /// Everything the update writes, as bits.
    #[derive(Debug, PartialEq)]
    struct TrainingState {
        /// Value bits of every `parameters_mut()` entry, policy then value.
        weights: Vec<Vec<u64>>,
        adam_steps: [u64; 2],
        /// `WeightSnapshot` checksums, policy then value.
        fingerprints: [u64; 2],
    }

    fn training_state<P: PolicyModel + WeightSnapshot>(
        trainer: &mut PpoTrainer<P>,
    ) -> TrainingState {
        let bits = |params: Vec<&mut Param>| -> Vec<Vec<u64>> {
            params
                .iter()
                .map(|p| p.value().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let mut weights = bits(trainer.policy.parameters_mut());
        weights.extend(bits(trainer.value.parameters_mut()));
        TrainingState {
            weights,
            adam_steps: [
                trainer.policy_optimizer.steps(),
                trainer.value_optimizer.steps(),
            ],
            fingerprints: [
                trainer.policy.weights_fingerprint(),
                trainer.value.weights_fingerprint(),
            ],
        }
    }

    fn assert_two_chains_equal_the_interleaved_loop<P: PolicyModel + WeightSnapshot>(
        build: impl Fn() -> PpoTrainer<P>,
    ) {
        let dataset = small_dataset();
        let (mut env_chains, mut chains) = (env(), build());
        let (mut env_loop, mut interleaved) = (env(), build());
        for iteration in 0..6 {
            let a = chains.train_iteration(&mut env_chains, &dataset);
            let b = train_iteration_interleaved(&mut interleaved, &mut env_loop, &dataset);
            assert_eq!(a, b, "iteration {iteration}: stats differ");
            for (x, y) in [
                (a.policy_loss, b.policy_loss),
                (a.value_loss, b.value_loss),
                (a.entropy, b.entropy),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "iteration {iteration}: loss bits");
            }
            assert!(
                training_state(&mut chains) == training_state(&mut interleaved),
                "iteration {iteration}: weights, Adam steps or snapshot checksums differ"
            );
        }
        assert!(chains.policy_optimizer.steps() > 0 && chains.value_optimizer.steps() > 0);
        assert_eq!(chains.history(), interleaved.history());
        assert_eq!(
            chains.rng.gen::<u64>(),
            interleaved.rng.gen::<u64>(),
            "the update must leave the trainer's RNG where the loop left it"
        );
    }

    #[test]
    fn two_chain_update_equals_the_interleaved_loop_bit_for_bit() {
        let hyper = PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        };
        assert_two_chains_equal_the_interleaved_loop(|| {
            PpoTrainer::new(&EnvConfig::small(), hyper, tiny_ppo(), 31)
        });
        assert_two_chains_equal_the_interleaved_loop(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(32);
            let policy = FlatPolicyNetwork::new(EnvConfig::small(), hyper, &mut rng);
            let value = ValueNetwork::new(&EnvConfig::small(), hyper, &mut rng);
            PpoTrainer::with_policy(policy, value, tiny_ppo(), rng)
        });
    }

    #[test]
    fn update_handles_an_empty_batch_and_an_oversized_minibatch() {
        // Every trajectory zero-length: a module without operations ends
        // its episode at reset, so the update has no sample to walk.
        let (mut env, mut trainer) = engine_fixture(2);
        let empty = vec![ModuleBuilder::new("no-ops").finish()];
        let stats = trainer.train_iteration(&mut env, &empty);
        assert_eq!(
            (stats.policy_loss, stats.value_loss, stats.entropy),
            (0.0, 0.0, 0.0)
        );
        assert_eq!(trainer.policy_optimizer.steps(), 0, "no minibatch, no step");
        assert_eq!(trainer.value_optimizer.steps(), 0);
        let config = tiny_ppo();
        let orders = vec![Vec::new(); config.update_epochs];
        let update = Update {
            config: &config,
            batch: &[],
            orders: &orders,
        };
        assert_eq!(update.minibatches().count(), 0);
        let sums = update.policy_chain(&mut trainer.policy, &mut trainer.policy_optimizer);
        assert_eq!(sums.updates, 0);

        // A minibatch larger than the batch: one chunk per epoch, on both
        // chains.
        let (mut env, mut trainer) = engine_fixture(2);
        trainer.config.minibatch_size = 1 << 20;
        let stats = trainer.train_iteration(&mut env, &small_dataset());
        assert!(stats.policy_loss.is_finite() && stats.value_loss.is_finite());
        let epochs = trainer.config.update_epochs as u64;
        assert_eq!(trainer.policy_optimizer.steps(), epochs);
        assert_eq!(trainer.value_optimizer.steps(), epochs);
    }
}

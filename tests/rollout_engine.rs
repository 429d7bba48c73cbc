//! Integration tests of the parallel rollout engine: fixed-seed determinism
//! across worker counts and cost-model cache accounting, exercised through
//! the public crate APIs end to end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mlir_rl_agent::{
    collect_episode, collect_rollouts, episode_seed, ActionRecord, PolicyHyperparams, PolicyModel,
    PolicyNetwork, PpoConfig, PpoTrainer, RolloutBatch, Trajectory, ValueNetwork,
};
use mlir_rl_costmodel::{CostModel, MachineModel, SharedEvalCache};
use mlir_rl_env::{Action, EnvConfig, Observation, ObservationBatch, OptimizationEnv, RewardMode};
use mlir_rl_ir::{Module, ModuleBuilder};
use mlir_rl_nn::Param;
use mlir_rl_search::{GreedyPolicy, Mcts, SearchDriver, SearchOutcome};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn dataset() -> Vec<Module> {
    let mut out = Vec::new();
    for (m, n, k) in [(64, 64, 64), (96, 48, 128), (32, 256, 64)] {
        let mut b = ModuleBuilder::new(format!("mm_{m}x{n}x{k}"));
        let a = b.argument("A", vec![m, k]);
        let w = b.argument("B", vec![k, n]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        out.push(b.finish());
    }
    out
}

fn fixture(config: &EnvConfig) -> (OptimizationEnv, PpoTrainer<PolicyNetwork>) {
    let env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
    let hyper = PolicyHyperparams {
        hidden_size: 16,
        backbone_layers: 1,
    };
    let trainer = PpoTrainer::new(config, hyper, PpoConfig::small(), 13);
    (env, trainer)
}

/// True if no other network instance holds any of `trainer`'s weight
/// buffers, i.e. its next `Adam::step` copies nothing.
fn owns_its_weights(trainer: &mut PpoTrainer<PolicyNetwork>) -> bool {
    let policy = trainer.policy.parameters_mut();
    let value = trainer.value.parameters_mut();
    policy.iter().chain(&value).all(|p| !p.is_value_shared())
}

/// One batch at `workers` workers on a fresh environment whose evaluation
/// table holds `capacity` entries (`None`: the default), returned with the
/// environment so its cache can be inspected. `trained` first runs one
/// `train_iteration` (on an environment of its own) while a clone of both
/// networks is alive, so the batch is collected with materialised
/// gradients and weights that went through a copy-on-write.
fn collect(
    config: &EnvConfig,
    modules: &[&Module],
    capacity: Option<usize>,
    workers: usize,
    trained: bool,
) -> (RolloutBatch, OptimizationEnv) {
    let (mut env, mut trainer) = fixture(config);
    if trained {
        let mut published = (trainer.policy.clone(), trainer.value.clone());
        trainer.train_iteration(&mut env.clone(), &dataset());
        let (old, new) = (
            published.0.parameters_mut(),
            trainer.policy.parameters_mut(),
        );
        assert!(old.iter().zip(&new).all(|(o, n)| !o.shares_value_with(n)));
        assert!(new.iter().all(|p| !p.grad().is_empty()));
    }
    if let Some(capacity) = capacity {
        env.replace_cache(SharedEvalCache::new(capacity));
    }
    let batch = collect_rollouts(
        &mut env,
        modules,
        &mut trainer.policy,
        &mut trainer.value,
        false,
        777,
        workers,
    );
    (batch, env)
}

#[test]
fn fixed_seed_parallel_rollouts_are_identical_to_serial() {
    let config = EnvConfig::small();
    let dataset = dataset();
    let modules: Vec<&Module> = dataset.iter().chain(dataset.iter()).collect();
    for trained in [false, true] {
        let (serial, _) = collect(&config, &modules, None, 1, trained);
        assert_rollouts_match_serial(&config, &modules, &serial, trained);
    }
}

/// Worker counts on the default table, and serial collection on a table of
/// four entries: neither may move a bit of any trajectory of `serial`.
fn assert_rollouts_match_serial(
    config: &EnvConfig,
    modules: &[&Module],
    serial: &RolloutBatch,
    trained: bool,
) {
    for (capacity, workers) in [(None, 2), (None, 3), (None, 4), (None, 6), (Some(4), 1)] {
        let (batch, env) = collect(config, modules, capacity, workers, trained);
        let case = format!("capacity {capacity:?}, {workers} workers, trained {trained}");
        assert_trajectories_identical(&serial.trajectories, &batch.trajectories, &case);
        // Every lookup of the batch went through the environment's one
        // table and was classified exactly once.
        let table = env.cache();
        assert_eq!(batch.total_lookups(), serial.total_lookups(), "{case}");
        assert_eq!(
            (batch.evaluations as u64, batch.cache_hits as u64),
            (table.misses(), table.hits()),
            "{case}"
        );
        if let Some(capacity) = capacity {
            // A full table evicts entry by entry and never overshoots.
            assert!(table.evictions() > 0, "{case}: the batch must overflow");
            assert!(table.len() <= capacity, "{case}");
            assert!(batch.evaluations > serial.evaluations, "{case}");
        } else {
            assert_eq!(table.evictions(), 0, "{case}");
        }
    }
}

/// Everything of two trajectory lists that must match bit for bit; the
/// hit/miss split may differ with table warmth.
fn assert_trajectories_identical(a: &[Trajectory], b: &[Trajectory], case: &str) {
    assert_eq!(a.len(), b.len(), "{case}: trajectory counts differ");
    for (ta, tb) in a.iter().zip(b) {
        assert_eq!(ta.transitions.len(), tb.transitions.len(), "{case}");
        for (x, y) in ta.transitions.iter().zip(&tb.transitions) {
            assert_eq!(
                x.observation, y.observation,
                "{case}: observations diverged"
            );
            assert_eq!(x.record, y.record, "{case}: actions diverged");
            assert_eq!(x.reward, y.reward, "{case}: rewards diverged");
            assert_eq!(
                x.value.to_bits(),
                y.value.to_bits(),
                "{case}: values diverged"
            );
            assert_eq!(x.done, y.done, "{case}");
        }
        assert_eq!(ta.stats.baseline_s, tb.stats.baseline_s, "{case}");
        assert_eq!(ta.stats.final_s, tb.stats.final_s, "{case}");
        assert_eq!(ta.stats.speedup, tb.stats.speedup, "{case}");
        assert_eq!(ta.stats.steps, tb.stats.steps, "{case}");
        assert_eq!(ta.stats.total_lookups(), tb.stats.total_lookups(), "{case}");
    }
}

#[test]
fn a_one_worker_batch_is_collect_episode_run_episode_by_episode() {
    // One worker acts on the caller and estimates on the critic thread (a
    // batch of at most one episode runs inline); either way each episode
    // is what `collect_episode` collects on its own with that episode's
    // seed, on clones of the networks.
    let dataset = dataset();
    let base_seed = 41;
    for noise_seed in [None, Some(5)] {
        let mut config = EnvConfig::small();
        config.noise_seed = noise_seed;
        for episodes in [0, 1, 2, 7] {
            let modules: Vec<&Module> = dataset.iter().cycle().take(episodes).collect();
            let (mut env, mut trainer) = fixture(&config);
            let batch = collect_rollouts(
                &mut env,
                &modules,
                &mut trainer.policy,
                &mut trainer.value,
                false,
                base_seed,
                1,
            );
            let (mut alone_env, _) = fixture(&config);
            let alone: Vec<Trajectory> = modules
                .iter()
                .enumerate()
                .map(|(episode, module)| {
                    let seed = episode_seed(base_seed, episode as u64);
                    if let Some(noise_seed) = noise_seed {
                        let noise = noise_seed.wrapping_add(base_seed);
                        alone_env.reseed_noise(episode_seed(noise, episode as u64));
                    }
                    collect_episode(
                        &mut alone_env,
                        module,
                        &mut trainer.policy.clone(),
                        &mut trainer.value.clone(),
                        false,
                        &mut ChaCha8Rng::seed_from_u64(seed),
                    )
                })
                .collect();
            let case = format!("{episodes} episodes, noise {noise_seed:?}");
            assert_trajectories_identical(&alone, &batch.trajectories, &case);
            assert!(batch.trajectories.iter().all(|t| t
                .transitions
                .iter()
                .all(|t| t.value.is_finite() && t.value != 0.0)));
        }
    }
}

#[test]
fn a_panicking_critic_panics_the_batch_with_its_own_message() {
    // A critic built for the paper's feature width refuses the small
    // configuration's observations. Whether it runs on the critic thread
    // (one worker, several episodes) or inline, the batch must raise that
    // panic — not hang on the hand-over, and not return unestimated values.
    let dataset = dataset();
    let hyper = PolicyHyperparams {
        hidden_size: 16,
        backbone_layers: 1,
    };
    for workers in [1, 2] {
        for episodes in [1, 2, 7] {
            let modules: Vec<&Module> = dataset.iter().cycle().take(episodes).collect();
            let (mut env, mut trainer) = fixture(&EnvConfig::small());
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let mut wrong_width = ValueNetwork::new(&EnvConfig::paper(), hyper, &mut rng);
            let message = panic_message(|| {
                collect_rollouts(
                    &mut env,
                    &modules,
                    &mut trainer.policy,
                    &mut wrong_width,
                    false,
                    3,
                    workers,
                );
            });
            assert!(
                message.contains("LSTM input size mismatch"),
                "{workers} workers, {episodes} episodes: unexpected panic {message:?}"
            );
        }
    }
}

/// Everything of a search outcome that must match bit for bit at any
/// worker count; the hit/miss split may differ with table warmth.
fn outcome_fields(o: &SearchOutcome) -> (String, u64, u64, Vec<Action>, usize, usize) {
    (
        o.module.clone(),
        o.best_s.to_bits(),
        o.speedup.to_bits(),
        o.best_actions.clone(),
        o.nodes_expanded,
        o.total_lookups(),
    )
}

/// The caller's measurement-noise stream after a batch, observed as the
/// noisy baseline of one more reset.
fn next_noisy_baseline(env: &mut OptimizationEnv) -> u64 {
    env.reset(dataset()[0].clone());
    env.stats().baseline_s.to_bits()
}

#[test]
fn fan_out_battery_every_worker_count_collects_the_serial_batch() {
    // Both fan-outs, the rollout engine and the search driver, at every
    // worker count — fewer, as many and more threads than episodes.
    let dataset = dataset();
    let searcher = Mcts::new(4).with_branch(2);
    for noise_seed in [None, Some(11)] {
        let mut config = EnvConfig::small();
        config.noise_seed = noise_seed;
        let collect = |episodes: usize, workers: usize| {
            let (mut env, mut trainer) = fixture(&config);
            let modules: Vec<Module> = dataset.iter().cycle().take(episodes).cloned().collect();
            let batch = collect_rollouts(
                &mut env,
                &modules.iter().collect::<Vec<_>>(),
                &mut trainer.policy,
                &mut trainer.value,
                false,
                77,
                workers,
            );
            let noise = next_noisy_baseline(&mut env);
            let report = SearchDriver::new(workers).with_seed(77).run(
                &env,
                &trainer.policy,
                &searcher,
                &modules,
            );
            let searched: Vec<_> = report.outcomes.iter().map(outcome_fields).collect();
            (batch, noise, searched)
        };
        for episodes in [0, 1, 2, 7] {
            let (serial, serial_noise, serial_searched) = collect(episodes, 1);
            assert_eq!(serial.trajectories.len(), episodes);
            assert_eq!(serial_searched.len(), episodes);
            for workers in [2, 3, 8] {
                let case = format!("{episodes} episodes, {workers} workers, noise {noise_seed:?}");
                let (parallel, parallel_noise, parallel_searched) = collect(episodes, workers);
                assert_trajectories_identical(&serial.trajectories, &parallel.trajectories, &case);
                assert_eq!(serial.total_lookups(), parallel.total_lookups(), "{case}");
                assert_eq!(
                    serial_noise, parallel_noise,
                    "{case}: the caller's noise stream must not depend on the worker count"
                );
                assert_eq!(
                    serial_searched, parallel_searched,
                    "{case}: the driver diverged"
                );
            }
        }
    }
}

/// A policy that panics at the first step of one chosen episode or search,
/// recognised by the first draw of its RNG: the rollout engine and the
/// driver both seed index `i` from `episode_seed(base_seed, i)`.
#[derive(Clone)]
struct PanicsOnEpisode {
    inner: PolicyNetwork,
    first_draw: u64,
}

impl PolicyModel for PanicsOnEpisode {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        assert!(
            rng.clone().gen::<u64>() != self.first_draw,
            "poisoned episode"
        );
        self.inner.select_action(obs, greedy, rng)
    }
    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        self.inner.evaluate_batch(batch, items)
    }
    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        self.inner.backward_batch(items, coeffs);
    }
    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }
    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.inner.parameters_mut()
    }
}

#[test]
fn a_panicking_episode_panics_the_fan_out_instead_of_hanging_it() {
    let dataset = dataset();
    let modules: Vec<Module> = dataset.iter().cycle().take(7).cloned().collect();
    let module_refs: Vec<&Module> = modules.iter().collect();
    let base_seed = 9;
    for workers in [1, 2, 3] {
        for poisoned in [0, 3, 6] {
            let (mut env, mut trainer) = fixture(&EnvConfig::small());
            let mut policy = PanicsOnEpisode {
                inner: trainer.policy.clone(),
                first_draw: ChaCha8Rng::seed_from_u64(episode_seed(base_seed, poisoned))
                    .gen::<u64>(),
            };
            let rollouts = panic_message(|| {
                collect_rollouts(
                    &mut env,
                    &module_refs,
                    &mut policy,
                    &mut trainer.value,
                    false,
                    base_seed,
                    workers,
                );
            });
            let driver = panic_message(|| {
                SearchDriver::new(workers).with_seed(base_seed).run(
                    &env,
                    &policy,
                    &GreedyPolicy,
                    &modules,
                );
            });
            // The caller's own panic resumes as it was raised, and so does a
            // spawned thread's, at its join.
            for (name, message) in [("collect_rollouts", rollouts), ("SearchDriver", driver)] {
                assert!(
                    message.contains("poisoned episode"),
                    "{name}, {workers} workers, episode {poisoned}: unexpected panic {message:?}"
                );
            }
        }
    }
}

/// The message of the panic `f` raises; fails the test if `f` returns.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("the poisoned episode must panic the batch");
    payload
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn immediate_reward_mode_benefits_from_the_cache() {
    // Immediate reward evaluates at every step (Fig. 7's expensive mode);
    // collecting the same module repeatedly must serve a meaningful share
    // of those evaluations from the schedule-keyed cache.
    let mut config = EnvConfig::small();
    config.reward_mode = RewardMode::Immediate;
    let dataset = dataset();
    let modules: Vec<&Module> = std::iter::repeat_n(&dataset[0], 8).collect();
    let (mut env, mut trainer) = fixture(&config);
    let batch = collect_rollouts(
        &mut env,
        &modules,
        &mut trainer.policy,
        &mut trainer.value,
        false,
        99,
        1,
    );
    assert!(
        batch.cache_hits > 0,
        "immediate mode must reuse evaluations"
    );
    let total = batch.cache_hits + batch.evaluations;
    assert!(
        batch.cache_hit_rate() > 0.1,
        "expected a nonzero hit-rate, got {}/{total}",
        batch.cache_hits
    );
}

#[test]
fn training_through_the_engine_is_reproducible() {
    // Two trainers with identical seeds and worker counts produce identical
    // iteration statistics; a third with more workers matches too because
    // collection is worker-count invariant.
    let config = EnvConfig::small();
    let dataset = dataset();
    let run = |workers: usize| {
        let env_cfg = config.clone();
        let mut env =
            OptimizationEnv::new(env_cfg.clone(), CostModel::new(MachineModel::default()));
        let ppo = PpoConfig {
            rollout_workers: workers,
            ..PpoConfig::small()
        };
        let hyper = PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        };
        let mut trainer = PpoTrainer::new(&env_cfg, hyper, ppo, 13);
        let stats = trainer.train_iteration(&mut env, &dataset);
        (stats.mean_speedup, stats.mean_reward, stats.policy_loss)
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(
        a, b,
        "same seed and workers must reproduce training exactly"
    );
    let c = run(4);
    assert_eq!(a, c, "worker count must not change training trajectories");
}

#[test]
fn fan_out_leaves_no_share_of_the_callers_weights_behind() {
    // Workers read the caller's weight buffers through their clones; once
    // the fan-out returns, the caller must be the only holder again, or the
    // trainer's next `Adam::step` would copy every tensor for nothing. At
    // one worker the critic thread borrows the value network and clones
    // nothing.
    let config = EnvConfig::small();
    let dataset = dataset();
    let modules: Vec<&Module> = dataset.iter().collect();
    for workers in [1, 2] {
        let (mut env, mut trainer) = fixture(&config);
        assert!(owns_its_weights(&mut trainer));
        collect_rollouts(
            &mut env,
            &modules,
            &mut trainer.policy,
            &mut trainer.value,
            false,
            5,
            workers,
        );
        assert!(
            owns_its_weights(&mut trainer),
            "collect_rollouts leaked at {workers} workers"
        );
        SearchDriver::new(workers).run(&env, &trainer.policy, &GreedyPolicy, &dataset);
        assert!(
            owns_its_weights(&mut trainer),
            "SearchDriver leaked at {workers} workers"
        );
        // A live clone is what sharing looks like — the check is not vacuous.
        let _clone = trainer.policy.clone();
        assert!(!owns_its_weights(&mut trainer));
    }
}

#[test]
fn nothing_on_a_hot_path_builds_a_dense_observation() {
    // Observations are stored and read as lists of their non-zeros. At the
    // paper's width a dense view is 26 KB per vector, so any path that asks
    // for one per step shows up here as a materialised view.
    let config = EnvConfig::paper();
    let dataset = dataset();
    let modules: Vec<&Module> = dataset.iter().collect();
    let dense_views = |batch: &RolloutBatch| {
        let transitions = batch.trajectories.iter().flat_map(|t| &t.transitions);
        transitions
            .flat_map(|t| [&t.observation.consumer, &t.observation.producer])
            .filter(|features| features.is_materialized())
            .count()
    };
    for workers in [1, 2] {
        // Sampling and the critic: `select_action` and `predict_fast`.
        let (batch, _) = collect(&config, &modules, None, workers, false);
        assert!(batch.total_steps() > 0);
        assert_eq!(dense_views(&batch), 0, "{workers} workers");

        // A batch for the batched networks borrows the lists.
        let (_, mut trainer) = fixture(&config);
        let observations: Vec<_> = batch
            .trajectories
            .iter()
            .flat_map(|t| t.transitions.iter().map(|t| &t.observation))
            .collect();
        let batched = ObservationBatch::from_observations(observations.iter().copied());
        assert_eq!(batched.len(), observations.len());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ranked = trainer
            .policy
            .rank_actions_batch(&observations, 2, &mut rng);
        assert_eq!(ranked.len(), observations.len());
        assert_eq!(dense_views(&batch), 0, "{workers} workers, after batching");

        // The view exists once somebody asks, stays with the value that was
        // asked, and changes nothing about what the value is.
        let obs = observations[0];
        assert_eq!(obs.consumer.as_slice().len(), config.feature_len());
        assert!(obs.consumer.is_materialized());
        let copy = obs.clone();
        assert!(!copy.consumer.is_materialized());
        assert_eq!(&copy, obs);
        assert_eq!(dense_views(&batch), 1);
    }
}

/// A policy that fails on a dense view of any observation its training
/// calls see, after running them, and counts the rows it checked.
#[derive(Clone)]
struct RefusesDenseViews {
    inner: PolicyNetwork,
    checked: Arc<AtomicUsize>,
}

impl RefusesDenseViews {
    fn check<'a>(&self, observations: impl Iterator<Item = &'a Observation>) {
        for obs in observations {
            assert!(
                !obs.producer.is_materialized() && !obs.consumer.is_materialized(),
                "a training call built a dense observation"
            );
            self.checked.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl PolicyModel for RefusesDenseViews {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        self.inner.select_action(obs, greedy, rng)
    }
    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        let out = self.inner.evaluate_batch(batch, items);
        self.check(items.iter().map(|(obs, _)| *obs));
        out
    }
    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        self.inner.backward_batch(items, coeffs);
        self.check(items.iter().map(|(obs, _)| *obs));
    }
    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }
    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.inner.parameters_mut()
    }
}

#[test]
fn a_training_iteration_builds_no_dense_observation() {
    // The PPO update reads each minibatch as the feature lists the
    // transitions store: the policy chain and the value chain run the same
    // trunk, and neither asks an observation for its dense view.
    let dataset = dataset();
    for config in [EnvConfig::small(), EnvConfig::paper()] {
        let (mut env, trainer) = fixture(&config);
        let checked = Arc::new(AtomicUsize::new(0));
        let policy = RefusesDenseViews {
            inner: trainer.policy,
            checked: Arc::clone(&checked),
        };
        let mut trainer = PpoTrainer::with_policy(
            policy,
            trainer.value,
            PpoConfig::small(),
            ChaCha8Rng::seed_from_u64(13),
        );
        trainer.train_iteration(&mut env, &dataset);
        assert!(checked.load(Ordering::Relaxed) > 0, "{config:?}");
    }
}

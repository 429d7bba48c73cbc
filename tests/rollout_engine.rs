//! Integration tests of the parallel rollout engine: fixed-seed determinism
//! across worker counts and cost-model cache accounting, exercised through
//! the public crate APIs end to end.

use mlir_rl_agent::{
    collect_rollouts, PolicyHyperparams, PolicyNetwork, PpoConfig, PpoTrainer, RolloutBatch,
};
use mlir_rl_costmodel::{CostModel, EvalCache, MachineModel};
use mlir_rl_env::{EnvConfig, ObservationBatch, OptimizationEnv, RewardMode};
use mlir_rl_ir::{Module, ModuleBuilder};
use mlir_rl_search::{GreedyPolicy, SearchDriver};
use rand::SeedableRng;
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
        env.replace_cache(EvalCache::new(capacity));
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
        assert_eq!(serial.trajectories.len(), batch.trajectories.len());
        for (a, b) in serial.trajectories.iter().zip(&batch.trajectories) {
            assert_eq!(a.transitions.len(), b.transitions.len());
            for (x, y) in a.transitions.iter().zip(&b.transitions) {
                assert_eq!(x.record, y.record, "{case}: actions diverged");
                assert_eq!(x.reward, y.reward, "{case}: rewards diverged");
                assert_eq!(x.value, y.value, "{case}: values diverged");
            }
            assert_eq!(a.stats.speedup, b.stats.speedup);
            assert_eq!(a.stats.steps, b.stats.steps);
        }
        // Every lookup of the batch went through the environment's one
        // table and was classified exactly once.
        let table = env.cache().shared_backend();
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
    // trainer's next `Adam::step` would copy every tensor for nothing.
    let config = EnvConfig::small();
    let dataset = dataset();
    let modules: Vec<&Module> = dataset.iter().collect();
    let (mut env, mut trainer) = fixture(&config);
    assert!(owns_its_weights(&mut trainer));
    collect_rollouts(
        &mut env,
        &modules,
        &mut trainer.policy,
        &mut trainer.value,
        false,
        5,
        2,
    );
    assert!(owns_its_weights(&mut trainer), "collect_rollouts leaked");
    SearchDriver::new(2).run(&env, &trainer.policy, &GreedyPolicy, &dataset);
    assert!(owns_its_weights(&mut trainer), "SearchDriver leaked");
    // A live clone is what sharing looks like — the check is not vacuous.
    let _clone = trainer.policy.clone();
    assert!(!owns_its_weights(&mut trainer));
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

        // Packing for the batched networks scatters from the lists.
        let (_, mut trainer) = fixture(&config);
        let observations: Vec<_> = batch
            .trajectories
            .iter()
            .flat_map(|t| t.transitions.iter().map(|t| &t.observation))
            .collect();
        let packed = ObservationBatch::from_observations(observations.iter().copied());
        assert_eq!(packed.len(), observations.len());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ranked = trainer
            .policy
            .rank_actions_batch(&observations, 2, &mut rng);
        assert_eq!(ranked.len(), observations.len());
        assert_eq!(dense_views(&batch), 0, "{workers} workers, after packing");

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

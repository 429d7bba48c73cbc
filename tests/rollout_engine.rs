//! Integration tests of the parallel rollout engine: fixed-seed determinism
//! across worker counts and cost-model cache accounting, exercised through
//! the public crate APIs end to end.

use mlir_rl_agent::{collect_rollouts, PolicyHyperparams, PpoConfig, PpoTrainer, RolloutBatch};
use mlir_rl_costmodel::{CostModel, EvalCache, MachineModel};
use mlir_rl_env::{EnvConfig, OptimizationEnv, RewardMode};
use mlir_rl_ir::{Module, ModuleBuilder};

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

fn fixture(config: &EnvConfig) -> (OptimizationEnv, PpoTrainer<mlir_rl_agent::PolicyNetwork>) {
    let env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
    let hyper = PolicyHyperparams {
        hidden_size: 16,
        backbone_layers: 1,
    };
    let trainer = PpoTrainer::new(config, hyper, PpoConfig::small(), 13);
    (env, trainer)
}

/// One batch at `workers` workers on a fresh environment whose evaluation
/// table holds `capacity` entries (`None`: the default), returned with the
/// environment so its cache can be inspected.
fn collect(
    config: &EnvConfig,
    modules: &[&Module],
    capacity: Option<usize>,
    workers: usize,
) -> (RolloutBatch, OptimizationEnv) {
    let (mut env, mut trainer) = fixture(config);
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
    let (serial, _) = collect(&config, &modules, None, 1);
    // Worker counts on the default table, and serial collection on a table
    // of four entries: neither may move a bit of any trajectory.
    for (capacity, workers) in [(None, 2), (None, 3), (None, 6), (Some(4), 1)] {
        let (batch, env) = collect(&config, &modules, capacity, workers);
        let case = format!("capacity {capacity:?}, {workers} workers");
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

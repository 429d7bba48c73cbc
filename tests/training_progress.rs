//! Integration test for the learning loop: a short PPO run must not collapse
//! and the trained policy must produce profitable schedules on average.

use mlir_rl_agent::{PolicyHyperparams, PpoConfig};
use mlir_rl_core::{MlirRlOptimizer, OptimizerConfig};
use mlir_rl_workloads::dl_ops;

#[test]
fn short_training_run_reaches_profitable_schedules() {
    let config = OptimizerConfig {
        hyper: PolicyHyperparams {
            hidden_size: 24,
            backbone_layers: 1,
        },
        ppo: PpoConfig {
            trajectories_per_iteration: 6,
            minibatch_size: 8,
            update_epochs: 2,
            ..PpoConfig::paper()
        },
        ..OptimizerConfig::quick()
    };
    let mut optimizer = MlirRlOptimizer::new(config);
    let dataset = dl_ops::training_dataset(0.01, 13);
    let history = optimizer.train(&dataset, 6);
    assert_eq!(history.len(), 6);

    // The best later iteration should reach a clearly profitable geomean
    // speedup (parallelization alone is worth much more than 1.5x on the
    // modelled 28-core machine).
    let best = history
        .iter()
        .skip(2)
        .map(|s| s.geomean_speedup)
        .fold(f64::MIN, f64::max);
    assert!(
        best > 1.5,
        "trained agent should find profitable schedules, best geomean {best}"
    );

    // Evaluation on unseen shapes produces finite, positive speedups.
    let eval: Vec<_> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .take(5)
        .collect();
    for module in &eval {
        let outcome = optimizer.optimize(module);
        assert!(
            outcome.speedup.is_finite() && outcome.speedup > 0.0,
            "{}: {outcome:?}",
            module.name()
        );
    }
}

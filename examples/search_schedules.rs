//! Batch-optimize the DL-operator evaluation workloads with the schedule
//! searchers: train a quick policy, then drive greedy decoding, beam
//! search, MCTS and random search through the parallel `SearchDriver`
//! (all searches share one sharded cost-model cache).
//!
//! Run with `cargo run --release --example search_schedules`.

use mlir_rl_core::{MlirRlOptimizer, OptimizerConfig};
use mlir_rl_costmodel::CostModel;
use mlir_rl_env::OptimizationEnv;
use mlir_rl_search::{BeamSearch, GreedyPolicy, Mcts, RandomSearch, SearchDriver, Searcher};
use mlir_rl_workloads::dl_ops;

fn main() {
    let dataset = dl_ops::training_dataset(0.02, 7);
    let mut optimizer = MlirRlOptimizer::new(OptimizerConfig::quick());
    println!("training on {} single-operator examples ...", dataset.len());
    optimizer.train(&dataset, 6);

    let workloads: Vec<_> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    let workers = mlir_rl_agent::default_rollout_workers();
    // One environment template for every searcher: the driver's workers
    // join its evaluation table, so each batch warms the next.
    let config = optimizer.config();
    let env = OptimizationEnv::new(config.env.clone(), CostModel::new(config.machine.clone()));
    let driver = SearchDriver::new(workers).with_seed(config.seed);
    println!(
        "\nbatch-optimizing {} workloads over {workers} worker(s):\n",
        workloads.len()
    );

    let searchers: Vec<Box<dyn Searcher<mlir_rl_agent::PolicyNetwork>>> = vec![
        Box::new(GreedyPolicy),
        Box::new(BeamSearch::new(4)),
        Box::new(Mcts::new(48)),
        Box::new(RandomSearch::new(24)),
    ];
    for searcher in &searchers {
        let report = driver.run(&env, optimizer.policy(), searcher.as_ref(), &workloads);
        println!(
            "  {:<12} geomean speedup {:>6.2}x | {:>6} cost-model evals | shared-cache hit-rate {:>5.1}% | {:.2}s",
            searcher.name(),
            report.geomean_speedup(),
            report.total_evaluations(),
            report.shared_cache_hit_rate() * 100.0,
            report.wall_s,
        );
    }
    println!("\nbeam search is seeded with the greedy trajectory, so its geomean");
    println!("dominates greedy decoding at every budget.");
}

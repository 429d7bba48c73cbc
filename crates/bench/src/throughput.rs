//! Rollout throughput: serial vs parallel episode collection, the
//! cost-model cache hit-rate, and the fixed costs of one fan-out.

use std::time::Instant;

use mlir_rl_agent::{collect_rollouts, PolicyHyperparams, PpoConfig, PpoTrainer};
use mlir_rl_costmodel::{median, CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, OptimizationEnv};
use mlir_rl_ir::Module;
use mlir_rl_workloads::dl_ops;

use crate::report::{ensure_all, report, Report};
use crate::{policy_hyperparams, ExperimentScale};

report! {
    /// Result of the rollout-throughput experiment: how fast the rollout
    /// engine collects episodes serially vs fanned out over worker threads,
    /// and how much work the schedule-keyed cost-model cache absorbs.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RolloutThroughput {
        /// Episodes collected per configuration.
        episodes: usize = "episodes",
        /// Environment steps in one collection batch.
        steps: usize = "steps per batch",
        /// Steps per second with one worker: the caller acts every
        /// episode and one critic thread estimates their values beside it.
        serial_steps_per_sec: f64 = "serial steps/sec",
        /// Steps per second with `workers` workers.
        parallel_steps_per_sec: f64 = "parallel steps/sec",
        /// Worker threads used for the parallel measurement.
        workers: usize = "parallel workers",
        /// `parallel_steps_per_sec / serial_steps_per_sec`.
        speedup: f64 = "parallel speedup",
        /// Cost-model cache hit-rate observed during the serial collection.
        cache_hit_rate: f64 = "cost-model cache hit-rate",
        /// What one fan-out pays per worker before it collects anything:
        /// the median microseconds to clone a 32x2 policy + value network
        /// pair at [`EnvConfig::paper`] width (the benchmark's
        /// `rollout-collect` shape; the rollouts above run on
        /// [`EnvConfig::small`], which hides it).
        paper_network_clone_us: f64 = "paper-width network clone (us)",
        /// Median microseconds of a `thread::scope` with one empty named
        /// spawn — the other fixed cost of a two-worker fan-out, for scale:
        /// the caller collects as worker 0, so `W` workers pay `W - 1`
        /// spawns.
        scope_spawn_us: f64 = "scope + 1 named spawn (us)",
    }
}

impl Report for RolloutThroughput {
    fn check(&self) -> Result<(), String> {
        ensure_all!(
            self.steps > 0,
            self.serial_steps_per_sec > 0.0 && self.parallel_steps_per_sec > 0.0,
            // Repeated baselines must produce cache hits.
            self.cache_hit_rate > 0.0,
            // A fan-out must not copy weights: ~1 us while clones share
            // them, ~6 000 us when they deep-copied them (and their
            // gradients); a scope with one empty spawn is 56-105 us for scale.
            self.paper_network_clone_us > 0.0 && self.paper_network_clone_us < 500.0,
            self.scope_spawn_us > 0.0,
        )
    }
}

/// Measures rollout-collection throughput (steps/sec) for serial and
/// parallel collection on the seed DL-operator workloads, plus the
/// cost-model cache hit-rate.
///
/// Both configurations share the same base seed, so they collect
/// bit-for-bit identical trajectories; the comparison is pure engine
/// overhead/parallelism. The serial row is one worker, which already runs
/// two threads (the caller acts, a critic thread estimates), so the
/// speedup is workers against the actor/critic pair, not against one
/// thread. On a single-core machine the parallel figure is bounded by the
/// hardware — the speedup scales with available cores.
pub fn rollout_throughput(scale: &ExperimentScale, workers: usize) -> RolloutThroughput {
    let env_config = EnvConfig::small();
    let dataset = dl_ops::training_dataset(scale.dataset_scale.max(0.005), 71);
    let episodes = (scale.trajectories_per_iteration * 4).max(8);
    let modules: Vec<&Module> = (0..episodes).map(|i| &dataset[i % dataset.len()]).collect();
    let hyper = policy_hyperparams(scale);
    let base_seed = 2024;

    let run = |workers: usize| {
        let mut env = OptimizationEnv::new(
            env_config.clone(),
            CostModel::new(MachineModel::xeon_e5_2680_v4()),
        );
        let mut trainer = PpoTrainer::new(&env_config, hyper, PpoConfig::paper(), 17);
        let start = Instant::now();
        let batch = collect_rollouts(
            &mut env,
            &modules,
            &mut trainer.policy,
            &mut trainer.value,
            false,
            base_seed,
            workers,
        );
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        (batch.total_steps() as f64 / elapsed, batch)
    };

    let (serial_sps, serial_batch) = run(1);
    let (parallel_sps, _parallel_batch) = run(workers.max(1));

    let paper_hyper = PolicyHyperparams {
        hidden_size: 32,
        backbone_layers: 2,
    };
    let paper_nets = PpoTrainer::new(&EnvConfig::paper(), paper_hyper, PpoConfig::paper(), 17);
    let paper_network_clone_us = median_us(|| {
        std::hint::black_box((paper_nets.policy.clone(), paper_nets.value.clone()));
    });
    let scope_spawn_us = median_us(|| {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("rollout-worker-1".into())
                .spawn_scoped(scope, || {})
                .expect("failed to spawn a thread");
        });
    });

    RolloutThroughput {
        episodes,
        steps: serial_batch.total_steps(),
        serial_steps_per_sec: serial_sps,
        parallel_steps_per_sec: parallel_sps,
        workers: workers.max(1),
        speedup: parallel_sps / serial_sps.max(1e-9),
        cache_hit_rate: serial_batch.cache_hit_rate(),
        paper_network_clone_us,
        scope_spawn_us,
    }
}

/// Median wall time of 32 calls of `f`, in microseconds.
fn median_us(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..32)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples).expect("32 samples")
}

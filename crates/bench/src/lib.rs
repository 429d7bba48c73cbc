//! # mlir-rl-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (Sec. VII), each returning a [`SpeedupTable`] or [`Figure`]
//! that the `exp_*` binaries print and the Criterion benches exercise.
//!
//! Every experiment is parameterized by an [`ExperimentScale`] so the same
//! code runs in seconds (`ExperimentScale::smoke`, used in tests), minutes
//! (`ExperimentScale::standard`, used by the binaries) or much longer
//! (`ExperimentScale::full`, approaching the paper's training budget).

#![warn(missing_docs)]

pub mod cli;

use std::fmt;
use std::time::{Duration, Instant};

use mlir_rl_agent::{
    collect_rollouts, FlatPolicyNetwork, PolicyHyperparams, PpoConfig, PpoTrainer, ValueNetwork,
};
use mlir_rl_baselines::{
    speedup_over_mlir, Baseline, HalideRl, MullapudiAutoscheduler, VendorLibrary, VendorMode,
};
use mlir_rl_core::report::json;
use mlir_rl_core::{
    wait_all, Figure, MlirRlOptimizer, OptimizationRequest, OptimizationResponse,
    OptimizationService, OptimizerConfig, ResponseStatus, Series, ServiceConfig, ServiceMetrics,
    SpeedupTable,
};
use mlir_rl_costmodel::{median, CostModel, MachineModel};
use mlir_rl_env::{
    ActionSpaceMode, EnvConfig, Features, InterchangeMode, OptimizationEnv, RewardMode,
};
use mlir_rl_ir::Module;
use mlir_rl_obs::{recorder_overhead_ns, TraceSnapshot};
use mlir_rl_search::{
    BaselineSearcher, BatchSearchReport, BeamSearch, GreedyPolicy, Mcts, MemberAggregate,
    Portfolio, RandomSearch, SearchDriver, SearchSpec, Searcher,
};
use mlir_rl_transforms::{flat_action_space_size, multi_discrete_decision_count};
use mlir_rl_workloads::{
    dl_ops, full_training_dataset, lqcd, models, DlOperator, LqcdApplication, NeuralNetwork,
};
use rand_chacha::ChaCha8Rng;

/// How much work each experiment does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// PPO iterations for experiments that train an agent.
    pub train_iterations: usize,
    /// Fraction of the paper-sized dataset to train on.
    pub dataset_scale: f64,
    /// Trajectories per PPO iteration.
    pub trajectories_per_iteration: usize,
    /// Hidden size of the policy/value networks.
    pub hidden_size: usize,
}

impl ExperimentScale {
    /// Seconds-scale configuration for unit tests.
    pub fn smoke() -> Self {
        Self {
            train_iterations: 2,
            dataset_scale: 0.005,
            trajectories_per_iteration: 3,
            hidden_size: 16,
        }
    }

    /// Minutes-scale configuration used by the `exp_*` binaries.
    pub fn standard() -> Self {
        Self {
            train_iterations: 12,
            dataset_scale: 0.02,
            trajectories_per_iteration: 12,
            hidden_size: 32,
        }
    }

    /// Closer to the paper's budget (hours).
    pub fn full() -> Self {
        Self {
            train_iterations: 200,
            dataset_scale: 1.0,
            trajectories_per_iteration: 64,
            hidden_size: 512,
        }
    }

    /// Reads the scale from the `MLIR_RL_SCALE` environment variable
    /// (`smoke`, `standard` or `full`), defaulting to `standard`.
    pub fn from_env() -> Self {
        match std::env::var("MLIR_RL_SCALE").as_deref() {
            Ok("smoke") => Self::smoke(),
            Ok("full") => Self::full(),
            _ => Self::standard(),
        }
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self::standard()
    }
}

fn optimizer_config(env: EnvConfig, scale: &ExperimentScale, seed: u64) -> OptimizerConfig {
    OptimizerConfig {
        env,
        machine: MachineModel::xeon_e5_2680_v4(),
        hyper: PolicyHyperparams {
            hidden_size: scale.hidden_size,
            backbone_layers: 2,
        },
        ppo: PpoConfig {
            trajectories_per_iteration: scale.trajectories_per_iteration,
            minibatch_size: 16,
            update_epochs: 2,
            ..PpoConfig::paper()
        },
        seed,
    }
}

/// Environment configuration for the deep (up to 12-level) LQCD nests.
pub fn lqcd_env_config() -> EnvConfig {
    EnvConfig {
        max_loops: 12,
        tile_candidates: vec![0, 1, 4, 8, 16, 32, 64, 128],
        max_operands: 6,
        max_rank: 6,
        max_schedule_len: 5,
        interchange_mode: InterchangeMode::LevelPointers,
        reward_mode: RewardMode::Final,
        action_space_mode: ActionSpaceMode::MultiDiscrete,
        noise_seed: None,
    }
}

/// Trains an MLIR RL optimizer on the given dataset and returns it.
pub fn train_mlir_rl(
    env: EnvConfig,
    dataset: &[Module],
    scale: &ExperimentScale,
    seed: u64,
) -> MlirRlOptimizer {
    let mut opt = MlirRlOptimizer::new(optimizer_config(env, scale, seed));
    opt.train(dataset, scale.train_iterations);
    opt
}

// ---------------------------------------------------------------------------
// E1 — Fig. 5: speedups per DL operator family.
// ---------------------------------------------------------------------------

/// Reproduces Fig. 5: average speedup over the MLIR baseline per operator
/// family for MLIR RL, Halide RL, PyTorch and the PyTorch compiler.
pub fn fig5_operators(scale: &ExperimentScale) -> SpeedupTable {
    let machine = MachineModel::xeon_e5_2680_v4();
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 11);
    let mut rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 1);

    let columns = vec![
        "MLIR RL".to_string(),
        "Halide RL".to_string(),
        "PyTorch".to_string(),
        "PyTorch compiler".to_string(),
    ];
    let mut table = SpeedupTable::new(
        "Fig. 5: speedups over MLIR baseline per DL operator",
        columns,
    );

    let halide_rl = HalideRl::new();
    let eager = VendorLibrary::new(VendorMode::Eager);
    let compiled = VendorLibrary::new(VendorMode::Compiled);

    for family in DlOperator::ALL {
        let shapes: Vec<Module> = dl_ops::evaluation_benchmark()
            .into_iter()
            .filter(|(k, _)| *k == family)
            .map(|(_, m)| m)
            .collect();
        let mut speedups = vec![Vec::new(); 4];
        for module in &shapes {
            speedups[0].push(rl.optimize(module).speedup);
            speedups[1].push(speedup_over_mlir(
                &halide_rl.optimize(module),
                module,
                &machine,
            ));
            speedups[2].push(speedup_over_mlir(&eager.optimize(module), module, &machine));
            speedups[3].push(speedup_over_mlir(
                &compiled.optimize(module),
                module,
                &machine,
            ));
        }
        let averages = speedups
            .iter()
            .map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64)
            .collect();
        table.push_row(family.name(), averages);
    }
    table
}

// ---------------------------------------------------------------------------
// E2 — Table III: neural-network models.
// ---------------------------------------------------------------------------

/// Reproduces Table III: speedups over the MLIR baseline for ResNet-18,
/// MobileNetV2 and VGG under MLIR RL, PyTorch and the PyTorch compiler.
pub fn table3_models(scale: &ExperimentScale) -> SpeedupTable {
    let machine = MachineModel::xeon_e5_2680_v4();
    let dataset = full_training_dataset(scale.dataset_scale, 23);
    let mut rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 2);

    let columns = vec![
        "MLIR RL".to_string(),
        "PyTorch".to_string(),
        "PyTorch compiler".to_string(),
    ];
    let mut table = SpeedupTable::new("Table III: neural-network models", columns);
    let eager = VendorLibrary::new(VendorMode::Eager);
    let compiled = VendorLibrary::new(VendorMode::Compiled);
    for model in NeuralNetwork::ALL {
        let module = model.module();
        let rl_speedup = rl.optimize(&module).speedup;
        let eager_speedup = speedup_over_mlir(&eager.optimize(&module), &module, &machine);
        let compiled_speedup = speedup_over_mlir(&compiled.optimize(&module), &module, &machine);
        table.push_row(
            model.name(),
            vec![rl_speedup, eager_speedup, compiled_speedup],
        );
    }
    table
}

// ---------------------------------------------------------------------------
// E3 — Table IV: LQCD applications.
// ---------------------------------------------------------------------------

/// Reproduces Table IV: speedups over the MLIR baseline on the three LQCD
/// applications for MLIR RL and the Halide autoscheduler (Mullapudi).
pub fn table4_lqcd(scale: &ExperimentScale) -> SpeedupTable {
    let machine = MachineModel::xeon_e5_2680_v4();
    let dataset = lqcd::training_dataset(scale.dataset_scale, 31);
    let mut rl = train_mlir_rl(lqcd_env_config(), &dataset, scale, 3);

    let columns = vec!["MLIR RL".to_string(), "Mullapudi".to_string()];
    let mut table = SpeedupTable::new("Table IV: LQCD applications", columns);
    let mullapudi = MullapudiAutoscheduler::new();
    for app in LqcdApplication::ALL {
        let module = app.module();
        let rl_speedup = rl.optimize(&module).speedup;
        let mp_speedup = speedup_over_mlir(&mullapudi.optimize(&module), &module, &machine);
        table.push_row(
            format!("{} (S = {})", app.name(), app.input_size()),
            vec![rl_speedup, mp_speedup],
        );
    }
    table
}

// ---------------------------------------------------------------------------
// E4 — interchange ablation: level pointers vs enumerated candidates.
// ---------------------------------------------------------------------------

/// Reproduces the Sec. VII-D interchange ablation: two agents differing only
/// in the interchange formulation, trained identically and evaluated on the
/// DL-operator benchmark; reports the average speedup of each.
pub fn ablation_interchange(scale: &ExperimentScale) -> SpeedupTable {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 41);
    let eval: Vec<Module> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .collect();

    let mut table = SpeedupTable::new(
        "Interchange ablation: average speedup over MLIR baseline",
        vec!["average speedup".to_string()],
    );
    for (name, mode) in [
        ("Level Pointers", InterchangeMode::LevelPointers),
        (
            "Enumerated Candidates",
            InterchangeMode::EnumeratedCandidates,
        ),
    ] {
        let mut env_config = EnvConfig::small();
        env_config.interchange_mode = mode;
        let mut opt = train_mlir_rl(env_config, &dataset, scale, 4);
        let speedups: Vec<f64> = eval.iter().map(|m| opt.optimize(m).speedup).collect();
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        table.push_row(name, vec![avg]);
    }
    table
}

// ---------------------------------------------------------------------------
// E5 — Fig. 6: flat vs multi-discrete action space.
// ---------------------------------------------------------------------------

/// Reproduces Fig. 6: training-speedup curves of the flat and the
/// multi-discrete action-space formulations.
pub fn fig6_action_space(scale: &ExperimentScale) -> Figure {
    let env_config = EnvConfig::small();
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 51);
    let machine = MachineModel::xeon_e5_2680_v4();
    let ppo = PpoConfig {
        trajectories_per_iteration: scale.trajectories_per_iteration,
        minibatch_size: 16,
        update_epochs: 2,
        ..PpoConfig::paper()
    };
    let hyper = PolicyHyperparams {
        hidden_size: scale.hidden_size,
        backbone_layers: 2,
    };

    let mut figure = Figure::new(
        "Fig. 6: flat vs multi-discrete action space",
        "training iteration",
        "geomean speedup over MLIR baseline",
    );

    // Multi-discrete agent.
    {
        let mut env = OptimizationEnv::new(env_config.clone(), CostModel::new(machine.clone()));
        let mut trainer = PpoTrainer::new(&env_config, hyper, ppo, 5);
        let mut series = Series::new("Multi-Discrete Action Space");
        for i in 0..scale.train_iterations {
            let stats = trainer.train_iteration(&mut env, &dataset);
            series.push(i as f64, stats.geomean_speedup);
        }
        figure.series.push(series);
    }

    // Flat agent.
    {
        use rand::SeedableRng;
        let mut env = OptimizationEnv::new(env_config.clone(), CostModel::new(machine));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let policy = FlatPolicyNetwork::new(env_config.clone(), hyper, &mut rng);
        let value = ValueNetwork::new(&env_config, hyper, &mut rng);
        let mut trainer = PpoTrainer::with_policy(policy, value, ppo, rng);
        let mut series = Series::new("Flat Action Space");
        for i in 0..scale.train_iterations {
            let stats = trainer.train_iteration(&mut env, &dataset);
            series.push(i as f64, stats.geomean_speedup);
        }
        figure.series.push(series);
    }
    figure
}

// ---------------------------------------------------------------------------
// E6 — Fig. 7: immediate vs final reward.
// ---------------------------------------------------------------------------

/// Reproduces Fig. 7: speedup over training iterations (right plot) and over
/// accumulated cost-model evaluations — the proxy for wall-clock training
/// time (left plot) — for the final-reward and immediate-reward agents.
pub fn fig7_reward_modes(scale: &ExperimentScale) -> (Figure, Figure) {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 61);
    let machine = MachineModel::xeon_e5_2680_v4();
    let hyper = PolicyHyperparams {
        hidden_size: scale.hidden_size,
        backbone_layers: 2,
    };
    let ppo = PpoConfig {
        trajectories_per_iteration: scale.trajectories_per_iteration,
        minibatch_size: 16,
        update_epochs: 2,
        ..PpoConfig::paper()
    };

    let mut by_iteration = Figure::new(
        "Fig. 7 (right): reward modes over iterations",
        "training iteration",
        "geomean speedup",
    );
    let mut by_time = Figure::new(
        "Fig. 7 (left): reward modes over training cost",
        "cumulative code executions (cost-model evaluations)",
        "geomean speedup",
    );

    for (name, mode) in [
        ("Final Reward", RewardMode::Final),
        ("Immediate Reward", RewardMode::Immediate),
    ] {
        let mut env_config = EnvConfig::small();
        env_config.reward_mode = mode;
        let mut env = OptimizationEnv::new(env_config.clone(), CostModel::new(machine.clone()));
        let mut trainer = PpoTrainer::new(&env_config, hyper, ppo, 7);
        let mut iteration_series = Series::new(name);
        let mut time_series = Series::new(name);
        for i in 0..scale.train_iterations {
            let stats = trainer.train_iteration(&mut env, &dataset);
            iteration_series.push(i as f64, stats.geomean_speedup);
            time_series.push(stats.cumulative_evaluations as f64, stats.geomean_speedup);
        }
        by_iteration.series.push(iteration_series);
        by_time.series.push(time_series);
    }
    (by_iteration, by_time)
}

// ---------------------------------------------------------------------------
// E7 — Sec. VII-B: compilation-pass overhead.
// ---------------------------------------------------------------------------

/// Reproduces the Sec. VII-B overhead measurements: average policy-inference
/// time and transformation-application time per code sample, for single DL
/// operators and for the LQCD applications. Returns `(label, seconds)` rows.
pub fn overhead(scale: &ExperimentScale) -> Vec<(String, f64)> {
    let mut rows = Vec::new();

    // Policy inference time per code sample (DL operators + LQCD kernels).
    let mut rl = MlirRlOptimizer::new(optimizer_config(
        EnvConfig::small(),
        &ExperimentScale {
            train_iterations: 0,
            ..*scale
        },
        8,
    ));
    let operators: Vec<Module> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .take(6)
        .collect();
    let start = Instant::now();
    for module in &operators {
        let _ = rl.optimize(module);
    }
    let per_sample = start.elapsed().as_secs_f64() / operators.len() as f64;
    rows.push((
        "policy inference + scheduling, DL operator (s/sample)".to_string(),
        per_sample,
    ));

    // Transformation-application time: applying an expert schedule to every
    // operation of a module (DL operator vs LQCD application).
    let machine = MachineModel::xeon_e5_2680_v4();
    let vendor = VendorLibrary::new(VendorMode::Compiled);
    let dl_module = dl_ops::matmul_module(512, 512, 512);
    let start = Instant::now();
    for _ in 0..10 {
        let _ = vendor.optimize(&dl_module);
    }
    rows.push((
        "transformation application, DL operator (s/sample)".to_string(),
        start.elapsed().as_secs_f64() / 10.0,
    ));

    let lqcd_module = LqcdApplication::HexaquarkHexaquark.module();
    let start = Instant::now();
    let result = vendor.optimize(&lqcd_module);
    rows.push((
        "transformation application, LQCD application (s/sample)".to_string(),
        start.elapsed().as_secs_f64(),
    ));
    // Keep the result alive so the optimizer work is not optimized away.
    let _ = mlir_rl_baselines::evaluate(&result, &machine);
    rows
}

// ---------------------------------------------------------------------------
// E10 — rollout throughput: serial vs parallel collection + cache hit-rate.
// ---------------------------------------------------------------------------

/// Result of the rollout-throughput experiment: how fast the rollout engine
/// collects episodes serially vs fanned out over worker threads, and how
/// much work the schedule-keyed cost-model cache absorbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutThroughput {
    /// Episodes collected per configuration.
    pub episodes: usize,
    /// Environment steps in one collection batch.
    pub steps: usize,
    /// Steps per second with one worker (serial collection).
    pub serial_steps_per_sec: f64,
    /// Steps per second with `workers` workers.
    pub parallel_steps_per_sec: f64,
    /// Worker threads used for the parallel measurement.
    pub workers: usize,
    /// `parallel_steps_per_sec / serial_steps_per_sec`.
    pub speedup: f64,
    /// Cost-model cache hit-rate observed during the serial collection.
    pub cache_hit_rate: f64,
    /// What one fan-out pays per worker before it collects anything: the
    /// median microseconds to clone a 32x2 policy + value network pair at
    /// [`EnvConfig::paper`] width (the benchmark's `rollout-collect` shape;
    /// the rollouts above run on [`EnvConfig::small`], which hides it).
    pub paper_network_clone_us: f64,
    /// Median microseconds of an empty two-thread `thread::scope` — the
    /// other fixed cost of a fan-out, for scale.
    pub scope_spawn_us: f64,
}

impl fmt::Display for RolloutThroughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== rollout throughput ==")?;
        writeln!(f, "episodes                  {:>12}", self.episodes)?;
        writeln!(f, "steps per batch           {:>12}", self.steps)?;
        writeln!(
            f,
            "serial steps/sec          {:>12.1}",
            self.serial_steps_per_sec
        )?;
        writeln!(
            f,
            "parallel steps/sec (x{:<2}) {:>13.1}",
            self.workers, self.parallel_steps_per_sec
        )?;
        writeln!(f, "parallel speedup          {:>12.2}x", self.speedup)?;
        writeln!(
            f,
            "cost-model cache hit-rate {:>11.1}%",
            self.cache_hit_rate * 100.0
        )?;
        writeln!(
            f,
            "paper-width network clone {:>10.1}us",
            self.paper_network_clone_us
        )?;
        writeln!(
            f,
            "2-thread scope spawn      {:>10.1}us",
            self.scope_spawn_us
        )
    }
}

impl RolloutThroughput {
    /// Machine-readable record of the run (one JSON object) for
    /// `BENCH_*.json` trajectories.
    pub fn to_json(&self) -> String {
        let numbers = [
            ("episodes", self.episodes as f64),
            ("steps", self.steps as f64),
            ("serial_steps_per_sec", self.serial_steps_per_sec),
            ("parallel_steps_per_sec", self.parallel_steps_per_sec),
            ("workers", self.workers as f64),
            ("speedup", self.speedup),
            ("cache_hit_rate", self.cache_hit_rate),
            ("paper_network_clone_us", self.paper_network_clone_us),
            ("scope_spawn_us", self.scope_spawn_us),
        ];
        let mut fields = vec![("experiment", json::string("exp_rollout_throughput"))];
        fields.extend(numbers.map(|(key, value)| (key, json::number(value))));
        json::object(1, fields)
    }
}

/// Measures rollout-collection throughput (steps/sec) for serial and
/// parallel collection on the seed DL-operator workloads, plus the
/// cost-model cache hit-rate.
///
/// Both configurations share the same base seed, so they collect
/// bit-for-bit identical trajectories; the comparison is pure engine
/// overhead/parallelism. On a single-core machine the parallel figure is
/// bounded by the hardware — the speedup scales with available cores.
pub fn rollout_throughput(scale: &ExperimentScale, workers: usize) -> RolloutThroughput {
    let env_config = EnvConfig::small();
    let dataset = dl_ops::training_dataset(scale.dataset_scale.max(0.005), 71);
    let episodes = (scale.trajectories_per_iteration * 4).max(8);
    let modules: Vec<&Module> = (0..episodes).map(|i| &dataset[i % dataset.len()]).collect();
    let hyper = PolicyHyperparams {
        hidden_size: scale.hidden_size,
        backbone_layers: 2,
    };
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
            scope.spawn(|| {});
            scope.spawn(|| {});
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

// ---------------------------------------------------------------------------
// E11 — exp_search: speedup-vs-budget per searcher on the standard
// workloads, through the batch SearchDriver with one shared eval cache.
// ---------------------------------------------------------------------------

/// Budget and cache accounting of one searcher over the whole workload
/// batch.
#[derive(Debug, Clone, PartialEq)]
pub struct SearcherBudgetSummary {
    /// Searcher display name.
    pub name: String,
    /// Geometric-mean speedup over the MLIR baseline across the workloads.
    pub geomean_speedup: f64,
    /// Cost-model evaluations actually performed (the eval budget spent).
    pub evaluations: usize,
    /// Total cost-model lookups (evaluations + cache hits).
    pub total_lookups: usize,
    /// Hit-rate of the batch-wide shared evaluation cache.
    pub shared_cache_hit_rate: f64,
    /// Environment steps across every branch of every search.
    pub nodes_expanded: usize,
    /// Wall-clock seconds for the batch.
    pub wall_s: f64,
}

/// The `exp_search` report: per-workload speedups per searcher plus each
/// searcher's evaluation budget and shared-cache accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Rows: workloads; columns: searchers; values: speedup over the MLIR
    /// baseline.
    pub table: SpeedupTable,
    /// One budget summary per searcher, in column order.
    pub summaries: Vec<SearcherBudgetSummary>,
    /// Worker threads the driver fanned each batch over.
    pub workers: usize,
}

impl fmt::Display for SearchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.table)?;
        writeln!(f, "== eval budgets (driver workers = {}) ==", self.workers)?;
        for s in &self.summaries {
            writeln!(
                f,
                "{:<24} geomean {:>7.2}x  evals {:>8}  lookups {:>8}  shared-cache hit-rate {:>5.1}%  nodes {:>8}  wall {:>7.2}s",
                s.name,
                s.geomean_speedup,
                s.evaluations,
                s.total_lookups,
                s.shared_cache_hit_rate * 100.0,
                s.nodes_expanded,
                s.wall_s,
            )?;
        }
        Ok(())
    }
}

/// Condenses one batch report into a [`SearcherBudgetSummary`] row.
fn budget_summary(name: String, report: &BatchSearchReport) -> SearcherBudgetSummary {
    SearcherBudgetSummary {
        name,
        geomean_speedup: report.geomean_speedup(),
        evaluations: report.total_evaluations(),
        total_lookups: report.outcomes.iter().map(|o| o.total_lookups()).sum(),
        shared_cache_hit_rate: report.shared_cache_hit_rate(),
        nodes_expanded: report.total_nodes_expanded(),
        wall_s: report.wall_s,
    }
}

/// Runs every searcher (greedy, beam-4, MCTS, random, plus the vendor and
/// Mullapudi comparison systems through the [`BaselineSearcher`] adapter)
/// over the Sec. VII-A-2 DL-operator evaluation workloads with a policy
/// trained at the given scale, batched through the parallel
/// [`mlir_rl_search::SearchDriver`]. MCTS and random budgets scale with
/// `scale.trajectories_per_iteration`.
///
/// Beam search is seeded with the greedy trajectory, so its column
/// dominates greedy's on every workload — the acceptance invariant the
/// smoke test asserts.
pub fn search_speedups(scale: &ExperimentScale, workers: usize) -> SearchReport {
    use mlir_rl_agent::PolicyNetwork;

    let dataset = dl_ops::training_dataset(scale.dataset_scale, 81);
    let mut rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 9);
    let workloads: Vec<Module> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .collect();

    let budget = scale.trajectories_per_iteration;
    let searchers: Vec<Box<dyn Searcher<PolicyNetwork>>> = vec![
        Box::new(GreedyPolicy),
        Box::new(BeamSearch::new(4)),
        Box::new(Mcts::new((budget * 4).max(8))),
        Box::new(RandomSearch::new((budget * 2).max(4))),
        Box::new(BaselineSearcher::new(VendorLibrary::new(
            VendorMode::Compiled,
        ))),
        Box::new(BaselineSearcher::new(MullapudiAutoscheduler::new())),
    ];

    let columns: Vec<String> = searchers.iter().map(|s| s.name()).collect();
    let mut table = SpeedupTable::new(
        "exp_search: speedup over MLIR baseline, per searcher",
        columns,
    );
    let mut summaries = Vec::new();
    let mut per_module: Vec<Vec<f64>> = vec![Vec::new(); workloads.len()];
    for searcher in &searchers {
        let report = rl.optimize_batch(&workloads, searcher.as_ref(), workers);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            per_module[i].push(outcome.speedup);
        }
        summaries.push(budget_summary(searcher.name(), &report));
    }
    for (module, speedups) in workloads.iter().zip(per_module) {
        table.push_row(module.name(), speedups);
    }
    SearchReport {
        table,
        summaries,
        workers: workers.max(1),
    }
}

// ---------------------------------------------------------------------------
// E13 — exp_portfolio: portfolio search (round-robin + racing) vs the
// single-searcher baselines, on one shared eval cache per batch.
// ---------------------------------------------------------------------------

/// The `exp_portfolio` report: per-workload speedups for each roster member
/// run independently and for the portfolio (round-robin and racing), the
/// eval budgets showing the shared-cache warmth the portfolio gains, the
/// per-member win/spend attribution, and the racing determinism check.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioReport {
    /// Rows: workloads; columns: independent members, then the two
    /// portfolio modes; values: speedup over the MLIR baseline.
    pub table: SpeedupTable,
    /// Budget summary of each member run independently (fresh cache each).
    pub singles: Vec<SearcherBudgetSummary>,
    /// Budget summary of the round-robin portfolio batch.
    pub round_robin: SearcherBudgetSummary,
    /// Budget summary of the racing portfolio batch. Its figures cover the
    /// winner prefix of each module's roster; the prefix's *total lookups*
    /// are deterministic, but the evaluations/cache-hits split within it
    /// can shift with thread interleaving (loser threads may pre-score a
    /// schedule a prefix member was about to evaluate). The shared-cache
    /// counters additionally include the losers' own spend.
    pub racing: SearcherBudgetSummary,
    /// Per-member attribution of the round-robin batch (wins, spend).
    pub members: Vec<MemberAggregate>,
    /// Per-member attribution of the racing batch (wins, targets, stops).
    pub racing_members: Vec<MemberAggregate>,
    /// Total estimator runs of all independent member runs together (the
    /// spend the portfolio's shared warmth is measured against).
    pub singles_evaluations: usize,
    /// Best shared-cache hit-rate any independent member achieved.
    pub best_single_hit_rate: f64,
    /// Hit-rate of the independent member runs **combined** (all their
    /// lookups, no warmth shared between members) — the apples-to-apples
    /// baseline the portfolio's cross-member warmth is measured against:
    /// the portfolio performs the same lookups and must hit strictly more.
    pub singles_hit_rate: f64,
    /// Modules on which the round-robin portfolio's speedup equals the
    /// best of the independently-run members (expected: all of them).
    pub best_of_members_matches: usize,
    /// Number of workload modules.
    pub modules: usize,
    /// The racing target speedup (median of the per-module best-of-members,
    /// so roughly half the modules can end their race early).
    pub racing_target: f64,
    /// Modules whose racing winner reached the target.
    pub racing_reached_target: usize,
    /// Mean cost-model lookups the racing winner spent per module — the
    /// evals-to-target figure when the target was reached.
    pub racing_mean_winner_lookups: f64,
    /// Whether the racing batch produced bit-identical outcomes with 1, 2
    /// and 4 driver workers (the determinism acceptance check).
    pub racing_worker_invariant: bool,
    /// Worker threads the driver fanned each batch over.
    pub workers: usize,
}

impl fmt::Display for PortfolioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.table)?;
        writeln!(f, "== eval budgets (driver workers = {}) ==", self.workers)?;
        for s in self.singles.iter().chain([&self.round_robin, &self.racing]) {
            writeln!(
                f,
                "{:<24} geomean {:>7.2}x  evals {:>8}  lookups {:>8}  shared-cache hit-rate {:>5.1}%  nodes {:>8}  wall {:>7.2}s",
                s.name,
                s.geomean_speedup,
                s.evaluations,
                s.total_lookups,
                s.shared_cache_hit_rate * 100.0,
                s.nodes_expanded,
                s.wall_s,
            )?;
        }
        writeln!(f, "== member attribution (round-robin | racing) ==")?;
        for (rr, race) in self.members.iter().zip(&self.racing_members) {
            writeln!(
                f,
                "{:<24} wins {:>2} | {:>2}  reached-target {:>2}  stopped {:>2}  evals {:>8} | {:>8}",
                rr.member,
                rr.wins,
                race.wins,
                race.reached_target,
                race.stopped,
                rr.evaluations,
                race.evaluations,
            )?;
        }
        writeln!(
            f,
            "portfolio best-of-members   {}/{} modules",
            self.best_of_members_matches, self.modules
        )?;
        writeln!(
            f,
            "portfolio evals vs singles  {} vs {} ({:+.1}%)",
            self.round_robin.evaluations,
            self.singles_evaluations,
            100.0
                * (self.round_robin.evaluations as f64 / self.singles_evaluations.max(1) as f64
                    - 1.0),
        )?;
        writeln!(
            f,
            "shared-cache hit-rate       portfolio {:.1}% vs singles combined {:.1}% (best single {:.1}%)",
            self.round_robin.shared_cache_hit_rate * 100.0,
            self.singles_hit_rate * 100.0,
            self.best_single_hit_rate * 100.0,
        )?;
        writeln!(
            f,
            "racing target {:.2}x          reached on {}/{} modules, mean winner lookups {:.0}",
            self.racing_target,
            self.racing_reached_target,
            self.modules,
            self.racing_mean_winner_lookups,
        )?;
        writeln!(
            f,
            "racing worker-invariance    {}",
            if self.racing_worker_invariant {
                "bit-identical across 1/2/4 workers"
            } else {
                "DIVERGED"
            }
        )
    }
}

impl PortfolioReport {
    /// Machine-readable record of the run (one JSON object) for
    /// `BENCH_*.json` trajectories, emitted by `exp_portfolio --json`.
    pub fn to_json(&self) -> String {
        let summary_json = |s: &SearcherBudgetSummary| {
            let mut out = String::from("{");
            json::field(&mut out, 0, "name", json::string(&s.name));
            for (key, value) in [
                ("geomean_speedup", s.geomean_speedup),
                ("evaluations", s.evaluations as f64),
                ("total_lookups", s.total_lookups as f64),
                ("shared_cache_hit_rate", s.shared_cache_hit_rate),
                ("nodes_expanded", s.nodes_expanded as f64),
                ("wall_s", s.wall_s),
            ] {
                out.push_str(", ");
                json::field(&mut out, 0, key, json::number(value));
            }
            out.push('}');
            out
        };
        let member_json = |m: &MemberAggregate| {
            let mut out = String::from("{");
            json::field(&mut out, 0, "member", json::string(&m.member));
            for (key, value) in [
                ("rank", m.rank as f64),
                ("wins", m.wins as f64),
                ("reached_target", m.reached_target as f64),
                ("stopped", m.stopped as f64),
                ("skipped", m.skipped as f64),
                ("evaluations", m.evaluations as f64),
                ("cache_hits", m.cache_hits as f64),
            ] {
                out.push_str(", ");
                json::field(&mut out, 0, key, json::number(value));
            }
            out.push('}');
            out
        };

        let mut fields = vec![
            ("experiment", json::string("exp_portfolio")),
            ("workers", json::number(self.workers as f64)),
            ("table", self.table.to_json()),
            (
                "singles",
                json::array(self.singles.iter().map(summary_json)),
            ),
            ("round_robin", summary_json(&self.round_robin)),
            ("racing", summary_json(&self.racing)),
            ("members", json::array(self.members.iter().map(member_json))),
            (
                "racing_members",
                json::array(self.racing_members.iter().map(member_json)),
            ),
        ];
        let numbers = [
            ("singles_evaluations", self.singles_evaluations as f64),
            ("singles_hit_rate", self.singles_hit_rate),
            ("best_single_hit_rate", self.best_single_hit_rate),
            (
                "best_of_members_matches",
                self.best_of_members_matches as f64,
            ),
            ("modules", self.modules as f64),
            ("racing_target", self.racing_target),
            ("racing_reached_target", self.racing_reached_target as f64),
            (
                "racing_mean_winner_lookups",
                self.racing_mean_winner_lookups,
            ),
        ];
        fields.extend(numbers.map(|(key, value)| (key, json::number(value))));
        fields.push((
            "racing_worker_invariant",
            self.racing_worker_invariant.to_string(),
        ));
        json::object(1, fields)
    }
}

/// Runs the portfolio experiment: each roster member (greedy, beam-4,
/// progressively-widened MCTS, random) independently through the
/// [`SearchDriver`] on a fresh shared cache, then the same roster as a
/// round-robin [`Portfolio`] (one cache warming every member and module)
/// and as a racing portfolio targeting the median best-of-members speedup.
/// All runs use the same base seed, so the round-robin portfolio's
/// per-module result is exactly the best of the members' independent
/// results — for less total estimator spend, which is the point.
pub fn portfolio_speedups(scale: &ExperimentScale, workers: usize) -> PortfolioReport {
    use mlir_rl_agent::PolicyNetwork;

    let dataset = dl_ops::training_dataset(scale.dataset_scale, 91);
    let rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 13);
    let workloads: Vec<Module> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    let fresh_env = || {
        OptimizationEnv::new(
            EnvConfig::small(),
            CostModel::new(MachineModel::xeon_e5_2680_v4()),
        )
    };
    let base_seed = 77;
    let driver = SearchDriver::new(workers).with_seed(base_seed);

    // One definition of the roster, used for the independent-singles runs
    // AND both portfolio modes, so the best-of-members comparison can
    // never drift apart from what the portfolio actually runs.
    let budget = scale.trajectories_per_iteration;
    let make_members = || -> Vec<Box<dyn Searcher<PolicyNetwork>>> {
        vec![
            Box::new(GreedyPolicy),
            Box::new(BeamSearch::new(4)),
            Box::new(
                Mcts::new((budget * 4).max(8))
                    .with_branch(4)
                    .with_progressive_widening(1.0, 0.6),
            ),
            Box::new(RandomSearch::new((budget * 2).max(4))),
        ]
    };
    let members = make_members();
    let roster = |mode: Portfolio<PolicyNetwork>| {
        make_members()
            .into_iter()
            .fold(mode, Portfolio::with_boxed_member)
    };

    // --- each member independently, fresh cache each -----------------
    let mut singles = Vec::new();
    let mut single_reports = Vec::new();
    for member in &members {
        let report = driver.run(&fresh_env(), rl.policy(), member.as_ref(), &workloads);
        singles.push(budget_summary(member.name(), &report));
        single_reports.push(report);
    }
    let singles_evaluations: usize = singles.iter().map(|s| s.evaluations).sum();
    let best_single_hit_rate = singles
        .iter()
        .map(|s| s.shared_cache_hit_rate)
        .fold(0.0, f64::max);
    let singles_lookups: usize = singles.iter().map(|s| s.total_lookups).sum();
    let singles_hit_rate =
        (singles_lookups - singles_evaluations) as f64 / singles_lookups.max(1) as f64;
    let best_of_singles: Vec<f64> = (0..workloads.len())
        .map(|i| {
            single_reports
                .iter()
                .map(|r| r.outcomes[i].speedup)
                .fold(0.0, f64::max)
        })
        .collect();

    // --- the same roster as a round-robin portfolio ------------------
    let rr = roster(Portfolio::round_robin());
    let rr_report = driver.run_portfolio(&fresh_env(), rl.policy(), &rr, &workloads);
    let best_of_members_matches = rr_report
        .outcomes
        .iter()
        .zip(&best_of_singles)
        .filter(|(o, best)| (o.speedup - **best).abs() <= 1e-9 * best.max(1.0))
        .count();

    // --- racing, targeting the median best-of-members ----------------
    let racing_target = median(&best_of_singles).unwrap_or(1.0);
    let race = roster(Portfolio::racing(racing_target));
    let race_report = driver.run_portfolio(&fresh_env(), rl.policy(), &race, &workloads);
    let racing_reached_target = race_report
        .outcomes
        .iter()
        .filter(|o| o.members.iter().any(|m| m.winner && m.reached_target))
        .count();
    let winner_lookups: Vec<usize> = race_report
        .outcomes
        .iter()
        .flat_map(|o| o.members.iter().filter(|m| m.winner))
        .map(|m| m.total_lookups())
        .collect();
    let racing_mean_winner_lookups =
        winner_lookups.iter().sum::<usize>() as f64 / winner_lookups.len().max(1) as f64;

    // --- the determinism acceptance check: 1/2/4 driver workers ------
    let fields = |report: &BatchSearchReport| -> Vec<_> {
        report
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.best_s.to_bits(),
                    o.speedup.to_bits(),
                    o.best_actions.clone(),
                    o.nodes_expanded,
                    o.total_lookups(),
                )
            })
            .collect()
    };
    let reference = fields(&race_report);
    let racing_worker_invariant = [1usize, 2, 4].iter().all(|w| {
        let report = SearchDriver::new(*w).with_seed(base_seed).run_portfolio(
            &fresh_env(),
            rl.policy(),
            &race,
            &workloads,
        );
        fields(&report) == reference
    });

    // --- the per-workload table --------------------------------------
    let mut columns: Vec<String> = members.iter().map(|m| m.name()).collect();
    columns.push(Searcher::<PolicyNetwork>::name(&rr));
    columns.push(Searcher::<PolicyNetwork>::name(&race));
    let mut table = SpeedupTable::new(
        "exp_portfolio: speedup over MLIR baseline, members vs portfolio",
        columns,
    );
    for (i, module) in workloads.iter().enumerate() {
        let mut row: Vec<f64> = single_reports
            .iter()
            .map(|r| r.outcomes[i].speedup)
            .collect();
        row.push(rr_report.outcomes[i].speedup);
        row.push(race_report.outcomes[i].speedup);
        table.push_row(module.name(), row);
    }

    PortfolioReport {
        table,
        singles,
        round_robin: budget_summary(Searcher::<PolicyNetwork>::name(&rr), &rr_report),
        racing: budget_summary(Searcher::<PolicyNetwork>::name(&race), &race_report),
        members: rr_report.member_attribution(),
        racing_members: race_report.member_attribution(),
        singles_evaluations,
        best_single_hit_rate,
        singles_hit_rate,
        best_of_members_matches,
        modules: workloads.len(),
        racing_target,
        racing_reached_target,
        racing_mean_winner_lookups,
        racing_worker_invariant,
        workers: workers.max(1),
    }
}

// ---------------------------------------------------------------------------
// E14 — exp_service: sustained request-stream serving through the
// OptimizationService: a warm persistent service (one cache amortized
// across every request) vs per-request cold services, plus the
// request-level determinism check (worker counts x submission orders).
// ---------------------------------------------------------------------------

/// Aggregates of one request stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStreamSummary {
    /// Stream label (`warm-service` / `restored-service` /
    /// `tiny-cache-service` / `cold-per-request`).
    pub name: String,
    /// Requests served.
    pub requests: usize,
    /// Requests served per wall-clock second (including, for the cold
    /// stream, the per-request service construction that a persistent
    /// service amortizes away).
    pub requests_per_sec: f64,
    /// Wall-clock seconds for the whole stream.
    pub wall_s: f64,
    /// Geometric mean of the per-request speedups.
    pub geomean_speedup: f64,
    /// Estimator runs across the stream (cache misses).
    pub evaluations: usize,
    /// Total cost-model lookups across the stream.
    pub total_lookups: usize,
    /// Fraction of lookups served by cache.
    pub hit_rate: f64,
    /// Mean seconds a request waited in the queue.
    pub mean_queue_s: f64,
    /// Mean seconds a request's search ran.
    pub mean_service_s: f64,
}

impl ServiceStreamSummary {
    fn from_responses(name: &str, responses: &[OptimizationResponse], wall_s: f64) -> Self {
        let requests = responses.len();
        let evaluations: usize = responses.iter().map(|r| r.evaluations).sum();
        let total_lookups: usize = responses.iter().map(|r| r.total_lookups()).sum();
        let geomean_speedup = if requests == 0 {
            1.0
        } else {
            (responses
                .iter()
                .map(|r| r.speedup().max(1e-12).ln())
                .sum::<f64>()
                / requests as f64)
                .exp()
        };
        Self {
            name: name.to_string(),
            requests,
            requests_per_sec: requests as f64 / wall_s.max(1e-9),
            wall_s,
            geomean_speedup,
            evaluations,
            total_lookups,
            hit_rate: (total_lookups - evaluations) as f64 / total_lookups.max(1) as f64,
            mean_queue_s: responses.iter().map(|r| r.queue_s).sum::<f64>() / requests.max(1) as f64,
            mean_service_s: responses.iter().map(|r| r.service_s).sum::<f64>()
                / requests.max(1) as f64,
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        json::field(&mut out, 0, "name", json::string(&self.name));
        for (key, value) in [
            ("requests", self.requests as f64),
            ("requests_per_sec", self.requests_per_sec),
            ("wall_s", self.wall_s),
            ("geomean_speedup", self.geomean_speedup),
            ("evaluations", self.evaluations as f64),
            ("total_lookups", self.total_lookups as f64),
            ("hit_rate", self.hit_rate),
            ("mean_queue_s", self.mean_queue_s),
            ("mean_service_s", self.mean_service_s),
        ] {
            out.push_str(", ");
            json::field(&mut out, 0, key, json::number(value));
        }
        out.push('}');
        out
    }
}

/// The `exp_service` report: the sustained request stream served by one
/// warm persistent service vs per-request cold services, and the
/// request-level determinism check.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Distinct workload modules in the stream.
    pub modules: usize,
    /// Passes over the workloads (each pass cycles the searcher specs).
    pub rounds: usize,
    /// Worker threads of the warm service.
    pub workers: usize,
    /// The warm persistent-service stream.
    pub warm: ServiceStreamSummary,
    /// The warm stream re-served by a **fresh** service that restored the
    /// warm service's cache snapshot at startup
    /// ([`ServiceConfig::with_cache_snapshot`]) — the storage-tier
    /// restart: warmth survives the process.
    pub restored: ServiceStreamSummary,
    /// The warm stream re-served by a service with a deliberately tiny
    /// cache capacity ([`ServiceConfig::with_cache_capacity`]), forcing
    /// entry-wise eviction on every shard while responses stay
    /// bit-identical.
    pub tiny: ServiceStreamSummary,
    /// The cold per-request-service stream (fresh cache every request).
    pub cold: ServiceStreamSummary,
    /// Entries the restored service recovered from the snapshot file.
    pub restored_entries: u64,
    /// Whether every restored-service response fingerprint matched its
    /// warm counterpart bit for bit.
    pub restored_fingerprints_match: bool,
    /// Global cache capacity of the tiny-cache stream.
    pub tiny_capacity: usize,
    /// Entry-wise evictions the tiny-cache stream performed.
    pub tiny_cache_evictions: u64,
    /// Whether every tiny-cache response fingerprint matched its warm
    /// counterpart bit for bit — eviction is a memory lever, never a
    /// result lever.
    pub tiny_fingerprints_match: bool,
    /// Request statuses of the warm stream, as
    /// `(completed, stopped, skipped, rejected)`.
    pub statuses: (usize, usize, usize, usize),
    /// Whether response fingerprints were bit-identical across 1/2/4
    /// workers and two shuffled submission orders.
    pub determinism_invariant: bool,
}

impl fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== exp_service: request-stream serving ({} modules x {} rounds, {} workers) ==",
            self.modules, self.rounds, self.workers
        )?;
        for s in [&self.warm, &self.restored, &self.tiny, &self.cold] {
            writeln!(
                f,
                "{:<18} {:>7.2} req/s  geomean {:>6.2}x  evals {:>8}  lookups {:>8}  hit-rate {:>5.1}%  queue {:>8.4}s  service {:>8.4}s",
                s.name,
                s.requests_per_sec,
                s.geomean_speedup,
                s.evaluations,
                s.total_lookups,
                s.hit_rate * 100.0,
                s.mean_queue_s,
                s.mean_service_s,
            )?;
        }
        let (completed, stopped, skipped, rejected) = self.statuses;
        writeln!(
            f,
            "statuses           completed {completed}  stopped {stopped}  skipped {skipped}  rejected {rejected}",
        )?;
        writeln!(
            f,
            "warm vs cold       hit-rate {:+.1} pts, evals {:+.1}%",
            (self.warm.hit_rate - self.cold.hit_rate) * 100.0,
            100.0 * (self.warm.evaluations as f64 / self.cold.evaluations.max(1) as f64 - 1.0),
        )?;
        writeln!(
            f,
            "persistence        {} entries restored after restart, fingerprints {}",
            self.restored_entries,
            if self.restored_fingerprints_match {
                "bit-identical to the warm stream"
            } else {
                "DIVERGED"
            }
        )?;
        writeln!(
            f,
            "eviction           {} entry-wise evictions at capacity {}, fingerprints {}",
            self.tiny_cache_evictions,
            self.tiny_capacity,
            if self.tiny_fingerprints_match {
                "bit-identical to the warm stream"
            } else {
                "DIVERGED"
            }
        )?;
        writeln!(
            f,
            "determinism        {}",
            if self.determinism_invariant {
                "responses bit-identical across 1/2/4 workers and shuffled submission orders"
            } else {
                "DIVERGED"
            }
        )
    }
}

impl ServiceReport {
    /// Machine-readable record of the run (one JSON object) for
    /// `BENCH_*.json` trajectories.
    pub fn to_json(&self) -> String {
        let streams = [&self.warm, &self.restored, &self.tiny, &self.cold];
        json::object(
            1,
            [
                ("experiment", json::string("exp_service")),
                ("modules", json::number(self.modules as f64)),
                ("rounds", json::number(self.rounds as f64)),
                ("workers", json::number(self.workers as f64)),
                (
                    "streams",
                    json::array(streams.into_iter().map(ServiceStreamSummary::to_json)),
                ),
                (
                    "restored_entries",
                    json::number(self.restored_entries as f64),
                ),
                (
                    "restored_fingerprints_match",
                    self.restored_fingerprints_match.to_string(),
                ),
                ("tiny_capacity", json::number(self.tiny_capacity as f64)),
                (
                    "tiny_cache_evictions",
                    json::number(self.tiny_cache_evictions as f64),
                ),
                (
                    "tiny_fingerprints_match",
                    self.tiny_fingerprints_match.to_string(),
                ),
                ("statuses", statuses_json(self.statuses)),
                (
                    "determinism_invariant",
                    self.determinism_invariant.to_string(),
                ),
            ],
        )
    }
}

/// The `(completed, stopped, skipped, rejected)` counts of a served stream
/// as a one-line JSON object (`exp_service` and `exp_load` records).
fn statuses_json((completed, stopped, skipped, rejected): (usize, usize, usize, usize)) -> String {
    format!(
        "{{\"completed\": {completed}, \"stopped\": {stopped}, \"skipped\": {skipped}, \"rejected\": {rejected}}}"
    )
}

/// Deterministic Fisher-Yates shuffle (the vendored `rand` stub has no
/// `SliceRandom`).
fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    use rand::Rng;
    for i in (1..items.len()).rev() {
        let j = (rng.gen::<u64>() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The request stream: `rounds` passes over the workloads, cycling the
/// searcher spec per (module, round) and seeding each request from its
/// stream position — so the same stream can be re-submitted in any order
/// on any worker count and must produce fingerprint-identical responses.
fn service_request_stream(
    workloads: &[Module],
    rounds: usize,
    specs: &[SearchSpec],
) -> Vec<OptimizationRequest> {
    let mut requests = Vec::with_capacity(workloads.len() * rounds);
    for round in 0..rounds {
        for (index, module) in workloads.iter().enumerate() {
            let spec = specs[(round + index) % specs.len()].clone();
            let seed = mlir_rl_agent::episode_seed(2027, (round * workloads.len() + index) as u64);
            requests.push(OptimizationRequest::new(module.clone(), spec).with_seed(seed));
        }
    }
    requests
}

/// Runs the request-stream serving experiment: trains a quick policy, then
/// serves `rounds` passes over the DL-operator evaluation workloads
/// (specs cycling over greedy / beam / widened MCTS / random) through
///
/// 1. one **warm persistent** [`OptimizationService`] — every request warms
///    the one shared evaluation cache for every later request,
/// 2. a **restored** service — a fresh process-equivalent service that
///    restores the warm cache's snapshot file at startup
///    ([`ServiceConfig::with_cache_snapshot`]) — the storage-tier restart,
/// 3. a **tiny-cache** service ([`ServiceConfig::with_cache_capacity`]) —
///    the same stream under forced entry-wise eviction, and
/// 4. **cold per-request** services — a fresh service (fresh cache) per
///    request, the deployment the paper's one-shot evaluate script implies,
///
/// and verifies the request-level determinism contract by re-serving the
/// same stream with 1/2/4 workers and two shuffled submission orders,
/// comparing response fingerprints. The acceptance invariants: the warm
/// service's shared-cache hit-rate strictly beats the cold baseline's, the
/// warm-restarted (restored) service's hit-rate beats the cold baseline's
/// at bit-identical fingerprints, and the tiny-cache stream evicts
/// entry-wise while staying bit-identical.
pub fn service_throughput(scale: &ExperimentScale, workers: usize) -> ServiceReport {
    service_throughput_traced(scale, workers, None).0
}

/// [`service_throughput`] with optional structured tracing:
/// `trace_capacity` is the per-ring event capacity
/// ([`ServiceConfig::with_tracing`]), and the returned snapshot covers the
/// whole warm stream. `None` runs exactly [`service_throughput`].
pub fn service_throughput_traced(
    scale: &ExperimentScale,
    workers: usize,
    trace_capacity: Option<usize>,
) -> (ServiceReport, Option<TraceSnapshot>) {
    use rand::SeedableRng;

    let dataset = dl_ops::training_dataset(scale.dataset_scale, 101);
    let mut rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 17);
    let workloads: Vec<Module> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .collect();

    let budget = scale.trajectories_per_iteration;
    let specs = vec![
        SearchSpec::Greedy,
        SearchSpec::beam(4),
        SearchSpec::Mcts {
            iterations: (budget * 2).max(8),
            branch: 4,
            widening: Some((1.0, 0.6)),
        },
        SearchSpec::random((budget * 2).max(4)),
    ];
    let rounds = if scale.hidden_size <= 16 { 2 } else { 3 };
    let stream = service_request_stream(&workloads, rounds, &specs);

    // --- warm: one persistent service, one cache across the stream ----
    let mut warm_config = ServiceConfig::quick().with_workers(workers);
    if let Some(capacity) = trace_capacity {
        warm_config = warm_config.with_tracing(capacity);
    }
    let warm_service = rl.spawn_service_with(&warm_config);
    // `spawn_service_with` shares the optimizer's cache, which training
    // warmed; start the comparison from a clean slate so warm-vs-cold
    // measures exactly the cross-request amortization.
    warm_service.cache().clear();
    let start = Instant::now();
    let pending = warm_service.submit_batch(stream.clone());
    let warm_responses = wait_all(&pending);
    let warm = ServiceStreamSummary::from_responses(
        "warm-service",
        &warm_responses,
        start.elapsed().as_secs_f64(),
    );
    let statuses = (
        warm_responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Completed)
            .count(),
        warm_responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Stopped)
            .count(),
        warm_responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Skipped)
            .count(),
        warm_responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Rejected)
            .count(),
    );

    // --- cold: a fresh service (fresh cache) per request ---------------
    let service_config = ServiceConfig::quick();
    let start = Instant::now();
    let cold_responses: Vec<OptimizationResponse> = stream
        .iter()
        .map(|request| {
            let service = OptimizationService::new(service_config.clone(), rl.policy().clone());
            service.submit(request.clone()).wait()
        })
        .collect();
    let cold = ServiceStreamSummary::from_responses(
        "cold-per-request",
        &cold_responses,
        start.elapsed().as_secs_f64(),
    );

    let reference: Vec<u64> = warm_responses.iter().map(|r| r.fingerprint()).collect();

    // --- restored: snapshot the warm cache, then a *fresh* service
    // restores it at startup and re-serves the stream — the storage-tier
    // restart. The warm restart must beat the cold baseline's hit-rate at
    // bit-identical fingerprints.
    let snapshot_path =
        std::env::temp_dir().join(format!("mlir-rl-exp-service-{}.snap", std::process::id()));
    let snapshot_file = snapshot_path.to_string_lossy().into_owned();
    warm_service
        .cache()
        .snapshot_to(&snapshot_file)
        .expect("snapshotting the warm cache");
    let restored_service = OptimizationService::new(
        service_config.clone().with_cache_snapshot(&snapshot_file),
        rl.policy().clone(),
    );
    let restored_entries = restored_service.metrics().cache_restored;
    let start = Instant::now();
    let pending = restored_service.submit_batch(stream.clone());
    let restored_responses = wait_all(&pending);
    let restored = ServiceStreamSummary::from_responses(
        "restored-service",
        &restored_responses,
        start.elapsed().as_secs_f64(),
    );
    let restored_fingerprints_match = restored_responses.len() == reference.len()
        && restored_responses
            .iter()
            .zip(&reference)
            .all(|(r, &want)| r.fingerprint() == want);
    std::fs::remove_file(&snapshot_path).ok();

    // --- tiny cache: the same stream against a deliberately starved
    // capacity, forcing entry-wise eviction on every shard. Responses must
    // stay bit-identical — eviction only re-runs the (deterministic)
    // estimator.
    let tiny_capacity = 32;
    let tiny_service = OptimizationService::new(
        service_config.clone().with_cache_capacity(tiny_capacity),
        rl.policy().clone(),
    );
    let start = Instant::now();
    let pending = tiny_service.submit_batch(stream.clone());
    let tiny_responses = wait_all(&pending);
    let tiny = ServiceStreamSummary::from_responses(
        "tiny-cache-service",
        &tiny_responses,
        start.elapsed().as_secs_f64(),
    );
    let tiny_cache_evictions = tiny_service.metrics().cache_evictions;
    let tiny_fingerprints_match = tiny_responses.len() == reference.len()
        && tiny_responses
            .iter()
            .zip(&reference)
            .all(|(r, &want)| r.fingerprint() == want);

    // --- determinism: worker counts x shuffled submission orders -------
    let mut shuffle_rng = ChaCha8Rng::seed_from_u64(4242);
    let determinism_invariant = [1usize, 2, 4].iter().all(|&check_workers| {
        let service = OptimizationService::new(
            service_config.clone().with_workers(check_workers),
            rl.policy().clone(),
        );
        // Shuffle the submission order; responses map back to stream
        // positions through the submitted index.
        let mut order: Vec<usize> = (0..stream.len()).collect();
        shuffle(&mut order, &mut shuffle_rng);
        let pending: Vec<_> = order
            .iter()
            .map(|&i| service.submit(stream[i].clone()))
            .collect();
        let mut fingerprints = vec![0u64; stream.len()];
        for (&i, p) in order.iter().zip(&pending) {
            fingerprints[i] = p.wait().fingerprint();
        }
        fingerprints == reference
    });

    let snapshot = warm_service.trace_snapshot();
    (
        ServiceReport {
            modules: workloads.len(),
            rounds,
            workers: workers.max(1),
            warm,
            restored,
            tiny,
            cold,
            statuses,
            determinism_invariant,
            restored_entries,
            restored_fingerprints_match,
            tiny_capacity,
            tiny_cache_evictions,
            tiny_fingerprints_match,
        },
        snapshot,
    )
}

// ---------------------------------------------------------------------------
// exp_load — open-loop traffic hardening: deterministic bursty/heavy-tailed
// arrivals against a bounded-queue hardened service (quotas, weights,
// backpressure) vs an unbounded queue, with tail latency next to speedup.
// ---------------------------------------------------------------------------

/// The `exp_load` report: a deterministic open-loop arrival process — a
/// back-to-back burst followed by heavy-tailed paced arrivals, mixing every
/// [`SearchSpec`] variant across weighted clients — replayed against a
/// hardened bounded-queue service (and, for the memory comparison, against
/// an unbounded-queue service), reporting p50/p99 queue and service
/// latency next to the geomean speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Distinct workload modules in the stream.
    pub modules: usize,
    /// Requests in the replayed arrival stream.
    pub requests: usize,
    /// Arrivals submitted back-to-back at the head of the stream.
    pub burst: usize,
    /// Worker threads.
    pub workers: usize,
    /// Queue bound of the hardened service (deliberately smaller than the
    /// burst, so backpressure engages).
    pub queue_capacity: usize,
    /// Wall-clock seconds replaying the stream against the bounded
    /// service.
    pub wall_s: f64,
    /// Statuses of the bounded run
    /// `(completed, stopped, skipped, rejected)`.
    pub statuses: (usize, usize, usize, usize),
    /// Geometric mean speedup over the bounded run's completed requests.
    pub geomean_speedup: f64,
    /// Bounded-run metrics snapshot: latency quantiles, admission /
    /// overflow / quota counters, queue high-water mark, cache hit-rate.
    pub metrics: ServiceMetrics,
    /// Queue high-water mark of the unbounded service replaying the same
    /// arrivals — the memory the bounded queue refuses to grow.
    pub unbounded_high_water: u64,
}

impl LoadReport {
    /// Requests answered per wall-clock second in the bounded run.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.wall_s.max(1e-9)
    }

    /// Machine-readable record of the run (one JSON object). The p50/p99
    /// latency fields are surfaced at the top level (in addition to the
    /// nested metrics snapshot) so CI can assert on them directly.
    pub fn to_json(&self) -> String {
        let numbers = [
            ("modules", self.modules as f64),
            ("requests", self.requests as f64),
            ("burst", self.burst as f64),
            ("workers", self.workers as f64),
            ("queue_capacity", self.queue_capacity as f64),
            ("wall_s", self.wall_s),
            ("requests_per_sec", self.requests_per_sec()),
            ("geomean_speedup", self.geomean_speedup),
            ("queue_p50_s", self.metrics.queue_p50_s),
            ("queue_p99_s", self.metrics.queue_p99_s),
            ("service_p50_s", self.metrics.service_p50_s),
            ("service_p99_s", self.metrics.service_p99_s),
            ("bounded_high_water", self.metrics.queue_high_water as f64),
            ("unbounded_high_water", self.unbounded_high_water as f64),
        ];
        let mut fields = vec![("experiment", json::string("exp_load"))];
        fields.extend(numbers.map(|(key, value)| (key, json::number(value))));
        fields.push(("statuses", statuses_json(self.statuses)));
        fields.push(("metrics", self.metrics.to_json()));
        json::object(1, fields)
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== exp_load: open-loop traffic hardening ({} requests over {} modules; burst {}, \
             queue capacity {}, {} workers) ==",
            self.requests, self.modules, self.burst, self.queue_capacity, self.workers
        )?;
        let (completed, stopped, skipped, rejected) = self.statuses;
        writeln!(
            f,
            "throughput         {:>7.2} req/s over {:.3}s  geomean speedup (completed) {:>6.2}x",
            self.requests_per_sec(),
            self.wall_s,
            self.geomean_speedup
        )?;
        writeln!(
            f,
            "statuses           completed {completed}  stopped {stopped}  skipped {skipped}  \
             rejected {rejected}  (overflow rejects {})",
            self.metrics.overflow_rejects
        )?;
        writeln!(
            f,
            "queue latency      p50 {:>9.6}s  p99 {:>9.6}s  mean {:>9.6}s",
            self.metrics.queue_p50_s, self.metrics.queue_p99_s, self.metrics.queue_mean_s
        )?;
        writeln!(
            f,
            "service latency    p50 {:>9.6}s  p99 {:>9.6}s  mean {:>9.6}s",
            self.metrics.service_p50_s, self.metrics.service_p99_s, self.metrics.service_mean_s
        )?;
        writeln!(
            f,
            "fairness           {} client lanes, quota deferrals {}",
            self.metrics.clients, self.metrics.quota_deferrals
        )?;
        writeln!(
            f,
            "queue memory       bounded high-water {} (capacity {})  vs unbounded {} — \
             backpressure keeps the burst flat",
            self.metrics.queue_high_water, self.queue_capacity, self.unbounded_high_water
        )?;
        writeln!(
            f,
            "cache              hit-rate {:>5.1}%  {} entries / capacity {}  \
             insertions {}  evictions {}  promotions {}",
            self.metrics.cache_hit_rate() * 100.0,
            self.metrics.cache_len,
            self.metrics.cache_capacity,
            self.metrics.cache_insertions,
            self.metrics.cache_evictions,
            self.metrics.cache_promotions,
        )
    }
}

/// Builds the deterministic open-loop arrival stream: `burst` back-to-back
/// arrivals, then heavy-tailed (power-of-two microsecond) gaps from a
/// seeded generator; modules, spec variants, weighted clients and
/// priorities all cycle deterministically with the stream position.
fn load_request_stream(
    workloads: &[Module],
    total: usize,
    burst: usize,
    specs: &[SearchSpec],
) -> Vec<(OptimizationRequest, Duration)> {
    use rand::{Rng, SeedableRng};
    let mut rng = ChaCha8Rng::seed_from_u64(90210);
    let clients = [Some("alice"), Some("bob"), None];
    (0..total)
        .map(|i| {
            let module = workloads[i % workloads.len()].clone();
            let spec = specs[i % specs.len()].clone();
            let seed = mlir_rl_agent::episode_seed(3031, i as u64);
            let mut request = OptimizationRequest::new(module, spec)
                .with_seed(seed)
                .with_priority((rng.gen::<u64>() % 3) as i32 - 1);
            if let Some(client) = clients[i % clients.len()] {
                request = request.with_client(client);
            }
            let gap = if i < burst {
                Duration::ZERO
            } else {
                // Heavy-tailed pacing: mostly tight arrivals with
                // occasional power-of-two spikes up to ~128 µs.
                let draw = rng.gen::<u64>() % 100;
                if draw < 70 {
                    Duration::ZERO
                } else {
                    Duration::from_micros(1 << (draw % 8))
                }
            };
            (request, gap)
        })
        .collect()
}

/// Replays the arrival stream open-loop (submission times never wait for
/// completions) and waits for every response.
fn replay_stream(
    service: &OptimizationService,
    stream: &[(OptimizationRequest, Duration)],
) -> Vec<OptimizationResponse> {
    let pending: Vec<_> = stream
        .iter()
        .map(|(request, gap)| {
            if !gap.is_zero() {
                std::thread::sleep(*gap);
            }
            service.submit(request.clone())
        })
        .collect();
    wait_all(&pending)
}

/// Runs the traffic-hardening experiment: trains a quick policy, builds a
/// deterministic open-loop arrival stream (an opening burst deliberately
/// larger than the hardened service's queue bound, then heavy-tailed
/// pacing; every [`SearchSpec`] variant; three client lanes with weights
/// 3/1/1 and an in-flight quota), and replays it against
///
/// 1. the **hardened** service — bounded queue, client quotas and weights:
///    backpressure rejects the overflowing burst tail, the queue
///    high-water mark plateaus at the capacity, and the metrics surface
///    reports p50/p99 queue and service latency; and
/// 2. an **unbounded** service replaying the same arrivals — its
///    high-water mark grows with the burst, the memory-leak mode the
///    bounded queue exists to prevent.
pub fn load_test(scale: &ExperimentScale, workers: usize) -> LoadReport {
    load_test_traced(scale, workers, None).0
}

/// [`load_test`] with optional structured tracing on the hardened bounded
/// service: `trace_capacity` is the per-ring event capacity
/// ([`ServiceConfig::with_tracing`]), and the returned snapshot covers the
/// whole replayed stream — per-request lifecycle spans (including the
/// burst's backpressure rejections) plus searcher phase events. `None`
/// runs exactly [`load_test`].
pub fn load_test_traced(
    scale: &ExperimentScale,
    workers: usize,
    trace_capacity: Option<usize>,
) -> (LoadReport, Option<TraceSnapshot>) {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 101);
    let rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 23);
    let workloads: Vec<Module> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .collect();

    let budget = scale.trajectories_per_iteration;
    let specs = vec![
        SearchSpec::Greedy,
        SearchSpec::beam(3),
        SearchSpec::Mcts {
            iterations: budget.max(4),
            branch: 3,
            widening: Some((1.0, 0.6)),
        },
        SearchSpec::random(budget.max(3)),
        SearchSpec::round_robin(vec![SearchSpec::Greedy, SearchSpec::beam(2)]),
        SearchSpec::racing(vec![SearchSpec::Greedy, SearchSpec::beam(2)], 0.0),
    ];
    let rounds = if scale.hidden_size <= 16 { 2 } else { 4 };
    let total = workloads.len() * rounds;
    let burst = (total / 2).max(4);
    let capacity = (burst / 2).max(2);
    let stream = load_request_stream(&workloads, total, burst, &specs);

    // --- hardened: bounded queue + quotas + weighted lanes -------------
    let mut bounded_config = ServiceConfig::quick()
        .with_workers(workers)
        .with_queue_capacity(capacity)
        .with_client_quota(2)
        .with_client_weight("alice", 3)
        .with_client_weight("bob", 1);
    if let Some(ring) = trace_capacity {
        bounded_config = bounded_config.with_tracing(ring);
    }
    let bounded = OptimizationService::new(bounded_config, rl.policy().clone());
    let start = Instant::now();
    let responses = replay_stream(&bounded, &stream);
    let wall_s = start.elapsed().as_secs_f64();
    let metrics = bounded.metrics();
    let statuses = (
        responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Completed)
            .count(),
        responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Stopped)
            .count(),
        responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Skipped)
            .count(),
        responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Rejected)
            .count(),
    );
    let completed: Vec<&OptimizationResponse> = responses
        .iter()
        .filter(|r| r.status == ResponseStatus::Completed)
        .collect();
    let geomean_speedup = if completed.is_empty() {
        1.0
    } else {
        (completed
            .iter()
            .map(|r| r.speedup().max(1e-12).ln())
            .sum::<f64>()
            / completed.len() as f64)
            .exp()
    };

    // --- unbounded: the same arrivals, no queue bound ------------------
    let unbounded = OptimizationService::new(
        ServiceConfig::quick()
            .with_workers(workers)
            .with_unbounded_queue(),
        rl.policy().clone(),
    );
    replay_stream(&unbounded, &stream);
    let unbounded_high_water = unbounded.metrics().queue_high_water;

    let snapshot = bounded.trace_snapshot();
    (
        LoadReport {
            modules: workloads.len(),
            requests: total,
            burst,
            workers: workers.max(1),
            queue_capacity: capacity,
            wall_s,
            statuses,
            geomean_speedup,
            metrics,
            unbounded_high_water,
        },
        snapshot,
    )
}

// ---------------------------------------------------------------------------
// Tracing support shared by the exp_* binaries
// ---------------------------------------------------------------------------

/// Per-ring event capacity the binaries' `--trace` flag uses: large enough
/// to hold every smoke/standard stream without drops, small enough that
/// the rings stay a few MiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Writes `snapshot` as Chrome trace-event JSON (load it in
/// `chrome://tracing` or Perfetto) to `path` and prints a one-line
/// summary — event count, drops, ring count, and the measured per-event
/// recorder overhead — to **stderr**, keeping stdout parseable for
/// `--json` reports.
pub fn export_trace(snapshot: &TraceSnapshot, path: &std::path::Path) {
    std::fs::write(path, snapshot.to_chrome_json())
        .unwrap_or_else(|problem| panic!("writing trace to {}: {problem}", path.display()));
    eprintln!(
        "trace: {} events ({} dropped) across {} rings -> {}; recorder overhead \
         ~{:.0} ns/event",
        snapshot.events.len(),
        snapshot.dropped,
        snapshot.writers,
        path.display(),
        recorder_overhead_ns(1 << 16),
    );
}

// ---------------------------------------------------------------------------
// E12 — NN throughput: batched (blocked-matmul) vs per-vector inference and
// training on PPO/beam-realistic layer shapes.
// ---------------------------------------------------------------------------

/// One batch-size row of the NN-throughput experiment. All figures are
/// rows (samples) per second; `*_speedup` is batched over looped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnThroughputRow {
    /// Batch size (rows per batched call; the looped figures process the
    /// same rows one at a time).
    pub batch: usize,
    /// MLP training forward, one `forward` call per row.
    pub forward_looped: f64,
    /// MLP training forward, one `forward_batch` call.
    pub forward_batched: f64,
    /// `forward_batched / forward_looped`.
    pub forward_speedup: f64,
    /// MLP scratch inference, one `infer` call per row.
    pub infer_looped: f64,
    /// MLP scratch inference, one `infer_batch` call.
    pub infer_batched: f64,
    /// `infer_batched / infer_looped`.
    pub infer_speedup: f64,
    /// MLP backward, one `backward` call per row in reverse order.
    pub backward_looped: f64,
    /// MLP backward, one `backward_batch` call.
    pub backward_batched: f64,
    /// `backward_batched / backward_looped`.
    pub backward_speedup: f64,
    /// LSTM scratch inference (sequence length 2, the producer-consumer
    /// embedding shape), one `infer` call per row.
    pub lstm_infer_looped: f64,
    /// LSTM scratch inference, one `infer_batch` call.
    pub lstm_infer_batched: f64,
    /// `lstm_infer_batched / lstm_infer_looped`.
    pub lstm_infer_speedup: f64,
}

/// The embedding LSTM at the shape it is deployed in — `feature_len`
/// inputs, sequence length 2 — at one batch size: rows/sec on real reset
/// observations (under 2 % dense, so the kernels contract over the
/// non-zero columns only) against dense random vectors of the same shape
/// (every column contracted over).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationLstmRow {
    /// Sequences per `infer_batch` call (`infer` at 1).
    pub batch: usize,
    /// Rows/sec fed real observations.
    pub observation_rows: f64,
    /// Rows/sec fed the same observations as the `(columns, values)` lists
    /// they are stored as (`Lstm::infer_nonzeros`, what `select_action`
    /// runs): no staging copy and no scan. Batch 1 only.
    pub list_rows: Option<f64>,
    /// Rows/sec fed dense random vectors.
    pub dense_rows: f64,
    /// `observation_rows / dense_rows`.
    pub speedup: f64,
}

/// The `exp_nn_throughput` report: rows/sec for batched vs per-vector
/// forward, inference and backward at PPO/beam-realistic shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct NnThroughputReport {
    /// Input feature count of the measured MLP (equal to the hidden size,
    /// like the paper's backbone).
    pub input: usize,
    /// Hidden width of the measured layers.
    pub hidden: usize,
    /// Number of MLP layers.
    pub layers: usize,
    /// One row per measured batch size.
    pub rows: Vec<NnThroughputRow>,
    /// Input size of the observation-shaped LSTM:
    /// `EnvConfig::paper().feature_len()`.
    pub feature_len: usize,
    /// Mean non-zeros per observation vector fed to it.
    pub observation_nnz: f64,
    /// The observation-shaped LSTM, one row per measured batch size.
    pub observation_lstm: Vec<ObservationLstmRow>,
}

impl ObservationLstmRow {
    /// One JSON object per measured batch size.
    pub fn to_json(&self) -> String {
        let fields = [
            ("batch", self.batch as f64),
            ("observation_rows", self.observation_rows),
            ("list_rows", self.list_rows.unwrap_or(f64::NAN)),
            ("dense_rows", self.dense_rows),
            ("speedup", self.speedup),
        ];
        json::object(2, fields.map(|(name, value)| (name, json::number(value))))
    }
}

impl NnThroughputRow {
    /// One JSON object per measured batch size.
    pub fn to_json(&self) -> String {
        let fields = [
            ("batch", self.batch as f64),
            ("forward_looped", self.forward_looped),
            ("forward_batched", self.forward_batched),
            ("forward_speedup", self.forward_speedup),
            ("infer_looped", self.infer_looped),
            ("infer_batched", self.infer_batched),
            ("infer_speedup", self.infer_speedup),
            ("backward_looped", self.backward_looped),
            ("backward_batched", self.backward_batched),
            ("backward_speedup", self.backward_speedup),
            ("lstm_infer_looped", self.lstm_infer_looped),
            ("lstm_infer_batched", self.lstm_infer_batched),
            ("lstm_infer_speedup", self.lstm_infer_speedup),
        ];
        json::object(2, fields.map(|(name, value)| (name, json::number(value))))
    }
}

impl NnThroughputReport {
    /// Machine-readable record of the run (one JSON object) for
    /// `BENCH_*.json` trajectories.
    pub fn to_json(&self) -> String {
        json::object(
            1,
            [
                ("experiment", json::string("exp_nn_throughput")),
                ("input", json::number(self.input as f64)),
                ("hidden", json::number(self.hidden as f64)),
                ("layers", json::number(self.layers as f64)),
                (
                    "rows",
                    json::array(self.rows.iter().map(NnThroughputRow::to_json)),
                ),
                ("feature_len", json::number(self.feature_len as f64)),
                ("observation_nnz", json::number(self.observation_nnz)),
                (
                    "observation_lstm",
                    json::array(
                        self.observation_lstm
                            .iter()
                            .map(ObservationLstmRow::to_json),
                    ),
                ),
            ],
        )
    }
}

impl fmt::Display for NnThroughputReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== nn throughput (mlp {}x{} x{} layers; rows/sec, batched vs per-vector) ==",
            self.input, self.hidden, self.layers
        )?;
        writeln!(
            f,
            "{:>6}  {:>33}  {:>33}  {:>33}  {:>33}",
            "batch",
            "mlp forward (loop|batch|x)",
            "mlp infer (loop|batch|x)",
            "mlp backward (loop|batch|x)",
            "lstm infer (loop|batch|x)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6}  {:>12.0} {:>12.0} {:>6.2}x  {:>12.0} {:>12.0} {:>6.2}x  {:>12.0} {:>12.0} {:>6.2}x  {:>12.0} {:>12.0} {:>6.2}x",
                r.batch,
                r.forward_looped,
                r.forward_batched,
                r.forward_speedup,
                r.infer_looped,
                r.infer_batched,
                r.infer_speedup,
                r.backward_looped,
                r.backward_batched,
                r.backward_speedup,
                r.lstm_infer_looped,
                r.lstm_infer_batched,
                r.lstm_infer_speedup,
            )?;
        }
        writeln!(
            f,
            "== observation-shaped lstm ({} -> {}, sequence 2; {:.1} non-zeros per vector; rows/sec) ==",
            self.feature_len, self.hidden, self.observation_nnz
        )?;
        writeln!(
            f,
            "{:>6}  {:>14} {:>14} {:>14} {:>8}",
            "batch", "observations", "as lists", "dense random", "x"
        )?;
        for r in &self.observation_lstm {
            let list_rows = r.list_rows.map_or("-".to_string(), |v| format!("{v:.0}"));
            writeln!(
                f,
                "{:>6}  {:>14.0} {:>14} {:>14.0} {:>7.2}x",
                r.batch, r.observation_rows, list_rows, r.dense_rows, r.speedup
            )?;
        }
        Ok(())
    }
}

/// Repeats `rep` until its self-timed measured region has accumulated at
/// least `budget_s` seconds; returns rows/sec over the measured region.
/// `rep(timer)` must add its measured duration to `timer` and return the
/// rows it processed.
fn measure_rows_per_sec<F: FnMut(&mut f64) -> usize>(budget_s: f64, mut rep: F) -> f64 {
    let mut rows = 0usize;
    let mut timed = 0.0f64;
    while timed < budget_s {
        rows += rep(&mut timed);
    }
    rows as f64 / timed.max(1e-9)
}

/// Measures rows/sec for batched vs per-vector NN execution: MLP training
/// forward, scratch inference and backward, plus LSTM scratch inference at
/// sequence length 2 (the producer-consumer embedding). Shapes follow the
/// scale: the smoke scale uses a 96-unit stack so CI stays fast; every
/// other scale uses the paper's 512-unit PPO shape. Both sides of each
/// comparison compute bit-identical results (the batched kernels fix their
/// accumulation order), so the ratio is pure engine throughput.
///
/// Those layers are dense and square. The shape that decides serving cost
/// is the embedding LSTM's input layer — `EnvConfig::paper()`'s 3252
/// features, under 2 % of them non-zero — so the report also runs the LSTM
/// at that shape on the reset observations of
/// `dl_ops::evaluation_benchmark()`, next to dense random vectors of the
/// same shape.
pub fn nn_throughput(scale: &ExperimentScale) -> NnThroughputReport {
    use mlir_rl_nn::{Lstm, Mlp, Tensor2};
    use rand::Rng;
    use rand::SeedableRng;

    let hidden = if scale.hidden_size <= 16 { 96 } else { 512 };
    let budget_s = if scale.hidden_size <= 16 { 0.02 } else { 0.25 };
    let layers = 3usize;
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    let sizes: Vec<usize> = std::iter::repeat_n(hidden, layers + 1).collect();
    let mlp_template = Mlp::new(&sizes, false, &mut rng);
    let lstm_template = Lstm::new(hidden, hidden, &mut rng);

    let mut rows = Vec::new();
    for batch in [1usize, 16, 32, 64] {
        let data: Vec<Vec<f64>> = (0..batch)
            .map(|_| (0..hidden).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let x = Tensor2::from_rows(hidden, data.iter().map(Vec::as_slice));
        let grad: Vec<Vec<f64>> = (0..batch)
            .map(|_| (0..hidden).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let g = Tensor2::from_rows(hidden, grad.iter().map(Vec::as_slice));

        // --- MLP training forward -------------------------------------
        let mut mlp = mlp_template.clone();
        let forward_looped = measure_rows_per_sec(budget_s, |timer| {
            mlp.zero_grad();
            let start = Instant::now();
            for row in &data {
                std::hint::black_box(mlp.forward(row));
            }
            *timer += start.elapsed().as_secs_f64();
            batch
        });
        let mut mlp = mlp_template.clone();
        let forward_batched = measure_rows_per_sec(budget_s, |timer| {
            mlp.zero_grad();
            let start = Instant::now();
            std::hint::black_box(mlp.forward_batch(&x));
            *timer += start.elapsed().as_secs_f64();
            batch
        });

        // --- MLP scratch inference ------------------------------------
        let mut mlp = mlp_template.clone();
        let infer_looped = measure_rows_per_sec(budget_s, |timer| {
            let start = Instant::now();
            for row in &data {
                std::hint::black_box(mlp.infer(row));
            }
            *timer += start.elapsed().as_secs_f64();
            batch
        });
        let mut mlp = mlp_template.clone();
        let infer_batched = measure_rows_per_sec(budget_s, |timer| {
            let start = Instant::now();
            std::hint::black_box(mlp.infer_batch(&x));
            *timer += start.elapsed().as_secs_f64();
            batch
        });

        // --- MLP backward (forward untimed, backward timed) -----------
        let mut mlp = mlp_template.clone();
        let backward_looped = measure_rows_per_sec(budget_s, |timer| {
            mlp.zero_grad();
            for row in &data {
                mlp.forward(row);
            }
            let start = Instant::now();
            for grow in grad.iter().rev() {
                std::hint::black_box(mlp.backward(grow));
            }
            *timer += start.elapsed().as_secs_f64();
            batch
        });
        let mut mlp = mlp_template.clone();
        let backward_batched = measure_rows_per_sec(budget_s, |timer| {
            mlp.zero_grad();
            mlp.forward_batch(&x);
            let start = Instant::now();
            std::hint::black_box(mlp.backward_batch(&g));
            *timer += start.elapsed().as_secs_f64();
            batch
        });

        // --- LSTM scratch inference (sequence length 2) ---------------
        let mut lstm = lstm_template.clone();
        let lstm_infer_looped = measure_rows_per_sec(budget_s, |timer| {
            let start = Instant::now();
            for row in &data {
                std::hint::black_box(lstm.infer(&[row.as_slice(), row.as_slice()]));
            }
            *timer += start.elapsed().as_secs_f64();
            batch
        });
        let mut lstm = lstm_template.clone();
        let lstm_infer_batched = measure_rows_per_sec(budget_s, |timer| {
            let start = Instant::now();
            std::hint::black_box(lstm.infer_batch(&[&x, &x]));
            *timer += start.elapsed().as_secs_f64();
            batch
        });

        rows.push(NnThroughputRow {
            batch,
            forward_looped,
            forward_batched,
            forward_speedup: forward_batched / forward_looped.max(1e-9),
            infer_looped,
            infer_batched,
            infer_speedup: infer_batched / infer_looped.max(1e-9),
            backward_looped,
            backward_batched,
            backward_speedup: backward_batched / backward_looped.max(1e-9),
            lstm_infer_looped,
            lstm_infer_batched,
            lstm_infer_speedup: lstm_infer_batched / lstm_infer_looped.max(1e-9),
        });
    }

    // --- The embedding LSTM at its deployed input shape -----------------
    let env_config = EnvConfig::paper();
    let feature_len = env_config.feature_len();
    let mut env = OptimizationEnv::new(env_config, CostModel::new(MachineModel::default()));
    let lists: Vec<[Features; 2]> = dl_ops::evaluation_benchmark()
        .into_iter()
        .filter_map(|(_, module)| env.reset(module))
        .map(|obs| [obs.producer, obs.consumer])
        .collect();
    assert!(!lists.is_empty(), "no operator produced an observation");
    let observations: Vec<[Vec<f64>; 2]> = lists
        .iter()
        .map(|[producer, consumer]| [producer.to_vec(), consumer.to_vec()])
        .collect();
    let nnz: usize = lists.iter().flatten().map(|f| f.nonzeros().0.len()).sum();
    let dense: Vec<[Vec<f64>; 2]> = (0..observations.len())
        .map(|_| {
            std::array::from_fn(|_| (0..feature_len).map(|_| rng.gen_range(0.5..1.0)).collect())
        })
        .collect();
    let wide_template = Lstm::new(feature_len, hidden, &mut rng);
    let mut observation_lstm = Vec::new();
    for batch in [1usize, 16] {
        let rows_per_sec = |inputs: &[[Vec<f64>; 2]]| {
            let mut lstm = wide_template.clone();
            if batch == 1 {
                return measure_rows_per_sec(budget_s, |timer| {
                    let start = Instant::now();
                    for [producer, consumer] in inputs {
                        std::hint::black_box(lstm.infer(&[producer, consumer]));
                    }
                    *timer += start.elapsed().as_secs_f64();
                    inputs.len()
                });
            }
            let steps: [Tensor2; 2] = std::array::from_fn(|t| {
                Tensor2::from_rows(
                    feature_len,
                    (0..batch).map(|r| inputs[r % inputs.len()][t].as_slice()),
                )
            });
            measure_rows_per_sec(budget_s, |timer| {
                let start = Instant::now();
                std::hint::black_box(lstm.infer_batch(&[&steps[0], &steps[1]]));
                *timer += start.elapsed().as_secs_f64();
                batch
            })
        };
        let observation_rows = rows_per_sec(&observations);
        let dense_rows = rows_per_sec(&dense);
        let list_rows = (batch == 1).then(|| {
            let mut lstm = wide_template.clone();
            measure_rows_per_sec(budget_s, |timer| {
                let start = Instant::now();
                for [producer, consumer] in &lists {
                    let sequence = [producer.nonzeros(), consumer.nonzeros()];
                    std::hint::black_box(lstm.infer_nonzeros(&sequence));
                }
                *timer += start.elapsed().as_secs_f64();
                lists.len()
            })
        });
        observation_lstm.push(ObservationLstmRow {
            batch,
            observation_rows,
            list_rows,
            dense_rows,
            speedup: observation_rows / dense_rows.max(1e-9),
        });
    }

    NnThroughputReport {
        input: hidden,
        hidden,
        layers,
        rows,
        feature_len,
        observation_nnz: nnz as f64 / (2 * observations.len()) as f64,
        observation_lstm,
    }
}

// ---------------------------------------------------------------------------
// E8 — Tables II and V: dataset and model composition.
// ---------------------------------------------------------------------------

/// Reproduces Table II (training-set composition per DL operator) and
/// Table V (operator composition of the benchmark models).
pub fn datasets() -> (SpeedupTable, SpeedupTable) {
    let mut table2 = SpeedupTable::new(
        "Table II: single-operator training set",
        vec!["training examples".to_string()],
    );
    for (op, count) in dl_ops::dataset_composition(1.0) {
        table2.push_row(op.name(), vec![count as f64]);
    }
    table2.push_row("Total", vec![1135.0]);

    let mut table5 = SpeedupTable::new(
        "Table V: operator composition of the benchmarked models",
        vec![
            "total".to_string(),
            "conv2d".to_string(),
            "pool".to_string(),
            "matmul".to_string(),
            "generic".to_string(),
        ],
    );
    for model in NeuralNetwork::ALL {
        let module = model.module();
        let comp = models::op_composition(&module);
        let get = |k: &str| comp.get(k).copied().unwrap_or(0) as f64;
        table5.push_row(
            model.name(),
            vec![
                get("total"),
                get("conv2d"),
                get("pool"),
                get("matmul"),
                get("generic"),
            ],
        );
    }
    (table2, table5)
}

// ---------------------------------------------------------------------------
// E9 — action-space size accounting (Sec. IV-A).
// ---------------------------------------------------------------------------

/// Reproduces the Sec. IV-A action-space size accounting: the flat action
/// space `|A| = 3 M^N + N! + 2` against the number of multi-discrete
/// decisions, for N = 1..=12 and M = 8.
pub fn action_space_size() -> SpeedupTable {
    let mut table = SpeedupTable::new(
        "Action-space size: flat vs multi-discrete (M = 8)",
        vec![
            "flat |A|".to_string(),
            "multi-discrete (level pointers)".to_string(),
            "multi-discrete (enumerated)".to_string(),
        ],
    );
    for n in 1..=12u32 {
        table.push_row(
            format!("N = {n}"),
            vec![
                flat_action_space_size(n, 8) as f64,
                multi_discrete_decision_count(n, 8, true) as f64,
                multi_discrete_decision_count(n, 8, false) as f64,
            ],
        );
    }
    table
}

// ---------------------------------------------------------------------------
// E16 — exp_online: closed-loop online learning on served traffic.
// ---------------------------------------------------------------------------

/// The `exp_online` report: a served traffic stream feeds the online
/// trainer, the trainer hot-swaps promoted policy versions, and the replay
/// phases lock the per-version determinism contract plus the promotion
/// gate's no-regression guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Distinct modules in the served workload.
    pub modules: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Serving rounds run to feed the trainer before the first swap.
    pub training_rounds: usize,
    /// Policy version of the pre-training replay phase (always 0).
    pub pre_version: u64,
    /// Policy version of the post-training replay phase.
    pub post_version: u64,
    /// Policy snapshots published by the trainer.
    pub swaps: u64,
    /// PPO train steps the trainer ran.
    pub train_steps: u64,
    /// Candidates the promotion gate refused.
    pub gate_rejects: u64,
    /// Experiences accepted into the stream.
    pub experiences_accepted: u64,
    /// Experiences dropped by the bounded stream.
    pub experiences_dropped: u64,
    /// Geomean greedy speedup served at version 0.
    pub pre_geomean: f64,
    /// Geomean greedy speedup served at `post_version`.
    pub post_geomean: f64,
    /// Replaying the stream at version 0 reproduced every fingerprint.
    pub pre_fingerprints_stable: bool,
    /// Replaying the stream at `post_version` reproduced every fingerprint.
    pub post_fingerprints_stable: bool,
    /// Every response reported exactly the version it was admitted with.
    pub versions_pinned: bool,
}

impl fmt::Display for OnlineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== online learning (experience feedback + hot swap) ==")?;
        writeln!(
            f,
            "workload             {} modules, {} workers, {} training rounds",
            self.modules, self.workers, self.training_rounds
        )?;
        writeln!(
            f,
            "trainer              {} train steps, {} swaps published, {} gate rejects",
            self.train_steps, self.swaps, self.gate_rejects
        )?;
        writeln!(
            f,
            "experience stream    {} accepted, {} dropped",
            self.experiences_accepted, self.experiences_dropped
        )?;
        writeln!(
            f,
            "geomean speedup      {:.4}x at v{}  ->  {:.4}x at v{} ({})",
            self.pre_geomean,
            self.pre_version,
            self.post_geomean,
            self.post_version,
            if self.post_geomean >= self.pre_geomean * (1.0 - 1e-9) {
                "no regression"
            } else {
                "REGRESSED"
            }
        )?;
        writeln!(
            f,
            "determinism          v{} replay {}, v{} replay {}, versions {}",
            self.pre_version,
            if self.pre_fingerprints_stable {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            self.post_version,
            if self.post_fingerprints_stable {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            if self.versions_pinned {
                "pinned at admission"
            } else {
                "NOT PINNED"
            }
        )
    }
}

impl OnlineReport {
    /// Machine-readable record of the run (one JSON object) for
    /// `BENCH_*.json` trajectories.
    pub fn to_json(&self) -> String {
        let numbers = [
            ("modules", self.modules as f64),
            ("workers", self.workers as f64),
            ("training_rounds", self.training_rounds as f64),
            ("pre_version", self.pre_version as f64),
            ("post_version", self.post_version as f64),
            ("swaps", self.swaps as f64),
            ("train_steps", self.train_steps as f64),
            ("gate_rejects", self.gate_rejects as f64),
            ("experiences_accepted", self.experiences_accepted as f64),
            ("experiences_dropped", self.experiences_dropped as f64),
            ("pre_geomean", self.pre_geomean),
            ("post_geomean", self.post_geomean),
        ];
        let flags = [
            ("pre_fingerprints_stable", self.pre_fingerprints_stable),
            ("post_fingerprints_stable", self.post_fingerprints_stable),
            ("versions_pinned", self.versions_pinned),
        ];
        let mut fields = vec![("experiment", json::string("exp_online"))];
        fields.extend(numbers.map(|(name, value)| (name, json::number(value))));
        fields.extend(flags.map(|(name, value)| (name, value.to_string())));
        json::object(1, fields)
    }
}

/// Runs [`online_learning_traced`] without tracing.
pub fn online_learning(scale: &ExperimentScale, workers: usize) -> OnlineReport {
    online_learning_traced(scale, workers, None).0
}

/// The closed online-learning loop, end to end: a fixed module set is
/// served twice at version 0 (replay — per-version determinism), then
/// served in rounds that feed the background trainer until it publishes at
/// least one gate-passing version, then served twice again at the final
/// version. The promotion gate scores candidates with the same noise-free
/// greedy decode the served `Greedy` spec uses, so a published version can
/// never regress the served geomean.
pub fn online_learning_traced(
    scale: &ExperimentScale,
    workers: usize,
    trace_capacity: Option<usize>,
) -> (OnlineReport, Option<TraceSnapshot>) {
    use mlir_rl_ir::ModuleBuilder;
    use rand::SeedableRng;

    let chain = |name: &str, m: u64, n: u64, k: u64| {
        let mut b = ModuleBuilder::new(name);
        let a = b.argument("A", vec![m, k]);
        let w = b.argument("B", vec![k, n]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        b.finish()
    };
    let modules = [
        chain("online_a", 64, 64, 64),
        chain("online_b", 96, 48, 64),
        chain("online_c", 48, 96, 32),
    ];
    let workers = workers.max(1);

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let policy = mlir_rl_agent::PolicyNetwork::new(
        EnvConfig::small(),
        PolicyHyperparams {
            hidden_size: scale.hidden_size,
            backbone_layers: 1,
        },
        &mut rng,
    );
    let online = mlir_rl_agent::OnlineTrainingConfig {
        sample_every: 1,
        capacity: 256,
        // One serving round fills exactly one replay batch, so every train
        // step sees (and probes) the full module set.
        min_batch: modules.len(),
        train_seed: 0xC0DE,
        ppo: PpoConfig {
            trajectories_per_iteration: scale.trajectories_per_iteration.max(2),
            minibatch_size: 4,
            update_epochs: 1,
            ..PpoConfig::paper()
        },
        promotion_gate: true,
        max_probe_modules: 16,
        max_steps: None,
    };
    let mut config = ServiceConfig::quick()
        .with_workers(workers)
        .with_online_training(online);
    if let Some(capacity) = trace_capacity {
        config = config.with_tracing(capacity);
    }
    let service = OptimizationService::new(config, policy);

    // One replay of the workload: greedy requests with fixed seeds.
    // Returns (fingerprints, versions, geomean speedup).
    let replay = |phase_seed: u64| -> (Vec<u64>, Vec<u64>, f64) {
        let requests: Vec<OptimizationRequest> = modules
            .iter()
            .enumerate()
            .map(|(i, module)| {
                OptimizationRequest::new(module.clone(), SearchSpec::Greedy)
                    .with_seed(phase_seed + i as u64)
            })
            .collect();
        let responses = wait_all(&service.submit_batch(requests));
        let mut log_sum = 0.0;
        for response in &responses {
            assert_eq!(response.status, ResponseStatus::Completed);
            let outcome = response.outcome.as_ref().expect("completed");
            log_sum += outcome.speedup.max(f64::MIN_POSITIVE).ln();
        }
        (
            responses.iter().map(|r| r.fingerprint()).collect(),
            responses.iter().map(|r| r.policy_version).collect(),
            (log_sum / responses.len() as f64).exp(),
        )
    };

    // --- pre: two replays at version 0, trainer quiesced ----------------
    service.pause_online_training();
    let (pre_a, pre_versions, pre_geomean) = replay(100);
    let (pre_b, _, _) = replay(100);
    let pre_fingerprints_stable = pre_a == pre_b;
    let mut versions_pinned = pre_versions.iter().all(|&v| v == 0);

    // --- train: serve rounds until the trainer publishes ----------------
    service.resume_online_training();
    let max_rounds = 400usize;
    let mut training_rounds = 0usize;
    while service.policy_swaps() == 0 && training_rounds < max_rounds {
        let requests: Vec<OptimizationRequest> = modules
            .iter()
            .enumerate()
            .map(|(i, module)| {
                OptimizationRequest::new(module.clone(), SearchSpec::Greedy)
                    .with_seed(10_000 + (training_rounds * modules.len() + i) as u64)
            })
            .collect();
        let _ = wait_all(&service.submit_batch(requests));
        training_rounds += 1;
        std::thread::sleep(Duration::from_millis(2));
    }

    // --- post: two replays at the promoted version, trainer quiesced ----
    service.pause_online_training();
    let post_version = service.policy_version();
    let (post_a, post_versions, post_geomean) = replay(100);
    let (post_b, _, _) = replay(100);
    let post_fingerprints_stable = post_a == post_b;
    versions_pinned &= post_versions.iter().all(|&v| v == post_version);

    let stats = service.online_stats().expect("online training is on");
    let metrics = service.metrics();
    let report = OnlineReport {
        modules: modules.len(),
        workers,
        training_rounds,
        pre_version: 0,
        post_version,
        swaps: metrics.policy_swaps,
        train_steps: stats.train_steps,
        gate_rejects: stats.gate_rejects,
        experiences_accepted: metrics.online_experiences_accepted,
        experiences_dropped: metrics.online_experiences_dropped,
        pre_geomean,
        post_geomean,
        pre_fingerprints_stable,
        post_fingerprints_stable,
        versions_pinned,
    };
    let snapshot = service.trace_snapshot();
    (report, snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_space_table_matches_formula() {
        let t = action_space_size();
        assert_eq!(t.rows.len(), 12);
        // N = 3: 3*8^3 + 6 + 2 = 1544.
        assert_eq!(t.rows[2].1[0], 1544.0);
        assert!(t.rows[11].1[0] > t.rows[11].1[1]);
    }

    #[test]
    fn dataset_tables_match_the_paper_counts() {
        let (table2, table5) = datasets();
        assert_eq!(table2.rows.last().unwrap().1[0], 1135.0);
        assert_eq!(table5.rows.len(), 3);
        for (_, row) in &table5.rows {
            assert!(row[0] >= row[1], "total >= conv2d");
        }
    }

    #[test]
    fn smoke_fig5_has_all_operators_and_systems() {
        let table = fig5_operators(&ExperimentScale::smoke());
        assert_eq!(table.rows.len(), 5);
        assert_eq!(table.columns.len(), 4);
        for (_, values) in &table.rows {
            assert!(values.iter().all(|v| v.is_finite() && *v > 0.0));
        }
    }

    #[test]
    fn smoke_table4_runs_and_is_positive() {
        let table = table4_lqcd(&ExperimentScale::smoke());
        assert_eq!(table.rows.len(), 3);
        for (_, values) in &table.rows {
            assert!(values[1] > 1.0, "Mullapudi should beat the baseline");
            assert!(values[0].is_finite());
        }
    }

    #[test]
    fn smoke_rollout_throughput_reports_cache_hits() {
        let report = rollout_throughput(&ExperimentScale::smoke(), 2);
        assert!(report.steps > 0);
        assert!(report.serial_steps_per_sec > 0.0);
        assert!(report.parallel_steps_per_sec > 0.0);
        assert!(
            report.cache_hit_rate > 0.0,
            "repeated baselines must produce cache hits"
        );
        assert!(report.to_string().contains("cache hit-rate"));
        assert!(report.paper_network_clone_us > 0.0 && report.scope_spawn_us > 0.0);
        assert!(report.to_string().contains("network clone"));
        assert!(report.to_json().contains("\"paper_network_clone_us\""));
    }

    #[test]
    fn smoke_nn_throughput_reports_all_paths() {
        let report = nn_throughput(&ExperimentScale::smoke());
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().any(|r| r.batch >= 16));
        for r in &report.rows {
            for v in [
                r.forward_looped,
                r.forward_batched,
                r.infer_looped,
                r.infer_batched,
                r.backward_looped,
                r.backward_batched,
                r.lstm_infer_looped,
                r.lstm_infer_batched,
            ] {
                assert!(v.is_finite() && v > 0.0);
            }
        }
        // The observation-shaped LSTM: real inputs are sparse, and the
        // kernels are faster on them than on dense vectors of that shape.
        assert_eq!(report.feature_len, 3252);
        assert!(report.observation_nnz > 0.0 && report.observation_nnz < 0.05 * 3252.0);
        assert_eq!(report.observation_lstm.len(), 2);
        for r in &report.observation_lstm {
            assert!(r.dense_rows.is_finite() && r.dense_rows > 0.0);
            assert!(
                r.observation_rows >= r.dense_rows,
                "batch {}: {} rows/s on observations, {} on dense vectors",
                r.batch,
                r.observation_rows,
                r.dense_rows
            );
            // The list entry is measured where it runs: at batch 1.
            assert_eq!(r.list_rows.is_some(), r.batch == 1);
            assert!(r.list_rows.is_none_or(|v| v.is_finite() && v > 0.0));
        }
        let printed = report.to_string();
        assert!(printed.contains("nn throughput"));
        assert!(printed.contains("mlp forward"));
        assert!(printed.contains("observation-shaped lstm"));
        assert!(report.to_json().contains("\"observation_lstm\""));
        assert!(report.to_json().contains("\"list_rows\""));
    }

    #[test]
    fn smoke_search_beam_dominates_greedy_on_every_workload() {
        let report = search_speedups(&ExperimentScale::smoke(), 2);
        let greedy_col = report
            .table
            .columns
            .iter()
            .position(|c| c == "greedy-policy")
            .expect("greedy column present");
        let beam_col = report
            .table
            .columns
            .iter()
            .position(|c| c.starts_with("beam-"))
            .expect("beam column present");
        assert!(!report.table.rows.is_empty());
        for (name, values) in &report.table.rows {
            assert!(
                values[beam_col] >= values[greedy_col],
                "beam must be >= greedy on {name}: {} vs {}",
                values[beam_col],
                values[greedy_col]
            );
            assert!(values.iter().all(|v| v.is_finite() && *v > 0.0));
        }
        // The eval budget and the shared-cache hit-rate are reported.
        let printed = report.to_string();
        assert!(printed.contains("shared-cache hit-rate"));
        assert!(printed.contains("evals"));
        for summary in &report.summaries {
            assert!(summary.evaluations <= summary.total_lookups);
        }
    }

    #[test]
    fn smoke_portfolio_reaches_best_of_members_for_less_spend() {
        let report = portfolio_speedups(&ExperimentScale::smoke(), 2);
        assert!(report.modules > 0);
        // The acceptance invariants: the round-robin portfolio reproduces
        // the per-module best of its independently-run members, spends
        // fewer estimator runs doing it (shared warmth), and beats every
        // single member's hit-rate.
        assert_eq!(
            report.best_of_members_matches, report.modules,
            "portfolio must reach the best-of-members speedup on every module"
        );
        assert!(
            report.round_robin.evaluations < report.singles_evaluations,
            "shared warmth must save estimator runs: {} vs {}",
            report.round_robin.evaluations,
            report.singles_evaluations
        );
        assert!(
            report.round_robin.shared_cache_hit_rate > report.singles_hit_rate,
            "portfolio hit-rate {} must beat the members' combined rate {}",
            report.round_robin.shared_cache_hit_rate,
            report.singles_hit_rate
        );
        // Racing determinism: bit-identical outcomes across 1/2/4 workers.
        assert!(report.racing_worker_invariant);
        assert!(report.racing_reached_target > 0);
        assert!(report.racing_mean_winner_lookups > 0.0);
        // Attribution rows cover the whole roster, and every module has a
        // winner in both modes.
        assert_eq!(report.members.len(), 4);
        assert_eq!(
            report.members.iter().map(|m| m.wins).sum::<usize>(),
            report.modules
        );
        assert_eq!(
            report.racing_members.iter().map(|m| m.wins).sum::<usize>(),
            report.modules
        );
        let printed = report.to_string();
        assert!(printed.contains("member attribution"));
        assert!(printed.contains("racing worker-invariance"));
        assert!(printed.contains("bit-identical across 1/2/4 workers"));
        // The machine-readable record behind `exp_portfolio --json`.
        let json = report.to_json();
        assert!(json.contains("\"exp_portfolio\""));
        assert!(json.contains("\"racing_worker_invariant\": true"));
        assert!(json.contains("\"members\""));
    }

    #[test]
    fn smoke_service_warm_beats_cold_and_stays_deterministic() {
        let report = service_throughput(&ExperimentScale::smoke(), 2);
        assert_eq!(report.warm.requests, report.modules * report.rounds);
        assert_eq!(report.cold.requests, report.warm.requests);
        // The acceptance invariants: a warm persistent service amortizes
        // its cache across requests — strictly higher hit-rate and fewer
        // estimator runs than cold per-request services — and responses
        // stay bit-identical across worker counts and submission orders.
        assert!(
            report.warm.hit_rate > report.cold.hit_rate,
            "warm hit-rate {} must beat cold {}",
            report.warm.hit_rate,
            report.cold.hit_rate
        );
        assert!(
            report.warm.evaluations < report.cold.evaluations,
            "cross-request warmth must save estimator runs: {} vs {}",
            report.warm.evaluations,
            report.cold.evaluations
        );
        assert!(report.determinism_invariant);
        let (completed, stopped, skipped, rejected) = report.statuses;
        assert_eq!(completed, report.warm.requests);
        assert_eq!(stopped + skipped + rejected, 0);
        assert!(report.warm.geomean_speedup > 0.0);
        assert_eq!(report.warm.geomean_speedup, report.cold.geomean_speedup);
        let printed = report.to_string();
        assert!(printed.contains("warm-service"));
        assert!(printed.contains("bit-identical"));
        let json = report.to_json();
        assert!(json.contains("\"exp_service\""));
        assert!(json.contains("\"hit_rate\""));
    }

    #[test]
    fn smoke_load_test_reports_tails_and_keeps_the_bounded_queue_flat() {
        let report = load_test(&ExperimentScale::smoke(), 2);
        assert!(report.requests >= report.burst);
        assert!(report.burst > report.queue_capacity);
        let (completed, stopped, skipped, rejected) = report.statuses;
        assert_eq!(
            completed + stopped + skipped + rejected,
            report.requests,
            "every submitted request must be answered"
        );
        assert!(completed > 0);
        assert!(report.geomean_speedup > 0.0);
        // The tail-latency surface is populated (bucket upper bounds are
        // never zero once a sample lands).
        assert!(report.metrics.queue_p99_s > 0.0);
        assert!(report.metrics.service_p99_s > 0.0);
        assert!(report.metrics.queue_p99_s >= report.metrics.queue_p50_s);
        // Bounded-queue memory stays flat under the burst: the high-water
        // mark never exceeds the capacity, while the unbounded service
        // replaying the same arrivals queues at least as much.
        assert!(report.metrics.queue_high_water <= report.queue_capacity as u64);
        assert!(report.unbounded_high_water >= report.metrics.queue_high_water);
        let printed = report.to_string();
        assert!(printed.contains("queue latency"));
        assert!(printed.contains("p99"));
        assert!(printed.contains("backpressure keeps the burst flat"));
        let json = report.to_json();
        assert!(json.contains("\"exp_load\""));
        assert!(json.contains("\"queue_p99_s\""));
        assert!(json.contains("\"service_p99_s\""));
        assert!(json.contains("\"unbounded_high_water\""));
    }

    #[test]
    fn smoke_online_learning_swaps_and_keeps_per_version_determinism() {
        let report = online_learning(&ExperimentScale::smoke(), 2);
        // The loop must close: the trainer published at least one version
        // from served traffic, and the served version advanced.
        assert!(report.swaps >= 1, "no policy version was ever published");
        assert!(report.post_version >= 1);
        assert!(report.train_steps >= 1);
        assert!(report.experiences_accepted >= 1);
        // Per-version determinism and admission pinning.
        assert!(report.pre_fingerprints_stable);
        assert!(report.post_fingerprints_stable);
        assert!(report.versions_pinned);
        // The promotion gate never lets the served geomean regress.
        assert!(report.post_geomean >= report.pre_geomean * (1.0 - 1e-9));
        let printed = report.to_string();
        assert!(printed.contains("swaps published"));
        assert!(printed.contains("no regression"));
        assert!(printed.contains("bit-identical"));
        assert!(printed.contains("pinned at admission"));
        let json = report.to_json();
        assert!(json.contains("\"exp_online\""));
        assert!(json.contains("\"post_geomean\""));
        assert!(json.contains("\"versions_pinned\": true"));
    }

    #[test]
    fn smoke_overhead_reports_three_measurements() {
        let rows = overhead(&ExperimentScale::smoke());
        assert_eq!(rows.len(), 3);
        for (_, seconds) in &rows {
            assert!(*seconds >= 0.0 && *seconds < 60.0);
        }
    }
}

//! The paper's own tables and figures (Secs. IV-A, VII and the appendix
//! tables). Everything here but [`overhead`] is deterministic — the same
//! bits in debug and release builds — and pinned by
//! `tests/golden/paper_{smoke,standard}.json`.

use std::time::Instant;

use mlir_rl_agent::{FlatPolicyNetwork, PolicyModel, PpoTrainer, ValueNetwork};
use mlir_rl_baselines::{
    speedup_over_mlir, Baseline, HalideRl, MullapudiAutoscheduler, VendorLibrary, VendorMode,
};
use mlir_rl_core::{Figure, MlirRlOptimizer, Series, SpeedupTable};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, InterchangeMode, OptimizationEnv, RewardMode};
use mlir_rl_ir::Module;
use mlir_rl_transforms::{flat_action_space_size, multi_discrete_decision_count};
use mlir_rl_workloads::{
    dl_ops, full_training_dataset, lqcd, models, DlOperator, LqcdApplication, NeuralNetwork,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::{ensure_all, report, Report};
use crate::{
    evaluation_modules, optimizer_config, policy_hyperparams, ppo_config, train_mlir_rl,
    ExperimentScale,
};

fn columns(names: &[&str]) -> Vec<String> {
    names.iter().map(|name| name.to_string()).collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The speedups over the untransformed MLIR code on `module`: the trained
/// agent's, then each baseline's.
fn speedup_row(rl: &mut MlirRlOptimizer, baselines: &[&dyn Baseline], module: &Module) -> Vec<f64> {
    let machine = MachineModel::xeon_e5_2680_v4();
    let baseline = |b: &&dyn Baseline| speedup_over_mlir(&b.optimize(module), module, &machine);
    let mut row = vec![rl.optimize(module).speedup];
    row.extend(baselines.iter().map(baseline));
    row
}

/// Reproduces Fig. 5: average speedup over the MLIR baseline per operator
/// family for MLIR RL, Halide RL, PyTorch and the PyTorch compiler.
pub fn fig5_operators(scale: &ExperimentScale) -> SpeedupTable {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 11);
    let mut rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 1);

    let mut table = SpeedupTable::new(
        "Fig. 5: speedups over MLIR baseline per DL operator",
        columns(&["MLIR RL", "Halide RL", "PyTorch", "PyTorch compiler"]),
    );
    let baselines: [&dyn Baseline; 3] = [
        &HalideRl::new(),
        &VendorLibrary::new(VendorMode::Eager),
        &VendorLibrary::new(VendorMode::Compiled),
    ];
    for family in DlOperator::ALL {
        let rows: Vec<Vec<f64>> = dl_ops::evaluation_benchmark()
            .iter()
            .filter(|(kind, _)| *kind == family)
            .map(|(_, module)| speedup_row(&mut rl, &baselines, module))
            .collect();
        let averages = (0..4).map(|c| mean(&rows.iter().map(|row| row[c]).collect::<Vec<_>>()));
        table.push_row(family.name(), averages.collect());
    }
    table
}

/// Reproduces Table III: speedups over the MLIR baseline for ResNet-18,
/// MobileNetV2 and VGG under MLIR RL, PyTorch and the PyTorch compiler.
pub fn table3_models(scale: &ExperimentScale) -> SpeedupTable {
    let dataset = full_training_dataset(scale.dataset_scale, 23);
    let mut rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 2);

    let mut table = SpeedupTable::new(
        "Table III: neural-network models",
        columns(&["MLIR RL", "PyTorch", "PyTorch compiler"]),
    );
    let eager = VendorLibrary::new(VendorMode::Eager);
    let compiled = VendorLibrary::new(VendorMode::Compiled);
    for model in NeuralNetwork::ALL {
        let row = speedup_row(&mut rl, &[&eager, &compiled], &model.module());
        table.push_row(model.name(), row);
    }
    table
}

/// Environment configuration for the deep (up to 12-level) LQCD nests:
/// the paper's, with narrower operand and rank maxima.
fn lqcd_env_config() -> EnvConfig {
    EnvConfig {
        max_operands: 6,
        max_rank: 6,
        ..EnvConfig::paper()
    }
}

/// Reproduces Table IV: speedups over the MLIR baseline on the three LQCD
/// applications for MLIR RL and the Halide autoscheduler (Mullapudi).
pub fn table4_lqcd(scale: &ExperimentScale) -> SpeedupTable {
    let dataset = lqcd::training_dataset(scale.dataset_scale, 31);
    let mut rl = train_mlir_rl(lqcd_env_config(), &dataset, scale, 3);

    let mut table = SpeedupTable::new(
        "Table IV: LQCD applications",
        columns(&["MLIR RL", "Mullapudi"]),
    );
    let mullapudi = MullapudiAutoscheduler::new();
    for app in LqcdApplication::ALL {
        let row = speedup_row(&mut rl, &[&mullapudi], &app.module());
        table.push_row(format!("{} (S = {})", app.name(), app.input_size()), row);
    }
    table
}

/// Reproduces the Sec. VII-D interchange ablation: two agents differing only
/// in the interchange formulation, trained identically and evaluated on the
/// DL-operator benchmark; reports the average speedup of each.
pub fn ablation_interchange(scale: &ExperimentScale) -> SpeedupTable {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 41);
    let eval = evaluation_modules();

    let mut table = SpeedupTable::new(
        "Interchange ablation: average speedup over MLIR baseline",
        columns(&["average speedup"]),
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
        table.push_row(name, vec![mean(&speedups)]);
    }
    table
}

/// Trains `trainer` for `scale.train_iterations` on a fresh environment and
/// returns each iteration's `(cumulative evaluations, geomean speedup)`.
fn training_curve<P: PolicyModel>(
    mut trainer: PpoTrainer<P>,
    env_config: EnvConfig,
    dataset: &[Module],
    scale: &ExperimentScale,
) -> Vec<(f64, f64)> {
    let cost_model = CostModel::new(MachineModel::xeon_e5_2680_v4());
    let mut env = OptimizationEnv::new(env_config, cost_model);
    (0..scale.train_iterations)
        .map(|_| {
            let stats = trainer.train_iteration(&mut env, dataset);
            (stats.cumulative_evaluations as f64, stats.geomean_speedup)
        })
        .collect()
}

/// `curve`'s speedups against the iteration index.
fn by_iteration(name: &str, curve: &[(f64, f64)]) -> Series {
    let mut series = Series::new(name);
    for (i, (_, speedup)) in curve.iter().enumerate() {
        series.push(i as f64, *speedup);
    }
    series
}

/// Reproduces Fig. 6: training-speedup curves of the flat and the
/// multi-discrete action-space formulations.
pub fn fig6_action_space(scale: &ExperimentScale) -> Figure {
    let env_config = EnvConfig::small();
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 51);
    let (hyper, ppo) = (policy_hyperparams(scale), ppo_config(scale));

    let multi_discrete = PpoTrainer::new(&env_config, hyper, ppo, 5);

    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let policy = FlatPolicyNetwork::new(env_config.clone(), hyper, &mut rng);
    let value = ValueNetwork::new(&env_config, hyper, &mut rng);
    let flat = PpoTrainer::with_policy(policy, value, ppo, rng);

    let mut figure = Figure::new(
        "Fig. 6: flat vs multi-discrete action space",
        "training iteration",
        "geomean speedup over MLIR baseline",
    );
    figure.series.push(by_iteration(
        "Multi-Discrete Action Space",
        &training_curve(multi_discrete, env_config.clone(), &dataset, scale),
    ));
    figure.series.push(by_iteration(
        "Flat Action Space",
        &training_curve(flat, env_config, &dataset, scale),
    ));
    figure
}

/// Reproduces Fig. 7: speedup over training iterations (right plot) and over
/// accumulated cost-model evaluations — the proxy for wall-clock training
/// time (left plot) — for the final-reward and immediate-reward agents.
pub fn fig7_reward_modes(scale: &ExperimentScale) -> (Figure, Figure) {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 61);
    let mut over_iterations = Figure::new(
        "Fig. 7 (right): reward modes over iterations",
        "training iteration",
        "geomean speedup",
    );
    let mut over_cost = Figure::new(
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
        let trainer = PpoTrainer::new(&env_config, policy_hyperparams(scale), ppo_config(scale), 7);
        let curve = training_curve(trainer, env_config, &dataset, scale);
        over_iterations.series.push(by_iteration(name, &curve));
        over_cost.series.push(Series {
            name: name.to_string(),
            points: curve,
        });
    }
    (over_iterations, over_cost)
}

report! {
    /// The Sec. VII-B overhead measurements, in seconds per code sample.
    /// Wall-clock, so never pinned — only shape-checked.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct OverheadReport {
        /// Policy inference + scheduling of one DL operator.
        policy_inference_dl_operator_s: f64 = "policy inference + scheduling, DL operator (s/sample)",
        /// Applying an expert schedule to every operation of a DL operator.
        transform_dl_operator_s: f64 = "transformation application, DL operator (s/sample)",
        /// Applying an expert schedule to every operation of an LQCD
        /// application.
        transform_lqcd_application_s: f64 = "transformation application, LQCD application (s/sample)",
    }
}

impl Report for OverheadReport {
    fn check(&self) -> Result<(), String> {
        let measured = |seconds: f64| seconds.is_finite() && seconds > 0.0;
        ensure_all!(
            measured(self.policy_inference_dl_operator_s),
            measured(self.transform_dl_operator_s),
            measured(self.transform_lqcd_application_s),
        )
    }
}

/// Reproduces the Sec. VII-B overhead measurements: average policy-inference
/// time and transformation-application time per code sample, for single DL
/// operators and for the LQCD applications.
pub fn overhead(scale: &ExperimentScale) -> OverheadReport {
    let untrained = ExperimentScale {
        train_iterations: 0,
        ..*scale
    };
    let mut rl = MlirRlOptimizer::new(optimizer_config(EnvConfig::small(), &untrained, 8));
    let operators = &evaluation_modules()[..6];
    let start = Instant::now();
    for module in operators {
        let _ = rl.optimize(module);
    }
    let policy_inference_dl_operator_s = start.elapsed().as_secs_f64() / operators.len() as f64;

    let vendor = VendorLibrary::new(VendorMode::Compiled);
    let dl_module = dl_ops::matmul_module(512, 512, 512);
    let start = Instant::now();
    for _ in 0..10 {
        let _ = vendor.optimize(&dl_module);
    }
    let transform_dl_operator_s = start.elapsed().as_secs_f64() / 10.0;

    let lqcd_module = LqcdApplication::HexaquarkHexaquark.module();
    let start = Instant::now();
    let result = vendor.optimize(&lqcd_module);
    let transform_lqcd_application_s = start.elapsed().as_secs_f64();
    // Keep the result alive so the optimizer work is not optimized away.
    let _ = mlir_rl_baselines::evaluate(&result, &MachineModel::xeon_e5_2680_v4());

    OverheadReport {
        policy_inference_dl_operator_s,
        transform_dl_operator_s,
        transform_lqcd_application_s,
    }
}

/// Reproduces Table II (training-set composition per DL operator) and
/// Table V (operator composition of the benchmark models).
pub fn datasets() -> (SpeedupTable, SpeedupTable) {
    let mut table2 = SpeedupTable::new(
        "Table II: single-operator training set",
        columns(&["training examples"]),
    );
    for (op, count) in dl_ops::dataset_composition(1.0) {
        table2.push_row(op.name(), vec![count as f64]);
    }
    table2.push_row("Total", vec![1135.0]);

    let kinds = ["total", "conv2d", "pool", "matmul", "generic"];
    let mut table5 = SpeedupTable::new(
        "Table V: operator composition of the benchmarked models",
        columns(&kinds),
    );
    for model in NeuralNetwork::ALL {
        let composition = models::op_composition(&model.module());
        let counts = kinds.map(|kind| composition.get(kind).copied().unwrap_or(0) as f64);
        table5.push_row(model.name(), counts.to_vec());
    }
    (table2, table5)
}

/// Reproduces the Sec. IV-A action-space size accounting: the flat action
/// space `|A| = 3 M^N + N! + 2` against the number of multi-discrete
/// decisions, for N = 1..=12 and M = 8.
pub fn action_space_size() -> SpeedupTable {
    let mut table = SpeedupTable::new(
        "Action-space size: flat vs multi-discrete (M = 8)",
        columns(&[
            "flat |A|",
            "multi-discrete (level pointers)",
            "multi-discrete (enumerated)",
        ]),
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

//! # mlir-rl-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (Sec. VII) plus the engine experiments the repo grew around
//! it, all run by the one `exp` binary (`exp list`, `exp <name>`,
//! `exp paper`) through the [`registry`].
//!
//! * [`paper`] — the paper's tables and figures; deterministic, and pinned
//!   bit for bit by `tests/golden/paper_{smoke,standard}.json`.
//! * [`throughput`], [`train`], [`lookup`], [`nn`], [`search`], [`service`],
//!   [`load`], [`online`] — the engine experiments; timing-dependent, so each report
//!   type owns a [`report::Report::check`] with its run invariants instead
//!   of a pin.
//! * [`report`] — every report lists its fields once; one renderer prints
//!   both the text and the `--json` form.
//! * [`scale`], [`cli`] — the [`ExperimentScale`] and the strict argument
//!   and environment reader.
//!
//! Every experiment is parameterized by an [`ExperimentScale`] so the same
//! code runs in milliseconds (`ExperimentScale::smoke`, used in tests and
//! CI), a fraction of a second (`ExperimentScale::standard`, the binary's
//! default) or much longer (`ExperimentScale::full`, approaching the
//! paper's training budget).

#![warn(missing_docs)]

pub mod cli;
pub mod load;
pub mod lookup;
pub mod nn;
pub mod online;
pub mod paper;
pub mod registry;
pub mod report;
pub mod scale;
pub mod search;
pub mod service;
pub mod throughput;
pub mod train;

use mlir_rl_agent::{PolicyHyperparams, PpoConfig};
use mlir_rl_core::{MlirRlOptimizer, OptimizationResponse, OptimizerConfig, ResponseStatus};
use mlir_rl_costmodel::MachineModel;
use mlir_rl_env::EnvConfig;
use mlir_rl_ir::Module;
use mlir_rl_obs::{recorder_overhead_ns, TraceSnapshot};
use mlir_rl_workloads::dl_ops;

pub use registry::{paper_document, EXPERIMENTS};
pub use scale::ExperimentScale;

fn policy_hyperparams(scale: &ExperimentScale) -> PolicyHyperparams {
    PolicyHyperparams {
        hidden_size: scale.hidden_size,
        backbone_layers: 2,
    }
}

fn ppo_config(scale: &ExperimentScale) -> PpoConfig {
    PpoConfig {
        trajectories_per_iteration: scale.trajectories_per_iteration,
        minibatch_size: 16,
        update_epochs: 2,
        ..PpoConfig::paper()
    }
}

fn optimizer_config(env: EnvConfig, scale: &ExperimentScale, seed: u64) -> OptimizerConfig {
    OptimizerConfig {
        env,
        machine: MachineModel::xeon_e5_2680_v4(),
        hyper: policy_hyperparams(scale),
        ppo: ppo_config(scale),
        seed,
    }
}

/// Trains an MLIR RL optimizer on the given dataset and returns it.
fn train_mlir_rl(
    env: EnvConfig,
    dataset: &[Module],
    scale: &ExperimentScale,
    seed: u64,
) -> MlirRlOptimizer {
    let mut opt = MlirRlOptimizer::new(optimizer_config(env, scale, seed));
    opt.train(dataset, scale.train_iterations);
    opt
}

/// The Sec. VII-A-2 DL-operator evaluation workloads, without their
/// operator-family tags.
fn evaluation_modules() -> Vec<Module> {
    dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, module)| module)
        .collect()
}

/// Geometric mean of `speedups` (1.0 for none).
fn geomean(speedups: impl Iterator<Item = f64>) -> f64 {
    let (count, log_sum) = speedups.fold((0usize, 0.0), |(count, sum), speedup| {
        (count + 1, sum + speedup.max(1e-12).ln())
    });
    if count == 0 {
        1.0
    } else {
        (log_sum / count as f64).exp()
    }
}

/// `(completed, stopped, skipped, rejected)` counts of a served stream.
pub type Statuses = (usize, usize, usize, usize);

fn count_statuses(responses: &[OptimizationResponse]) -> Statuses {
    let count = |status| responses.iter().filter(|r| r.status == status).count();
    (
        count(ResponseStatus::Completed),
        count(ResponseStatus::Stopped),
        count(ResponseStatus::Skipped),
        count(ResponseStatus::Rejected),
    )
}

/// Per-ring event capacity the `--trace` flag uses: large enough to hold
/// every smoke/standard stream without drops, small enough that the rings
/// stay a few MiB.
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

#[cfg(test)]
mod tests {
    use super::paper::*;
    use super::report::Report;
    use super::*;

    /// The smoke-scale run with two workers every test below checks.
    fn smoke(name: &str) -> Box<dyn Report> {
        let args = cli::ExpArgs::new(ExperimentScale::smoke(), 2);
        (registry::find(name).expect("a registered experiment").run)(&args).0
    }

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
    fn smoke_overhead_reports_three_measurements() {
        let report = smoke("overhead");
        assert_eq!(report.rows().len(), 3);
        assert_eq!(report.check(), Ok(()));
    }

    #[test]
    fn smoke_rollout_throughput_reports_cache_hits() {
        assert_eq!(smoke("rollout_throughput").check(), Ok(()));
    }

    #[test]
    fn smoke_train_split_collects_the_same_trajectories_both_ways() {
        assert_eq!(smoke("train_split").check(), Ok(()));
    }

    #[test]
    fn smoke_nn_throughput_reports_all_paths() {
        assert_eq!(smoke("nn_throughput").check(), Ok(()));
    }

    #[test]
    fn smoke_search_beam_dominates_greedy_on_every_workload() {
        assert_eq!(smoke("search").check(), Ok(()));
    }

    #[test]
    fn smoke_portfolio_reaches_best_of_members_for_less_spend() {
        assert_eq!(smoke("portfolio").check(), Ok(()));
    }

    #[test]
    fn smoke_service_warm_beats_cold_and_stays_deterministic() {
        assert_eq!(smoke("service").check(), Ok(()));
    }

    #[test]
    fn smoke_load_test_reports_tails_and_keeps_the_bounded_queue_flat() {
        assert_eq!(smoke("load").check(), Ok(()));
    }

    #[test]
    fn smoke_online_learning_swaps_and_keeps_per_version_determinism() {
        assert_eq!(smoke("online").check(), Ok(()));
    }

    #[test]
    fn a_broken_invariant_fails_its_check_with_a_reason() {
        let mut report = throughput::rollout_throughput(&ExperimentScale::smoke(), 1);
        report.paper_network_clone_us = 6_000.0;
        let problem = report.check().expect_err("a deep-copying clone must fail");
        assert!(
            problem.contains("paper_network_clone_us < 500.0"),
            "{problem}"
        );
    }
}

//! Adapter exposing the comparison systems of `mlir-rl-baselines` through
//! the [`Searcher`] interface, so batch comparisons (and the `exp_search`
//! harness) treat the paper's baselines and the schedule searchers
//! uniformly.

use mlir_rl_agent::PolicyModel;
use mlir_rl_baselines::{evaluate, mlir_baseline_time, Baseline};
use mlir_rl_env::OptimizationEnv;
use mlir_rl_ir::Module;

use crate::searcher::{SearchOutcome, Searcher, StopToken};

/// Wraps a [`Baseline`] scheduler (vendor library, Mullapudi, Halide RL) as
/// a [`Searcher`]. The baseline produces one schedule per module with its
/// own code-generation quality; it is evaluated with the baseline crate's
/// cost model (not the environment's cache — the quality differs), so
/// `evaluations` counts its two direct estimator runs and `cache_hits` is
/// zero.
#[derive(Debug, Clone)]
pub struct BaselineSearcher<B> {
    baseline: B,
}

impl<B: Baseline> BaselineSearcher<B> {
    /// Wraps a baseline scheduler.
    pub fn new(baseline: B) -> Self {
        Self { baseline }
    }
}

impl<B, P> Searcher<P> for BaselineSearcher<B>
where
    B: Baseline + Send + Sync,
    P: PolicyModel,
{
    fn name(&self) -> String {
        self.baseline.name()
    }

    fn search_with_stop(
        &self,
        env: &mut OptimizationEnv,
        _policy: &mut P,
        module: &Module,
        _seed: u64,
        _stop: &StopToken,
    ) -> SearchOutcome {
        let machine = env.cost_model().machine().clone();
        let result = self.baseline.optimize(module);
        let best_s = evaluate(&result, &machine);
        let baseline_s = mlir_baseline_time(module, &machine);
        SearchOutcome {
            searcher: self.baseline.name(),
            module: module.name().to_string(),
            baseline_s,
            best_s,
            speedup: baseline_s / best_s.max(1e-12),
            best_actions: Vec::new(),
            best_schedule: result
                .scheduled
                .states()
                .iter()
                .map(|s| s.schedule.clone())
                .collect(),
            nodes_expanded: 1,
            evaluations: 2,
            cache_hits: 0,
            members: Vec::new(),
        }
    }
}

//! High-level optimizer facade: train an MLIR RL agent and use it to
//! optimize modules, mirroring how the released artifact wraps the trained
//! policy behind `scripts/evaluate.sh`.
//!
//! Deployment goes through the request/response serving layer
//! ([`crate::service`]): the facade lazily builds an internal
//! [`OptimizationService`] (one worker, sharing the facade's evaluation
//! cache and current policy snapshot), submits
//! [`OptimizationRequest`]s to it, and unwraps the responses. The original
//! per-method entry points — [`MlirRlOptimizer::optimize`],
//! [`MlirRlOptimizer::search`], [`MlirRlOptimizer::optimize_all`],
//! [`MlirRlOptimizer::optimize_batch`], [`MlirRlOptimizer::portfolio`],
//! [`MlirRlOptimizer::optimize_portfolio_batch`] — are **kept as thin
//! deprecated wrappers** for compatibility; new code should submit
//! requests with a [`mlir_rl_search::SearchSpec`] instead:
//!
//! | deprecated facade method          | service equivalent                                   |
//! |-----------------------------------|------------------------------------------------------|
//! | `optimize(m)`                     | `submit(Request::new(m, SearchSpec::Greedy))`        |
//! | `optimize_all(ms)`                | `submit_batch` of greedy requests                    |
//! | `search(m, &searcher)`            | `SearchSpec` request, or `run_searcher` for custom objects |
//! | `optimize_batch(ms, &s, w)`       | `submit_batch`, or `run_searcher_batch` for custom objects |
//! | `portfolio(m, &p)`                | `submit` with `SearchSpec::Portfolio { .. }`         |
//! | `optimize_portfolio_batch(..)`    | `submit_batch` with `SearchSpec::Portfolio { .. }`   |

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use mlir_rl_agent::PolicyNetwork;
use mlir_rl_agent::{IterationStats, PolicyHyperparams, PpoConfig, PpoTrainer};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, EpisodeStats, OptimizationEnv};
use mlir_rl_ir::Module;
use mlir_rl_search::{BatchSearchReport, Portfolio, SearchOutcome, SearchSpec, Searcher};

use crate::service::{
    wait_all, OptimizationRequest, OptimizationService, PendingResponse, ServiceConfig,
};

/// The outcome of optimizing one module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizationOutcome {
    /// Baseline (untransformed) execution-time estimate, seconds.
    pub baseline_s: f64,
    /// Optimized execution-time estimate, seconds.
    pub optimized_s: f64,
    /// Speedup over the baseline.
    pub speedup: f64,
    /// Environment steps used.
    pub steps: usize,
}

impl From<EpisodeStats> for OptimizationOutcome {
    fn from(stats: EpisodeStats) -> Self {
        Self {
            baseline_s: stats.baseline_s,
            optimized_s: stats.final_s,
            speedup: stats.speedup,
            steps: stats.steps,
        }
    }
}

impl From<&SearchOutcome> for OptimizationOutcome {
    fn from(outcome: &SearchOutcome) -> Self {
        Self {
            baseline_s: outcome.baseline_s,
            optimized_s: outcome.best_s,
            speedup: outcome.speedup,
            steps: outcome.nodes_expanded,
        }
    }
}

/// Configuration of the [`MlirRlOptimizer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Environment configuration (action space, feature sizes, reward mode).
    pub env: EnvConfig,
    /// Machine the cost model targets.
    pub machine: MachineModel,
    /// Policy/value network sizes.
    pub hyper: PolicyHyperparams,
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// Random seed.
    pub seed: u64,
}

impl OptimizerConfig {
    /// The paper-faithful configuration (large networks, 64-trajectory
    /// iterations). Training at this size takes a long time on one machine.
    pub fn paper() -> Self {
        Self {
            env: EnvConfig::paper(),
            machine: MachineModel::xeon_e5_2680_v4(),
            hyper: PolicyHyperparams::paper(),
            ppo: PpoConfig::paper(),
            seed: 0,
        }
    }

    /// A laptop-scale configuration used by the examples and the benchmark
    /// harness: small feature space, small networks, few trajectories.
    pub fn quick() -> Self {
        Self {
            env: EnvConfig::small(),
            machine: MachineModel::xeon_e5_2680_v4(),
            hyper: PolicyHyperparams {
                hidden_size: 32,
                backbone_layers: 2,
            },
            ppo: PpoConfig {
                trajectories_per_iteration: 12,
                minibatch_size: 16,
                update_epochs: 2,
                ..PpoConfig::paper()
            },
            seed: 0,
        }
    }
}

/// The end-to-end optimizer: an environment plus a PPO-trained agent.
///
/// Deployment entry points route through an internal
/// [`OptimizationService`] that shares the optimizer's evaluation cache, so
/// warmth persists across `optimize`/`search`/batch calls and across
/// directly submitted requests alike. Training invalidates the service's
/// policy snapshot; the next deployment call rebuilds it (the cache
/// survives).
#[derive(Debug)]
pub struct MlirRlOptimizer {
    config: OptimizerConfig,
    env: OptimizationEnv,
    trainer: PpoTrainer<PolicyNetwork>,
    rng: ChaCha8Rng,
    service: Option<OptimizationService>,
}

impl MlirRlOptimizer {
    /// Creates an untrained optimizer.
    pub fn new(config: OptimizerConfig) -> Self {
        let env = OptimizationEnv::new(config.env.clone(), CostModel::new(config.machine.clone()));
        let trainer = PpoTrainer::new(&config.env, config.hyper, config.ppo, config.seed);
        let rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(97));
        Self {
            config,
            env,
            trainer,
            rng,
            service: None,
        }
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// The current policy network (e.g. to drive a
    /// [`mlir_rl_search::SearchDriver`] directly with custom environment
    /// templates).
    pub fn policy(&self) -> &PolicyNetwork {
        &self.trainer.policy
    }

    /// Per-iteration training history.
    pub fn training_history(&self) -> &[IterationStats] {
        self.trainer.history()
    }

    /// Trains the agent for the given number of PPO iterations on a dataset
    /// of modules. Invalidates the internal service's policy snapshot (the
    /// evaluation cache survives — it is keyed by module/schedule
    /// fingerprints, not by the policy).
    pub fn train(&mut self, dataset: &[Module], iterations: usize) -> Vec<IterationStats> {
        self.service = None;
        self.trainer.train(&mut self.env, dataset, iterations)
    }

    /// The internal single-worker [`OptimizationService`] the deployment
    /// wrappers submit to, built on first use from the current policy and
    /// the optimizer's evaluation cache (the service's workers join the
    /// optimizer's own table, so warmth flows both ways).
    pub fn service(&mut self) -> &OptimizationService {
        if self.service.is_none() {
            self.service = Some(OptimizationService::from_env_template(
                &self.env,
                self.trainer.policy.clone(),
                1,
            ));
        }
        self.service.as_ref().expect("just built")
    }

    /// Builds a standalone [`OptimizationService`] with `workers` worker
    /// threads, serving the current policy snapshot on the optimizer's
    /// shared evaluation cache — the deployment hand-off: train here, then
    /// serve requests from the returned service while the optimizer keeps
    /// training or goes away entirely.
    pub fn spawn_service(&mut self, workers: usize) -> OptimizationService {
        OptimizationService::from_env_template(&self.env, self.trainer.policy.clone(), workers)
    }

    /// Like [`MlirRlOptimizer::spawn_service`], but with the serving knobs
    /// (worker count, queue bound, per-client quota and weights, eval
    /// budget, paused start) taken from `config`. The config's
    /// `env`/`machine` fields are ignored: the optimizer's own environment
    /// provides them, so the returned service shares this optimizer's warm
    /// evaluation cache.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ServiceConfig::try_validate`] (zero
    /// queue capacity, quota or client weight).
    pub fn spawn_service_with(&mut self, config: &ServiceConfig) -> OptimizationService {
        config.try_validate().expect("invalid service config");
        OptimizationService::from_env_template_with(&self.env, self.trainer.policy.clone(), config)
    }

    /// Submits one [`OptimizationRequest`] to the internal service.
    pub fn submit(&mut self, request: OptimizationRequest) -> PendingResponse {
        self.service().submit(request)
    }

    /// Submits a batch of requests to the internal service.
    pub fn submit_batch(&mut self, requests: Vec<OptimizationRequest>) -> Vec<PendingResponse> {
        self.service().submit_batch(requests)
    }

    /// Draws the next deployment seed (each wrapper call consumes exactly
    /// one, preserving the pre-service seed sequence).
    fn next_seed(&mut self) -> u64 {
        use rand::Rng;
        self.rng.gen()
    }

    /// Optimizes one module by greedy policy decoding (the paper's
    /// deployment behavior).
    ///
    /// **Deprecated in favor of the service API**: submit
    /// `OptimizationRequest::new(module, SearchSpec::Greedy)` via
    /// [`MlirRlOptimizer::submit`] (this wrapper does exactly that).
    pub fn optimize(&mut self, module: &Module) -> OptimizationOutcome {
        let seed = self.next_seed();
        let response = self
            .submit(OptimizationRequest::new(module.clone(), SearchSpec::Greedy).with_seed(seed))
            .wait();
        (&response
            .outcome
            .expect("a valid greedy request always completes"))
            .into()
    }

    /// Searches the schedule space of one module with any [`Searcher`]
    /// object (beam, MCTS, random, a baseline adapter, ...) guided by the
    /// current policy. The service's evaluation cache stays warm across
    /// calls.
    ///
    /// **Deprecated in favor of the service API**: submit a
    /// [`SearchSpec`] request, or use
    /// [`OptimizationService::run_searcher`] for custom searcher objects
    /// that have no spec (this wrapper routes there).
    pub fn search(
        &mut self,
        module: &Module,
        searcher: &dyn Searcher<PolicyNetwork>,
    ) -> SearchOutcome {
        let seed = self.next_seed();
        self.service().run_searcher(searcher, module, seed)
    }

    /// Optimizes a batch of modules, returning `(module name, outcome)`
    /// pairs.
    ///
    /// **Deprecated in favor of the service API**: this is
    /// [`MlirRlOptimizer::submit_batch`] of greedy requests (one seed per
    /// module, in order) plus a blocking [`wait_all`].
    pub fn optimize_all(&mut self, modules: &[Module]) -> Vec<(String, OptimizationOutcome)> {
        let requests: Vec<OptimizationRequest> = modules
            .iter()
            .map(|m| {
                let seed = self.next_seed();
                OptimizationRequest::new(m.clone(), SearchSpec::Greedy).with_seed(seed)
            })
            .collect();
        let pending = self.submit_batch(requests);
        wait_all(&pending)
            .into_iter()
            .map(|response| {
                let outcome = response
                    .outcome
                    .expect("a valid greedy request always completes");
                (response.module, (&outcome).into())
            })
            .collect()
    }

    /// Optimizes a batch of modules with a [`Searcher`] object, fanned out
    /// over `workers` threads; all searches share the service's persistent
    /// evaluation cache. Outcomes are identical for any worker count.
    ///
    /// **Deprecated in favor of the service API**: submit a batch of
    /// [`SearchSpec`] requests, or use
    /// [`OptimizationService::run_searcher_batch`] for custom searcher
    /// objects (this wrapper routes there).
    pub fn optimize_batch(
        &mut self,
        modules: &[Module],
        searcher: &dyn Searcher<PolicyNetwork>,
        workers: usize,
    ) -> BatchSearchReport {
        let base_seed = self.next_seed();
        self.service()
            .run_searcher_batch(searcher, modules, base_seed, workers)
    }

    /// Optimizes one module with a [`Portfolio`] of searchers, returning
    /// the best schedule any member found with per-member attribution in
    /// [`SearchOutcome::members`].
    ///
    /// **Deprecated in favor of the service API**: submit an
    /// `OptimizationRequest` with `SearchSpec::Portfolio { .. }`.
    pub fn portfolio(
        &mut self,
        module: &Module,
        portfolio: &Portfolio<PolicyNetwork>,
    ) -> SearchOutcome {
        self.search(module, portfolio)
    }

    /// Optimizes a batch of modules with a [`Portfolio`] fanned out over
    /// `workers` threads; every module and every roster member shares the
    /// service's persistent evaluation cache. Outcomes are identical for
    /// any worker count.
    ///
    /// **Deprecated in favor of the service API**: submit a batch of
    /// `SearchSpec::Portfolio { .. }` requests.
    pub fn optimize_portfolio_batch(
        &mut self,
        modules: &[Module],
        portfolio: &Portfolio<PolicyNetwork>,
        workers: usize,
    ) -> BatchSearchReport {
        let base_seed = self.next_seed();
        self.service()
            .run_searcher_batch(portfolio, modules, base_seed, workers)
    }

    /// Average policy-inference plus transformation-application time per
    /// code sample over the given modules, in seconds (the Sec. VII-B
    /// overhead measurement).
    pub fn compilation_overhead_s(&mut self, modules: &[Module]) -> f64 {
        if modules.is_empty() {
            return 0.0;
        }
        let start = std::time::Instant::now();
        for module in modules {
            let _ = self.optimize(module);
        }
        start.elapsed().as_secs_f64() / modules.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_ir::ModuleBuilder;
    use mlir_rl_search::GreedyPolicy;

    fn tiny_dataset() -> Vec<Module> {
        (0..3)
            .map(|i| {
                let size = 64 * (i + 1) as u64;
                let mut b = ModuleBuilder::new(format!("mm{size}"));
                let a = b.argument("A", vec![size, size]);
                let w = b.argument("B", vec![size, size]);
                let mm = b.matmul(a, w);
                b.relu(mm);
                b.finish()
            })
            .collect()
    }

    fn tiny_config() -> OptimizerConfig {
        OptimizerConfig {
            hyper: PolicyHyperparams {
                hidden_size: 16,
                backbone_layers: 1,
            },
            ppo: PpoConfig {
                trajectories_per_iteration: 2,
                minibatch_size: 4,
                update_epochs: 1,
                ..PpoConfig::paper()
            },
            ..OptimizerConfig::quick()
        }
    }

    #[test]
    fn untrained_optimizer_produces_valid_outcomes() {
        let mut opt = MlirRlOptimizer::new(tiny_config());
        let modules = tiny_dataset();
        let outcome = opt.optimize(&modules[0]);
        assert!(outcome.baseline_s > 0.0);
        assert!(outcome.speedup > 0.0);
        assert!(outcome.steps > 0);
    }

    #[test]
    fn training_then_batch_evaluation() {
        let mut opt = MlirRlOptimizer::new(tiny_config());
        let modules = tiny_dataset();
        let history = opt.train(&modules, 2);
        assert_eq!(history.len(), 2);
        assert_eq!(opt.training_history().len(), 2);
        let results = opt.optimize_all(&modules);
        assert_eq!(results.len(), 3);
        for (name, outcome) in &results {
            assert!(!name.is_empty());
            assert!(outcome.speedup.is_finite());
        }
    }

    #[test]
    fn search_and_batch_driver_work_through_the_facade() {
        let mut opt = MlirRlOptimizer::new(tiny_config());
        let modules = tiny_dataset();
        let greedy = opt.optimize(&modules[0]);
        let beam = opt.search(&modules[0], &mlir_rl_search::BeamSearch::new(4));
        assert!(
            beam.speedup >= greedy.speedup,
            "beam search is seeded with the greedy trajectory"
        );
        let report = opt.optimize_batch(&modules, &mlir_rl_search::BeamSearch::new(2), 2);
        assert_eq!(report.outcomes.len(), modules.len());
        assert!(report.geomean_speedup() > 0.0);
        assert!(report.shared_cache_hits + report.shared_cache_misses > 0);
    }

    #[test]
    fn portfolio_entry_points_work_through_the_facade() {
        use mlir_rl_search::{BeamSearch, Mcts};
        let mut opt = MlirRlOptimizer::new(tiny_config());
        let modules = tiny_dataset();
        let roster = || {
            Portfolio::round_robin()
                .with_member(GreedyPolicy)
                .with_member(BeamSearch::new(2))
                .with_member(Mcts::new(4).with_branch(2))
        };
        let outcome = opt.portfolio(&modules[0], &roster());
        assert_eq!(outcome.members.len(), 3);
        let greedy = opt.optimize(&modules[0]);
        assert!(
            outcome.speedup >= greedy.speedup,
            "a greedy-seeded portfolio is never worse than greedy"
        );
        let report = opt.optimize_portfolio_batch(&modules, &roster(), 2);
        assert_eq!(report.outcomes.len(), modules.len());
        let attribution = report.member_attribution();
        assert_eq!(attribution.len(), 3);
        assert_eq!(
            attribution.iter().map(|m| m.wins).sum::<usize>(),
            modules.len()
        );
    }

    #[test]
    fn compilation_overhead_is_measured() {
        let mut opt = MlirRlOptimizer::new(tiny_config());
        let modules = tiny_dataset();
        let overhead = opt.compilation_overhead_s(&modules[..1]);
        assert!(overhead > 0.0 && overhead < 10.0);
        assert_eq!(opt.compilation_overhead_s(&[]), 0.0);
    }

    #[test]
    fn config_presets() {
        let paper = OptimizerConfig::paper();
        assert_eq!(paper.env.max_loops, 12);
        assert_eq!(paper.hyper.hidden_size, 512);
        let quick = OptimizerConfig::quick();
        assert!(quick.hyper.hidden_size < paper.hyper.hidden_size);
    }
}

//! High-level optimizer facade: train an MLIR RL agent and use it to
//! optimize modules, mirroring how the released artifact wraps the trained
//! policy behind `scripts/evaluate.sh`.
//!
//! Train here, serve there: [`MlirRlOptimizer::train`] runs PPO, and
//! [`MlirRlOptimizer::optimize`] is the paper's one call — greedy decoding
//! of one module, answered by an internal single-worker
//! [`OptimizationService`] on the optimizer's own evaluation cache. Anything
//! else (other searchers, batches, priorities, deadlines) is a request to
//! that service or to one from [`MlirRlOptimizer::spawn_service`].

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::PolicyNetwork;
use mlir_rl_agent::{IterationStats, PolicyHyperparams, PpoConfig, PpoTrainer};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, OptimizationEnv};
use mlir_rl_ir::Module;
use mlir_rl_search::{SearchOutcome, SearchSpec};

use crate::service::{OptimizationRequest, OptimizationService, PendingResponse, ServiceConfig};

/// The outcome of optimizing one module.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
/// [`MlirRlOptimizer::optimize`] and [`MlirRlOptimizer::submit`] route
/// through an internal [`OptimizationService`] that shares the optimizer's
/// evaluation cache, so warmth persists across calls. Training invalidates
/// the service's policy snapshot; the next call rebuilds it (the cache
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

    /// The internal single-worker [`OptimizationService`] that
    /// [`MlirRlOptimizer::optimize`] and [`MlirRlOptimizer::submit`] use,
    /// built on first use from the current policy and
    /// the optimizer's evaluation cache (the service's workers join the
    /// optimizer's own table, so warmth flows both ways).
    pub fn service(&mut self) -> &OptimizationService {
        if self.service.is_none() {
            self.service = Some(self.spawn_service(1));
        }
        self.service.as_ref().expect("just built")
    }

    /// Builds a standalone [`OptimizationService`] with `workers` worker
    /// threads, serving the current policy snapshot on the optimizer's
    /// shared evaluation cache — the deployment hand-off: train here, then
    /// serve requests from the returned service while the optimizer keeps
    /// training or goes away entirely.
    pub fn spawn_service(&mut self, workers: usize) -> OptimizationService {
        self.spawn_service_with(&ServiceConfig::quick().with_workers(workers))
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
        OptimizationService::from_env_template(&self.env, self.trainer.policy.clone(), config)
    }

    /// Submits one [`OptimizationRequest`] to the internal service.
    pub fn submit(&mut self, request: OptimizationRequest) -> PendingResponse {
        self.service().submit(request)
    }

    /// Submits a batch of requests to the internal service.
    pub fn submit_batch(&mut self, requests: Vec<OptimizationRequest>) -> Vec<PendingResponse> {
        self.service().submit_batch(requests)
    }

    /// Optimizes one module by greedy policy decoding — the paper's
    /// deployment call: `OptimizationRequest::new(module, SearchSpec::Greedy)`
    /// submitted to the internal service, with a seed drawn from the
    /// optimizer's own stream (exactly one draw per call).
    pub fn optimize(&mut self, module: &Module) -> OptimizationOutcome {
        use rand::Rng;
        let seed = self.rng.gen();
        let response = self
            .submit(OptimizationRequest::new(module.clone(), SearchSpec::Greedy).with_seed(seed))
            .wait();
        (&response
            .outcome
            .expect("a valid greedy request always completes"))
            .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_ir::ModuleBuilder;

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
        for module in &modules {
            assert!(opt.optimize(module).speedup.is_finite());
        }
    }

    #[test]
    fn spec_requests_share_the_facade_service() {
        let mut opt = MlirRlOptimizer::new(tiny_config());
        let modules = tiny_dataset();
        let greedy = opt.optimize(&modules[0]);
        let submit = |opt: &mut MlirRlOptimizer, spec| {
            opt.submit(OptimizationRequest::new(modules[0].clone(), spec))
                .wait()
        };
        let beam = submit(&mut opt, SearchSpec::beam(4));
        assert!(
            beam.speedup() >= greedy.speedup,
            "beam search is seeded with the greedy trajectory"
        );
        assert!(beam.cache_hits > 0, "the greedy call warmed the one cache");
        let roster = vec![
            SearchSpec::Greedy,
            SearchSpec::beam(2),
            SearchSpec::mcts(4, 2),
        ];
        let portfolio = submit(&mut opt, SearchSpec::round_robin(roster));
        let outcome = portfolio.outcome.expect("completed");
        assert_eq!(outcome.members.len(), 3);
        assert!(
            outcome.speedup >= greedy.speedup,
            "a greedy-seeded portfolio is never worse than greedy"
        );
        let batch = opt.submit_batch(
            (modules.iter().cloned())
                .map(|m| OptimizationRequest::new(m, SearchSpec::beam(2)))
                .collect(),
        );
        assert_eq!(crate::service::wait_all(&batch).len(), modules.len());
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

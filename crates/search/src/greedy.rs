//! Greedy policy decoding — the paper's deployment behavior.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::PolicyModel;
use mlir_rl_env::{Action, OptimizationEnv};
use mlir_rl_ir::Module;
use mlir_rl_obs::EventKind;

use crate::searcher::{
    finish_outcome, reseed_for_search, BestFound, LookupMeter, SearchOutcome, Searcher, StopToken,
};

/// Greedy decoding: one episode taking the policy's most probable action at
/// every step. Zero search on top of the policy; every other searcher is
/// measured against this.
///
/// Greedy selection consumes **no** RNG draws.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyPolicy;

/// One greedy episode. Shared with [`crate::BeamSearch`], which seeds its
/// best-so-far with the greedy trajectory.
pub(crate) struct GreedyRollout {
    pub(crate) actions: Vec<Action>,
    /// Noise-free estimate of the untransformed schedule.
    pub(crate) baseline_s: f64,
    /// Noise-free estimate of the final schedule.
    pub(crate) final_s: f64,
    pub(crate) steps: usize,
}

/// Runs one greedy episode, scoring the baseline and the final schedule
/// through the noise-free cache peek.
pub(crate) fn greedy_rollout<P: PolicyModel>(
    env: &mut OptimizationEnv,
    policy: &mut P,
    module: &Arc<Module>,
    rng: &mut ChaCha8Rng,
) -> GreedyRollout {
    let probe = env.probe().clone();
    let mut obs = env.reset(Arc::clone(module));
    let baseline_s = env.peek_time_s();
    let mut actions = Vec::new();
    while let Some(current) = obs {
        let record = policy.select_action(&current, true, rng);
        let op = current.op.0 as u64;
        let outcome = env.step(&record.action);
        probe.emit(
            EventKind::GreedyStep,
            None,
            [actions.len() as u64, op, outcome.applied as u64],
        );
        actions.push(record.action);
        obs = env.current_observation();
    }
    let steps = actions.len();
    let final_s = env.peek_time_s();
    GreedyRollout {
        actions,
        baseline_s,
        final_s,
        steps,
    }
}

impl<P: PolicyModel> Searcher<P> for GreedyPolicy {
    fn name(&self) -> String {
        "greedy-policy".to_string()
    }

    fn search_with_stop(
        &self,
        env: &mut OptimizationEnv,
        policy: &mut P,
        module: &Module,
        seed: u64,
        _stop: &StopToken,
    ) -> SearchOutcome {
        let module = Arc::new(module.clone());
        let meter = LookupMeter::start(env);
        reseed_for_search(env, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rollout = greedy_rollout(env, policy, &module, &mut rng);
        finish_outcome(
            Searcher::<P>::name(self),
            env,
            &module,
            &meter,
            rollout.baseline_s,
            BestFound {
                time_s: rollout.final_s,
                actions: rollout.actions,
            },
            rollout.steps,
        )
    }
}

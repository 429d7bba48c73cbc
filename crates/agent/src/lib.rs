//! # mlir-rl-agent
//!
//! The actor-critic agent of MLIR RL: the multi-discrete policy network
//! (producer-consumer LSTM embedding, ReLU backbone, transformation /
//! tile-size / interchange heads with level pointers), the value network,
//! the flat-action-space policy used by the Fig. 6 ablation, and the PPO
//! trainer with the paper's hyper-parameters.
//!
//! The three networks share one observation embedding, a private `Trunk`
//! (the LSTM over the producer and consumer vectors, then the backbone),
//! and differ only in their heads: five for the multi-discrete policy, one
//! table in head order, and a single linear layer each for the flat policy
//! and the critic.
//!
//! Both policies draw an action and re-score it for PPO through one private
//! walk over the action space's sub-decisions (`decision`): the
//! transformation kind, then the tile level indices or the interchange
//! (enumerated candidate or Plackett–Luce level pointers). A chooser picks
//! each index — the argmax or a sample when selecting, the stored
//! [`ActionRecord`]'s own picks when re-scoring — so a re-scored record
//! reproduces its `log_prob` and `entropy` bit for bit, and a record that
//! does not fit its observation panics instead of being skipped.
//!
//! ## Example
//!
//! ```
//! use mlir_rl_agent::{PolicyHyperparams, PpoConfig, PpoTrainer};
//! use mlir_rl_costmodel::{CostModel, MachineModel};
//! use mlir_rl_env::{EnvConfig, OptimizationEnv};
//! use mlir_rl_ir::ModuleBuilder;
//!
//! let config = EnvConfig::small();
//! let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
//! let mut trainer = PpoTrainer::new(
//!     &config,
//!     PolicyHyperparams { hidden_size: 16, backbone_layers: 1 },
//!     PpoConfig { trajectories_per_iteration: 2, minibatch_size: 4, update_epochs: 1, ..PpoConfig::paper() },
//!     0,
//! );
//!
//! let mut b = ModuleBuilder::new("m");
//! let a = b.argument("A", vec![64, 64]);
//! let w = b.argument("B", vec![64, 64]);
//! b.matmul(a, w);
//! let dataset = vec![b.finish()];
//!
//! let stats = trainer.train_iteration(&mut env, &dataset);
//! assert!(stats.mean_speedup.is_finite());
//! ```

#![warn(missing_docs)]

mod decision;
pub mod flat;
pub mod online;
pub mod policy;
pub mod ppo;
pub mod snapshot;
mod trunk;
pub mod value;

pub use flat::FlatPolicyNetwork;
pub use online::{
    greedy_geomean, Experience, ExperienceStream, OnlineTrainer, OnlineTrainerStats,
    OnlineTrainingConfig, PolicyRegistry, PolicySnapshot,
};
pub use policy::{ActionRecord, PolicyHyperparams, PolicyNetwork};
pub use ppo::{
    collect_episode, collect_rollouts, compute_gae, default_rollout_workers, episode_seed, fan_out,
    GroupResult, InferenceGroup, InferenceMode, IterationStats, PolicyModel, PpoConfig, PpoTrainer,
    RolloutBatch, Trajectory, Transition,
};
pub use snapshot::{WeightSnapshot, WeightsError, WEIGHTS_MAGIC, WEIGHTS_VERSION};
pub use value::ValueNetwork;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mlir_rl_costmodel::{CostModel, MachineModel};
    use mlir_rl_env::{EnvConfig, ObservationBatch, OptimizationEnv};
    use mlir_rl_ir::ModuleBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use crate::{ActionRecord, PolicyModel};

    /// Draws a greedy and a sampled action at every observation of seeded
    /// episodes (stepping with the sampled one) over a matmul + relu, a
    /// conv2d deeper than `small()`'s heads and a 4-d add, re-scores every
    /// record in one batch, and asserts each `(log_prob, entropy)` has its
    /// record's bits. Returns the records.
    pub(crate) fn evaluation_replays_selection<P: PolicyModel>(
        p: &mut P,
        config: &EnvConfig,
    ) -> Vec<ActionRecord> {
        let mut matmul = ModuleBuilder::new("matmul");
        let a = matmul.argument("A", vec![64, 128]);
        let w = matmul.argument("B", vec![128, 32]);
        let mm = matmul.matmul(a, w);
        matmul.relu(mm);
        let mut conv = ModuleBuilder::new("conv");
        let x = conv.argument("X", vec![1, 8, 16, 16]);
        let w = conv.argument("W", vec![8, 8, 3, 3]);
        conv.conv2d(x, w, 1);
        let mut add = ModuleBuilder::new("add");
        let a = add.argument("A", vec![4, 8, 16, 32]);
        let b = add.argument("B", vec![4, 8, 16, 32]);
        add.add(a, b);
        let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut walked = Vec::new();
        for module in [matmul, conv, add].map(|b| Arc::new(b.finish())) {
            for _ in 0..4 {
                let mut next = env.reset(module.clone());
                while let Some(obs) = next {
                    let greedy = p.select_action(&obs, true, &mut rng);
                    let sampled = p.select_action(&obs, false, &mut rng);
                    let done = env.step(&sampled.action).done;
                    next = if done {
                        None
                    } else {
                        env.current_observation()
                    };
                    walked.push((obs.clone(), greedy));
                    walked.push((obs, sampled));
                }
            }
        }
        let items: Vec<_> = walked.iter().map(|(obs, record)| (obs, record)).collect();
        let batch = ObservationBatch::from_observations(walked.iter().map(|(obs, _)| obs));
        let scored = p.evaluate_batch(&batch, &items);
        for ((log_prob, entropy), (_, record)) in scored.into_iter().zip(&walked) {
            let bits = |lp: f64, h: f64| [lp.to_bits(), h.to_bits()];
            let drawn = bits(record.log_prob, record.entropy);
            assert_eq!(bits(log_prob, entropy), drawn, "{:?}", record.action);
        }
        p.zero_grad();
        walked.into_iter().map(|(_, record)| record).collect()
    }
}

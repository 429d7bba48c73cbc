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
pub use policy::{
    permutation_log_prob, sample_permutation, ActionRecord, PolicyHyperparams, PolicyNetwork,
};
pub use ppo::{
    collect_episode, collect_rollouts, compute_gae, default_rollout_workers, episode_seed, fan_out,
    GroupResult, InferenceGroup, InferenceMode, IterationStats, PolicyModel, PpoConfig, PpoTrainer,
    RolloutBatch, Trajectory, Transition,
};
pub use snapshot::{WeightSnapshot, WeightsError, WEIGHTS_MAGIC, WEIGHTS_VERSION};
pub use value::ValueNetwork;

//! # mlir-rl-env
//!
//! The MLIR RL reinforcement-learning environment: multi-discrete action
//! space with action masking, level-pointer and enumerated-candidate
//! interchange formulations, the Fig. 1 state representation (operation
//! type, loop ranges, vectorization pre-conditions, polyhedral access
//! matrices, operation counts, action history), and log-speedup rewards in
//! final or immediate mode — all over the miniature Linalg IR, the
//! transformation engine and the analytical cost model.
//!
//! ## Example
//!
//! ```
//! use mlir_rl_costmodel::{CostModel, MachineModel};
//! use mlir_rl_env::{Action, EnvConfig, OptimizationEnv};
//! use mlir_rl_ir::ModuleBuilder;
//!
//! let mut b = ModuleBuilder::new("m");
//! let a = b.argument("A", vec![128, 256]);
//! let w = b.argument("B", vec![256, 64]);
//! b.matmul(a, w);
//!
//! let mut env = OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()));
//! let obs = env.reset(b.finish()).expect("module has one op");
//! assert_eq!(obs.num_loops, 3);
//!
//! let outcome = env.step(&Action::TiledParallelization { tile_indices: vec![2, 2, 0] });
//! assert!(outcome.applied);
//! ```

#![warn(missing_docs)]

pub mod action;
pub mod config;
pub mod env;
pub mod features;
pub mod mask;
pub mod reward;

pub use action::{
    enumerated_candidates, flat_action_space, num_enumerated_candidates, swap_permutation, Action,
    FlatAction, InterchangeSpec,
};
pub use config::{EnvConfig, InterchangeMode, RewardMode};
pub use env::{EpisodeSnapshot, EpisodeStats, Observation, OptimizationEnv, StepOutcome};
pub use features::{
    extract_features, extract_features_dense, zero_features, Features, ObservationBatch,
};
pub use mask::{compute_mask, ActionMask};
pub use reward::{log_speedup, step_reward};

/// The workspace's one hit-rate definition, re-exported for crates that reach
/// the cost model only through the environment (`mlir-rl-agent`).
pub use mlir_rl_costmodel::hit_rate;

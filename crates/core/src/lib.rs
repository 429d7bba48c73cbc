//! # mlir-rl-core
//!
//! High-level facade over the MLIR RL reproduction: the end-to-end
//! [`MlirRlOptimizer`] (environment + PPO agent + cost model), the
//! request/response serving layer ([`service`] — a long-lived
//! [`OptimizationService`] in front of the trained policy, with one
//! persistent shared evaluation cache, a worker pool, budget admission and
//! cancellation), and the report structures the experiment harness uses to
//! regenerate the paper's tables and figures. Re-exports the main types of
//! every underlying crate so that downstream users can depend on
//! `mlir-rl-core` alone.
//!
//! ## Example
//!
//! ```
//! use mlir_rl_core::{MlirRlOptimizer, OptimizerConfig};
//! use mlir_rl_core::ir::ModuleBuilder;
//!
//! let mut b = ModuleBuilder::new("m");
//! let a = b.argument("A", vec![128, 128]);
//! let w = b.argument("B", vec![128, 128]);
//! b.matmul(a, w);
//!
//! let mut optimizer = MlirRlOptimizer::new(OptimizerConfig::quick());
//! let outcome = optimizer.optimize(&b.finish());
//! assert!(outcome.speedup > 0.0);
//! ```

#![warn(missing_docs)]

mod metrics;
pub mod optimizer;
pub mod report;
pub mod service;

pub use optimizer::{MlirRlOptimizer, OptimizationOutcome, OptimizerConfig};
pub use report::{Figure, Series, SpeedupTable};
pub use service::{
    wait_all, OptimizationRequest, OptimizationResponse, OptimizationService, PendingResponse,
    ResponseStatus, ServiceConfig, ServiceMetrics, BACKPRESSURE_PREFIX,
};

/// Re-export of the agent crate.
pub use mlir_rl_agent as agent;
/// Re-export of the baselines crate.
pub use mlir_rl_baselines as baselines;
/// Re-export of the cost-model crate.
pub use mlir_rl_costmodel as costmodel;
/// Re-export of the environment crate.
pub use mlir_rl_env as env;
/// Re-export of the IR crate.
pub use mlir_rl_ir as ir;
/// Re-export of the neural-network crate.
pub use mlir_rl_nn as nn;
/// Re-export of the schedule-search crate.
pub use mlir_rl_search as search;
/// Re-export of the transformations crate.
pub use mlir_rl_transforms as transforms;
/// Re-export of the workloads crate.
pub use mlir_rl_workloads as workloads;

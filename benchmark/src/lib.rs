//! The repo's benchmark: six closed-loop workloads over the service,
//! rollout and PPO paths of the `mlir-rl-*` crates, measured from outside.
//!
//! See `benchmark/README.md` for the metric glossary and the procedure a
//! performance change follows.

pub mod cli;
pub mod json;
pub mod probe;
pub mod run;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;

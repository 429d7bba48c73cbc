//! How much work each experiment does.

/// How much work each experiment does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// PPO iterations for experiments that train an agent.
    pub train_iterations: usize,
    /// Fraction of the paper-sized dataset to train on.
    pub dataset_scale: f64,
    /// Trajectories per PPO iteration.
    pub trajectories_per_iteration: usize,
    /// Hidden size of the policy/value networks.
    pub hidden_size: usize,
}

impl ExperimentScale {
    /// The tests' and CI's configuration: 8–25 ms per paper experiment in
    /// a release build.
    pub fn smoke() -> Self {
        Self {
            train_iterations: 2,
            dataset_scale: 0.005,
            trajectories_per_iteration: 3,
            hidden_size: 16,
        }
    }

    /// The default of the `exp` binary: 0.06–0.26 s per paper experiment
    /// in a release build (seconds in a debug build).
    pub fn standard() -> Self {
        Self {
            train_iterations: 12,
            dataset_scale: 0.02,
            trajectories_per_iteration: 12,
            hidden_size: 32,
        }
    }

    /// Closer to the paper's budget (hours).
    pub fn full() -> Self {
        Self {
            train_iterations: 200,
            dataset_scale: 1.0,
            trajectories_per_iteration: 64,
            hidden_size: 512,
        }
    }

    /// The scale the `MLIR_RL_SCALE` value names (`smoke`, `standard` or
    /// `full`); unset means `standard`, anything else is an error.
    pub fn from_var(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("standard") => Ok(Self::standard()),
            Some("smoke") => Ok(Self::smoke()),
            Some("full") => Ok(Self::full()),
            Some(other) => Err(format!(
                "MLIR_RL_SCALE must be `smoke`, `standard` or `full`, not `{other}`"
            )),
        }
    }
}

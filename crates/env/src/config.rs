//! Environment configuration.

use crate::action::num_enumerated_candidates;

/// How the interchange action is represented by the policy (Sec. IV-A-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterchangeMode {
    /// A restricted enumeration of `3N - 6` candidate permutations obtained
    /// by swapping two loops that are adjacent or separated by one or two
    /// levels.
    EnumeratedCandidates,
    /// The pointer-network style decomposition: the permutation is built one
    /// position at a time by selecting which loop goes next (N sub-steps of
    /// an N-way choice), covering all `N!` permutations.
    LevelPointers,
}

/// When the reward is delivered (Sec. IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RewardMode {
    /// Zero reward at every step; the log-speedup of the whole episode is
    /// delivered at the final step (the paper's default).
    Final,
    /// The incremental log-speedup is delivered after every step. More
    /// informative but requires an execution (cost evaluation) per step.
    Immediate,
}

/// Static configuration of the RL environment.
///
/// The defaults mirror Sec. VII-A-5 of the paper: at most 12 loop levels,
/// 8 candidate tile sizes (including 0 = no tiling), at most 14 accessed
/// arrays of rank at most 12, and a maximum schedule length of 5.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// Maximum number of loop levels `N` representable in observations.
    pub max_loops: usize,
    /// Candidate tile sizes (`M` entries); index 0 must be 0 (no tiling).
    pub tile_candidates: Vec<u64>,
    /// Maximum number of accessed arrays `L` in the representation.
    pub max_operands: usize,
    /// Maximum rank `D` of array accesses in the representation.
    pub max_rank: usize,
    /// Maximum schedule length τ per operation.
    pub max_schedule_len: usize,
    /// Interchange head formulation.
    pub interchange_mode: InterchangeMode,
    /// Reward delivery mode.
    pub reward_mode: RewardMode,
    /// Seed for the measurement-noise model (None disables noise).
    pub noise_seed: Option<u64>,
}

impl EnvConfig {
    /// The paper's configuration (N=12, M=8, L=14, D=12, τ=5, level
    /// pointers, final reward).
    pub fn paper() -> Self {
        Self {
            max_loops: 12,
            tile_candidates: vec![0, 1, 4, 8, 16, 32, 64, 128],
            max_operands: 14,
            max_rank: 12,
            max_schedule_len: 5,
            interchange_mode: InterchangeMode::LevelPointers,
            reward_mode: RewardMode::Final,
            noise_seed: None,
        }
    }

    /// A scaled-down configuration for fast unit tests and benchmarks
    /// (N=4, M=5, L=4, D=4, τ=4).
    pub fn small() -> Self {
        Self {
            max_loops: 4,
            tile_candidates: vec![0, 4, 16, 32, 64],
            max_operands: 4,
            max_rank: 4,
            max_schedule_len: 4,
            interchange_mode: InterchangeMode::LevelPointers,
            reward_mode: RewardMode::Final,
            noise_seed: None,
        }
    }

    /// Number of candidate tile sizes `M`.
    pub fn num_tile_candidates(&self) -> usize {
        self.tile_candidates.len()
    }

    /// Number of enumerated interchange candidates, `3N - 6` (clamped at 1).
    pub fn num_enumerated_interchanges(&self) -> usize {
        num_enumerated_candidates(self.max_loops).max(1)
    }

    /// Length of the per-operation feature vector produced by the feature
    /// extractor with this configuration.
    pub fn feature_len(&self) -> usize {
        // operation-type one-hot
        6
        // loop upper bounds + iterator-type flags
        + 2 * self.max_loops
        // vectorization pre-condition flag
        + 1
        // access matrices: L operands x D rows x N columns
        + self.max_operands * self.max_rank * self.max_loops
        // arithmetic operation counts
        + 5
        // action history: tiled (tau x N x M) + interchange (tau x N x N)
        + self.max_schedule_len * self.max_loops * self.num_tile_candidates()
        + self.max_schedule_len * self.max_loops * self.max_loops
    }

    /// Validates internal consistency without panicking, returning a
    /// human-readable description of the first problem found. Request
    /// admission uses this so a malformed per-request configuration is
    /// rejected as a response error instead of killing the serving process;
    /// [`EnvConfig::validate`] is the panicking wrapper construction paths
    /// keep using.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.tile_candidates.is_empty() {
            return Err("tile candidate list must not be empty".to_string());
        }
        if self.tile_candidates[0] != 0 {
            return Err(format!(
                "tile candidate 0 must be `no tiling` (got {})",
                self.tile_candidates[0]
            ));
        }
        if self.max_loops < 1 {
            return Err("at least one loop level is required".to_string());
        }
        if self.max_schedule_len < 1 {
            return Err("schedule length must be >= 1".to_string());
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if [`EnvConfig::try_validate`] finds a problem (empty tile
    /// candidate list, missing leading 0 tile, zero loops or schedule
    /// length).
    pub fn validate(&self) {
        if let Err(problem) = self.try_validate() {
            panic!("invalid EnvConfig: {problem}");
        }
    }
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_the_paper() {
        let c = EnvConfig::paper();
        c.validate();
        assert_eq!(c.max_loops, 12);
        assert_eq!(c.num_tile_candidates(), 8);
        assert_eq!(c.max_operands, 14);
        assert_eq!(c.max_rank, 12);
        assert_eq!(c.max_schedule_len, 5);
        assert_eq!(c.num_enumerated_interchanges(), 30);
        assert_eq!(c.interchange_mode, InterchangeMode::LevelPointers);
        assert_eq!(c.reward_mode, RewardMode::Final);
    }

    #[test]
    fn feature_len_formula() {
        let c = EnvConfig::small();
        c.validate();
        let expected = 6 + 2 * 4 + 1 + 4 * 4 * 4 + 5 + 4 * 4 * 5 + 4 * 4 * 4;
        assert_eq!(c.feature_len(), expected);
        // The paper-sized representation is around 3.3k features.
        assert!(EnvConfig::paper().feature_len() > 3000);
    }

    #[test]
    #[should_panic(expected = "no tiling")]
    fn validate_rejects_missing_zero_tile() {
        let mut c = EnvConfig::small();
        c.tile_candidates = vec![4, 8];
        c.validate();
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        assert_eq!(EnvConfig::small().try_validate(), Ok(()));
        let mut c = EnvConfig::small();
        c.tile_candidates = vec![4, 8];
        assert!(c.try_validate().unwrap_err().contains("no tiling"));
        c.tile_candidates = Vec::new();
        assert!(c.try_validate().unwrap_err().contains("empty"));
        let mut c = EnvConfig::small();
        c.max_loops = 0;
        assert!(c.try_validate().unwrap_err().contains("loop level"));
        let mut c = EnvConfig::small();
        c.max_schedule_len = 0;
        assert!(c.try_validate().unwrap_err().contains("schedule length"));
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(EnvConfig::default(), EnvConfig::paper());
    }
}

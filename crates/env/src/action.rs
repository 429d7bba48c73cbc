//! Agent-facing actions and their translation to IR transformations.
//!
//! The agent expresses parameters in terms of the environment configuration
//! (tile-size *indices* into the candidate list, interchange candidates or
//! full permutations); [`Action::to_transformation`] translates them into the
//! [`Transformation`]s applied to the IR.

use serde::{Deserialize, Serialize};

use mlir_rl_ir::OpId;
use mlir_rl_transforms::{Transformation, TransformationKind};

use crate::config::EnvConfig;

/// How an interchange is specified by the agent.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterchangeSpec {
    /// A full permutation of the operation's loops, as produced by the
    /// level-pointer head (`permutation[i]` = loop placed at position `i`).
    Permutation(Vec<usize>),
    /// An index into the enumerated candidate list (pairwise swaps of loops
    /// at distance 1, 2 or 3).
    Candidate(usize),
}

/// One agent action in the multi-discrete action space.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Tile every loop level with the tile-size *candidate index* given per
    /// visible loop level (index 0 means "do not tile this level").
    Tiling {
        /// Tile-candidate index per visible loop level.
        tile_indices: Vec<usize>,
    },
    /// Tiling followed by parallelization of the outer tile loops.
    TiledParallelization {
        /// Tile-candidate index per visible loop level.
        tile_indices: Vec<usize>,
    },
    /// Tiling of the consumer followed by fusion of its last producer.
    TiledFusion {
        /// Tile-candidate index per visible loop level.
        tile_indices: Vec<usize>,
    },
    /// Loop interchange.
    Interchange(InterchangeSpec),
    /// Vectorize the innermost loop (terminal for the current operation).
    Vectorization,
    /// Stop optimizing the current operation (terminal).
    NoTransformation,
}

impl Action {
    /// The transformation category this action selects.
    pub fn kind(&self) -> TransformationKind {
        match self {
            Action::Tiling { .. } => TransformationKind::Tiling,
            Action::TiledParallelization { .. } => TransformationKind::TiledParallelization,
            Action::TiledFusion { .. } => TransformationKind::TiledFusion,
            Action::Interchange(_) => TransformationKind::Interchange,
            Action::Vectorization => TransformationKind::Vectorization,
            Action::NoTransformation => TransformationKind::NoTransformation,
        }
    }

    /// Translates the action into an IR transformation.
    ///
    /// `num_loops` is the loop count of the operation being optimized and
    /// `producer` the producer that a fusion would target (the last
    /// producer, per Sec. III).
    ///
    /// # Errors
    ///
    /// Returns a descriptive string when the action's parameters do not fit
    /// the operation (wrong arity, out-of-range candidate index, fusion with
    /// no producer).
    pub fn to_transformation(
        &self,
        config: &EnvConfig,
        num_loops: usize,
        producer: Option<OpId>,
    ) -> Result<Transformation, String> {
        let decode_tiles = |tile_indices: &[usize]| -> Result<Vec<u64>, String> {
            if tile_indices.len() != num_loops {
                return Err(format!(
                    "expected {num_loops} tile indices, got {}",
                    tile_indices.len()
                ));
            }
            tile_indices
                .iter()
                .map(|i| {
                    config
                        .tile_candidates
                        .get(*i)
                        .copied()
                        .ok_or_else(|| format!("tile candidate index {i} out of range"))
                })
                .collect()
        };
        match self {
            Action::Tiling { tile_indices } => Ok(Transformation::Tiling {
                tile_sizes: decode_tiles(tile_indices)?,
            }),
            Action::TiledParallelization { tile_indices } => {
                Ok(Transformation::TiledParallelization {
                    tile_sizes: decode_tiles(tile_indices)?,
                })
            }
            Action::TiledFusion { tile_indices } => {
                let producer = producer.ok_or_else(|| "no producer to fuse".to_string())?;
                Ok(Transformation::TiledFusion {
                    tile_sizes: decode_tiles(tile_indices)?,
                    producer,
                })
            }
            Action::Interchange(spec) => {
                let permutation = match spec {
                    InterchangeSpec::Permutation(p) => {
                        if p.len() != num_loops {
                            return Err(format!(
                                "permutation has {} entries for {num_loops} loops",
                                p.len()
                            ));
                        }
                        p.clone()
                    }
                    InterchangeSpec::Candidate(idx) => {
                        let candidates = enumerated_candidates(num_loops);
                        let (a, b) = candidates
                            .get(*idx)
                            .copied()
                            .ok_or_else(|| format!("interchange candidate {idx} out of range"))?;
                        swap_permutation(num_loops, a, b)
                    }
                };
                Ok(Transformation::Interchange { permutation })
            }
            Action::Vectorization => Ok(Transformation::Vectorization),
            Action::NoTransformation => Ok(Transformation::NoTransformation),
        }
    }
}

/// The enumerated interchange candidates for an `n`-loop nest: swaps of two
/// loop levels that are adjacent or separated by one or two levels
/// (`3N - 6` candidates for `N >= 3`, fewer for shallow nests).
pub fn enumerated_candidates(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for distance in 1..=3usize {
        for i in 0..n.saturating_sub(distance) {
            out.push((i, i + distance));
        }
    }
    out
}

/// `enumerated_candidates(n).len()` without building the list: the mask
/// needs only the count, every step.
pub fn num_enumerated_candidates(n: usize) -> usize {
    (1..=3usize)
        .map(|distance| n.saturating_sub(distance))
        .sum()
}

/// The identity permutation with positions `a` and `b` swapped.
pub fn swap_permutation(n: usize, a: usize, b: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.swap(a, b);
    p
}

/// The flat action space used by the Fig. 6 ablation: a fixed enumeration of
/// (transformation, parameter) combinations. Tiled transformations are
/// restricted to a uniform tile size across all loop levels, which is what
/// keeps the flat enumeration tractable — and what limits the schedules it
/// can express compared to the multi-discrete space.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlatAction {
    /// Tile all levels with `tile_candidates[index]`.
    UniformTiling {
        /// Index into the tile-candidate list.
        index: usize,
    },
    /// Tile all levels uniformly and parallelize.
    UniformTiledParallelization {
        /// Index into the tile-candidate list.
        index: usize,
    },
    /// Tile all levels uniformly and fuse the last producer.
    UniformTiledFusion {
        /// Index into the tile-candidate list.
        index: usize,
    },
    /// Apply one of the enumerated interchange candidates.
    Interchange {
        /// Index into [`enumerated_candidates`].
        candidate: usize,
    },
    /// Vectorize.
    Vectorization,
    /// Stop optimizing the current operation.
    NoTransformation,
}

/// Enumerates the whole flat action space for the given configuration.
pub fn flat_action_space(config: &EnvConfig) -> Vec<FlatAction> {
    let mut out = Vec::new();
    for index in 1..config.num_tile_candidates() {
        out.push(FlatAction::UniformTiling { index });
    }
    for index in 1..config.num_tile_candidates() {
        out.push(FlatAction::UniformTiledParallelization { index });
    }
    for index in 1..config.num_tile_candidates() {
        out.push(FlatAction::UniformTiledFusion { index });
    }
    for candidate in 0..config.num_enumerated_interchanges() {
        out.push(FlatAction::Interchange { candidate });
    }
    out.push(FlatAction::Vectorization);
    out.push(FlatAction::NoTransformation);
    out
}

impl FlatAction {
    /// Expands the flat action into a multi-discrete [`Action`] for an
    /// operation with `num_loops` loops.
    pub fn to_action(&self, num_loops: usize) -> Action {
        match self {
            FlatAction::UniformTiling { index } => Action::Tiling {
                tile_indices: vec![*index; num_loops],
            },
            FlatAction::UniformTiledParallelization { index } => Action::TiledParallelization {
                tile_indices: vec![*index; num_loops],
            },
            FlatAction::UniformTiledFusion { index } => Action::TiledFusion {
                tile_indices: vec![*index; num_loops],
            },
            FlatAction::Interchange { candidate } => {
                Action::Interchange(InterchangeSpec::Candidate(*candidate))
            }
            FlatAction::Vectorization => Action::Vectorization,
            FlatAction::NoTransformation => Action::NoTransformation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerated_candidates_count_matches_3n_minus_6() {
        assert_eq!(enumerated_candidates(3).len(), 3);
        assert_eq!(enumerated_candidates(4).len(), 6);
        assert_eq!(enumerated_candidates(12).len(), 30);
        // Shallow nests have fewer candidates.
        assert_eq!(enumerated_candidates(2).len(), 1);
        assert_eq!(enumerated_candidates(1).len(), 0);
        for n in 0..=16 {
            assert_eq!(num_enumerated_candidates(n), enumerated_candidates(n).len());
        }
    }

    #[test]
    fn swap_permutation_is_a_permutation() {
        assert_eq!(swap_permutation(4, 1, 3), vec![0, 3, 2, 1]);
        assert_eq!(swap_permutation(3, 0, 1), vec![1, 0, 2]);
    }

    #[test]
    fn tiling_action_decodes_tile_sizes() {
        let config = EnvConfig::small(); // candidates [0, 4, 16, 32, 64]
        let action = Action::Tiling {
            tile_indices: vec![1, 0, 3],
        };
        let t = action.to_transformation(&config, 3, None).unwrap();
        assert_eq!(
            t,
            Transformation::Tiling {
                tile_sizes: vec![4, 0, 32]
            }
        );
    }

    #[test]
    fn tiling_action_rejects_wrong_arity_and_bad_index() {
        let config = EnvConfig::small();
        assert!(Action::Tiling {
            tile_indices: vec![1, 2]
        }
        .to_transformation(&config, 3, None)
        .is_err());
        assert!(Action::Tiling {
            tile_indices: vec![9, 0, 0]
        }
        .to_transformation(&config, 3, None)
        .is_err());
    }

    #[test]
    fn fusion_requires_a_producer() {
        let config = EnvConfig::small();
        let action = Action::TiledFusion {
            tile_indices: vec![1, 1],
        };
        assert!(action.to_transformation(&config, 2, None).is_err());
        let t = action.to_transformation(&config, 2, Some(OpId(3))).unwrap();
        assert!(matches!(
            t,
            Transformation::TiledFusion {
                producer: OpId(3),
                ..
            }
        ));
    }

    #[test]
    fn interchange_candidate_expands_to_swap() {
        let config = EnvConfig::small();
        // Candidate 0 for 3 loops is the (0, 1) swap.
        let action = Action::Interchange(InterchangeSpec::Candidate(0));
        let t = action.to_transformation(&config, 3, None).unwrap();
        assert_eq!(
            t,
            Transformation::Interchange {
                permutation: vec![1, 0, 2]
            }
        );
        // Out-of-range candidate is rejected.
        let bad = Action::Interchange(InterchangeSpec::Candidate(99));
        assert!(bad.to_transformation(&config, 3, None).is_err());
    }

    #[test]
    fn interchange_permutation_passthrough() {
        let config = EnvConfig::small();
        let action = Action::Interchange(InterchangeSpec::Permutation(vec![2, 0, 1]));
        let t = action.to_transformation(&config, 3, None).unwrap();
        assert_eq!(
            t,
            Transformation::Interchange {
                permutation: vec![2, 0, 1]
            }
        );
        let wrong = Action::Interchange(InterchangeSpec::Permutation(vec![0, 1]));
        assert!(wrong.to_transformation(&config, 3, None).is_err());
    }

    #[test]
    fn action_kinds() {
        assert_eq!(
            Action::Vectorization.kind(),
            TransformationKind::Vectorization
        );
        assert_eq!(
            Action::NoTransformation.kind(),
            TransformationKind::NoTransformation
        );
        assert_eq!(
            Action::Tiling {
                tile_indices: vec![]
            }
            .kind(),
            TransformationKind::Tiling
        );
    }

    #[test]
    fn flat_action_space_size_and_expansion() {
        let config = EnvConfig::small(); // M=5, max_loops=4 -> 3*4 + 6 + 2
        let flat = flat_action_space(&config);
        assert_eq!(
            flat.len(),
            3 * (config.num_tile_candidates() - 1) + config.num_enumerated_interchanges() + 2
        );
        let expanded = flat[0].to_action(3);
        assert_eq!(
            expanded,
            Action::Tiling {
                tile_indices: vec![1, 1, 1]
            }
        );
        assert_eq!(flat.last().unwrap().to_action(3), Action::NoTransformation);
    }
}

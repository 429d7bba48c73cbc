//! The transformation (action) vocabulary of the environment.
//!
//! These are the six actions of Sec. IV-A of the paper: tiling, tiled
//! parallelization, tiled fusion, interchange, vectorization and the
//! terminal "no transformation".

use std::fmt;

use mlir_rl_ir::OpId;

/// One loop-nest transformation with its parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Transformation {
    /// `T(t1, ..., tN)`: tile loop level `i` with size `t_i`; `0` means the
    /// level is not tiled.
    Tiling {
        /// Tile size per loop level, outermost first.
        tile_sizes: Vec<u64>,
    },
    /// Tiling followed by parallelization of the outermost generated tile
    /// loops (lowered to `scf.forall`/OpenMP in MLIR). Selecting tile size 1
    /// for every level corresponds to plain parallelization.
    TiledParallelization {
        /// Tile size per loop level, outermost first.
        tile_sizes: Vec<u64>,
    },
    /// Tiling of the consumer followed by fusion of a producer at tile
    /// granularity.
    TiledFusion {
        /// Tile size per loop level of the consumer, outermost first.
        tile_sizes: Vec<u64>,
        /// The producer operation fused into the consumer's tile loops.
        producer: OpId,
    },
    /// Loop interchange; `permutation[i]` is the original loop placed at
    /// position `i` of the new loop order.
    Interchange {
        /// The permutation of loop levels.
        permutation: Vec<usize>,
    },
    /// Vectorize the innermost loop. Terminal: the Linalg op is rewritten
    /// into vector operations and no further Linalg transformation applies.
    Vectorization,
    /// Stop optimizing the current operation and move to the next one.
    NoTransformation,
}

/// The transformation categories, used by the multi-discrete action space
/// ("transformation selection" head) and the action-history encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformationKind {
    /// Plain tiling.
    Tiling,
    /// Tiling + parallelization.
    TiledParallelization,
    /// Tiling + producer fusion.
    TiledFusion,
    /// Loop interchange.
    Interchange,
    /// Vectorization of the innermost loop.
    Vectorization,
    /// Terminal no-op.
    NoTransformation,
}

impl TransformationKind {
    /// All kinds in the order used by the transformation-selection head
    /// (a 6-way categorical distribution).
    pub const ALL: [TransformationKind; 6] = [
        TransformationKind::Tiling,
        TransformationKind::TiledParallelization,
        TransformationKind::TiledFusion,
        TransformationKind::Interchange,
        TransformationKind::Vectorization,
        TransformationKind::NoTransformation,
    ];

    /// Index in [`TransformationKind::ALL`].
    pub fn index(self) -> usize {
        TransformationKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind present in ALL")
    }

    /// The kind at a given index of [`TransformationKind::ALL`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 6`.
    pub fn from_index(index: usize) -> Self {
        TransformationKind::ALL[index]
    }

    /// Whether this kind carries tile-size parameters.
    pub fn is_tiled(self) -> bool {
        matches!(
            self,
            TransformationKind::Tiling
                | TransformationKind::TiledParallelization
                | TransformationKind::TiledFusion
        )
    }

    /// Whether selecting this kind ends the optimization of the current
    /// operation (Appendix A: vectorization and no-transformation are
    /// terminal).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TransformationKind::Vectorization | TransformationKind::NoTransformation
        )
    }

    /// Short display name used in logs and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            TransformationKind::Tiling => "tiling",
            TransformationKind::TiledParallelization => "tiled-parallelization",
            TransformationKind::TiledFusion => "tiled-fusion",
            TransformationKind::Interchange => "interchange",
            TransformationKind::Vectorization => "vectorization",
            TransformationKind::NoTransformation => "no-transformation",
        }
    }
}

impl fmt::Display for TransformationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Transformation {
    /// The category of this transformation.
    pub fn kind(&self) -> TransformationKind {
        match self {
            Transformation::Tiling { .. } => TransformationKind::Tiling,
            Transformation::TiledParallelization { .. } => TransformationKind::TiledParallelization,
            Transformation::TiledFusion { .. } => TransformationKind::TiledFusion,
            Transformation::Interchange { .. } => TransformationKind::Interchange,
            Transformation::Vectorization => TransformationKind::Vectorization,
            Transformation::NoTransformation => TransformationKind::NoTransformation,
        }
    }

    /// The tile sizes carried by tiled transformations, if any.
    pub fn tile_sizes(&self) -> Option<&[u64]> {
        match self {
            Transformation::Tiling { tile_sizes }
            | Transformation::TiledParallelization { tile_sizes }
            | Transformation::TiledFusion { tile_sizes, .. } => Some(tile_sizes),
            _ => None,
        }
    }

    /// The interchange permutation, if any.
    pub fn permutation(&self) -> Option<&[usize]> {
        match self {
            Transformation::Interchange { permutation } => Some(permutation),
            _ => None,
        }
    }
}

impl fmt::Display for Transformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transformation::Tiling { tile_sizes } => write!(f, "T{tile_sizes:?}"),
            Transformation::TiledParallelization { tile_sizes } => {
                write!(f, "TP{tile_sizes:?}")
            }
            Transformation::TiledFusion {
                tile_sizes,
                producer,
            } => write!(f, "TF{tile_sizes:?} with {producer}"),
            Transformation::Interchange { permutation } => write!(f, "I{permutation:?}"),
            Transformation::Vectorization => write!(f, "V"),
            Transformation::NoTransformation => write!(f, "stop"),
        }
    }
}

/// The ordered list of transformations applied to one operation.
pub type Schedule = Vec<Transformation>;

/// Size of the *flat* action space of the paper (Sec. IV-A):
/// `|A| = 3 * M^N + N! + 2`.
///
/// `n` is the number of loop levels, `m` the number of candidate tile sizes.
/// Values saturate at `u128::MAX` for large `n`.
pub fn flat_action_space_size(n: u32, m: u32) -> u128 {
    let tiled = 3u128.saturating_mul(u128::from(m).saturating_pow(n));
    let mut fact = 1u128;
    for i in 2..=u128::from(n) {
        fact = fact.saturating_mul(i);
    }
    tiled.saturating_add(fact).saturating_add(2)
}

/// Number of scalar decisions made by the multi-discrete formulation:
/// one 6-way transformation choice, `N` tile-size choices over `M`
/// candidates, and the interchange decision (`3N-6` enumerated candidates or
/// `N` level-pointer steps over `N` loops each).
pub fn multi_discrete_decision_count(n: u32, m: u32, level_pointers: bool) -> u128 {
    let interchange = if level_pointers {
        u128::from(n) * u128::from(n)
    } else {
        u128::from(3 * n).saturating_sub(6)
    };
    6 + u128::from(n) * u128::from(m) + interchange
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_roundtrip() {
        for (i, k) in TransformationKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(TransformationKind::from_index(i), *k);
        }
    }

    #[test]
    fn kind_properties() {
        assert!(TransformationKind::Tiling.is_tiled());
        assert!(TransformationKind::TiledFusion.is_tiled());
        assert!(!TransformationKind::Interchange.is_tiled());
        assert!(TransformationKind::Vectorization.is_terminal());
        assert!(TransformationKind::NoTransformation.is_terminal());
        assert!(!TransformationKind::Tiling.is_terminal());
    }

    #[test]
    fn transformation_accessors() {
        let t = Transformation::Tiling {
            tile_sizes: vec![8, 8, 0],
        };
        assert_eq!(t.kind(), TransformationKind::Tiling);
        assert_eq!(t.tile_sizes(), Some(&[8u64, 8, 0][..]));
        assert_eq!(t.permutation(), None);

        let i = Transformation::Interchange {
            permutation: vec![2, 0, 1],
        };
        assert_eq!(i.permutation(), Some(&[2usize, 0, 1][..]));
        assert_eq!(i.tile_sizes(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Transformation::Tiling {
                tile_sizes: vec![8, 8, 0]
            }
            .to_string(),
            "T[8, 8, 0]"
        );
        assert_eq!(Transformation::Vectorization.to_string(), "V");
        assert_eq!(Transformation::NoTransformation.to_string(), "stop");
        assert_eq!(TransformationKind::TiledFusion.to_string(), "tiled-fusion");
    }

    #[test]
    fn flat_action_space_matches_paper_formula() {
        // |A| = 3*M^N + N! + 2
        assert_eq!(flat_action_space_size(3, 8), 3 * 512 + 6 + 2);
        assert_eq!(flat_action_space_size(1, 2), 3 * 2 + 1 + 2);
        // N = 12, M = 8 (the paper's configuration) is astronomically large.
        assert!(flat_action_space_size(12, 8) > 200_000_000_000u128);
    }

    #[test]
    fn multi_discrete_is_much_smaller_than_flat() {
        let n = 12;
        let m = 8;
        let flat = flat_action_space_size(n, m);
        let md_lp = multi_discrete_decision_count(n, m, true);
        let md_enum = multi_discrete_decision_count(n, m, false);
        assert!(md_lp < 1000);
        assert!(md_enum < 1000);
        assert!(flat / md_lp > 1_000_000);
    }
}

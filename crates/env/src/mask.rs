//! Action masks (Sec. IV-A-2).
//!
//! Not every action is valid at every step: vectorizing a loop with more
//! than 512 iterations blows up code size, fusing requires an untouched
//! producer, parallelizing requires a parallel iterator, and terminated
//! operations accept nothing but "no transformation". The mask removes such
//! actions from the policy's distributions.
//!
//! A mask is the six transformation bits plus one row-major bitmap of tile
//! legality, one row of `num_tile_candidates` entries per loop level, which
//! readers borrow a row at a time through [`ActionMask::tile_row`]. The
//! interchange heads need no mask of their own: every enumerated candidate
//! and every level-pointer permutation is legal whenever interchange is.

use serde::{Deserialize, Serialize};

use mlir_rl_ir::{IteratorType, OpId};
use mlir_rl_transforms::{ScheduledModule, TransformationKind};

use crate::config::EnvConfig;

/// Masks for every head of the multi-discrete policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionMask {
    /// Which of the six transformation kinds may be selected
    /// (indexed by [`TransformationKind::index`]).
    pub transformation: [bool; 6],
    /// Tile-size legality, row-major: entry `level * num_tile_candidates +
    /// i` says whether candidate `i` fits loop `level` (a tile size must
    /// not exceed the loop bound).
    pub tile_sizes: Vec<bool>,
    /// Width of one row of [`Self::tile_sizes`].
    pub num_tile_candidates: usize,
}

impl ActionMask {
    /// True if the given transformation kind is allowed.
    pub fn allows(&self, kind: TransformationKind) -> bool {
        self.transformation[kind.index()]
    }

    /// Level `level`'s tile-size row: entry `i` says whether tile
    /// candidate `i` is legal at that loop level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not a loop level of the masked operation.
    pub fn tile_row(&self, level: usize) -> &[bool] {
        let m = self.num_tile_candidates;
        &self.tile_sizes[level * m..(level + 1) * m]
    }

    /// Number of loops of the masked operation: the tile bitmap holds one
    /// row per loop level.
    ///
    /// # Panics
    ///
    /// Panics if `num_tile_candidates` is zero (a validated configuration
    /// always has the 0 candidate).
    pub fn num_loops(&self) -> usize {
        self.tile_sizes.len() / self.num_tile_candidates
    }
}

/// Computes the action mask for the operation currently being optimized.
/// The tile bitmap is its only allocation.
///
/// # Panics
///
/// Panics if `op` does not belong to the scheduled module.
pub fn compute_mask(scheduled: &ScheduledModule, op: OpId, config: &EnvConfig) -> ActionMask {
    let linalg_op = scheduled.module().op(op).expect("op belongs to module");
    let state = scheduled.state(op);
    let open = !state.is_terminated() && state.schedule.len() < scheduled.max_schedule_len();

    let mut transformation = [false; 6];
    transformation[TransformationKind::NoTransformation.index()] = true;
    if open {
        transformation[TransformationKind::Tiling.index()] = true;
        transformation[TransformationKind::Interchange.index()] = linalg_op.num_loops() >= 2;
        // Some loop is parallel, wherever interchange has moved it.
        transformation[TransformationKind::TiledParallelization.index()] =
            linalg_op.iterator_types.contains(&IteratorType::Parallel);
        // Fusion: the last producer must exist, be live, and be untouched.
        transformation[TransformationKind::TiledFusion.index()] = scheduled
            .module()
            .last_producer(op)
            .is_some_and(|producer| scheduled.fusable(op, producer));
        // Vectorization: static preconditions plus the 512-iteration limit
        // on the innermost loop of the current schedule.
        transformation[TransformationKind::Vectorization.index()] = scheduled.vectorizable(op);
    }

    let candidates = &config.tile_candidates;
    let mut tile_sizes = Vec::with_capacity(state.order.len() * candidates.len());
    for loop_index in &state.order {
        let bound = linalg_op.loop_bounds[*loop_index];
        tile_sizes.extend(candidates.iter().map(|t| *t == 0 || *t <= bound));
    }

    ActionMask {
        transformation,
        tile_sizes,
        num_tile_candidates: candidates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_ir::ModuleBuilder;
    use mlir_rl_transforms::Transformation;

    fn chain() -> ScheduledModule {
        let mut b = ModuleBuilder::new("chain");
        let a = b.argument("A", vec![64, 128]);
        let w = b.argument("B", vec![128, 32]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        ScheduledModule::new(b.finish())
    }

    #[test]
    fn fresh_matmul_mask() {
        let s = chain();
        let config = EnvConfig::small();
        let mask = compute_mask(&s, OpId(0), &config);
        assert!(mask.allows(TransformationKind::Tiling));
        assert!(mask.allows(TransformationKind::TiledParallelization));
        assert!(mask.allows(TransformationKind::Interchange));
        assert!(mask.allows(TransformationKind::NoTransformation));
        // Matmul has no producer, so fusion is masked out.
        assert!(!mask.allows(TransformationKind::TiledFusion));
        // The innermost loop is 128 > ... within the 512 limit, and maps are
        // permutations, so vectorization is allowed.
        assert!(mask.allows(TransformationKind::Vectorization));
        assert_eq!(mask.tile_sizes.len(), 3 * config.num_tile_candidates());
        assert_eq!(mask.tile_row(2).len(), config.num_tile_candidates());
        assert_eq!(mask.num_loops(), 3);
    }

    #[test]
    fn relu_mask_allows_fusion_of_its_producer() {
        let s = chain();
        let config = EnvConfig::small();
        let mask = compute_mask(&s, OpId(1), &config);
        assert!(mask.allows(TransformationKind::TiledFusion));
    }

    #[test]
    fn tile_size_mask_respects_loop_bounds() {
        let s = chain();
        let config = EnvConfig::small(); // candidates [0, 4, 16, 32, 64]
        let mask = compute_mask(&s, OpId(1), &config);
        // ReLU over 64x32: level 1 has bound 32, so tile 64 is illegal.
        assert_eq!(mask.tile_row(1), [true, true, true, true, false]);
        assert_eq!(mask.tile_row(0), [true, true, true, true, true]);
    }

    #[test]
    fn vectorization_masked_for_large_inner_loop() {
        let mut b = ModuleBuilder::new("big");
        let x = b.argument("x", vec![1024, 1024]);
        let y = b.argument("y", vec![1024, 1024]);
        b.add(x, y);
        let s = ScheduledModule::new(b.finish());
        let mask = compute_mask(&s, OpId(0), &EnvConfig::small());
        assert!(
            !mask.allows(TransformationKind::Vectorization),
            "innermost 1024 > 512 must be masked"
        );
    }

    #[test]
    fn terminated_op_only_allows_stop() {
        let mut s = chain();
        s.apply(OpId(0), Transformation::NoTransformation).unwrap();
        let mask = compute_mask(&s, OpId(0), &EnvConfig::small());
        assert_eq!(
            mask.transformation,
            [false, false, false, false, false, true]
        );
    }

    #[test]
    fn full_schedule_only_allows_stop() {
        let mut s = ScheduledModule::with_max_schedule_len(chain().module().clone(), 1);
        s.apply(
            OpId(0),
            Transformation::Tiling {
                tile_sizes: vec![4, 4, 4],
            },
        )
        .unwrap();
        let mask = compute_mask(&s, OpId(0), &EnvConfig::small());
        assert_eq!(
            mask.transformation,
            [false, false, false, false, false, true]
        );
    }

    #[test]
    fn parallelization_masked_when_no_parallel_iterator() {
        // A pure-reduction generic op: sum over both loops.
        use mlir_rl_ir::{AffineExpr, AffineMap, ArithCounts, IteratorType};
        let mut b = ModuleBuilder::new("red");
        let x = b.argument("x", vec![32, 32]);
        b.generic(
            vec![x],
            vec![32, 32],
            vec![IteratorType::Reduction, IteratorType::Reduction],
            vec![
                AffineMap::identity(2),
                AffineMap::new(2, vec![AffineExpr::constant(0)]).unwrap(),
            ],
            vec![1],
            ArithCounts {
                add: 1,
                ..Default::default()
            },
        );
        let s = ScheduledModule::new(b.finish());
        let mask = compute_mask(&s, OpId(0), &EnvConfig::small());
        assert!(!mask.allows(TransformationKind::TiledParallelization));
        assert!(mask.allows(TransformationKind::Tiling));
    }
}

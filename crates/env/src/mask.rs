//! Action masks (Sec. IV-A-2).
//!
//! Not every action is valid at every step: vectorizing a loop with more
//! than 512 iterations blows up code size, fusing requires an untouched
//! producer, parallelizing requires a parallel iterator, and terminated
//! operations accept nothing but "no transformation". The mask removes such
//! actions from the policy's distributions.

use serde::{Deserialize, Serialize};

use mlir_rl_ir::{IteratorType, OpId};
use mlir_rl_transforms::{ScheduledModule, Transformation, TransformationKind};

use crate::action::num_enumerated_candidates;
use crate::config::EnvConfig;

/// Masks for every head of the multi-discrete policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionMask {
    /// Which of the six transformation kinds may be selected
    /// (indexed by [`TransformationKind::index`]).
    pub transformation: [bool; 6],
    /// For each visible loop level, which tile-size candidates are legal
    /// (a tile size must not exceed the loop bound).
    pub tile_sizes: Vec<Vec<bool>>,
    /// Which enumerated interchange candidates are legal (always all of
    /// them for a live operation; provided for the enumerated-candidates
    /// ablation head).
    pub interchange_candidates: Vec<bool>,
    /// Which loops may still be chosen by the next level-pointer sub-step
    /// (all of them at the start of an interchange; the agent masks out
    /// already-placed loops during the sub-steps).
    pub level_pointer: Vec<bool>,
}

impl ActionMask {
    /// True if the given transformation kind is allowed.
    pub fn allows(&self, kind: TransformationKind) -> bool {
        self.transformation[kind.index()]
    }

    /// Number of allowed transformation kinds.
    pub fn num_allowed(&self) -> usize {
        self.transformation.iter().filter(|b| **b).count()
    }
}

/// Computes the action mask for the operation currently being optimized.
///
/// # Panics
///
/// Panics if `op` does not belong to the scheduled module.
pub fn compute_mask(scheduled: &ScheduledModule, op: OpId, config: &EnvConfig) -> ActionMask {
    let linalg_op = scheduled.module().op(op).expect("op belongs to module");
    let state = scheduled.state(op);
    let n = linalg_op.num_loops();
    let bounds = state.visible_bounds(linalg_op);
    let iter_types = state.visible_iterator_types(linalg_op);

    let terminated = state.is_terminated();
    let full = state.schedule.len() >= scheduled.max_schedule_len();
    let open = !terminated && !full;

    let mut transformation = [false; 6];
    transformation[TransformationKind::NoTransformation.index()] = true;
    if open {
        transformation[TransformationKind::Tiling.index()] = true;
        transformation[TransformationKind::Interchange.index()] = n >= 2;
        transformation[TransformationKind::TiledParallelization.index()] =
            iter_types.contains(&IteratorType::Parallel);
        // Fusion: the last producer must exist, be live, and be untouched.
        let fusion_ok = scheduled.module().last_producer(op).is_some_and(|p| {
            scheduled
                .check(
                    op,
                    &Transformation::TiledFusion {
                        tile_sizes: vec![0; n],
                        producer: p,
                    },
                )
                .is_ok()
        });
        transformation[TransformationKind::TiledFusion.index()] = fusion_ok;
        // Vectorization: static preconditions plus the 512-iteration limit
        // on the innermost loop of the current schedule.
        transformation[TransformationKind::Vectorization.index()] = scheduled.vectorizable(op);
    }

    let tile_sizes = bounds
        .iter()
        .map(|bound| {
            config
                .tile_candidates
                .iter()
                .map(|t| *t == 0 || *t <= *bound)
                .collect()
        })
        .collect();

    let interchange_candidates = vec![open && n >= 2; num_enumerated_candidates(n).max(1)];
    let level_pointer = vec![open; n.max(1)];

    ActionMask {
        transformation,
        tile_sizes,
        interchange_candidates,
        level_pointer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_ir::ModuleBuilder;

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
        assert_eq!(mask.tile_sizes.len(), 3);
        assert_eq!(mask.tile_sizes[0].len(), config.num_tile_candidates());
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
        assert_eq!(mask.tile_sizes[1], vec![true, true, true, true, false]);
        assert_eq!(mask.tile_sizes[0], vec![true, true, true, true, true]);
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
        assert_eq!(mask.num_allowed(), 1);
        assert!(mask.allows(TransformationKind::NoTransformation));
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
        assert_eq!(mask.num_allowed(), 1);
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

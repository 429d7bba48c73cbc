//! Schedule state, legality checking, and lowering to loop nests.
//!
//! A [`ScheduledModule`] wraps an IR module together with the schedule state
//! of every operation. The RL environment applies [`Transformation`]s to it
//! one at a time (after checking legality via [`ScheduledModule::check`]) and
//! finally lowers every live operation to a [`LoopNest`] for cost
//! evaluation.

use std::sync::Arc;

use mlir_rl_ir::{IteratorType, LinalgOp, Module, OpId, ValueDef};

use crate::error::TransformError;
use crate::nest::{FusedProducer, LoopDim, LoopKind, LoopNest};
use crate::transform::{Schedule, Transformation, TransformationKind};

/// Default maximum schedule length τ (the paper sets the maximum schedule
/// length to 5).
pub const DEFAULT_MAX_SCHEDULE_LEN: usize = 5;

/// The paper's action-mask restriction on vectorization: the innermost loop
/// must not exceed 512 iterations, because MLIR's vectorizer fully unrolls
/// the innermost loop.
pub const MAX_VECTORIZABLE_INNER_EXTENT: u64 = 512;

/// Per-operation schedule state.
#[derive(Debug, Clone, PartialEq)]
pub struct OpScheduleState {
    /// Transformations applied so far, in order.
    pub schedule: Schedule,
    /// Effective tile size per *original* iterator (0 = untiled).
    pub tile_sizes: Vec<u64>,
    /// Whether the outer tile loops are parallelized (`scf.forall`).
    pub parallelized: bool,
    /// Current loop order: `order[i]` is the original iterator at position
    /// `i`.
    pub order: Vec<usize>,
    /// Whether the op was vectorized (terminal).
    pub vectorized: bool,
    /// Whether optimization of this op was explicitly stopped.
    pub stopped: bool,
    /// Producers fused into this op.
    pub fused_producers: Vec<OpId>,
    /// Set if this op was fused into a consumer and no longer executes on
    /// its own.
    pub fused_into: Option<OpId>,
}

impl OpScheduleState {
    fn new(num_loops: usize) -> Self {
        Self {
            schedule: Vec::new(),
            tile_sizes: vec![0; num_loops],
            parallelized: false,
            order: (0..num_loops).collect(),
            vectorized: false,
            stopped: false,
            fused_producers: Vec::new(),
            fused_into: None,
        }
    }

    /// True once no further transformation may be applied to this op.
    pub fn is_terminated(&self) -> bool {
        self.vectorized || self.stopped || self.fused_into.is_some()
    }

    /// The loop bounds as currently seen by the agent (in interchange
    /// order).
    pub fn visible_bounds(&self, op: &LinalgOp) -> Vec<u64> {
        self.order.iter().map(|i| op.loop_bounds[*i]).collect()
    }

    /// The iterator types in the current loop order.
    pub fn visible_iterator_types(&self, op: &LinalgOp) -> Vec<IteratorType> {
        self.order.iter().map(|i| op.iterator_types[*i]).collect()
    }

    /// Extent of the point loop at current position `pos`.
    fn point_extent_at(&self, op: &LinalgOp, pos: usize) -> u64 {
        let it = self.order[pos];
        if self.tile_sizes[it] == 0 {
            op.loop_bounds[it]
        } else {
            self.tile_sizes[it].min(op.loop_bounds[it])
        }
    }
}

/// A module plus the schedule state of each of its operations.
///
/// Transformations write only the schedule states; the module is never
/// written after construction, so it is shared: a clone (an environment
/// snapshot, a search branch) copies the states and bumps a reference
/// count instead of deep-copying the IR.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledModule {
    module: Arc<Module>,
    states: Vec<OpScheduleState>,
    max_schedule_len: usize,
}

impl ScheduledModule {
    /// Wraps a module with empty schedules, using the default maximum
    /// schedule length of 5.
    pub fn new(module: impl Into<Arc<Module>>) -> Self {
        Self::with_max_schedule_len(module, DEFAULT_MAX_SCHEDULE_LEN)
    }

    /// Wraps a module with a custom maximum schedule length τ. An
    /// `Arc<Module>` is shared as it is, a plain `Module` moved into one.
    pub fn with_max_schedule_len(module: impl Into<Arc<Module>>, max_schedule_len: usize) -> Self {
        let module = module.into();
        let states = module
            .ops()
            .iter()
            .map(|o| OpScheduleState::new(o.num_loops()))
            .collect();
        Self {
            module,
            states,
            max_schedule_len,
        }
    }

    /// The underlying module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Whether this schedule reads the very allocation `module` points at
    /// (pointer identity, not structural equality).
    pub fn shares_module(&self, module: &Arc<Module>) -> bool {
        Arc::ptr_eq(&self.module, module)
    }

    /// The maximum schedule length τ.
    pub fn max_schedule_len(&self) -> usize {
        self.max_schedule_len
    }

    /// Schedule state of an operation.
    ///
    /// # Panics
    ///
    /// Panics if the op id does not belong to this module.
    pub fn state(&self, op: OpId) -> &OpScheduleState {
        &self.states[op.0]
    }

    /// All schedule states, indexed by operation id.
    pub fn states(&self) -> &[OpScheduleState] {
        &self.states
    }

    /// Operations that still execute (i.e. were not fused away), in program
    /// order.
    pub fn live_ops(&self) -> Vec<OpId> {
        self.module
            .ops()
            .iter()
            .filter(|o| self.states[o.id.0].fused_into.is_none())
            .map(|o| o.id)
            .collect()
    }

    /// Checks whether `t` can legally be applied to `op` in the current
    /// state, without applying it.
    ///
    /// # Errors
    ///
    /// Returns a [`TransformError`] describing the violated rule.
    pub fn check(&self, op: OpId, t: &Transformation) -> Result<(), TransformError> {
        let linalg_op = self
            .module
            .op(op)
            .unwrap_or_else(|_| panic!("operation {op} not in module"));
        let state = &self.states[op.0];

        if state.fused_into.is_some() {
            return Err(TransformError::OperationFusedAway { op });
        }
        if state.vectorized {
            return Err(TransformError::AlreadyVectorized);
        }
        if state.schedule.len() >= self.max_schedule_len
            && t.kind() != TransformationKind::NoTransformation
        {
            return Err(TransformError::ScheduleFull {
                max_len: self.max_schedule_len,
            });
        }

        let n = linalg_op.num_loops();
        match t {
            Transformation::Tiling { tile_sizes } => {
                self.check_tile_sizes(linalg_op, state, tile_sizes)
            }
            Transformation::TiledParallelization { tile_sizes } => {
                self.check_tile_sizes(linalg_op, state, tile_sizes)?;
                // The outermost generated loop is parallelized; it must not
                // be a reduction iterator.
                let outer_pos = (0..n)
                    .find(|pos| {
                        let it = state.order[*pos];
                        tile_sizes[*pos] > 0 || state.tile_sizes[it] > 0
                    })
                    .unwrap_or(0);
                let outer_it = state.order[outer_pos];
                if linalg_op.iterator_types[outer_it] == IteratorType::Reduction {
                    return Err(TransformError::ParallelizingReduction { level: outer_pos });
                }
                Ok(())
            }
            Transformation::TiledFusion {
                tile_sizes,
                producer,
            } => {
                self.check_tile_sizes(linalg_op, state, tile_sizes)?;
                self.check_fusion(op, *producer)
            }
            Transformation::Interchange { permutation } => {
                if !is_permutation(permutation, n) {
                    return Err(TransformError::InvalidPermutation {
                        permutation: permutation.clone(),
                        loops: n,
                    });
                }
                Ok(())
            }
            Transformation::Vectorization => match vectorization_blocker(linalg_op, state) {
                None => Ok(()),
                Some(VectorizationBlocker::NotProjectedPermutations) => {
                    Err(TransformError::VectorizationPrecondition {
                        reason: "indexing maps are not projected permutations".into(),
                    })
                }
                Some(VectorizationBlocker::InnerExtent(inner_extent)) => {
                    Err(TransformError::VectorizationPrecondition {
                        reason: format!(
                            "innermost loop has {inner_extent} iterations, more than the {MAX_VECTORIZABLE_INNER_EXTENT} the MLIR vectorizer can unroll"
                        ),
                    })
                }
            },
            Transformation::NoTransformation => Ok(()),
        }
    }

    /// Whether `op` meets vectorization's own preconditions: projected
    /// permutation maps and at most [`MAX_VECTORIZABLE_INNER_EXTENT`]
    /// innermost iterations. This is [`Self::check`] on
    /// [`Transformation::Vectorization`] without the schedule-state rules
    /// (fused away, already vectorized, schedule full) and without building
    /// a refusal message.
    ///
    /// # Panics
    ///
    /// Panics if the op id does not belong to this module.
    pub fn vectorizable(&self, op: OpId) -> bool {
        let linalg_op = self.module.op(op).expect("op belongs to module");
        vectorization_blocker(linalg_op, &self.states[op.0]).is_none()
    }

    /// Whether `producer` can be fused into `op` now: it produces one of
    /// `op`'s operands, still executes on its own, and is untouched. This
    /// is [`Self::check`] on [`Transformation::TiledFusion`] without the
    /// tile sizes and the consumer's own schedule-state rules, and it
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if either op id does not belong to this module.
    pub fn fusable(&self, op: OpId, producer: OpId) -> bool {
        self.check_fusion(op, producer).is_ok()
    }

    fn check_fusion(&self, op: OpId, producer: OpId) -> Result<(), TransformError> {
        let linalg_op = self.module.op(op).expect("op belongs to module");
        let produces_an_operand = linalg_op.inputs.iter().any(|input| {
            self.module
                .value(*input)
                .is_ok_and(|v| v.def == ValueDef::OpResult(producer))
        });
        if !produces_an_operand {
            return Err(match self.module.last_producer(op) {
                None => TransformError::NoProducerToFuse { op },
                Some(_) => TransformError::NotAProducer { op, producer },
            });
        }
        let pstate = &self.states[producer.0];
        if pstate.fused_into.is_some() {
            return Err(TransformError::OperationFusedAway { op: producer });
        }
        // Linalg fusion has limited ability to fuse a modified
        // producer (Sec. III): only untouched producers are fused.
        if !pstate.schedule.is_empty() {
            return Err(TransformError::ProducerAlreadyScheduled { producer });
        }
        Ok(())
    }

    fn check_tile_sizes(
        &self,
        op: &LinalgOp,
        state: &OpScheduleState,
        tile_sizes: &[u64],
    ) -> Result<(), TransformError> {
        let n = op.num_loops();
        if tile_sizes.len() != n {
            return Err(TransformError::TileSizeArity {
                loops: n,
                provided: tile_sizes.len(),
            });
        }
        for (pos, tile) in tile_sizes.iter().enumerate() {
            let it = state.order[pos];
            let bound = op.loop_bounds[it];
            if *tile > bound {
                return Err(TransformError::TileSizeTooLarge {
                    level: pos,
                    tile: *tile,
                    bound,
                });
            }
        }
        Ok(())
    }

    /// Applies a transformation to an operation after checking legality.
    ///
    /// Tile sizes and interchange permutations are given in the operation's
    /// *current* loop order (the order the agent observes).
    ///
    /// # Errors
    ///
    /// Returns a [`TransformError`] if the transformation is illegal; the
    /// state is left unchanged in that case.
    pub fn apply(&mut self, op: OpId, t: Transformation) -> Result<(), TransformError> {
        self.check(op, &t)?;
        let num_loops = self.module.op(op).expect("checked above").num_loops();

        match &t {
            Transformation::Tiling { tile_sizes } => {
                self.set_tiles(op, tile_sizes);
            }
            Transformation::TiledParallelization { tile_sizes } => {
                self.set_tiles(op, tile_sizes);
                self.states[op.0].parallelized = true;
            }
            Transformation::TiledFusion {
                tile_sizes,
                producer,
            } => {
                self.set_tiles(op, tile_sizes);
                self.states[op.0].fused_producers.push(*producer);
                self.states[producer.0].fused_into = Some(op);
            }
            Transformation::Interchange { permutation } => {
                let state = &mut self.states[op.0];
                let new_order: Vec<usize> =
                    permutation.iter().map(|pos| state.order[*pos]).collect();
                state.order = new_order;
                debug_assert!(is_permutation(&state.order, num_loops));
            }
            Transformation::Vectorization => {
                self.states[op.0].vectorized = true;
            }
            Transformation::NoTransformation => {
                self.states[op.0].stopped = true;
            }
        }
        self.states[op.0].schedule.push(t);
        Ok(())
    }

    fn set_tiles(&mut self, op: OpId, tile_sizes: &[u64]) {
        let order = self.states[op.0].order.clone();
        let state = &mut self.states[op.0];
        for (pos, tile) in tile_sizes.iter().enumerate() {
            let it = order[pos];
            if *tile > 0 {
                state.tile_sizes[it] = *tile;
            }
        }
    }

    /// Lowers one operation to its loop-nest form.
    ///
    /// # Panics
    ///
    /// Panics if the op id does not belong to this module.
    pub fn lower(&self, op: OpId) -> LoopNest {
        let linalg_op = self.module.op(op).expect("op belongs to module");
        let state = &self.states[op.0];
        let n = linalg_op.num_loops();

        let mut loops = Vec::new();
        // Outer tile loops, in current order, for every tiled iterator.
        for pos in 0..n {
            let it = state.order[pos];
            let tile = state.tile_sizes[it];
            if tile > 0 {
                let bound = linalg_op.loop_bounds[it];
                let trips = bound.div_ceil(tile);
                let iterator_type = linalg_op.iterator_types[it];
                let kind = if state.parallelized && iterator_type == IteratorType::Parallel {
                    LoopKind::ParallelTile
                } else {
                    LoopKind::Tile
                };
                loops.push(LoopDim {
                    iterator: it,
                    extent: trips,
                    kind,
                    iterator_type,
                });
            }
        }
        // Point loops, in current order.
        for pos in 0..n {
            let it = state.order[pos];
            loops.push(LoopDim {
                iterator: it,
                extent: state.point_extent_at(linalg_op, pos),
                kind: LoopKind::Point,
                iterator_type: linalg_op.iterator_types[it],
            });
        }

        let point_extents = (0..n)
            .map(|it| {
                if state.tile_sizes[it] == 0 {
                    linalg_op.loop_bounds[it]
                } else {
                    state.tile_sizes[it].min(linalg_op.loop_bounds[it])
                }
            })
            .collect();

        let fused_producers = state
            .fused_producers
            .iter()
            .map(|p| {
                let pop = self.module.op(*p).expect("producer belongs to module");
                FusedProducer {
                    op: *p,
                    kind: pop.kind,
                    flops: pop.iteration_points() as f64 * f64::from(pop.arith.total()),
                    input_bytes: pop
                        .input_types
                        .iter()
                        .map(mlir_rl_ir::TensorType::size_bytes)
                        .sum(),
                    intermediate_bytes: pop.result_type.size_bytes(),
                }
            })
            .collect();

        LoopNest {
            op,
            loops,
            point_extents,
            full_extents: linalg_op.loop_bounds.clone(),
            order: state.order.clone(),
            vectorized: state.vectorized,
            fused_producers,
        }
    }

    /// Lowers every live (non-fused-away) operation.
    pub fn lower_all(&self) -> Vec<LoopNest> {
        self.live_ops()
            .into_iter()
            .map(|op| self.lower(op))
            .collect()
    }
}

/// The vectorization precondition an op fails, if any.
enum VectorizationBlocker {
    /// Some indexing map is not a projected permutation (or there are no
    /// loops).
    NotProjectedPermutations,
    /// The innermost point loop has this many iterations, more than
    /// [`MAX_VECTORIZABLE_INNER_EXTENT`].
    InnerExtent(u64),
}

fn vectorization_blocker(op: &LinalgOp, state: &OpScheduleState) -> Option<VectorizationBlocker> {
    if !op.vectorization_precondition() {
        return Some(VectorizationBlocker::NotProjectedPermutations);
    }
    let inner_extent = state.point_extent_at(op, op.num_loops() - 1);
    (inner_extent > MAX_VECTORIZABLE_INNER_EXTENT)
        .then_some(VectorizationBlocker::InnerExtent(inner_extent))
}

fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for p in perm {
        if *p >= n || seen[*p] {
            return false;
        }
        seen[*p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_ir::ModuleBuilder;

    fn matmul_module() -> Module {
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![256, 1024]);
        let w = b.argument("B", vec![1024, 512]);
        b.matmul(a, w);
        b.finish()
    }

    fn chain_module() -> Module {
        let mut b = ModuleBuilder::new("chain");
        let a = b.argument("A", vec![64, 128]);
        let w = b.argument("B", vec![128, 64]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        b.finish()
    }

    #[test]
    fn shares_module_is_pointer_identity() {
        let module = Arc::new(chain_module());
        let s = ScheduledModule::new(Arc::clone(&module));
        assert!(s.shares_module(&module));
        assert!(s.clone().shares_module(&module));
        let copy = Arc::new((*module).clone());
        assert_eq!(*copy, *module);
        assert!(!s.shares_module(&copy), "an equal copy is another module");
        assert!(!ScheduledModule::new(chain_module()).shares_module(&module));
    }

    #[test]
    fn untransformed_lowering_matches_loop_bounds() {
        let s = ScheduledModule::new(matmul_module());
        let nest = s.lower(OpId(0));
        assert_eq!(nest.depth(), 3);
        assert_eq!(nest.extents(), vec![256, 512, 1024]);
        assert_eq!(nest.num_tiles(), 1);
        assert_eq!(nest.parallel_degree(), 1);
        assert!(!nest.vectorized);
        assert_eq!(nest.innermost_iterator(), Some(2));
    }

    #[test]
    fn tiling_creates_tile_and_point_loops() {
        let mut s = ScheduledModule::new(matmul_module());
        s.apply(
            OpId(0),
            Transformation::Tiling {
                tile_sizes: vec![8, 8, 0],
            },
        )
        .unwrap();
        let nest = s.lower(OpId(0));
        // 2 tile loops (256/8=32, 512/8=64) + 3 point loops (8, 8, 1024).
        assert_eq!(nest.extents(), vec![32, 64, 8, 8, 1024]);
        assert_eq!(nest.num_tiles(), 32 * 64);
        assert_eq!(nest.tile_iterations(), 8 * 8 * 1024);
        assert!(nest.is_tiled());
        assert_eq!(nest.parallel_degree(), 1);
    }

    #[test]
    fn tiled_parallelization_marks_parallel_tile_loops() {
        let mut s = ScheduledModule::new(matmul_module());
        s.apply(
            OpId(0),
            Transformation::TiledParallelization {
                tile_sizes: vec![8, 8, 0],
            },
        )
        .unwrap();
        let nest = s.lower(OpId(0));
        assert_eq!(nest.parallel_degree(), 32 * 64);
    }

    #[test]
    fn parallelization_of_reduction_outermost_is_rejected() {
        // Softmax-like op where we first interchange so a reduction loop is
        // outermost, then try to parallelize it.
        let mut b = ModuleBuilder::new("s");
        let x = b.argument("x", vec![128, 256]);
        b.softmax_2d(x);
        let mut s = ScheduledModule::new(b.finish());
        s.apply(
            OpId(0),
            Transformation::Interchange {
                permutation: vec![1, 0],
            },
        )
        .unwrap();
        let err = s
            .check(
                OpId(0),
                &Transformation::TiledParallelization {
                    tile_sizes: vec![8, 8],
                },
            )
            .unwrap_err();
        assert!(matches!(err, TransformError::ParallelizingReduction { .. }));
    }

    #[test]
    fn interchange_permutes_visible_bounds() {
        let mut s = ScheduledModule::new(matmul_module());
        // I(2,0,1): the loop previously innermost becomes outermost.
        s.apply(
            OpId(0),
            Transformation::Interchange {
                permutation: vec![2, 0, 1],
            },
        )
        .unwrap();
        let op = s.module().op(OpId(0)).unwrap().clone();
        assert_eq!(s.state(OpId(0)).visible_bounds(&op), vec![1024, 256, 512]);
        let nest = s.lower(OpId(0));
        assert_eq!(nest.extents(), vec![1024, 256, 512]);
        assert_eq!(nest.innermost_iterator(), Some(1));

        // A second interchange composes with the first.
        s.apply(
            OpId(0),
            Transformation::Interchange {
                permutation: vec![1, 0, 2],
            },
        )
        .unwrap();
        let op = s.module().op(OpId(0)).unwrap().clone();
        assert_eq!(s.state(OpId(0)).visible_bounds(&op), vec![256, 1024, 512]);
    }

    #[test]
    fn invalid_permutation_rejected() {
        let mut s = ScheduledModule::new(matmul_module());
        let err = s
            .apply(
                OpId(0),
                Transformation::Interchange {
                    permutation: vec![0, 0, 1],
                },
            )
            .unwrap_err();
        assert!(matches!(err, TransformError::InvalidPermutation { .. }));
        let err = s
            .apply(
                OpId(0),
                Transformation::Interchange {
                    permutation: vec![0, 1],
                },
            )
            .unwrap_err();
        assert!(matches!(err, TransformError::InvalidPermutation { .. }));
    }

    #[test]
    fn tile_size_validation() {
        let mut s = ScheduledModule::new(matmul_module());
        let err = s
            .apply(
                OpId(0),
                Transformation::Tiling {
                    tile_sizes: vec![8, 8],
                },
            )
            .unwrap_err();
        assert!(matches!(err, TransformError::TileSizeArity { .. }));
        let err = s
            .apply(
                OpId(0),
                Transformation::Tiling {
                    tile_sizes: vec![8, 8, 2048],
                },
            )
            .unwrap_err();
        assert!(matches!(err, TransformError::TileSizeTooLarge { .. }));
    }

    #[test]
    fn vectorization_requires_small_inner_loop() {
        let mut s = ScheduledModule::new(matmul_module());
        // Innermost loop is 1024 > 512, so vectorization is masked out.
        let err = s
            .check(OpId(0), &Transformation::Vectorization)
            .unwrap_err();
        assert!(matches!(
            err,
            TransformError::VectorizationPrecondition { ref reason } if reason.contains("1024 iterations")
        ));
        assert!(!s.vectorizable(OpId(0)));
        // After tiling the reduction loop down to 8, vectorization is legal.
        s.apply(
            OpId(0),
            Transformation::Tiling {
                tile_sizes: vec![8, 8, 8],
            },
        )
        .unwrap();
        assert!(s.vectorizable(OpId(0)));
        s.apply(OpId(0), Transformation::Vectorization).unwrap();
        assert!(s.lower(OpId(0)).vectorized);
        // Vectorization is terminal.
        let err = s
            .apply(
                OpId(0),
                Transformation::Tiling {
                    tile_sizes: vec![8, 8, 8],
                },
            )
            .unwrap_err();
        assert!(matches!(err, TransformError::AlreadyVectorized));
    }

    #[test]
    fn fusion_requires_untouched_producer() {
        let mut s = ScheduledModule::new(chain_module());
        let (mm, relu) = (OpId(0), OpId(1));
        // Fusing the matmul into the relu is legal.
        s.apply(
            relu,
            Transformation::TiledFusion {
                tile_sizes: vec![8, 8],
                producer: mm,
            },
        )
        .unwrap();
        assert_eq!(s.state(mm).fused_into, Some(relu));
        assert_eq!(s.live_ops(), vec![relu]);
        let nest = s.lower(relu);
        assert_eq!(nest.fused_producers.len(), 1);
        assert!(nest.fused_intermediate_bytes() > 0);
        // The fused producer can no longer be scheduled on its own.
        let err = s.apply(mm, Transformation::Vectorization).unwrap_err();
        assert!(matches!(err, TransformError::OperationFusedAway { .. }));
    }

    #[test]
    fn fusion_with_scheduled_producer_is_rejected() {
        let mut s = ScheduledModule::new(chain_module());
        let (mm, relu) = (OpId(0), OpId(1));
        s.apply(
            mm,
            Transformation::Tiling {
                tile_sizes: vec![8, 8, 8],
            },
        )
        .unwrap();
        let err = s
            .check(
                relu,
                &Transformation::TiledFusion {
                    tile_sizes: vec![8, 8],
                    producer: mm,
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            TransformError::ProducerAlreadyScheduled { .. }
        ));
    }

    #[test]
    fn fusion_without_producer_is_rejected() {
        let s = ScheduledModule::new(matmul_module());
        let err = s
            .check(
                OpId(0),
                &Transformation::TiledFusion {
                    tile_sizes: vec![8, 8, 0],
                    producer: OpId(0),
                },
            )
            .unwrap_err();
        assert!(matches!(err, TransformError::NoProducerToFuse { .. }));
    }

    #[test]
    fn schedule_length_is_bounded() {
        let mut s = ScheduledModule::with_max_schedule_len(matmul_module(), 2);
        s.apply(
            OpId(0),
            Transformation::Tiling {
                tile_sizes: vec![8, 0, 0],
            },
        )
        .unwrap();
        s.apply(
            OpId(0),
            Transformation::Interchange {
                permutation: vec![1, 0, 2],
            },
        )
        .unwrap();
        let err = s
            .apply(
                OpId(0),
                Transformation::Tiling {
                    tile_sizes: vec![0, 8, 0],
                },
            )
            .unwrap_err();
        assert!(matches!(err, TransformError::ScheduleFull { .. }));
        // NoTransformation is always allowed to close the episode.
        s.apply(OpId(0), Transformation::NoTransformation).unwrap();
    }

    #[test]
    fn stop_freezes_the_operation_state() {
        let mut s = ScheduledModule::new(matmul_module());
        s.apply(OpId(0), Transformation::NoTransformation).unwrap();
        assert!(s.state(OpId(0)).is_terminated());
    }

    #[test]
    fn tiles_given_in_visible_order_after_interchange() {
        let mut s = ScheduledModule::new(matmul_module());
        // Put the reduction loop (bound 1024) outermost, then tile "level 0"
        // (which is now the reduction loop) with 4.
        s.apply(
            OpId(0),
            Transformation::Interchange {
                permutation: vec![2, 0, 1],
            },
        )
        .unwrap();
        s.apply(
            OpId(0),
            Transformation::Tiling {
                tile_sizes: vec![4, 0, 0],
            },
        )
        .unwrap();
        // The original iterator 2 (the k loop) should have tile size 4.
        assert_eq!(s.state(OpId(0)).tile_sizes, vec![0, 0, 4]);
        let nest = s.lower(OpId(0));
        assert_eq!(nest.point_extents, vec![256, 512, 4]);
    }

    #[test]
    fn is_permutation_helper() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[2, 0, 2], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 3, 1], 3));
    }
}

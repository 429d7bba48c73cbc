//! The Halide autoscheduler analogue (Mullapudi et al., Table IV).
//!
//! The Mullapudi autoscheduler greedily groups pipeline stages (fusing
//! cheap stages into their consumers), then tiles each group with a fixed
//! heuristic that targets the last-level cache and parallelizes the
//! outermost tiled loops. It does not search: tile sizes come from a static
//! rule, loop order is left untouched, and vectorization is applied to the
//! innermost dimension when possible. The schedule executes with generic
//! (compiler-generated) code quality, like MLIR RL's output.

use mlir_rl_costmodel::CodegenQuality;
use mlir_rl_ir::{IteratorType, Module};
use mlir_rl_transforms::{ScheduledModule, Transformation};

use crate::{Baseline, BaselineResult};

/// The greedy grouping + fixed-tiling autoscheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MullapudiAutoscheduler {
    /// Tile size used for every tiled dimension (the published heuristic
    /// targets a fixed per-group working set; 32 approximates its choice on
    /// the evaluation machine).
    pub tile_size: u64,
}

impl MullapudiAutoscheduler {
    /// Creates the autoscheduler with its default tile size of 32.
    pub fn new() -> Self {
        Self { tile_size: 32 }
    }
}

impl Baseline for MullapudiAutoscheduler {
    fn name(&self) -> String {
        "Halide autoscheduler (Mullapudi)".to_string()
    }

    fn optimize(&self, module: &Module) -> BaselineResult {
        let mut scheduled = ScheduledModule::new(module.clone());

        // 1. Greedy grouping: fuse cheap (elementwise) stages into their
        //    consumers, visiting consumers first.
        for op in module.reverse_order() {
            let Ok(linalg_op) = module.op(op) else {
                continue;
            };
            let Some(producer) = module.last_producer(op) else {
                continue;
            };
            let Ok(producer_op) = module.op(producer) else {
                continue;
            };
            // Group only when the producer is cheap relative to the consumer
            // (the published inlining criterion uses arithmetic intensity).
            if !producer_op.kind.is_elementwise() {
                continue;
            }
            let n = linalg_op.num_loops();
            let tiles: Vec<u64> = linalg_op
                .loop_bounds
                .iter()
                .take(n)
                .map(|b| {
                    if *b >= self.tile_size {
                        self.tile_size
                    } else {
                        0
                    }
                })
                .collect();
            if tiles.iter().all(|t| *t == 0) {
                continue;
            }
            let _ = scheduled.apply(
                op,
                Transformation::TiledFusion {
                    tile_sizes: tiles,
                    producer,
                },
            );
        }

        // 2. Fixed tiling + outer parallelization + vectorization per group.
        for op in module.op_order() {
            if scheduled.state(op).fused_into.is_some() || scheduled.state(op).is_terminated() {
                continue;
            }
            let Ok(linalg_op) = module.op(op) else {
                continue;
            };
            let n = linalg_op.num_loops();
            let tiles: Vec<u64> = (0..n)
                .map(|i| {
                    if linalg_op.iterator_types[i] == IteratorType::Parallel
                        && linalg_op.loop_bounds[i] >= self.tile_size
                    {
                        self.tile_size
                    } else {
                        0
                    }
                })
                .collect();
            if tiles.iter().any(|t| *t > 0) {
                let _ = scheduled.apply(
                    op,
                    Transformation::TiledParallelization { tile_sizes: tiles },
                );
            }
            let _ = scheduled.apply(op, Transformation::Vectorization);
        }

        BaselineResult {
            name: self.name(),
            scheduled,
            quality: CodegenQuality::Generic,
            extra_overhead_s: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup_over_mlir;
    use mlir_rl_costmodel::MachineModel;
    use mlir_rl_ir::{ModuleBuilder, OpId};
    use mlir_rl_workloads::LqcdApplication;

    #[test]
    fn tiles_and_parallelizes_a_matmul() {
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![256, 256]);
        let w = b.argument("B", vec![256, 256]);
        b.matmul(a, w);
        let module = b.finish();
        let result = MullapudiAutoscheduler::new().optimize(&module);
        let state = result.scheduled.state(OpId(0));
        assert!(state.parallelized);
        // Only the parallel dims are tiled by the heuristic.
        assert_eq!(state.tile_sizes, vec![32, 32, 0]);
        assert_eq!(result.quality, CodegenQuality::Generic);
    }

    #[test]
    fn groups_elementwise_producers() {
        let mut b = ModuleBuilder::new("chain");
        let x = b.argument("x", vec![256, 256]);
        let r = b.relu(x);
        let y = b.argument("y", vec![256, 256]);
        b.add(r, y);
        let module = b.finish();
        let result = MullapudiAutoscheduler::new().optimize(&module);
        assert_eq!(result.scheduled.state(OpId(0)).fused_into, Some(OpId(1)));
    }

    #[test]
    fn speeds_up_lqcd_applications_over_the_baseline() {
        let machine = MachineModel::default();
        for app in LqcdApplication::ALL {
            let module = app.module();
            let result = MullapudiAutoscheduler::new().optimize(&module);
            let s = speedup_over_mlir(&result, &module, &machine);
            assert!(
                s > 1.0,
                "{} should be faster than the baseline on {}, got {s}",
                result.name,
                app.name()
            );
        }
    }
}

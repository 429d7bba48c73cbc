//! Roofline-style execution-time estimation for scheduled operations.
//!
//! The estimator combines three terms:
//!
//! * **Compute time** — weighted scalar operations divided by the throughput
//!   of the cores used, scaled by vectorization efficiency (which depends on
//!   whether the innermost loop accesses memory with unit stride) and the
//!   code-generation quality.
//! * **Memory time** — traffic beyond each cache level (from the footprint
//!   model) divided by that level's bandwidth; the slowest level wins.
//! * **Overhead** — loop-iteration, tile-loop and parallel fork/join
//!   overheads.
//!
//! Total time is `max(compute, memory) + overhead`, the usual overlapped
//! roofline. This gives transformations exactly the incentives the paper
//! describes: parallelization divides compute across cores but pays a
//! dispatch cost, tiling cuts cache traffic, interchange enables unit-stride
//! vectorization, fusion removes intermediate-tensor traffic, and
//! vectorization multiplies compute throughput of dense innermost loops.

use mlir_rl_ir::{LinalgOp, Module};
use mlir_rl_transforms::{LoopNest, ScheduledModule};

use crate::footprint::{operand_accesses, OperandAccess, SubnestTable};
use crate::machine::{CodegenQuality, MachineModel};

/// Estimate for a whole module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleEstimate {
    /// Sum of the live operations' times, seconds.
    pub total_s: f64,
}

/// Working memory for pricing schedules op by op: the lowered nest of the op
/// being priced and the storage of its sub-nest table. Every field is
/// overwritten before it is read, so what a scratch held never changes a
/// price; an owner that prices many misses keeps one and allocates nothing
/// once its buffers are large enough. It is not state: an owner's clone
/// starts from [`PricingScratch::default`] instead of copying it.
#[derive(Debug, Default)]
pub struct PricingScratch {
    nest: LoopNest,
    words: Vec<u64>,
    uses: Vec<bool>,
}

/// The analytical cost model: a machine plus a code-generation quality.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    machine: MachineModel,
    quality: CodegenQuality,
}

impl CostModel {
    /// Cost model for compiler-generated (MLIR-style) code on a machine.
    pub fn new(machine: MachineModel) -> Self {
        Self {
            machine,
            quality: CodegenQuality::Generic,
        }
    }

    /// Cost model with an explicit code-generation quality.
    pub fn with_quality(machine: MachineModel, quality: CodegenQuality) -> Self {
        Self { machine, quality }
    }

    /// The machine description.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The code-generation quality the model assumes.
    pub fn quality(&self) -> CodegenQuality {
        self.quality
    }

    /// Execution time of one scheduled operation of `scheduled`, seconds:
    /// `max(compute, memory) + overhead`, lowered and tabled in `scratch`.
    fn op_total_s(
        &self,
        scheduled: &ScheduledModule,
        op: &LinalgOp,
        accesses: &[OperandAccess],
        scratch: &mut PricingScratch,
    ) -> f64 {
        scheduled.lower_into(op.id, &mut scratch.nest);
        let nest = &scratch.nest;
        let m = &self.machine;
        let total_iterations = nest.total_iterations() as f64;
        let cores_used = (nest.parallel_degree().min(u64::from(m.cores)) as u32).max(1);

        // --- Compute ------------------------------------------------------
        let flops = total_iterations * op.arith.weighted_cost() + nest.fused_flops();
        let vec_factor = self.vectorization_factor(nest, accesses);
        let per_core = m.peak_flops_per_core(false) * vec_factor * m.efficiency(self.quality);
        // Load imbalance: tiles are distributed over cores in whole rounds.
        let utilization = if nest.parallel_degree() > 1 {
            let tasks = nest.parallel_degree() as f64;
            let rounds = (tasks / f64::from(cores_used)).ceil();
            (tasks / (rounds * f64::from(cores_used))).clamp(0.05, 1.0)
        } else {
            1.0
        };
        let compute_s = flops / (per_core * f64::from(cores_used) * utilization);

        // --- Memory ---------------------------------------------------------
        // Traffic beyond each cache level, served at that level's
        // "next level" bandwidth. Shared L3 capacity is split among active
        // cores. One sub-nest table prices all three levels.
        let table = SubnestTable::build_in(
            accesses,
            nest,
            std::mem::take(&mut scratch.words),
            std::mem::take(&mut scratch.uses),
        );
        let l1_traffic = table.total_traffic_beyond_cache(m.l1.capacity_bytes);
        let l2_traffic = table.total_traffic_beyond_cache(m.l2.capacity_bytes);
        let l3_capacity = m.l3.capacity_bytes / u64::from(cores_used).max(1);
        let mut dram_traffic = table.total_traffic_beyond_cache(l3_capacity) as f64;
        (scratch.words, scratch.uses) = table.into_buffers();

        // Fusion: the intermediate tensor no longer round-trips through main
        // memory, but the fused producer's own inputs must still be read.
        let fused_saved = nest.fused_intermediate_bytes() as f64;
        let fused_added: f64 = nest
            .fused_producers
            .iter()
            .map(|p| p.input_bytes as f64)
            .sum();
        dram_traffic = (dram_traffic - fused_saved + fused_added).max(0.0);

        let l2_bw = m.l2.bandwidth_bytes_per_s * f64::from(cores_used);
        let l3_bw = m.l3.bandwidth_bytes_per_s * f64::from(cores_used.min(8));
        let dram_bw = m.dram_bandwidth_for(cores_used);
        let memory_s = (l1_traffic as f64 / l2_bw)
            .max(l2_traffic as f64 / l3_bw)
            .max(dram_traffic / dram_bw);

        // --- Overheads -----------------------------------------------------
        let vec_reduction = if nest.vectorized {
            f64::from(m.vector_lanes_f32)
        } else {
            1.0
        };
        let loop_overhead =
            total_iterations / vec_reduction * m.loop_iteration_overhead_s / f64::from(cores_used);
        let tile_overhead = nest.num_tiles() as f64 * 20.0e-9 / f64::from(cores_used);
        let parallel_overhead = if nest.parallel_degree() > 1 {
            m.fork_join_overhead_s
                + nest.parallel_degree() as f64 * m.per_task_overhead_s / f64::from(cores_used)
        } else {
            0.0
        };
        let overhead_s = loop_overhead + tile_overhead + parallel_overhead;

        compute_s.max(memory_s) + overhead_s
    }

    /// Effective speedup factor of the vector unit for this nest: 1.0 when
    /// not vectorized, up to the number of lanes when every operand is
    /// accessed with unit stride (or broadcast) along the innermost loop.
    fn vectorization_factor(&self, nest: &LoopNest, accesses: &[OperandAccess]) -> f64 {
        if !nest.vectorized {
            return 1.0;
        }
        let Some(inner) = nest.innermost_iterator() else {
            return 1.0;
        };
        let lanes = f64::from(self.machine.vector_lanes_f32);
        let friendly = accesses
            .iter()
            .filter(|a| a.unit_stride_in(inner) || !a.uses_iterator(inner))
            .count() as f64;
        let fraction = if accesses.is_empty() {
            0.0
        } else {
            friendly / accesses.len() as f64
        };
        // Short innermost loops cannot fill the vector lanes.
        let fill = (nest.innermost_extent() as f64 / lanes).clamp(1.0 / lanes, 1.0);
        1.0 + (lanes - 1.0) * fraction * fill
    }

    /// The module total of [`CostModel::estimate_scheduled`], priced from
    /// operand accesses built beforehand and in a caller's `scratch`:
    /// `accesses[i]` must be [`operand_accesses`] of the module's op `i` if
    /// that op is live (a fused op's entry is not read). A caller that
    /// prices many schedules of one module builds the accesses once and
    /// keeps one scratch. This is the model's one module loop: the live
    /// ops' times, summed in ascending op order from `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `accesses` has no entry for a live op.
    pub fn total_s_with_accesses(
        &self,
        scheduled: &ScheduledModule,
        accesses: &[Vec<OperandAccess>],
        scratch: &mut PricingScratch,
    ) -> f64 {
        let module = scheduled.module();
        let mut total = 0.0;
        for (op, state) in module.ops().iter().zip(scheduled.states()) {
            if state.fused_into.is_none() {
                total += self.op_total_s(scheduled, op, &accesses[op.id.0], scratch);
            }
        }
        total
    }

    /// Estimates the execution time of a scheduled module: the live ops'
    /// times summed. Only live ops' accesses are built, and it prices in a
    /// fresh [`PricingScratch`].
    ///
    /// # Panics
    ///
    /// Panics if an operation's indexing maps are malformed (they are
    /// validated at construction time).
    pub fn estimate_scheduled(&self, scheduled: &ScheduledModule) -> ModuleEstimate {
        let accesses: Vec<_> = scheduled
            .module()
            .ops()
            .iter()
            .zip(scheduled.states())
            .map(|(op, state)| match state.fused_into {
                None => operand_accesses(op).expect("validated op has well-formed maps"),
                Some(_) => Vec::new(),
            })
            .collect();
        ModuleEstimate {
            total_s: self.total_s_with_accesses(
                scheduled,
                &accesses,
                &mut PricingScratch::default(),
            ),
        }
    }

    /// Estimates the *baseline* execution time of a module: no loop-level
    /// transformations applied (the paper's "MLIR without loop-level
    /// optimizations, with -O3" baseline).
    pub fn estimate_baseline(&self, module: &Module) -> ModuleEstimate {
        self.estimate_scheduled(&ScheduledModule::new(module.clone()))
    }
}

/// Speedup of an optimized time over a baseline time (both in seconds).
///
/// Values greater than 1 mean the optimized code is faster.
pub fn speedup(baseline_s: f64, optimized_s: f64) -> f64 {
    if optimized_s <= 0.0 {
        return 1.0;
    }
    baseline_s / optimized_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_ir::{ModuleBuilder, OpId};
    use mlir_rl_transforms::Transformation;

    fn matmul_module(m: u64, n: u64, k: u64) -> Module {
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![m, k]);
        let w = b.argument("B", vec![k, n]);
        b.matmul(a, w);
        b.finish()
    }

    fn model() -> CostModel {
        CostModel::new(MachineModel::default())
    }

    #[test]
    fn baseline_estimate_is_positive_and_finite() {
        let est = model().estimate_baseline(&matmul_module(256, 512, 1024));
        assert!(est.total_s > 0.0);
        assert!(est.total_s.is_finite());
    }

    #[test]
    fn parallelization_reduces_time() {
        let module = matmul_module(256, 512, 1024);
        let cm = model();
        let baseline = cm.estimate_baseline(&module).total_s;

        let mut sm = ScheduledModule::new(module);
        sm.apply(
            OpId(0),
            Transformation::TiledParallelization {
                tile_sizes: vec![32, 32, 0],
            },
        )
        .unwrap();
        let parallel = cm.estimate_scheduled(&sm).total_s;
        assert!(
            parallel < baseline / 4.0,
            "parallelization over 28 cores should give a large speedup: {baseline} -> {parallel}"
        );
    }

    #[test]
    fn vectorization_reduces_time_for_unit_stride() {
        let module = matmul_module(256, 256, 256);
        let cm = model();
        let mut tiled = ScheduledModule::new(module.clone());
        tiled
            .apply(
                OpId(0),
                Transformation::Tiling {
                    tile_sizes: vec![32, 32, 32],
                },
            )
            .unwrap();
        let before = cm.estimate_scheduled(&tiled).total_s;
        tiled.apply(OpId(0), Transformation::Vectorization).unwrap();
        let after = cm.estimate_scheduled(&tiled).total_s;
        assert!(
            after < before,
            "vectorization should help a compute-bound tiled matmul: {before} -> {after}"
        );
    }

    #[test]
    fn tiling_helps_when_working_set_exceeds_cache() {
        // A large matmul whose B matrix (4096x4096 f32 = 64 MB) exceeds LLC.
        let module = matmul_module(2048, 4096, 4096);
        let cm = model();
        let baseline = cm.estimate_baseline(&module).total_s;
        let mut sm = ScheduledModule::new(module);
        sm.apply(
            OpId(0),
            Transformation::Tiling {
                tile_sizes: vec![64, 64, 64],
            },
        )
        .unwrap();
        let tiled = cm.estimate_scheduled(&sm).total_s;
        assert!(
            tiled < baseline,
            "cache tiling should pay off for out-of-cache matmul: {baseline} -> {tiled}"
        );
    }

    #[test]
    fn interchange_to_unit_stride_inner_loop_helps_vectorization() {
        // Elementwise-style comparison: matmul with j innermost (unit stride
        // for B and C) should vectorize better than with k innermost.
        let module = matmul_module(128, 128, 128);
        let cm = model();

        // k innermost (default order), vectorized.
        let mut k_inner = ScheduledModule::new(module.clone());
        k_inner
            .apply(
                OpId(0),
                Transformation::Tiling {
                    tile_sizes: vec![0, 0, 64],
                },
            )
            .unwrap();
        k_inner
            .apply(OpId(0), Transformation::Vectorization)
            .unwrap();
        let t_k = cm.estimate_scheduled(&k_inner).total_s;

        // j innermost via interchange (i, k, j), vectorized.
        let mut j_inner = ScheduledModule::new(module);
        j_inner
            .apply(
                OpId(0),
                Transformation::Interchange {
                    permutation: vec![0, 2, 1],
                },
            )
            .unwrap();
        j_inner
            .apply(
                OpId(0),
                Transformation::Tiling {
                    tile_sizes: vec![0, 0, 64],
                },
            )
            .unwrap();
        j_inner
            .apply(OpId(0), Transformation::Vectorization)
            .unwrap();
        let t_j = cm.estimate_scheduled(&j_inner).total_s;

        assert!(
            t_j < t_k,
            "unit-stride innermost loop should vectorize better: j-inner {t_j} vs k-inner {t_k}"
        );
    }

    #[test]
    fn fusion_reduces_elementwise_chain_time() {
        // matmul -> relu: fusing the matmul into the relu avoids the
        // intermediate tensor round-trip.
        let mut b = ModuleBuilder::new("chain");
        let a = b.argument("A", vec![1024, 1024]);
        let w = b.argument("B", vec![1024, 1024]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        let module = b.finish();
        let cm = model();

        // Unfused but with the same tiling on both ops.
        let mut unfused = ScheduledModule::new(module.clone());
        unfused
            .apply(
                OpId(1),
                Transformation::Tiling {
                    tile_sizes: vec![64, 64],
                },
            )
            .unwrap();
        let t_unfused = cm.estimate_scheduled(&unfused).total_s;

        let mut fused = ScheduledModule::new(module);
        fused
            .apply(
                OpId(1),
                Transformation::TiledFusion {
                    tile_sizes: vec![64, 64],
                    producer: OpId(0),
                },
            )
            .unwrap();
        let t_fused = cm.estimate_scheduled(&fused).total_s;
        assert!(
            t_fused < t_unfused,
            "fusion should remove intermediate traffic: {t_unfused} -> {t_fused}"
        );
    }

    #[test]
    fn expert_kernels_are_faster_than_generic_codegen() {
        let module = matmul_module(512, 512, 512);
        let machine = MachineModel::default();
        let generic = CostModel::with_quality(machine.clone(), CodegenQuality::Generic);
        let expert = CostModel::with_quality(machine, CodegenQuality::ExpertKernel);
        // Both evaluate a well-optimized schedule.
        let mut sm = ScheduledModule::new(module);
        sm.apply(
            OpId(0),
            Transformation::TiledParallelization {
                tile_sizes: vec![64, 64, 0],
            },
        )
        .unwrap();
        sm.apply(
            OpId(0),
            Transformation::Tiling {
                tile_sizes: vec![0, 0, 64],
            },
        )
        .unwrap();
        sm.apply(OpId(0), Transformation::Vectorization).unwrap();
        let tg = generic.estimate_scheduled(&sm).total_s;
        let te = expert.estimate_scheduled(&sm).total_s;
        assert!(te < tg);
    }

    #[test]
    fn tiny_parallel_tiles_pay_dispatch_overhead() {
        // A small elementwise op: parallelizing with tile size 1 creates a
        // huge number of tiny tasks whose dispatch overhead outweighs the
        // win.
        let mut b = ModuleBuilder::new("small");
        let x = b.argument("x", vec![64, 64]);
        let y = b.argument("y", vec![64, 64]);
        b.add(x, y);
        let module = b.finish();
        let cm = model();
        let baseline = cm.estimate_baseline(&module).total_s;
        let mut sm = ScheduledModule::new(module);
        sm.apply(
            OpId(0),
            Transformation::TiledParallelization {
                tile_sizes: vec![1, 1],
            },
        )
        .unwrap();
        let over_parallelized = cm.estimate_scheduled(&sm).total_s;
        assert!(
            over_parallelized > baseline / 28.0,
            "4096 one-element tasks must not scale perfectly"
        );
    }

    #[test]
    fn speedup_helper() {
        assert!((speedup(2.0, 1.0) - 2.0).abs() < 1e-12);
        assert!((speedup(1.0, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(speedup(1.0, 0.0), 1.0);
    }

    #[test]
    fn fused_away_producer_not_counted_twice() {
        let mut b = ModuleBuilder::new("chain");
        let a = b.argument("A", vec![256, 256]);
        let w = b.argument("B", vec![256, 256]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        let module = b.finish();
        let cm = model();
        let mut fused = ScheduledModule::new(module);
        fused
            .apply(
                OpId(1),
                Transformation::TiledFusion {
                    tile_sizes: vec![32, 32],
                    producer: OpId(0),
                },
            )
            .unwrap();
        assert_eq!(
            fused.live_ops(),
            [OpId(1)],
            "only the fused consumer executes"
        );
        let relu = &fused.module().ops()[1];
        let accesses = operand_accesses(relu).unwrap();
        let consumer_alone = cm.op_total_s(&fused, relu, &accesses, &mut PricingScratch::default());
        assert_eq!(cm.estimate_scheduled(&fused).total_s, consumer_alone);
    }
}

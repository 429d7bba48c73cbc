//! # mlir-rl-costmodel
//!
//! Analytical CPU performance model that substitutes for real execution of
//! transformed loop nests (the paper measures on a dual-socket Xeon E5-2680
//! v4; this reproduction estimates times with a roofline + cache-footprint
//! model so that the RL agent faces the same optimization landscape shape:
//! tiling pays when working sets exceed cache, interchange pays when it
//! exposes unit-stride vectorization, parallelization scales with cores but
//! pays dispatch overheads, and fusion removes intermediate-tensor traffic).
//!
//! ## Example
//!
//! ```
//! use mlir_rl_costmodel::{speedup, CostModel, MachineModel};
//! use mlir_rl_ir::{ModuleBuilder, OpId};
//! use mlir_rl_transforms::{ScheduledModule, Transformation};
//!
//! let mut b = ModuleBuilder::new("m");
//! let a = b.argument("A", vec![256, 1024]);
//! let w = b.argument("B", vec![1024, 512]);
//! b.matmul(a, w);
//! let module = b.finish();
//!
//! let cm = CostModel::new(MachineModel::default());
//! let baseline = cm.estimate_baseline(&module).total_s;
//!
//! let mut sm = ScheduledModule::new(module);
//! sm.apply(OpId(0), Transformation::TiledParallelization { tile_sizes: vec![8, 8, 0] })?;
//! let optimized = cm.estimate_scheduled(&sm).total_s;
//! assert!(speedup(baseline, optimized) > 1.0);
//! # Ok::<(), mlir_rl_transforms::TransformError>(())
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod estimator;
pub mod footprint;
pub mod machine;
pub mod noise;

pub use budget::EvalBudget;
pub use cache::{
    hit_rate, module_fingerprint, schedule_key, ScheduleKey, SharedEvalCache, SnapshotError,
    DEFAULT_EVAL_CACHE_CAPACITY, SHARED_CACHE_SHARDS,
};
pub use estimator::{speedup, CostModel, ModuleEstimate, PricingScratch};
pub use footprint::{
    operand_accesses, subnest_footprint, traffic_beyond_cache, OperandAccess, SubnestTable,
};
pub use machine::{CacheLevel, CodegenQuality, MachineModel};
pub use noise::{median, MeasurementNoise};

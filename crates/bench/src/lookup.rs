//! Where a cost-model lookup's time goes: reading the schedule's key, and,
//! on a miss, lowering each live op and pricing it from its sub-nest table.
//!
//! The schedules are what the benchmark's `serve-random-cold` workload
//! prices: the final schedules of random masked episodes at the paper's
//! configuration, over a pool that is one third operator sequences and two
//! thirds single operators of every kind. Every miss-path stage runs the
//! way an environment runs it — from operand accesses kept per module, in
//! one reused [`PricingScratch`] (or its nest and table storage alone) — so
//! the split reads what a miss costs once nothing is re-derived.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mlir_rl_costmodel::{
    median, operand_accesses, CostModel, MachineModel, OperandAccess, PricingScratch, SubnestTable,
};
use mlir_rl_env::{EnvConfig, OptimizationEnv};
use mlir_rl_ir::OpId;
use mlir_rl_search::random_action;
use mlir_rl_transforms::{LoopNest, ScheduledModule};
use mlir_rl_workloads::dl_ops::{self, DlOperator};
use mlir_rl_workloads::sequences::{random_sequence, SEQUENCE_LENGTH};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::{ensure_all, report, Report};
use crate::ExperimentScale;

report! {
    /// Result of the lookup-split experiment: what one cost-model lookup
    /// pays for its key, and what a miss pays per live op to lower it and
    /// to price it, on `serve-random-cold`-shaped schedules.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct LookupSplit {
        /// Modules in the pool.
        modules: usize = "modules",
        /// Schedules priced: the final schedules of random episodes.
        schedules: usize = "schedules",
        /// Live (not fused-away) ops over all schedules.
        live_ops: usize = "live ops",
        /// Median nanoseconds of one schedule-key read
        /// (`ScheduledModule::fingerprint`; a debug build also recomputes
        /// its oracle).
        key_read_ns: f64 = "schedule-key read (ns)",
        /// Median microseconds per live op of `lower_into` into one kept
        /// nest.
        lower_us_per_op: f64 = "lower_into per live op (us)",
        /// Median microseconds per live op of building the sub-nest table in
        /// kept storage from kept accesses and pricing it at the L1, L2 and
        /// per-core L3 capacities.
        table_us_per_op: f64 = "table + three pricings per live op (us)",
        /// Median microseconds per schedule of a whole miss,
        /// `total_s_with_accesses` from kept accesses in one kept scratch.
        miss_us: f64 = "whole miss per schedule (us)",
        /// Whether every schedule priced in the kept scratch equals
        /// `estimate_scheduled`, bit for bit.
        scratch_matches_estimator: bool = "kept scratch prices like the estimator",
    }
}

impl Report for LookupSplit {
    fn check(&self) -> Result<(), String> {
        let timed = [
            self.key_read_ns,
            self.lower_us_per_op,
            self.table_us_per_op,
            self.miss_us,
        ];
        ensure_all!(
            self.schedules > 0 && self.live_ops >= self.schedules,
            timed.iter().all(|t| t.is_finite() && *t > 0.0),
            // A miss lowers and prices every live op, so it costs at least
            // the lowering of one.
            self.miss_us >= self.lower_us_per_op,
            self.scratch_matches_estimator,
        )
    }
}

/// Samples per stage; each sample is one pass over every schedule.
const SAMPLES: usize = 15;

/// Random episodes per module.
const EPISODES_PER_MODULE: usize = 4;

/// One schedule and the operand accesses of its module's ops.
struct Priced {
    scheduled: ScheduledModule,
    accesses: Arc<Vec<Vec<OperandAccess>>>,
}

/// Times each stage of a lookup on the final schedules of random episodes
/// over a `serve-random-cold`-shaped pool (30 modules at smoke scale, 120
/// at standard, 600 at full).
pub fn lookup_split(scale: &ExperimentScale) -> LookupSplit {
    let config = EnvConfig::paper();
    let model = CostModel::new(MachineModel::xeon_e5_2680_v4());
    let count = (scale.trajectories_per_iteration * 10).clamp(30, 600);
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let mut pool: Vec<_> = (0..count / 3)
        .map(|_| random_sequence(SEQUENCE_LENGTH, &mut rng))
        .collect();
    pool.extend(
        (0..count - count / 3)
            .map(|i| dl_ops::random_operator(DlOperator::ALL[i % DlOperator::ALL.len()], &mut rng)),
    );

    let mut env = OptimizationEnv::new(config.clone(), model.clone());
    let mut priced = Vec::new();
    for module in pool {
        let module = Arc::new(module);
        let accesses = Arc::new(
            module
                .ops()
                .iter()
                .map(|op| operand_accesses(op).expect("validated op has well-formed maps"))
                .collect(),
        );
        for _ in 0..EPISODES_PER_MODULE {
            env.restart(Arc::clone(&module));
            while let Some(mask) = env.current_mask() {
                env.step(&random_action(&mask, &config, &mut rng));
            }
            priced.push(Priced {
                scheduled: env.scheduled().expect("episode is live").clone(),
                accesses: Arc::clone(&accesses),
            });
        }
    }
    let live: Vec<(usize, OpId)> = priced
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.scheduled.live_ops().into_iter().map(move |op| (i, op)))
        .collect();

    let mut scratch = PricingScratch::default();
    let scratch_matches_estimator = priced.iter().all(|p| {
        let kept = model.total_s_with_accesses(&p.scheduled, &p.accesses, &mut scratch);
        kept.to_bits() == model.estimate_scheduled(&p.scheduled).total_s.to_bits()
    });

    let key_read_ns = median_per_item(priced.len(), 1e9, || {
        for p in &priced {
            black_box(black_box(&p.scheduled).fingerprint());
        }
    });
    let mut nest = LoopNest::default();
    let lower_us_per_op = median_per_item(live.len(), 1e6, || {
        for (i, op) in &live {
            priced[*i].scheduled.lower_into(*op, &mut nest);
            black_box(&nest);
        }
    });
    let nests: Vec<LoopNest> = live
        .iter()
        .map(|(i, op)| priced[*i].scheduled.lower(*op))
        .collect();
    let machine = model.machine();
    let mut buffers = (Vec::new(), Vec::new());
    let table_us_per_op = median_per_item(live.len(), 1e6, || {
        for ((i, op), nest) in live.iter().zip(&nests) {
            let accesses = &priced[*i].accesses[op.0];
            let (words, uses) = std::mem::take(&mut buffers);
            let table = SubnestTable::build_in(accesses, nest, words, uses);
            let cores = nest.parallel_degree().clamp(1, u64::from(machine.cores));
            black_box(table.total_traffic_beyond_cache(machine.l1.capacity_bytes));
            black_box(table.total_traffic_beyond_cache(machine.l2.capacity_bytes));
            black_box(table.total_traffic_beyond_cache(machine.l3.capacity_bytes / cores));
            buffers = table.into_buffers();
        }
    });
    let miss_us = median_per_item(priced.len(), 1e6, || {
        for p in &priced {
            black_box(model.total_s_with_accesses(&p.scheduled, &p.accesses, &mut scratch));
        }
    });

    LookupSplit {
        modules: count,
        schedules: priced.len(),
        live_ops: live.len(),
        key_read_ns,
        lower_us_per_op,
        table_us_per_op,
        miss_us,
        scratch_matches_estimator,
    }
}

/// The median over [`SAMPLES`] runs of `pass` of its wall time per item,
/// in `unit`s per second (`1e9`: nanoseconds).
fn median_per_item(items: usize, unit: f64, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64() * unit / items.max(1) as f64
        })
        .collect();
    median(&samples).expect("SAMPLES samples")
}

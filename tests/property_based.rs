//! Property-based integration tests over the IR, the transformation engine
//! and the cost model.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mlir_rl_costmodel::{
    module_fingerprint, operand_accesses, schedule_key, traffic_beyond_cache, CostModel,
    MachineModel, SharedEvalCache, SubnestTable, DEFAULT_EVAL_CACHE_CAPACITY,
};
use mlir_rl_env::{
    extract_features_dense, num_enumerated_candidates, Action, EnvConfig, Features, Observation,
    OptimizationEnv, RewardMode,
};
use mlir_rl_ir::{parser::parse_module, printer::print_module, IteratorType, ModuleBuilder, OpId};
use mlir_rl_search::random_action;
use mlir_rl_transforms::{ScheduledModule, TransformError, Transformation, TransformationKind};
use mlir_rl_workloads::dl_ops::{random_operator, DlOperator};
use mlir_rl_workloads::lqcd::lqcd_kernel;
use mlir_rl_workloads::sequences::random_sequence;

/// Checks every live op of `scheduled`: the sub-nest table's per-operand
/// traffic equals the reference `traffic_beyond_cache`, bit for bit, at the
/// machine's L1, L2 and per-core L3 capacities and at degenerate ones —
/// both a table in new storage and one built in the storage the previous
/// op's table handed back.
fn assert_table_matches_reference(scheduled: &ScheduledModule, machine: &MachineModel) {
    let mut buffers = (Vec::new(), Vec::new());
    for op in scheduled.live_ops() {
        let accesses = operand_accesses(scheduled.module().op(op).unwrap()).unwrap();
        let nest = scheduled.lower(op);
        let fresh = SubnestTable::new(&accesses, &nest);
        let reused = SubnestTable::build_in(&accesses, &nest, buffers.0, buffers.1);
        let cores_used = nest.parallel_degree().min(u64::from(machine.cores)).max(1);
        let capacities = [
            machine.l1.capacity_bytes,
            machine.l2.capacity_bytes,
            machine.l3.capacity_bytes / cores_used,
            0,
            1,
            64,
            u64::MAX / 4,
        ];
        for capacity in capacities {
            let reference = traffic_beyond_cache(&accesses, &nest, capacity);
            for table in [&fresh, &reused] {
                let table_traffic: Vec<u64> = table.traffic_beyond_cache(capacity).collect();
                assert_eq!(
                    table_traffic,
                    reference,
                    "{} {op} at {capacity} bytes, loops {:?}",
                    scheduled.module().name(),
                    nest.extents()
                );
            }
        }
        buffers = reused.into_buffers();
    }
}

fn matmul(m: u64, n: u64, k: u64) -> mlir_rl_ir::Module {
    let mut b = ModuleBuilder::new("pm");
    let a = b.argument("A", vec![m, k]);
    let w = b.argument("B", vec![k, n]);
    b.matmul(a, w);
    b.finish()
}

/// Parsing a printed module gives back the module the cost model sees:
/// printing it again gives the same text, and its fingerprint, op count,
/// op kinds and loop bounds are unchanged. (The reparsed module is not `==`: the parser numbers the
/// arguments before the op results.)
fn assert_round_trips(module: &mlir_rl_ir::Module) {
    let printed = print_module(module);
    let reparsed = parse_module(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
    assert_eq!(print_module(&reparsed), printed);
    assert_eq!(
        module_fingerprint(&reparsed),
        module_fingerprint(module),
        "{printed}"
    );
    assert_eq!(reparsed.ops().len(), module.ops().len(), "{printed}");
    for (a, b) in module.ops().iter().zip(reparsed.ops()) {
        assert_eq!(a.kind, b.kind, "{printed}");
        assert_eq!(a.loop_bounds, b.loop_bounds, "{printed}");
    }
}

#[test]
fn the_training_dataset_round_trips_through_the_printer() {
    for module in mlir_rl_workloads::full_training_dataset(0.2, 17) {
        assert_round_trips(&module);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// A matmul of any size, every operator kind and an operator sequence
    /// survive print ∘ parse (the last two are the generators of the
    /// mutation proptest below).
    #[test]
    fn printer_parser_roundtrip(
        m in 1u64..256, n in 1u64..256, k in 1u64..256,
        seed in 0u64..1 << 32, length in 1usize..4,
    ) {
        assert_round_trips(&matmul(m, n, k));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for kind in DlOperator::ALL {
            assert_round_trips(&random_operator(kind, &mut rng));
        }
        assert_round_trips(&random_sequence(length, &mut rng));
    }
}

/// One step of an op's action history as the test records it from the
/// actions it takes (Appendix A): a tiled action's tile-candidate index per
/// loop level, or the loop order an interchange left.
#[derive(Debug, Clone)]
enum RecordedStep {
    Tiled(Vec<usize>),
    Interchange(Vec<usize>),
}

/// Steps `env` with `action` on `op` and, if it applied, records it:
/// terminal actions record nothing.
fn step_and_record(
    env: &mut OptimizationEnv,
    recorded: &mut [Vec<RecordedStep>],
    op: OpId,
    action: &Action,
) {
    if !env.step(action).applied {
        return;
    }
    let order = &env.scheduled().expect("episode is live").state(op).order;
    match action {
        Action::Tiling { tile_indices }
        | Action::TiledParallelization { tile_indices }
        | Action::TiledFusion { tile_indices } => {
            recorded[op.0].push(RecordedStep::Tiled(tile_indices.clone()));
        }
        Action::Interchange(_) => recorded[op.0].push(RecordedStep::Interchange(order.clone())),
        Action::Vectorization | Action::NoTransformation => {}
    }
}

/// The columns Appendix A sets for one op's recorded steps, relative to the
/// history section's start and ascending: the `tau x N x M` tiled block,
/// then the `tau x N x N` interchange block.
fn recorded_history_columns(steps: &[RecordedStep], config: &EnvConfig) -> Vec<usize> {
    let (tau, n, m) = (
        config.max_schedule_len,
        config.max_loops,
        config.num_tile_candidates(),
    );
    let (mut tiled, mut interchange) = (Vec::new(), Vec::new());
    for (t, step) in steps.iter().take(tau).enumerate() {
        match step {
            RecordedStep::Tiled(indices) => {
                for (level, index) in indices.iter().take(n).enumerate() {
                    tiled.push((t * n + level) * m + index);
                }
            }
            RecordedStep::Interchange(order) => {
                for (pos, loop_idx) in order.iter().take(n).enumerate() {
                    if *loop_idx < n {
                        interchange.push(tau * n * m + (t * n + pos) * n + loop_idx);
                    }
                }
            }
        }
    }
    tiled.extend(interchange);
    tiled
}

/// Checks one observation: both lists are well formed and read back as the
/// dense reference extractor's vectors bit for bit, and each list's history
/// section holds ones exactly at the columns the recording gives its op.
fn check_observation(env: &OptimizationEnv, obs: &Observation, recorded: &[Vec<RecordedStep>]) {
    let config = env.config();
    let scheduled = env.scheduled().expect("episode is live");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let history_start = config.feature_len()
        - config.max_schedule_len
            * config.max_loops
            * (config.num_tile_candidates() + config.max_loops);
    let check = |features: &Features, op: OpId| {
        let (cols, values) = features.nonzeros();
        assert_eq!(features.len(), config.feature_len());
        assert_eq!(cols.len(), values.len());
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "columns not ascending"
        );
        assert!(cols.iter().all(|c| (*c as usize) < features.len()));
        assert!(values.iter().all(|v| *v != 0.0), "a stored zero");
        let dense = extract_features_dense(scheduled, op, config);
        assert_eq!(bits(features.as_slice()), bits(&dense));
        let history: Vec<usize> = cols
            .iter()
            .zip(values)
            .filter(|(col, _)| **col as usize >= history_start)
            .map(|(col, value)| {
                assert_eq!(*value, 1.0, "a history entry other than a one");
                *col as usize - history_start
            })
            .collect();
        assert_eq!(history, recorded_history_columns(&recorded[op.0], config));
    };
    check(&obs.consumer, obs.op);
    match scheduled.module().last_producer(obs.op) {
        Some(producer) => check(&obs.producer, producer),
        None => {
            assert!(obs.producer.nonzeros().0.is_empty());
            assert_eq!(obs.producer.len(), config.feature_len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any legal tiling keeps the total iteration count and never produces a
    /// non-finite or non-positive time estimate.
    #[test]
    fn tiling_preserves_iteration_domain(
        m in 2u64..512, n in 2u64..512, k in 2u64..512,
        t0 in 0u64..64, t1 in 0u64..64, t2 in 0u64..64,
    ) {
        let module = matmul(m, n, k);
        let mut sm = ScheduledModule::new(module);
        let tiles = vec![t0.min(m), t1.min(n), t2.min(k)];
        sm.apply(OpId(0), Transformation::Tiling { tile_sizes: tiles }).unwrap();
        let nest = sm.lower(OpId(0));
        prop_assert_eq!(nest.total_iterations(), m * n * k);
        let cm = CostModel::new(MachineModel::xeon_e5_2680_v4());
        let est = cm.estimate_scheduled(&sm).total_s;
        prop_assert!(est.is_finite() && est > 0.0);
    }

    /// Interchange never changes the iteration domain, and two applications
    /// of the same swap cancel out.
    #[test]
    fn interchange_is_an_involution_for_swaps(m in 2u64..128, n in 2u64..128, k in 2u64..128) {
        let module = matmul(m, n, k);
        let mut sm = ScheduledModule::new(module);
        let swap = Transformation::Interchange { permutation: vec![1, 0, 2] };
        sm.apply(OpId(0), swap.clone()).unwrap();
        let once = sm.lower(OpId(0));
        prop_assert_eq!(once.total_iterations(), m * n * k);
        sm.apply(OpId(0), swap).unwrap();
        let twice = sm.lower(OpId(0));
        prop_assert_eq!(twice.order, vec![0, 1, 2]);
    }

    /// The schedule-keyed evaluation cache is transparent: for any random
    /// schedule, the cached total time is bit-identical to a direct run of
    /// the estimator — on the miss that populates the entry *and* on the
    /// hit that serves it back.
    #[test]
    fn cached_estimates_match_uncached(
        m in 2u64..256, n in 2u64..256, k in 2u64..256,
        t0 in 0u64..64, t1 in 0u64..64, t2 in 0u64..64,
        vectorize in 0u32..2, parallelize in 0u32..2,
    ) {
        let module = matmul(m, n, k);
        let cm = CostModel::new(MachineModel::xeon_e5_2680_v4());
        let cache = SharedEvalCache::new(DEFAULT_EVAL_CACHE_CAPACITY);
        let mut sm = ScheduledModule::new(module);
        let tiles = vec![t0.min(m), t1.min(n), t2.min(k)];
        if parallelize == 1 {
            sm.apply(OpId(0), Transformation::TiledParallelization {
                tile_sizes: tiles.iter().map(|t| (*t).max(1)).collect(),
            }).unwrap();
        } else {
            sm.apply(OpId(0), Transformation::Tiling { tile_sizes: tiles }).unwrap();
        }
        if vectorize == 1 {
            // Vectorization is only legal for small innermost extents; skip
            // when the mask would forbid it.
            let _ = sm.apply(OpId(0), Transformation::Vectorization);
        }
        let direct = cm.estimate_scheduled(&sm).total_s;
        let (miss, _) = cache.total_s_keyed(schedule_key(&sm), &cm, &sm);
        let (hit, _) = cache.total_s_keyed(schedule_key(&sm), &cm, &sm);
        prop_assert_eq!(direct.to_bits(), miss.to_bits());
        prop_assert_eq!(direct.to_bits(), hit.to_bits());
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(cache.misses(), 1);
    }

    /// The storage tier is transparent: any interleaving of keyed lookups
    /// (which insert and, at tiny capacities, evict), snapshot/restore
    /// cycles, and cross-replica `absorb` merges leaves every lookup
    /// bit-identical to the uncached oracle — extending the
    /// cached==uncached contract to the eviction era.
    #[test]
    fn storage_tier_interleavings_match_uncached_oracle(
        capacity in 1usize..24,
        seed in 1u64..1_000_000,
        steps in 8usize..48,
    ) {
        let cm = CostModel::new(MachineModel::xeon_e5_2680_v4());
        // A pool of distinct schedules and their uncached oracle estimates.
        let mut pool = Vec::new();
        for (m, n, k) in [(64u64, 96u64, 32u64), (128, 64, 48), (96, 128, 80), (48, 32, 160)] {
            for tile in [0u64, 8, 16] {
                let mut sm = ScheduledModule::new(matmul(m, n, k));
                if tile > 0 {
                    sm.apply(OpId(0), Transformation::Tiling {
                        tile_sizes: vec![tile, tile, 0],
                    }).unwrap();
                }
                let oracle = cm.estimate_scheduled(&sm).total_s.to_bits();
                pool.push((schedule_key(&sm), sm, oracle));
            }
        }

        // Two replicas exchanging warmth; `a` additionally restarts through
        // snapshot/restore roundtrips mid-stream.
        let mut a = SharedEvalCache::new(capacity);
        let b = SharedEvalCache::new(capacity);
        let mut state = seed;
        let mut next = move || {
            // xorshift64; any nonzero seed cycles through distinct draws.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..steps {
            let draw = next();
            let (key, sm, oracle) = &pool[(draw >> 8) as usize % pool.len()];
            match draw % 5 {
                0 | 1 => {
                    let (total_s, _) = a.total_s_keyed(*key, &cm, sm);
                    prop_assert_eq!(total_s.to_bits(), *oracle);
                }
                2 => {
                    let (total_s, _) = b.total_s_keyed(*key, &cm, sm);
                    prop_assert_eq!(total_s.to_bits(), *oracle);
                }
                3 => {
                    // Restart `a`: snapshot, then restore into a fresh table.
                    let bytes = a.to_snapshot_bytes();
                    let fresh = SharedEvalCache::new(capacity);
                    fresh.restore_from_bytes(&bytes).unwrap();
                    a = fresh;
                }
                _ => {
                    if draw & 0x80 == 0 {
                        a.absorb(&b);
                    } else {
                        b.absorb(&a);
                    }
                }
            }
            prop_assert!(a.len() <= capacity);
            prop_assert!(b.len() <= capacity);
        }
        // Whatever the interleaving did to the tables, every key still
        // resolves to the oracle estimate, bit for bit.
        for (key, sm, oracle) in &pool {
            let (from_a, _) = a.total_s_keyed(*key, &cm, sm);
            let (from_b, _) = b.total_s_keyed(*key, &cm, sm);
            prop_assert_eq!(from_a.to_bits(), *oracle);
            prop_assert_eq!(from_b.to_bits(), *oracle);
        }
    }

    /// Observations are stored as their non-zeros: along random masked
    /// action walks over random operator sequences and single operators, at
    /// the paper's maxima and at the small configuration (where deep nests
    /// and many-operand ops are truncated), both lists read back — bit for
    /// bit — as the dense reference extractor's vectors, and are well
    /// formed. Both extractors read the action history off the schedule, so
    /// their history sections are held to the Appendix-A history the test
    /// records from the actions it takes. Some steps are detours: a
    /// snapshot, a step that is observed, and a restore of the environment
    /// and of the recording, after which the decision point observes as
    /// before.
    #[test]
    fn observation_lists_equal_the_dense_reference_extractor(
        seed in 0u64..1 << 32,
        sequence in 0u32..2,
        paper in 0u32..2,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let module = if sequence == 1 {
            let length = rng.gen_range(1..6);
            random_sequence(length, &mut rng)
        } else {
            random_operator(DlOperator::ALL[seed as usize % DlOperator::ALL.len()], &mut rng)
        };
        let config = if paper == 1 { EnvConfig::paper() } else { EnvConfig::small() };
        let mut recorded = vec![Vec::new(); module.ops().len()];
        let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
        let mut observation = env.reset(module);

        while let Some(obs) = observation {
            check_observation(&env, &obs, &recorded);
            if rng.gen_bool(0.25) {
                let snapshot = env.snapshot();
                let kept = recorded.clone();
                let detour = random_action(&obs.mask, &config, &mut rng);
                step_and_record(&mut env, &mut recorded, obs.op, &detour);
                if let Some(next) = env.current_observation() {
                    check_observation(&env, &next, &recorded);
                }
                env.restore(&snapshot);
                recorded = kept;
                prop_assert_eq!(env.current_observation().as_ref(), Some(&obs));
            }
            let action = random_action(&obs.mask, &config, &mut rng);
            step_and_record(&mut env, &mut recorded, obs.op, &action);
            observation = env.current_observation();
        }
    }

    /// The speedup of any schedule is the ratio the cost model reports; it
    /// is always strictly positive and finite.
    #[test]
    fn speedups_are_positive_and_finite(m in 2u64..256, n in 2u64..256, k in 2u64..256, tile in 1u64..64) {
        let module = matmul(m, n, k);
        let cm = CostModel::new(MachineModel::xeon_e5_2680_v4());
        let baseline = cm.estimate_baseline(&module).total_s;
        let mut sm = ScheduledModule::new(module);
        sm.apply(OpId(0), Transformation::TiledParallelization {
            tile_sizes: vec![tile.min(m), tile.min(n), 0],
        }).unwrap();
        let optimized = cm.estimate_scheduled(&sm).total_s;
        let speedup = mlir_rl_costmodel::speedup(baseline, optimized);
        prop_assert!(speedup.is_finite() && speedup > 0.0);
    }
}

/// Applies one random edit to printed module text: a byte replaced by, or
/// inserted as, one of the characters the grammar gives meaning to; a byte
/// deleted; a span of one line reversed (which turns bracket pairs inside
/// out); one decimal number swapped for `0`, `u32::MAX` or `u64::MAX`; one
/// count of an `arith = {..}` line swapped for `u32::MAX`, the largest
/// count it holds; or one loop bound or tensor extent given another one's
/// value, which keeps the text well-formed but the shapes inconsistent.
fn mutate_text(text: &mut Vec<u8>, rng: &mut ChaCha8Rng) {
    const BYTES: &[u8] = b"()[]{}<>%@,:=+-*dx019 \n";
    if text.is_empty() {
        text.push(BYTES[rng.gen_range(0..BYTES.len())]);
        return;
    }
    let at = rng.gen_range(0..text.len());
    match rng.gen_range(0..7) {
        0 => text[at] = BYTES[rng.gen_range(0..BYTES.len())],
        1 => text.insert(at, BYTES[rng.gen_range(0..BYTES.len())]),
        2 => {
            text.remove(at);
        }
        3 => {
            let start = text[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let end = text[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |i| at + i);
            let (a, b) = (rng.gen_range(start..end + 1), rng.gen_range(start..end + 1));
            text[a.min(b)..a.max(b)].reverse();
        }
        4 => {
            let swap: &[u8] = match rng.gen_range(0..3) {
                0 => b"0",
                1 => b"4294967295",
                _ => b"18446744073709551615",
            };
            swap_number(text, 0..text.len(), swap, rng);
        }
        5 => {
            let sizes = shape_numbers(text);
            if sizes.is_empty() {
                return;
            }
            let from = sizes[rng.gen_range(0..sizes.len())].clone();
            let value = text[from].to_vec();
            let to = sizes[rng.gen_range(0..sizes.len())].clone();
            text.splice(to, value);
        }
        _ => {
            let arith: Vec<usize> = text
                .windows(b"arith = {".len())
                .enumerate()
                .filter(|(_, w)| *w == b"arith = {")
                .map(|(i, _)| i)
                .collect();
            if arith.is_empty() {
                return;
            }
            let start = arith[rng.gen_range(0..arith.len())];
            let end = text[start..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |i| start + i);
            swap_number(text, start..end, b"4294967295", rng);
        }
    }
}

/// The byte ranges of the decimal numbers that are loop bounds (on a
/// `bounds = [..]` line) or tensor extents (after the `<` of a `tensor<..>`
/// or after an `x` that follows a digit).
fn shape_numbers(text: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut line_start = 0;
    for (i, &b) in text.iter().enumerate() {
        if b == b'\n' {
            line_start = i + 1;
        }
        if !b.is_ascii_digit() || (i > 0 && text[i - 1].is_ascii_digit()) {
            continue;
        }
        let line = text[line_start..].trim_ascii_start();
        let extent = i > 0
            && (text[i - 1] == b'<'
                || (text[i - 1] == b'x' && i > 1 && text[i - 2].is_ascii_digit()));
        if extent || line.starts_with(b"bounds = [") {
            let end = text[i..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .map_or(text.len(), |n| i + n);
            out.push(i..end);
        }
    }
    out
}

/// Replaces one decimal number that starts inside `span` with `swap`.
fn swap_number(
    text: &mut Vec<u8>,
    span: std::ops::Range<usize>,
    swap: &[u8],
    rng: &mut ChaCha8Rng,
) {
    let starts: Vec<usize> = span
        .filter(|&i| text[i].is_ascii_digit() && (i == 0 || !text[i - 1].is_ascii_digit()))
        .collect();
    if starts.is_empty() {
        return;
    }
    let start = starts[rng.gen_range(0..starts.len())];
    let end = text[start..]
        .iter()
        .position(|b| !b.is_ascii_digit())
        .map_or(text.len(), |i| start + i);
    text.splice(start..end, swap.iter().copied());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Hostile IR text never panics the parser: printed random operators
    /// and operator sequences, after one to eight random edits (shape and
    /// bound swaps among them), parse to `Ok` or `Err`, and every module
    /// that parses counts its flops to a finite total and has a finite,
    /// positive baseline estimate.
    #[test]
    fn mutated_module_text_parses_or_errs_without_panicking(
        seed in 0u64..1 << 32,
        sequence in 0u32..2,
        edits in 1usize..9,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let module = if sequence == 1 {
            let length = rng.gen_range(1..4);
            random_sequence(length, &mut rng)
        } else {
            random_operator(DlOperator::ALL[seed as usize % DlOperator::ALL.len()], &mut rng)
        };
        let mut text = print_module(&module).into_bytes();
        for _ in 0..edits {
            mutate_text(&mut text, &mut rng);
        }
        let text = String::from_utf8_lossy(&text);
        if let Ok(parsed) = parse_module(&text) {
            let flops = parsed.total_flops();
            prop_assert!(flops.is_finite() && flops >= 0.0, "{text}");
            // Parsed means priceable.
            let cost = CostModel::new(MachineModel::xeon_e5_2680_v4()).estimate_baseline(&parsed);
            prop_assert!(cost.total_s.is_finite() && cost.total_s > 0.0, "{} s for {text}", cost.total_s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sub-nest table prices cache traffic exactly as the reference
    /// does: along random masked action walks over single operators of
    /// every kind, random operator sequences and a 12-loop LQCD contraction,
    /// every live op's per-operand traffic is bit-identical at every
    /// capacity checked.
    #[test]
    fn subnest_table_traffic_equals_the_reference(seed in 0u64..1 << 32, source in 0u32..3) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let module = match source {
            0 => random_operator(DlOperator::ALL[seed as usize % DlOperator::ALL.len()], &mut rng),
            1 => {
                let length = rng.gen_range(1..6);
                random_sequence(length, &mut rng)
            }
            _ => lqcd_kernel(rng.gen_range(2..24), 12, 4, 5),
        };
        let machine = MachineModel::default();
        let config = EnvConfig::paper();
        let mut env = OptimizationEnv::new(config.clone(), CostModel::new(machine.clone()));
        let mut observation = env.reset(module);
        while let Some(obs) = observation {
            assert_table_matches_reference(env.scheduled().expect("episode is live"), &machine);
            let action = random_action(&obs.mask, &config, &mut rng);
            env.step(&action);
            observation = env.current_observation();
        }
        if let Some(scheduled) = env.scheduled() {
            assert_table_matches_reference(scheduled, &machine);
        }
    }
}

/// Prices the live schedule through `env` and checks it against a direct
/// [`CostModel::estimate_scheduled`], bit for bit. With `miss`, the table is
/// emptied first, so the lookup must run the environment's own miss.
fn assert_env_prices_like_the_estimator(env: &mut OptimizationEnv, cm: &CostModel, miss: bool) {
    if miss {
        env.cache().clear();
    }
    let misses = env.lifetime_misses();
    let total_s = env.peek_time_s();
    let scheduled = env.scheduled().expect("episode is live");
    assert_eq!(
        total_s.to_bits(),
        cm.estimate_scheduled(scheduled).total_s.to_bits(),
        "{}",
        scheduled.module().name()
    );
    if miss {
        assert_eq!(env.lifetime_misses(), misses + 1, "the lookup did not miss");
    }
}

/// The configuration of the two-module walks: every step looks its
/// schedule up, so every step can miss.
fn immediate_paper_config() -> EnvConfig {
    EnvConfig {
        reward_mode: RewardMode::Immediate,
        ..EnvConfig::paper()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// An environment prices a miss from operand accesses it keeps per
    /// module allocation, and the price is the estimator's, bit for bit,
    /// while two modules alternate through `reset`, in-place `restart`,
    /// `snapshot` / `restore`, `clone()` and `clone_sharing_cache()` along random masked
    /// walks. The walk opens on the case stale accesses would get wrong:
    /// module A's snapshot restored after module B was priced.
    #[test]
    fn env_misses_price_like_the_estimator_across_two_modules(
        seed in 0u64..1 << 32,
        sequence in 0u32..2,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draw = |rng: &mut ChaCha8Rng| {
            if sequence == 1 {
                let length = rng.gen_range(1..5);
                random_sequence(length, rng)
            } else {
                random_operator(DlOperator::ALL[rng.gen_range(0..DlOperator::ALL.len())], rng)
            }
        };
        let modules = [Arc::new(draw(&mut rng)), Arc::new(draw(&mut rng))];
        let cm = CostModel::new(MachineModel::default());
        let config = immediate_paper_config();
        let mut env = OptimizationEnv::new(config.clone(), cm.clone());

        env.reset(Arc::clone(&modules[0]));
        assert_env_prices_like_the_estimator(&mut env, &cm, true);
        let mut snapshots = [env.snapshot(), env.snapshot()];
        env.reset(Arc::clone(&modules[1]));
        assert_env_prices_like_the_estimator(&mut env, &cm, true);
        snapshots[1] = env.snapshot();
        env.restore(&snapshots[0]);
        assert_env_prices_like_the_estimator(&mut env, &cm, true);

        let mut current = 0;
        for _ in 0..48 {
            match rng.gen_range(0..8) {
                0..=2 => match env.current_mask() {
                    Some(mask) => {
                        let outcome = env.step(&random_action(&mask, &config, &mut rng));
                        let scheduled = env.scheduled().expect("episode is live");
                        prop_assert_eq!(
                            outcome.current_time_s.to_bits(),
                            cm.estimate_scheduled(scheduled).total_s.to_bits()
                        );
                    }
                    None => env.restore(&snapshots[current]),
                },
                3 => snapshots[current] = env.snapshot(),
                4 => {
                    current = rng.gen_range(0..2);
                    env.restore(&snapshots[current]);
                }
                // Half the resets switch modules; the other half restart
                // on the live episode's own `Arc`, which rewinds in place.
                5 => {
                    if rng.gen_bool(0.5) {
                        current = 1 - current;
                        env.reset(Arc::clone(&modules[current]));
                    } else {
                        env.restart(Arc::clone(&modules[current]));
                    }
                }
                6 => env = env.clone(),
                _ => env = env.clone_sharing_cache(),
            }
            assert_env_prices_like_the_estimator(&mut env, &cm, rng.gen_bool(0.5));
        }
    }
}

/// The lookups of a fixed walk, pinned: two modules alternate through
/// resets, and every episode is walked twice from its start snapshot. The
/// per-episode `(evaluations, cache_hits)` split — and so their sum, the
/// episode's lookups — must not move when the miss path changes.
#[test]
fn a_fixed_two_module_walk_keeps_its_lookup_counts() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let modules = [
        Arc::new(random_sequence(3, &mut rng)),
        Arc::new(random_operator(DlOperator::Conv2D, &mut rng)),
    ];
    let config = immediate_paper_config();
    let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
    let mut counts = Vec::new();
    for episode in 0..8 {
        env.reset(Arc::clone(&modules[episode % 2]));
        let start = env.snapshot();
        for branch in 0..2 {
            if branch == 1 {
                env.restore(&start);
            }
            while let Some(mask) = env.current_mask() {
                env.step(&random_action(&mask, &config, &mut rng));
            }
            let stats = env.stats();
            counts.push((stats.evaluations, stats.cache_hits));
        }
    }
    // Recorded when every miss still re-derived its operand accesses.
    #[rustfmt::skip]
    let pinned = [
        (7, 1), (5, 1), (6, 1), (3, 1), (6, 2), (3, 2), (4, 2), (4, 2),
        (2, 3), (6, 2), (5, 2), (1, 2), (13, 2), (10, 2), (3, 2), (5, 2),
    ];
    assert_eq!(counts, pinned);
}

/// A new schedule of `scheduled`'s module, on a deep copy of it, with every
/// op's transformations applied again, consumers first: the environment's
/// visit order, in which a fused producer is still untouched when its
/// consumer fuses it.
fn replayed(scheduled: &ScheduledModule) -> ScheduledModule {
    let mut fresh = ScheduledModule::with_max_schedule_len(
        scheduled.module().clone(),
        scheduled.max_schedule_len(),
    );
    for (position, state) in scheduled.states().iter().enumerate().rev() {
        for t in &state.schedule {
            fresh
                .apply(OpId(position), t.clone())
                .expect("a recorded transformation applies again");
        }
    }
    fresh
}

/// The live schedule's kept fingerprint — which a debug build checks
/// against its from-scratch oracle on every read — after checking that a
/// replay of the same transformation lists on a new module reaches the same
/// states and the same fingerprint.
fn checked_fingerprint(env: &OptimizationEnv) -> u64 {
    let scheduled = env.scheduled().expect("episode is live");
    let kept = scheduled.fingerprint();
    let again = replayed(scheduled);
    assert_eq!(again.states(), scheduled.states());
    assert_eq!(again.fingerprint(), kept, "{}", scheduled.module().name());
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fingerprint a schedule keeps is the one its transformation lists
    /// give, whatever the path: along random masked walks (fusion among
    /// their steps) over two modules with in-place restarts, resets to the
    /// other module, snapshots and restores and both clones, every read
    /// equals the oracle and a replay on a new module; a restored snapshot
    /// reads the fingerprint it was taken with, and a rewound episode reads
    /// the untransformed module's.
    #[test]
    fn kept_schedule_fingerprints_equal_the_oracle_on_every_path(
        seed in 0u64..1 << 32,
        sequence in 0u32..2,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draw = |rng: &mut ChaCha8Rng| {
            if sequence == 1 {
                let length = rng.gen_range(1..6);
                random_sequence(length, rng)
            } else {
                random_operator(DlOperator::ALL[rng.gen_range(0..DlOperator::ALL.len())], rng)
            }
        };
        let modules = [Arc::new(draw(&mut rng)), Arc::new(draw(&mut rng))];
        let untransformed = modules
            .clone()
            .map(|m| ScheduledModule::new(m).fingerprint());
        let config = EnvConfig::paper();
        let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
        let mut current = 0;
        env.restart(Arc::clone(&modules[current]));
        let mut snapshots = vec![(env.snapshot(), checked_fingerprint(&env))];
        for _ in 0..64 {
            match rng.gen_range(0..10) {
                0..=4 => match env.current_mask() {
                    Some(mask) => {
                        env.step(&random_action(&mask, &config, &mut rng));
                    }
                    None => {
                        env.restart(Arc::clone(&modules[current]));
                        prop_assert_eq!(checked_fingerprint(&env), untransformed[current]);
                    }
                },
                5 => snapshots.push((env.snapshot(), checked_fingerprint(&env))),
                6 => {
                    let (snapshot, fingerprint) = &snapshots[rng.gen_range(0..snapshots.len())];
                    env.restore(snapshot);
                    prop_assert_eq!(checked_fingerprint(&env), *fingerprint);
                    current = usize::from(!env.scheduled().unwrap().shares_module(&modules[0]));
                }
                7 => {
                    if rng.gen_bool(0.5) {
                        current = 1 - current;
                    }
                    env.restart(Arc::clone(&modules[current]));
                    prop_assert_eq!(checked_fingerprint(&env), untransformed[current]);
                }
                8 => {
                    let before = checked_fingerprint(&env);
                    env = env.clone();
                    prop_assert_eq!(checked_fingerprint(&env), before);
                }
                _ => {
                    let before = checked_fingerprint(&env);
                    env = env.clone_sharing_cache();
                    prop_assert_eq!(checked_fingerprint(&env), before);
                }
            }
            checked_fingerprint(&env);
        }
    }

    /// `lower_into` overwrites every field of a nest another op's lowering
    /// left behind — loops, extents, order, vectorization and fused
    /// producers — and gives what `lower` gives, after random masked walks
    /// over operator sequences (which fuse) and single operators.
    #[test]
    fn lowering_into_a_dirty_nest_equals_a_fresh_lowering(
        seed in 0u64..1 << 32,
        sequence in 0u32..2,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let module = if sequence == 1 {
            let length = rng.gen_range(2..6);
            random_sequence(length, &mut rng)
        } else {
            random_operator(DlOperator::ALL[seed as usize % DlOperator::ALL.len()], &mut rng)
        };
        let config = EnvConfig::paper();
        let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
        env.restart(module);
        while let Some(mask) = env.current_mask() {
            env.step(&random_action(&mask, &config, &mut rng));
        }
        let scheduled = env.scheduled().expect("episode is live");
        let ops = scheduled.module().ops().len();
        for dirty in 0..ops {
            for op in 0..ops {
                let mut nest = scheduled.lower(OpId(dirty));
                scheduled.lower_into(OpId(op), &mut nest);
                prop_assert_eq!(&nest, &scheduled.lower(OpId(op)));
            }
        }
    }
}

/// Every tile vector with one tiled level, every uniform tile vector, and
/// every permutation (up to four loops) or every swap of two loops, as the
/// transformations of each kind an op of `loops` loops could be given.
fn corpus_transformations(
    loops: usize,
    candidates: &[u64],
    producer: Option<OpId>,
) -> Vec<Transformation> {
    let mut tile_vectors: Vec<Vec<u64>> = Vec::new();
    for tile in candidates.iter().filter(|t| **t > 0) {
        for level in 0..loops {
            let mut sizes = vec![0; loops];
            sizes[level] = *tile;
            tile_vectors.push(sizes);
        }
        if loops > 1 {
            tile_vectors.push(vec![*tile; loops]);
        }
    }
    let identity: Vec<usize> = (0..loops).collect();
    let permutations: Vec<Vec<usize>> = if loops <= 4 {
        // Every permutation: move each element to every earlier place.
        let mut all = vec![identity];
        for position in 1..loops {
            all = all
                .into_iter()
                .flat_map(|p| {
                    (0..=position).map(move |at| {
                        let mut q = p.clone();
                        let moved = q.remove(position);
                        q.insert(at, moved);
                        q
                    })
                })
                .collect();
        }
        all
    } else {
        let swaps = (0..loops).flat_map(|a| (a + 1..loops).map(move |b| (a, b)));
        swaps
            .map(|(a, b)| {
                let mut swap = identity.clone();
                swap.swap(a, b);
                swap
            })
            .collect()
    };
    let mut out = vec![
        Transformation::Vectorization,
        Transformation::NoTransformation,
    ];
    for tile_sizes in tile_vectors {
        out.push(Transformation::Tiling {
            tile_sizes: tile_sizes.clone(),
        });
        out.push(Transformation::TiledParallelization {
            tile_sizes: tile_sizes.clone(),
        });
        if let Some(producer) = producer {
            out.push(Transformation::TiledFusion {
                tile_sizes,
                producer,
            });
        }
    }
    out.extend(
        permutations
            .into_iter()
            .map(|permutation| Transformation::Interchange { permutation }),
    );
    out
}

/// Distinct schedules never share a fingerprint: on every operator kind
/// and on operator sequences (whose consumers can fuse), the untransformed
/// schedule, every single transformation that applies to any op — each
/// tiled kind on every one-level and uniform tile vector over the paper's
/// candidates, every swap and small permutation, vectorization and stop —
/// and every ordered pair from an evenly thinned list of them on the last
/// op get pairwise distinct fingerprints within their module.
#[test]
fn distinct_schedules_get_distinct_fingerprints() {
    let candidates = EnvConfig::paper().tile_candidates;
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let mut modules: Vec<_> = DlOperator::ALL
        .iter()
        .map(|kind| random_operator(*kind, &mut rng))
        .collect();
    modules.extend((2..5).map(|length| random_sequence(length, &mut rng)));
    let mut schedules = 0;
    for module in modules {
        let base = ScheduledModule::new(module);
        let mut seen: HashMap<u64, Vec<Vec<Transformation>>> = HashMap::new();
        let mut record = |scheduled: &ScheduledModule| {
            let lists = scheduled.states().iter().map(|s| s.schedule.clone());
            let lists: Vec<Vec<Transformation>> = lists.collect();
            let earlier = seen.insert(scheduled.fingerprint(), lists.clone());
            assert!(
                earlier.is_none(),
                "{}: {:?} and {:?} share a fingerprint",
                scheduled.module().name(),
                earlier,
                lists
            );
        };
        record(&base);
        let ops = base.module().ops().len();
        let mut last_op_singles = Vec::new();
        for op in (0..ops).map(OpId) {
            let loops = base.module().op(op).unwrap().num_loops();
            let producer = base.module().last_producer(op);
            for t in corpus_transformations(loops, &candidates, producer) {
                let mut one = base.clone();
                if one.apply(op, t.clone()).is_ok() {
                    record(&one);
                    schedules += 1;
                    if op.0 == ops - 1 {
                        last_op_singles.push(t);
                    }
                }
            }
        }
        let last = OpId(ops - 1);
        let stride = last_op_singles.len().div_ceil(24).max(1);
        let thinned: Vec<_> = last_op_singles.iter().step_by(stride).collect();
        for first in &thinned {
            for second in &thinned {
                let mut two = base.clone();
                two.apply(last, (*first).clone()).unwrap();
                if two.apply(last, (*second).clone()).is_ok() {
                    record(&two);
                    schedules += 1;
                }
            }
        }
    }
    assert!(
        schedules > 3_000,
        "only {schedules} schedules were fingerprinted"
    );
}

/// The action mask as it was computed before it became one flat bitmap:
/// transformation bits from the visible (interchanged) iterator types and
/// from `check` on a zero-tile fusion, one tile row per visible loop bound,
/// and one interchange entry per enumerated candidate.
fn reference_mask(
    scheduled: &ScheduledModule,
    op: OpId,
    config: &EnvConfig,
) -> ([bool; 6], Vec<Vec<bool>>, Vec<bool>) {
    let linalg_op = scheduled.module().op(op).unwrap();
    let state = scheduled.state(op);
    let n = linalg_op.num_loops();
    let bounds = state.visible_bounds(linalg_op);
    let iter_types = state.visible_iterator_types(linalg_op);
    let open = !state.is_terminated() && state.schedule.len() < scheduled.max_schedule_len();
    let mut transformation = [false; 6];
    transformation[TransformationKind::NoTransformation.index()] = true;
    if open {
        transformation[TransformationKind::Tiling.index()] = true;
        transformation[TransformationKind::Interchange.index()] = n >= 2;
        transformation[TransformationKind::TiledParallelization.index()] =
            iter_types.contains(&IteratorType::Parallel);
        transformation[TransformationKind::TiledFusion.index()] =
            scheduled.module().last_producer(op).is_some_and(|p| {
                let fusion = Transformation::TiledFusion {
                    tile_sizes: vec![0; n],
                    producer: p,
                };
                scheduled.check(op, &fusion).is_ok()
            });
        transformation[TransformationKind::Vectorization.index()] =
            scheduled.check(op, &Transformation::Vectorization).is_ok();
    }
    let tiles = bounds
        .iter()
        .map(|bound| {
            let fits = |t: &u64| *t == 0 || t <= bound;
            config.tile_candidates.iter().map(fits).collect()
        })
        .collect();
    let interchange = vec![open && n >= 2; num_enumerated_candidates(n).max(1)];
    (transformation, tiles, interchange)
}

/// `obs.mask` equals [`reference_mask`], and every tile candidate a row
/// forbids is one `check` refuses with `TileSizeTooLarge` at that level.
fn assert_mask_matches_reference(
    scheduled: &ScheduledModule,
    obs: &Observation,
    config: &EnvConfig,
) {
    let (transformation, tiles, interchange) = reference_mask(scheduled, obs.op, config);
    let mask = &obs.mask;
    assert_eq!(mask.transformation, transformation, "{:?}", obs.op);
    let m = config.num_tile_candidates();
    assert_eq!(mask.tile_sizes.len(), obs.num_loops * m);
    assert_eq!(tiles.len(), obs.num_loops);
    for (level, row) in tiles.iter().enumerate() {
        assert_eq!(mask.tile_row(level), row.as_slice(), "level {level}");
    }
    let allows_interchange = mask.allows(TransformationKind::Interchange);
    assert!(interchange.iter().all(|b| *b == allows_interchange));
    if !mask.allows(TransformationKind::Tiling) {
        return; // a closed op refuses every tiling before its sizes are read
    }
    for level in 0..obs.num_loops {
        for (i, tile) in config.tile_candidates.iter().enumerate() {
            if mask.tile_row(level)[i] {
                continue;
            }
            let mut tile_sizes = vec![0; obs.num_loops];
            tile_sizes[level] = *tile;
            let refusal = scheduled.check(obs.op, &Transformation::Tiling { tile_sizes });
            assert!(
                matches!(refusal, Err(TransformError::TileSizeTooLarge { level: l, .. }) if l == level),
                "tile {tile} at level {level}: {refusal:?}"
            );
        }
    }
}

/// The law the paper's action space rests on (Sec. IV-B): the mask is a
/// promise — an action it allows is never refused. Seeded random masked
/// walks to episode end over the training dataset at the small
/// configuration and over the evaluation benchmark at the paper's maxima:
/// every step reports `applied`, and every observation's mask matches
/// [`reference_mask`] and forbids only tiles `check` refuses.
#[test]
fn mask_allowed_actions_are_always_applied() {
    let training = mlir_rl_workloads::full_training_dataset(0.1, 23);
    let evaluation = mlir_rl_workloads::dl_ops::evaluation_benchmark();
    let walks = [
        (EnvConfig::small(), training),
        (
            EnvConfig::paper(),
            evaluation.into_iter().map(|(_, module)| module).collect(),
        ),
    ];
    let mut steps = 0usize;
    for (config, modules) in walks {
        let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
        for (index, module) in modules.into_iter().enumerate() {
            for seed in 0..4u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed << 32 | index as u64);
                let name = module.name().to_string();
                let mut observation = env.reset(module.clone());
                while let Some(obs) = observation {
                    assert_mask_matches_reference(env.scheduled().unwrap(), &obs, &config);
                    let action = random_action(&obs.mask, &config, &mut rng);
                    let outcome = env.step(&action);
                    assert!(
                        outcome.applied,
                        "{name}, seed {seed}: the mask allowed {action:?} on {:?} but it was refused",
                        obs.op
                    );
                    steps += 1;
                    observation = env.current_observation();
                }
            }
        }
    }
    assert!(steps > 8_000, "only {steps} masked steps were walked");
}

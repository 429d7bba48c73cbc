//! Property-based integration tests over the IR, the transformation engine
//! and the cost model.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mlir_rl_costmodel::{
    operand_accesses, schedule_key, traffic_beyond_cache, CostModel, MachineModel, SharedEvalCache,
    SubnestTable, DEFAULT_EVAL_CACHE_CAPACITY,
};
use mlir_rl_env::{
    extract_features_dense, num_enumerated_candidates, Action, ActionHistory, EnvConfig, Features,
    Observation, OptimizationEnv,
};
use mlir_rl_ir::{parser::parse_module, printer::print_module, IteratorType, ModuleBuilder, OpId};
use mlir_rl_search::random_action;
use mlir_rl_transforms::{ScheduledModule, TransformError, Transformation, TransformationKind};
use mlir_rl_workloads::dl_ops::{random_operator, DlOperator};
use mlir_rl_workloads::lqcd::lqcd_kernel;
use mlir_rl_workloads::sequences::random_sequence;

/// Checks every live op of `scheduled`: the sub-nest table's per-operand
/// traffic equals the reference `traffic_beyond_cache`, bit for bit, at the
/// machine's L1, L2 and per-core L3 capacities and at degenerate ones.
fn assert_table_matches_reference(scheduled: &ScheduledModule, machine: &MachineModel) {
    for op in scheduled.live_ops() {
        let accesses = operand_accesses(scheduled.module().op(op).unwrap()).unwrap();
        let nest = scheduled.lower(op);
        let table = SubnestTable::new(&accesses, &nest);
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
            let table_traffic: Vec<u64> = table.traffic_beyond_cache(capacity).collect();
            assert_eq!(
                table_traffic,
                traffic_beyond_cache(&accesses, &nest, capacity),
                "{} {op} at {capacity} bytes, loops {:?}",
                scheduled.module().name(),
                nest.extents()
            );
        }
    }
}

fn matmul(m: u64, n: u64, k: u64) -> mlir_rl_ir::Module {
    let mut b = ModuleBuilder::new("pm");
    let a = b.argument("A", vec![m, k]);
    let w = b.argument("B", vec![k, n]);
    b.matmul(a, w);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Printing and re-parsing a module preserves its structure.
    #[test]
    fn printer_parser_roundtrip(m in 1u64..256, n in 1u64..256, k in 1u64..256) {
        let module = matmul(m, n, k);
        let reparsed = parse_module(&print_module(&module)).unwrap();
        prop_assert_eq!(module.ops().len(), reparsed.ops().len());
        prop_assert_eq!(&module.ops()[0].loop_bounds, &reparsed.ops()[0].loop_bounds);
        prop_assert_eq!(module.ops()[0].kind, reparsed.ops()[0].kind);
    }

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
    /// formed. The reference is fed the action history the test keeps by
    /// Appendix A's rule, not the environment's copy of it.
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
        let mut histories = vec![ActionHistory::new(); module.ops().len()];
        let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
        let mut observation = env.reset(module);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let check_list = |features: &Features| {
            let (cols, values) = features.nonzeros();
            assert_eq!(features.len(), config.feature_len());
            assert_eq!(cols.len(), values.len());
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns not ascending");
            assert!(cols.iter().all(|c| (*c as usize) < features.len()));
            assert!(values.iter().all(|v| *v != 0.0), "a stored zero");
        };
        while let Some(obs) = observation {
            let scheduled = env.scheduled().expect("episode is live");
            let dense = |op: OpId| extract_features_dense(scheduled, op, &histories[op.0], &config);
            check_list(&obs.consumer);
            check_list(&obs.producer);
            prop_assert_eq!(bits(obs.consumer.as_slice()), bits(&dense(obs.op)));
            match scheduled.module().last_producer(obs.op) {
                Some(producer) => {
                    prop_assert_eq!(bits(obs.producer.as_slice()), bits(&dense(producer)));
                }
                None => {
                    prop_assert!(obs.producer.nonzeros().0.is_empty());
                    prop_assert_eq!(bits(obs.producer.as_slice()), vec![0; config.feature_len()]);
                }
            }

            let action = random_action(&obs.mask, &config, &mut rng);
            let outcome = env.step(&action);
            if outcome.applied {
                let state = env.scheduled().expect("episode is live").state(obs.op);
                match &action {
                    Action::Tiling { tile_indices }
                    | Action::TiledParallelization { tile_indices }
                    | Action::TiledFusion { tile_indices } => {
                        histories[obs.op.0].push_tiled(tile_indices.clone());
                    }
                    Action::Interchange(_) => {
                        histories[obs.op.0].push_interchange(state.order.clone());
                    }
                    Action::Vectorization | Action::NoTransformation => {}
                }
            }
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
/// out); or one decimal number swapped for `0` or `u64::MAX`.
fn mutate_text(text: &mut Vec<u8>, rng: &mut ChaCha8Rng) {
    const BYTES: &[u8] = b"()[]{}<>%@,:=+-*dx019 \n";
    if text.is_empty() {
        text.push(BYTES[rng.gen_range(0..BYTES.len())]);
        return;
    }
    let at = rng.gen_range(0..text.len());
    match rng.gen_range(0..5) {
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
        _ => {
            let starts: Vec<usize> = (0..text.len())
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
            let swap: &[u8] = if rng.gen_bool(0.5) {
                b"0"
            } else {
                b"18446744073709551615"
            };
            text.splice(start..end, swap.iter().copied());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Hostile IR text never panics the parser: printed random operators
    /// and operator sequences, after one to eight random edits, parse to
    /// `Ok` or `Err`, and every module that parses counts its flops.
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
            prop_assert!(parsed.total_flops() >= 0.0, "{text}");
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

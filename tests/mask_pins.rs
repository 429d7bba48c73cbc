//! Bit pins of the action mask and of uniform-random masked walks.
//!
//! Seeded `random_action` walks run to episode end over a slice of the
//! training dataset at the small configuration and over the evaluation
//! benchmark at the paper's maxima, each in both interchange formulations.
//! One FNV-1a digest per walk set covers every observation's mask (the six
//! transformation bits and every loop level's tile row) and every drawn
//! action, so however the mask is stored or read, it must allow exactly
//! these actions and the random searcher must draw exactly these ones. A
//! second digest covers every observation's consumer and producer feature
//! lists (columns and value bits), so however or whenever the observation is
//! built, it must describe exactly these states. Each module is one shared
//! allocation, so all but its first episode restart in place.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, Features, InterchangeMode, Observation, OptimizationEnv};
use mlir_rl_ir::{Fnv1a, Module};
use mlir_rl_search::random_action;
use mlir_rl_transforms::TransformationKind;
use mlir_rl_workloads::dl_ops;

fn write_mask(fnv: &mut Fnv1a, obs: &Observation) {
    fnv.write(&(obs.op.0 as u64).to_le_bytes());
    fnv.write(&(obs.num_loops as u64).to_le_bytes());
    for kind in TransformationKind::ALL {
        fnv.write(&[u8::from(obs.mask.allows(kind))]);
    }
    for level in 0..obs.num_loops {
        let row = obs.mask.tile_row(level);
        fnv.write(&(row.len() as u64).to_le_bytes());
        fnv.write(&row.iter().map(|b| u8::from(*b)).collect::<Vec<_>>());
    }
}

fn write_features(fnv: &mut Fnv1a, features: &Features) {
    let (columns, values) = features.nonzeros();
    fnv.write(&(columns.len() as u64).to_le_bytes());
    for (column, value) in columns.iter().zip(values) {
        fnv.write(&column.to_le_bytes());
        fnv.write(&value.to_bits().to_le_bytes());
    }
}

/// Walks every module under eight seeds and returns the mask-and-action
/// digest, the feature digest and the number of steps walked.
fn walk(config: &EnvConfig, modules: &[Module]) -> (u64, u64, usize) {
    let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
    let mut fnv = Fnv1a::new();
    let mut features = Fnv1a::new();
    let mut steps = 0usize;
    for (index, module) in modules.iter().enumerate() {
        // One shared allocation per module: every episode after the first
        // restarts on the live module and rewinds it in place.
        let module = Arc::new(module.clone());
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed << 32 | index as u64);
            env.restart(Arc::clone(&module));
            let mut observation = env.current_observation();
            while let Some(obs) = observation {
                write_mask(&mut fnv, &obs);
                write_features(&mut features, &obs.consumer);
                write_features(&mut features, &obs.producer);
                let action = random_action(&obs.mask, config, &mut rng);
                fnv.write(format!("{action:?}").as_bytes());
                fnv.write(&[0xff]);
                let outcome = env.step(&action);
                fnv.write(&[u8::from(outcome.applied)]);
                steps += 1;
                observation = env.current_observation();
            }
        }
    }
    (fnv.finish(), features.finish(), steps)
}

fn with_mode(mut config: EnvConfig, mode: InterchangeMode) -> EnvConfig {
    config.interchange_mode = mode;
    config
}

#[test]
fn random_walk_masks_and_actions_are_pinned() {
    let training = mlir_rl_workloads::full_training_dataset(0.05, 41);
    let evaluation: Vec<Module> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, module)| module)
        .collect();
    let mut digests = Vec::new();
    for mode in [
        InterchangeMode::LevelPointers,
        InterchangeMode::EnumeratedCandidates,
    ] {
        for (config, modules) in [
            (EnvConfig::small(), &training),
            (EnvConfig::paper(), &evaluation),
        ] {
            digests.push(walk(&with_mode(config, mode), modules));
        }
    }
    // (mask digest, feature digest, steps) per walk set: small then paper,
    // level pointers then enumerated candidates.
    assert_eq!(
        digests,
        [
            (0xdbc0_55b8_fb08_33bb, 0x2d27_7754_54a2_c71b, 9847),
            (0xf8f9_8759_0f65_3835, 0x6025_80ca_e09d_e551, 326),
            (0x67a4_fcf5_884b_95c9, 0x4973_da07_206f_de75, 9848),
            (0xfbb3_68bf_3c21_8b97, 0x7cb1_0062_a3a4_c132, 328),
        ]
    );
}

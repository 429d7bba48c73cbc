//! Bit pins of batch-1 inference at the paper's representation width.
//!
//! Sampled episodes over a five-op random sequence and two single-op
//! operators, so the producer vector both repeats (every step on one
//! consumer) and changes (a new consumer, a new module, the empty list of a
//! producer-less op). At every decision point the multi-discrete policy (in
//! both interchange formulations) and the flat policy each decode greedily,
//! sample, and rank four candidates, and the critic predicts the state
//! value. One FNV-1a digest over every record and value bit is pinned as a
//! literal: however batch-1 inference is routed or memoised, it must reach
//! these exact numbers.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::{
    ActionRecord, FlatPolicyNetwork, PolicyHyperparams, PolicyModel, PolicyNetwork, ValueNetwork,
};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, InterchangeMode, OptimizationEnv};
use mlir_rl_ir::{Fnv1a, Module};
use mlir_rl_workloads::dl_ops;
use mlir_rl_workloads::sequences::{random_sequence, SEQUENCE_LENGTH};

/// The sequence, an operator, the sequence again (the episode takes other
/// branches), the other operator.
fn modules() -> Vec<Module> {
    let sequence = random_sequence(SEQUENCE_LENGTH, &mut ChaCha8Rng::seed_from_u64(29));
    assert!(sequence.ops().len() > 1, "a multi-op sequence");
    vec![
        sequence.clone(),
        dl_ops::matmul_module(64, 128, 256),
        sequence,
        dl_ops::conv2d_module(1, 16, 28, 28, 32, 3, 1),
    ]
}

fn hyper() -> PolicyHyperparams {
    PolicyHyperparams {
        hidden_size: 16,
        backbone_layers: 2,
    }
}

fn write_record(fnv: &mut Fnv1a, record: &ActionRecord) {
    fnv.write(&(record.kind_index as u64).to_le_bytes());
    for index in &record.tile_indices {
        fnv.write(&(*index as u64).to_le_bytes());
    }
    fnv.write(&[0xff]);
    if let Some(candidate) = record.interchange_candidate {
        fnv.write(&(candidate as u64).to_le_bytes());
    }
    fnv.write(&[0xfe]);
    for level in record.interchange_permutation.iter().flatten() {
        fnv.write(&(*level as u64).to_le_bytes());
    }
    fnv.write(&[0xfd]);
    fnv.write(&record.log_prob.to_bits().to_le_bytes());
    fnv.write(&record.entropy.to_bits().to_le_bytes());
}

/// Greedy, sampled and ranked (`k = 4`) decoding of one observation.
fn decode<P: PolicyModel>(
    fnv: &mut Fnv1a,
    policy: &mut P,
    obs: &mlir_rl_env::Observation,
    rng: &mut ChaCha8Rng,
) -> ActionRecord {
    write_record(fnv, &policy.select_action(obs, true, rng));
    let sampled = policy.select_action(obs, false, rng);
    write_record(fnv, &sampled);
    for record in policy.rank_actions(obs, 4, rng) {
        write_record(fnv, &record);
    }
    sampled
}

#[test]
fn batch_one_inference_is_pinned() {
    let config = EnvConfig::paper();
    let mut enumerated_config = config.clone();
    enumerated_config.interchange_mode = InterchangeMode::EnumeratedCandidates;
    let mut policy = PolicyNetwork::new(config.clone(), hyper(), &mut ChaCha8Rng::seed_from_u64(1));
    let mut enumerated = PolicyNetwork::new(
        enumerated_config,
        hyper(),
        &mut ChaCha8Rng::seed_from_u64(2),
    );
    let mut flat =
        FlatPolicyNetwork::new(config.clone(), hyper(), &mut ChaCha8Rng::seed_from_u64(3));
    let mut value = ValueNetwork::new(&config, hyper(), &mut ChaCha8Rng::seed_from_u64(4));

    let mut env = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut fnv = Fnv1a::new();
    let mut decisions = 0;
    for module in modules() {
        let mut obs = env.reset(module);
        while let Some(current) = obs {
            let sampled = decode(&mut fnv, &mut policy, &current, &mut rng);
            decode(&mut fnv, &mut enumerated, &current, &mut rng);
            decode(&mut fnv, &mut flat, &current, &mut rng);
            fnv.write(&value.predict_fast(&current).to_bits().to_le_bytes());
            decisions += 1;
            obs = env.step(&sampled.action).observation;
        }
    }
    assert_eq!(decisions, 22);
    assert_eq!(fnv.finish(), 0x61a2_2d2d_3f47_7d7e);
}

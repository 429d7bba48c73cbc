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
//!
//! A second pin ranks recorded beam frontiers at a hidden width of 40, so
//! the kernels' full tiles and their remainder columns both run.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::{
    ActionRecord, FlatPolicyNetwork, PolicyHyperparams, PolicyModel, PolicyNetwork, ValueNetwork,
};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, InterchangeMode, Observation, ObservationBatch, OptimizationEnv};
use mlir_rl_ir::{Fnv1a, Module};
use mlir_rl_nn::Param;
use mlir_rl_search::{BeamSearch, Searcher};
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
    obs: &Observation,
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
            env.step(&sampled.action);
            obs = env.current_observation();
        }
    }
    assert_eq!(decisions, 22);
    assert_eq!(fnv.finish(), 0x61a2_2d2d_3f47_7d7e);
}

/// A policy that keeps every frontier beam search hands it.
#[derive(Clone)]
struct FrontierRecorder {
    network: PolicyNetwork,
    frontiers: Vec<Vec<Observation>>,
}

impl PolicyModel for FrontierRecorder {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        self.network.select_action(obs, greedy, rng)
    }
    fn zero_grad(&mut self) {
        self.network.zero_grad();
    }
    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.network.parameters_mut()
    }
    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        self.network.evaluate_batch(batch, items)
    }
    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        self.network.backward_batch(items, coeffs);
    }
    fn rank_actions_batch(
        &mut self,
        observations: &[&Observation],
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<ActionRecord>> {
        self.frontiers
            .push(observations.iter().map(|obs| (*obs).clone()).collect());
        self.network.rank_actions_batch(observations, k, rng)
    }
}

#[test]
fn beam_frontier_ranking_is_pinned() {
    // Width 40: a lone row runs two 1 x 16 tiles and eight 1 x 1
    // remainder columns. The literal was computed when a frontier of four
    // ran one batched pass (five 4 x 8 tiles per band), so it also holds
    // the row-by-row ranking to that.
    let hyper = PolicyHyperparams {
        hidden_size: 40,
        backbone_layers: 3,
    };
    let config = EnvConfig::paper();
    let network = PolicyNetwork::new(config.clone(), hyper, &mut ChaCha8Rng::seed_from_u64(6));
    let mut recorder = FrontierRecorder {
        network: network.clone(),
        frontiers: Vec::new(),
    };
    let mut env = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
    let benchmark = dl_ops::evaluation_benchmark().into_iter().map(|(_, m)| m);
    for (seed, module) in modules().into_iter().chain(benchmark).enumerate() {
        BeamSearch::new(4).search(&mut env, &mut recorder, &module, seed as u64);
    }
    let frontiers = recorder.frontiers;

    let mut policy = network;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut fnv = Fnv1a::new();
    let mut rows = 0;
    for frontier in &frontiers {
        let refs: Vec<&Observation> = frontier.iter().collect();
        for ranked in policy.rank_actions_batch(&refs, 4, &mut rng) {
            fnv.write(&(ranked.len() as u64).to_le_bytes());
            for record in &ranked {
                write_record(&mut fnv, record);
            }
            rows += 1;
        }
    }
    let banded = frontiers.iter().filter(|f| f.len() == 4).count();
    assert_eq!((frontiers.len(), banded, rows), (104, 69, 340));
    assert_eq!(fnv.finish(), 0x94a3_830b_c10a_6344);
}

//! Bit pins of the training path. Each network evaluates three stored
//! actions through `PolicyModel::evaluate` and then runs the three matching
//! `backward` calls in reverse (the stacked order the layer caches expect);
//! the value network runs three one-row `forward_batch` calls and the three
//! `backward_batch` calls in reverse. Every `(log_prob, entropy)` (or value)
//! is pinned by its bits, and every parameter gradient by one FNV-1a digest
//! over its bits, as literals: however the per-sample entry points are
//! routed, they must reach these exact numbers.
//!
//! Those networks are `EnvConfig::small()` wide. One more pin runs a whole
//! `PpoTrainer::train_iteration` at `EnvConfig::paper()` width (3252-wide
//! LSTM inputs) with minibatches small enough that gradient clipping
//! fires, and pins the iteration's statistics and both networks' weight
//! fingerprints: the clip scale depends on the bits of the global gradient
//! norm, so this is where the order that norm is folded in shows.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::{
    ActionRecord, FlatPolicyNetwork, PolicyHyperparams, PolicyModel, PolicyNetwork, PpoConfig,
    PpoTrainer, ValueNetwork, WeightSnapshot,
};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, InterchangeMode, Observation, ObservationBatch, OptimizationEnv};
use mlir_rl_ir::{Fnv1a, Module, ModuleBuilder};
use mlir_rl_nn::Param;
use mlir_rl_transforms::TransformationKind;

fn dataset() -> Vec<Module> {
    [(64, 64, 64), (128, 64, 32), (32, 128, 64)]
        .into_iter()
        .map(|(m, n, k)| {
            let mut b = ModuleBuilder::new(format!("mm_{m}x{n}x{k}"));
            let a = b.argument("A", vec![m, k]);
            let w = b.argument("B", vec![k, n]);
            let mm = b.matmul(a, w);
            b.relu(mm);
            b.finish()
        })
        .collect()
}

/// The reset observation of every dataset module.
fn observations(config: &EnvConfig) -> Vec<Observation> {
    let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
    dataset()
        .into_iter()
        .map(|m| env.reset(m).expect("module has ops"))
        .collect()
}

fn hyper() -> PolicyHyperparams {
    PolicyHyperparams {
        hidden_size: 16,
        backbone_layers: 2,
    }
}

/// One record per observation, each the first sampled action of a chosen
/// kind (tiling, interchange, tiled fusion), so every head's gradient path
/// runs.
fn records<P: PolicyModel>(policy: &mut P, observations: &[Observation]) -> Vec<ActionRecord> {
    let kinds = [
        TransformationKind::Tiling,
        TransformationKind::Interchange,
        TransformationKind::TiledFusion,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    observations
        .iter()
        .zip(kinds)
        .map(|(obs, kind)| {
            (0..256)
                .map(|_| policy.select_action(obs, false, &mut rng))
                .find(|record| record.action.kind() == kind)
                .unwrap_or_else(|| panic!("no {kind} action in 256 draws"))
        })
        .collect()
}

/// FNV-1a over the bits of every gradient entry, parameter by parameter,
/// each in logical (row, col) order.
fn gradient_digest(params: Vec<&mut Param>) -> u64 {
    let mut fnv = Fnv1a::new();
    for param in params {
        for g in param.logical_grad() {
            fnv.write(&g.to_bits().to_le_bytes());
        }
    }
    fnv.finish()
}

/// Three `evaluate` calls, then three `backward` calls in reverse with
/// fixed coefficients: the `(log_prob, entropy)` bits and the gradient
/// digest.
fn evaluate_then_backward<P: PolicyModel>(
    policy: &mut P,
    observations: &[Observation],
) -> (Vec<(u64, u64)>, u64) {
    let records = records(policy, observations);
    policy.zero_grad();
    let evals = observations
        .iter()
        .zip(&records)
        .map(|(obs, record)| {
            let (log_prob, entropy) = policy.evaluate(obs, record);
            (log_prob.to_bits(), entropy.to_bits())
        })
        .collect();
    for (i, (obs, record)) in observations.iter().zip(&records).enumerate().rev() {
        let coeff_logprob = 0.75 - 0.5 * i as f64;
        let coeff_entropy = -0.01 * (i + 1) as f64;
        policy.backward(obs, record, coeff_logprob, coeff_entropy);
    }
    (evals, gradient_digest(policy.parameters_mut()))
}

#[test]
fn level_pointer_policy_evaluate_and_backward_are_pinned() {
    let config = EnvConfig::small();
    let mut policy = PolicyNetwork::new(config.clone(), hyper(), &mut ChaCha8Rng::seed_from_u64(3));
    let (evals, digest) = evaluate_then_backward(&mut policy, &observations(&config));
    assert_eq!(
        evals,
        [
            (0xc01462fa7e7c81a3, 0x40140665ac156a4a),
            (0xc005339ef194fa28, 0x4003d8a72f204f6b),
            (0xc01273f120c5b8ea, 0x401321f51677a8ed),
        ]
    );
    assert_eq!(digest, 0x2768b06308403350);
}

#[test]
fn enumerated_policy_evaluate_and_backward_are_pinned() {
    let mut config = EnvConfig::small();
    config.interchange_mode = InterchangeMode::EnumeratedCandidates;
    let mut policy = PolicyNetwork::new(config.clone(), hyper(), &mut ChaCha8Rng::seed_from_u64(4));
    let (evals, digest) = evaluate_then_backward(&mut policy, &observations(&config));
    assert_eq!(
        evals,
        [
            (0xc01408ce86a81517, 0x40140a213363fff6),
            (0xbffc2f8852eb5a84, 0x3ffcaa2e4fb2ad5a),
            (0xc012ffa899625636, 0x401325ae093b16f8),
        ]
    );
    assert_eq!(digest, 0xef22f81fbc277408);
}

#[test]
fn flat_policy_evaluate_and_backward_are_pinned() {
    let config = EnvConfig::small();
    let mut policy =
        FlatPolicyNetwork::new(config.clone(), hyper(), &mut ChaCha8Rng::seed_from_u64(5));
    let (evals, digest) = evaluate_then_backward(&mut policy, &observations(&config));
    assert_eq!(
        evals,
        [
            (0xc005dcf2bb849a93, 0x4005a942de246b2b),
            (0xc005db160fccdcbc, 0x4005a948870e51bd),
            (0xc003c00a923061e0, 0x4003e00cd5aaa555),
        ]
    );
    assert_eq!(digest, 0x5b7bd97e16fc7cd3);
}

#[test]
fn value_network_one_row_forward_and_backward_are_pinned() {
    let config = EnvConfig::small();
    let mut value = ValueNetwork::new(&config, hyper(), &mut ChaCha8Rng::seed_from_u64(6));
    let observations = observations(&config);
    value.zero_grad();
    let values: Vec<u64> = observations
        .iter()
        .map(|obs| {
            let row =
                value.forward_batch(&ObservationBatch::from_observations(std::iter::once(obs)));
            assert_eq!(row.len(), 1);
            row[0].to_bits()
        })
        .collect();
    for i in (0..observations.len()).rev() {
        value.backward_batch(&[f64::from_bits(values[i]) - i as f64]);
    }
    assert_eq!(
        values,
        [0xbfaa7539148f3a91, 0xbfab26a6f0b5328b, 0xbfaa1e8ea626723e]
    );
    assert_eq!(gradient_digest(value.parameters_mut()), 0x0c3811dc4b70769e);
}

#[test]
fn paper_width_train_iteration_is_pinned() {
    let config = EnvConfig::paper();
    let ppo = PpoConfig {
        trajectories_per_iteration: 3,
        minibatch_size: 2,
        update_epochs: 2,
        ..PpoConfig::paper()
    };
    let hyper = PolicyHyperparams {
        hidden_size: 32,
        backbone_layers: 1,
    };
    let mut trainer = PpoTrainer::new(&config, hyper, ppo, 8);
    let mut env = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
    let stats = trainer.train_iteration(&mut env, &dataset());
    let floats = [
        stats.mean_speedup,
        stats.geomean_speedup,
        stats.mean_reward,
        stats.policy_loss,
        stats.value_loss,
        stats.entropy,
    ]
    .map(f64::to_bits);
    assert_eq!(
        floats,
        [
            0x401cfb39bf76fe0d,
            0x400fe1080be90ec5,
            0x3ff61ebf81fafab5,
            0xbf8c075a170ce709,
            0x3ff1440ae2119ca7,
            0x40114581bb318e6c,
        ]
    );
    assert_eq!((stats.evaluations, stats.cache_hits), (6, 3));
    assert_eq!(trainer.policy.weights_fingerprint(), 0xd4d2f42fa56f4560);
    assert_eq!(trainer.value.weights_fingerprint(), 0x0bf5dc3c91adb3ba);
}

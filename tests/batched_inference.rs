//! Property tests for the batched tensor engine: every batched path
//! (`forward_batch` / `infer_batch` / `backward_batch` on all three layer
//! types, the batched policy/value heads and the batched PPO update) must
//! be **bit-for-bit identical** to the same
//! work done as k calls of one row each, replayed backwards against the
//! stacked caches, and to the plain-loop `forward_inference` oracles —
//! batching is a throughput knob, never a numerics change. Frontier
//! ranking is one batch-1 `rank_actions` per observation; its test holds it
//! to the explicit loop.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::{
    ActionRecord, FlatPolicyNetwork, PolicyHyperparams, PolicyModel, PolicyNetwork, PpoConfig,
    PpoTrainer, ValueNetwork,
};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, Observation, ObservationBatch, OptimizationEnv};
use mlir_rl_ir::{Module, ModuleBuilder};
use mlir_rl_nn::{Linear, Lstm, Mlp, Tensor2};

fn random_rows(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| (0..cols).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Linear`: batched forward/inference rows are bitwise equal to the
    /// row kernel (`infer_into`), and batched backward (input gradients and
    /// accumulated parameter gradients) to one-row calls in stack-replay
    /// order.
    #[test]
    fn linear_batch_paths_match_serial(
        input in 1usize..24, output in 1usize..24, batch in 1usize..10, seed in 0u64..512,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut batched = Linear::new(input, output, &mut rng);
        let mut serial = batched.clone();
        let rows = random_rows(batch, input, &mut rng);
        let grads = random_rows(batch, output, &mut rng);
        let x = Tensor2::from_rows(input, rows.iter().map(Vec::as_slice));
        let g = Tensor2::from_rows(output, grads.iter().map(Vec::as_slice));

        let fwd = batched.forward_batch(&x);
        let mut infer_out = Tensor2::zeros(0, 0);
        batched.infer_batch_into(&x, &mut infer_out);
        prop_assert_eq!(&fwd, &infer_out);
        let mut row_out = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            serial.infer_into(row, &mut row_out);
            prop_assert_eq!(fwd.row(i), row_out.as_slice());
            serial.forward_batch(&Tensor2::from_row(row));
        }

        let gx = batched.backward_batch(&g);
        let mut gx_serial: Vec<Tensor2> =
            grads.iter().rev().map(|gr| serial.backward_batch(&Tensor2::from_row(gr))).collect();
        gx_serial.reverse();
        for (i, gs) in gx_serial.iter().enumerate() {
            prop_assert_eq!(gx.row(i), gs.data());
        }
        let pb = batched.parameters_mut();
        let ps = serial.parameters_mut();
        for (a, b) in pb.iter().zip(&ps) {
            prop_assert_eq!(a.grad(), b.grad());
        }
    }

    /// `Mlp`: batched forward/inference/backward bitwise equal to the
    /// serial loop, for both relu-output and linear-output stacks.
    #[test]
    fn mlp_batch_paths_match_serial(
        input in 1usize..16, hidden in 1usize..16, batch in 1usize..9,
        relu_output in 0u32..2, seed in 0u64..512,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut batched = Mlp::new(&[input, hidden, hidden], relu_output == 1, &mut rng);
        let mut serial = batched.clone();
        let rows = random_rows(batch, input, &mut rng);
        let grads = random_rows(batch, batched.output_size(), &mut rng);
        let x = Tensor2::from_rows(input, rows.iter().map(Vec::as_slice));
        let g = Tensor2::from_rows(batched.output_size(), grads.iter().map(Vec::as_slice));

        let fwd = batched.forward_batch(&x);
        let inferred = batched.infer_batch(&x).clone();
        prop_assert_eq!(&fwd, &inferred);
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(fwd.row(i), serial.forward_batch(&Tensor2::from_row(row)).data());
            prop_assert_eq!(fwd.row(i), serial.forward_inference(row).as_slice());
        }

        let gx = batched.backward_batch(&g);
        let mut gx_serial: Vec<Tensor2> =
            grads.iter().rev().map(|gr| serial.backward_batch(&Tensor2::from_row(gr))).collect();
        gx_serial.reverse();
        for (i, gs) in gx_serial.iter().enumerate() {
            prop_assert_eq!(gx.row(i), gs.data());
        }
        let pb = batched.parameters_mut();
        let ps = serial.parameters_mut();
        for (a, b) in pb.iter().zip(&ps) {
            prop_assert_eq!(a.grad(), b.grad());
        }
    }

    /// `Lstm`: batched sequence forward/inference/backward bitwise equal to
    /// the serial loop (two time steps, the producer-consumer shape, plus
    /// longer sequences).
    #[test]
    fn lstm_batch_paths_match_serial(
        input in 1usize..10, hidden in 1usize..10, batch in 1usize..7,
        steps in 1usize..4, seed in 0u64..512,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut batched = Lstm::new(input, hidden, &mut rng);
        let mut serial = batched.clone();
        let sequences: Vec<Vec<Vec<f64>>> =
            (0..batch).map(|_| random_rows(steps, input, &mut rng)).collect();
        let grads = random_rows(batch, hidden, &mut rng);
        let step_tensors: Vec<Tensor2> = (0..steps)
            .map(|t| Tensor2::from_rows(input, sequences.iter().map(|s| s[t].as_slice())))
            .collect();

        let fwd = batched.forward_batch(&step_tensors);
        let refs: Vec<&Tensor2> = step_tensors.iter().collect();
        let inferred = batched.infer_batch(&refs).clone();
        prop_assert_eq!(&fwd, &inferred);
        for (b, seq) in sequences.iter().enumerate() {
            prop_assert_eq!(fwd.row(b), serial.forward_inference(seq).as_slice());
            let borrowed: Vec<&[f64]> = seq.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(fwd.row(b), serial.infer(&borrowed));
        }

        let g = Tensor2::from_rows(hidden, grads.iter().map(Vec::as_slice));
        let gx = batched.backward_batch(&g);
        for seq in &sequences {
            let one_row: Vec<Tensor2> = seq.iter().map(|x| Tensor2::from_row(x)).collect();
            serial.forward_batch(&one_row);
        }
        let mut gx_serial: Vec<Vec<Tensor2>> =
            grads.iter().rev().map(|gr| serial.backward_batch(&Tensor2::from_row(gr))).collect();
        gx_serial.reverse();
        for (b, gs) in gx_serial.iter().enumerate() {
            for (t, gt) in gs.iter().enumerate() {
                prop_assert_eq!(gx[t].row(b), gt.data());
            }
        }
        let pb = batched.parameters_mut();
        let ps = serial.parameters_mut();
        for (a, b) in pb.iter().zip(&ps) {
            prop_assert_eq!(a.grad(), b.grad());
        }
    }
}

fn env() -> OptimizationEnv {
    OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()))
}

fn small_dataset() -> Vec<Module> {
    let mut out = Vec::new();
    for (m, n, k) in [(64, 64, 64), (128, 64, 32), (32, 128, 64)] {
        let mut b = ModuleBuilder::new(format!("mm_{m}x{n}x{k}"));
        let a = b.argument("A", vec![m, k]);
        let w = b.argument("B", vec![k, n]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        out.push(b.finish());
    }
    out
}

fn observations() -> Vec<Observation> {
    let mut e = env();
    small_dataset()
        .into_iter()
        .map(|m| e.reset(m).expect("module has ops"))
        .collect()
}

fn hyper() -> PolicyHyperparams {
    PolicyHyperparams {
        hidden_size: 16,
        backbone_layers: 1,
    }
}

/// A policy whose batched trait methods run a minibatch as k calls of one
/// (`evaluate` forwards, then `backward` in reverse against the stacked
/// caches): the reference the batched update is held against.
#[derive(Clone)]
struct SerialPolicy(PolicyNetwork);

impl PolicyModel for SerialPolicy {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        self.0.select_action(obs, greedy, rng)
    }
    fn zero_grad(&mut self) {
        self.0.zero_grad();
    }
    fn parameters_mut(&mut self) -> Vec<&mut mlir_rl_nn::Param> {
        self.0.parameters_mut()
    }
    fn evaluate_batch(
        &mut self,
        _batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        items
            .iter()
            .map(|(obs, record)| self.0.evaluate(obs, record))
            .collect()
    }
    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        for ((obs, record), (coeff_logprob, coeff_entropy)) in items.iter().zip(coeffs).rev() {
            self.0.backward(obs, record, *coeff_logprob, *coeff_entropy);
        }
    }
}

/// The batched PPO update (one blocked matmul per layer per minibatch) is
/// bit-identical to the same update run as k calls of one: two trainers
/// that differ only in how the policy splits a minibatch end up with
/// bitwise-equal parameters and iteration statistics.
#[test]
fn ppo_batched_update_is_bit_identical_to_per_sample_replay() {
    let config = EnvConfig::small();
    let ppo = PpoConfig {
        trajectories_per_iteration: 3,
        minibatch_size: 4,
        update_epochs: 2,
        ..PpoConfig::paper()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    let policy = PolicyNetwork::new(config.clone(), hyper(), &mut rng);
    let value = ValueNetwork::new(&config, hyper(), &mut rng);
    let mut batched = PpoTrainer::with_policy(policy.clone(), value.clone(), ppo, rng.clone());
    let mut serial = PpoTrainer::with_policy(SerialPolicy(policy), value, ppo, rng);

    let dataset = small_dataset();
    let (mut env_b, mut env_s) = (env(), env());
    for _ in 0..2 {
        let sb = batched.train_iteration(&mut env_b, &dataset);
        let ss = serial.train_iteration(&mut env_s, &dataset);
        assert_eq!(sb, ss, "iteration statistics must be bitwise equal");
    }
    let pb = batched.policy.parameters_mut();
    let ps = serial.policy.0.parameters_mut();
    assert_eq!(pb.len(), ps.len());
    for (a, b) in pb.iter().zip(&ps) {
        assert_eq!(
            a.value(),
            b.value(),
            "policy parameters must be bitwise equal"
        );
    }
    let vb = batched.value.parameters_mut();
    let vs = serial.value.parameters_mut();
    for (a, b) in vb.iter().zip(&vs) {
        assert_eq!(
            a.value(),
            b.value(),
            "value parameters must be bitwise equal"
        );
    }
}

/// The value network's batched forward is bitwise equal to one-row calls,
/// to the `predict` oracle and to `predict_fast`, and batched backward accumulates the same
/// gradients as the reverse-order one-row replay.
#[test]
fn value_network_batch_paths_match_serial() {
    let config = EnvConfig::small();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut batched = ValueNetwork::new(&config, hyper(), &mut rng);
    let mut serial = batched.clone();
    let observations = observations();
    let obs_refs: Vec<&Observation> = observations.iter().collect();
    let batch = ObservationBatch::from_observations(obs_refs.iter().copied());

    let values = batched.forward_batch(&batch);
    for (obs, v) in observations.iter().zip(&values) {
        let one_row = ObservationBatch::from_observations(std::iter::once(obs));
        assert_eq!(
            [*v],
            *serial.forward_batch(&one_row),
            "per-observation value"
        );
        assert_eq!(*v, serial.predict(obs));
        assert_eq!(*v, serial.predict_fast(obs));
    }

    let grads: Vec<f64> = values
        .iter()
        .enumerate()
        .map(|(i, v)| v - i as f64)
        .collect();
    batched.backward_batch(&grads);
    for g in grads.iter().rev() {
        serial.backward_batch(&[*g]);
    }
    let pb = batched.parameters_mut();
    let ps = serial.parameters_mut();
    for (a, b) in pb.iter().zip(&ps) {
        assert_eq!(a.grad(), b.grad(), "value gradients must be bitwise equal");
    }
}

/// Frontier ranking consumes the RNG per observation in order and is
/// bitwise equal to looped `rank_actions`, for both policy types.
#[test]
fn rank_actions_batch_matches_looped_rank_actions() {
    let config = EnvConfig::small();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut multi = PolicyNetwork::new(config.clone(), hyper(), &mut rng);
    let mut flat = FlatPolicyNetwork::new(config, hyper(), &mut rng);
    let observations = observations();
    let obs_refs: Vec<&Observation> = observations.iter().collect();

    for k in [1usize, 4, 6] {
        let mut rng_loop = ChaCha8Rng::seed_from_u64(100 + k as u64);
        let mut rng_batch = rng_loop.clone();
        let looped: Vec<Vec<ActionRecord>> = obs_refs
            .iter()
            .map(|obs| multi.rank_actions(obs, k, &mut rng_loop))
            .collect();
        let batched = multi.rank_actions_batch(&obs_refs, k, &mut rng_batch);
        assert_eq!(looped, batched, "multi-discrete policy, k = {k}");
        // The RNG streams stay in lockstep: the next draw agrees too.
        assert_eq!(rng_loop.gen::<u64>(), rng_batch.gen::<u64>());

        let mut rng_loop = ChaCha8Rng::seed_from_u64(200 + k as u64);
        let mut rng_batch = rng_loop.clone();
        let looped: Vec<Vec<ActionRecord>> = obs_refs
            .iter()
            .map(|obs| flat.rank_actions(obs, k, &mut rng_loop))
            .collect();
        let batched = flat.rank_actions_batch(&obs_refs, k, &mut rng_batch);
        assert_eq!(looped, batched, "flat policy, k = {k}");
    }
}

/// The multi-discrete policy's batched evaluate/backward agree bitwise with
/// the batch-of-one `evaluate` / `backward` on the same sampled actions.
#[test]
fn policy_evaluate_batch_matches_serial_evaluate() {
    let config = EnvConfig::small();
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let mut batched = PolicyNetwork::new(config, hyper(), &mut rng);
    let mut serial = batched.clone();
    let observations = observations();
    let mut sample_rng = ChaCha8Rng::seed_from_u64(14);
    let records: Vec<ActionRecord> = observations
        .iter()
        .map(|obs| batched.select_action(obs, false, &mut sample_rng))
        .collect();
    let items: Vec<(&Observation, &ActionRecord)> = observations.iter().zip(&records).collect();
    let obs_batch = ObservationBatch::from_observations(items.iter().map(|(obs, _)| *obs));

    let evals_batched = PolicyModel::evaluate_batch(&mut batched, &obs_batch, &items);
    let evals_serial: Vec<(f64, f64)> = items
        .iter()
        .map(|(obs, record)| serial.evaluate(obs, record))
        .collect();
    assert_eq!(evals_batched, evals_serial);

    let coeffs: Vec<(f64, f64)> = (0..items.len())
        .map(|i| (0.5 - i as f64 * 0.25, 0.01))
        .collect();
    PolicyModel::backward_batch(&mut batched, &items, &coeffs);
    for ((obs, record), (cl, ce)) in items.iter().zip(&coeffs).rev() {
        serial.backward(obs, record, *cl, *ce);
    }
    let pb = batched.parameters_mut();
    let ps = serial.parameters_mut();
    for (a, b) in pb.iter().zip(&ps) {
        assert_eq!(a.grad(), b.grad(), "policy gradients must be bitwise equal");
    }
}

//! The critic (value network, Sec. V-B).
//!
//! The first two components are identical to the policy network (the
//! producer-consumer LSTM embedding and the ReLU backbone); a final linear
//! layer with a single output estimates the state value `v_pi(s)`.

use rand::Rng;

use mlir_rl_env::{EnvConfig, Observation, ObservationBatch};
use mlir_rl_nn::{Linear, Lstm, Mlp, Param, Scratch, Tensor2};

use crate::policy::{dense_sequence, embed_observation, lstm_step_tensors_into, PolicyHyperparams};

/// The value network.
#[derive(Debug, Clone)]
pub struct ValueNetwork {
    lstm: Lstm,
    backbone: Mlp,
    head: Linear,
    /// Reusable one-element output buffer for [`ValueNetwork::predict_fast`].
    infer_out: Scratch<Vec<f64>>,
    /// Reusable LSTM step tensors for the training batches.
    step_scratch: Scratch<[Tensor2; 2]>,
}

impl ValueNetwork {
    /// Creates a value network for the given environment configuration.
    pub fn new<R: Rng>(env_config: &EnvConfig, hyper: PolicyHyperparams, rng: &mut R) -> Self {
        let feature_len = env_config.feature_len();
        let h = hyper.hidden_size;
        let lstm = Lstm::new(feature_len, h, rng);
        let mut sizes = vec![h];
        sizes.extend(std::iter::repeat_n(h, hyper.backbone_layers));
        let backbone = Mlp::new(&sizes, true, rng);
        let head = Linear::new(h, 1, rng);
        Self {
            lstm,
            backbone,
            head,
            infer_out: Scratch::default(),
            step_scratch: Scratch::default(),
        }
    }

    /// Estimates the state value through the layers' plain-loop
    /// `forward_inference` reference paths: the oracle
    /// [`ValueNetwork::predict_fast`] is tested bit for bit against, not a
    /// hot path.
    pub fn predict(&self, obs: &Observation) -> f64 {
        let embedding = self.lstm.forward_inference(&dense_sequence(obs));
        let z = self.backbone.forward_inference(&embedding);
        self.head.forward_inference(&z)[0]
    }

    /// Allocation-free twin of [`ValueNetwork::predict`] using internal
    /// scratch buffers; bit-identical results. This is the path the rollout
    /// engine uses.
    pub fn predict_fast(&mut self, obs: &Observation) -> f64 {
        let embedding = embed_observation(&mut self.lstm, obs);
        let z = self.backbone.infer(embedding);
        self.head.infer_into(z, &mut self.infer_out.0);
        self.infer_out.0[0]
    }

    /// Estimates every packed observation's value through one batched
    /// forward pass per layer, caching activations for
    /// [`ValueNetwork::backward_batch`]. Entry `i` is bit-identical to
    /// [`ValueNetwork::predict`] on observation `i`.
    pub fn forward_batch(&mut self, batch: &ObservationBatch) -> Vec<f64> {
        lstm_step_tensors_into(batch, &mut self.step_scratch.0);
        let embedding = self.lstm.forward_batch(&self.step_scratch.0);
        let z = self.backbone.forward_batch(&embedding);
        self.head.forward_batch(&z).into_flat()
    }

    /// Backward pass for the most recent un-consumed
    /// [`ValueNetwork::forward_batch`] call, given `d loss / d value` per
    /// observation. Parameter gradients accumulate in reverse item order —
    /// bit-identical to one-row calls in reverse.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching `forward_batch` or the gradient
    /// count differs from the forwarded batch.
    pub fn backward_batch(&mut self, grad_values: &[f64]) {
        let g = Tensor2::from_flat(grad_values.len(), 1, grad_values.to_vec());
        let grad_z = self.head.backward_batch(&g);
        let grad_embedding = self.backbone.backward_batch(&grad_z);
        self.lstm.backward_params_batch(&grad_embedding);
    }

    /// Clears gradients and caches.
    pub fn zero_grad(&mut self) {
        self.lstm.zero_grad();
        self.backbone.zero_grad();
        self.head.zero_grad();
    }

    /// All trainable parameters, in a stable order.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.lstm.parameters_mut();
        out.extend(self.backbone.parameters_mut());
        out.extend(self.head.parameters_mut());
        out
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&mut self) -> usize {
        self.parameters_mut().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_costmodel::{CostModel, MachineModel};
    use mlir_rl_env::OptimizationEnv;
    use mlir_rl_ir::ModuleBuilder;
    use mlir_rl_nn::Adam;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn observation() -> Observation {
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![64, 64]);
        let w = b.argument("B", vec![64, 64]);
        b.matmul(a, w);
        let mut env =
            OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()));
        env.reset(b.finish()).unwrap()
    }

    fn one_row(obs: &Observation) -> ObservationBatch {
        ObservationBatch::from_observations(std::iter::once(obs))
    }

    #[test]
    fn predict_and_forward_agree() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut v = ValueNetwork::new(&EnvConfig::small(), PolicyHyperparams::default(), &mut rng);
        let obs = observation();
        let a = v.predict(&obs);
        let b = v.forward_batch(&one_row(&obs));
        assert_eq!(b, [a]);
        v.zero_grad();
        assert!(v.num_parameters() > 1000);
    }

    #[test]
    fn value_regression_converges_to_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut v = ValueNetwork::new(&EnvConfig::small(), PolicyHyperparams::default(), &mut rng);
        let obs = observation();
        let target = 2.5;
        let mut adam = Adam::new(1e-2);
        for _ in 0..100 {
            v.zero_grad();
            let pred = v.forward_batch(&one_row(&obs))[0];
            // Loss = 0.5 (pred - target)^2, dL/dpred = pred - target.
            v.backward_batch(&[pred - target]);
            adam.step(&mut v.parameters_mut());
        }
        let final_pred = v.predict(&obs);
        assert!(
            (final_pred - target).abs() < 0.2,
            "value head should fit a constant target, got {final_pred}"
        );
    }
}

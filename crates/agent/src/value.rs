//! The critic (value network, Sec. V-B).
//!
//! The first two components are identical to the policy network (the
//! producer-consumer LSTM embedding and the ReLU backbone, one `Trunk`);
//! a final linear layer with a single output estimates the state value
//! `v_pi(s)`.

use rand::Rng;

use mlir_rl_env::{EnvConfig, Observation, ObservationBatch};
use mlir_rl_nn::{Linear, Param, Scratch, Tensor2};

use crate::policy::PolicyHyperparams;
use crate::trunk::Trunk;

/// The value network.
#[derive(Debug, Clone)]
pub struct ValueNetwork {
    trunk: Trunk,
    head: Linear,
    /// Reusable one-element output buffer for [`ValueNetwork::predict_fast`].
    infer_out: Scratch<Vec<f64>>,
}

impl ValueNetwork {
    /// Creates a value network for the given environment configuration.
    pub fn new<R: Rng>(env_config: &EnvConfig, hyper: PolicyHyperparams, rng: &mut R) -> Self {
        let trunk = Trunk::new(env_config, hyper, rng);
        Self {
            trunk,
            head: Linear::new(hyper.hidden_size, 1, rng),
            infer_out: Scratch::default(),
        }
    }

    /// Estimates the state value through the layers' plain-loop
    /// `forward_inference` reference paths: the oracle
    /// [`ValueNetwork::predict_fast`] is tested bit for bit against, not a
    /// hot path.
    pub fn predict(&self, obs: &Observation) -> f64 {
        self.head
            .forward_inference(&self.trunk.forward_inference(obs))[0]
    }

    /// Allocation-free twin of [`ValueNetwork::predict`] using internal
    /// scratch buffers; bit-identical results. This is the path the rollout
    /// engine uses.
    pub fn predict_fast(&mut self, obs: &Observation) -> f64 {
        let z = self.trunk.infer(obs);
        self.head.infer_into(z, &mut self.infer_out.0);
        self.infer_out.0[0]
    }

    /// Estimates every batched observation's value through one batched
    /// forward pass per layer, caching activations for
    /// [`ValueNetwork::backward_batch`]. Entry `i` is bit-identical to
    /// [`ValueNetwork::predict`] on observation `i`.
    pub fn forward_batch(&mut self, batch: &ObservationBatch<'_>) -> Vec<f64> {
        let z = self.trunk.forward_batch(batch);
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
        self.trunk.backward_batch(&grad_z);
    }

    /// Clears gradients and caches.
    pub fn zero_grad(&mut self) {
        self.trunk.zero_grad();
        self.head.zero_grad();
    }

    /// All trainable parameters, in a stable order.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.trunk.parameters_mut();
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

    fn one_row(obs: &Observation) -> ObservationBatch<'_> {
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

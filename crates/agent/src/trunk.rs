//! The observation embedding every network shares (Sec. V-A): the
//! producer and consumer representation vectors go through an LSTM in that
//! order, and its final hidden state through a backbone of fully connected
//! ReLU layers. The multi-discrete policy, the flat policy of the Fig. 6
//! ablation and the critic are each one [`Trunk`] plus their heads.

use rand::Rng;

use mlir_rl_env::{EnvConfig, Observation, ObservationBatch};
use mlir_rl_nn::{Lstm, Mlp, Param, Tensor2};

use crate::policy::PolicyHyperparams;

/// The embedding LSTM and the backbone.
#[derive(Debug, Clone)]
pub(crate) struct Trunk {
    lstm: Lstm,
    backbone: Mlp,
}

impl Trunk {
    /// Draws the LSTM, then the backbone.
    pub(crate) fn new<R: Rng>(
        env_config: &EnvConfig,
        hyper: PolicyHyperparams,
        rng: &mut R,
    ) -> Self {
        let h = hyper.hidden_size;
        let lstm = Lstm::new(env_config.feature_len(), h, rng);
        let mut sizes = vec![h];
        sizes.extend(std::iter::repeat_n(h, hyper.backbone_layers));
        Self {
            lstm,
            backbone: Mlp::new(&sizes, true, rng),
        }
    }

    /// Batch-1 inference: reads each vector as the list of non-zeros it is
    /// stored as (`O(non-zeros)` input memory, no dense view), bit-identical
    /// to [`Trunk::forward_inference`].
    pub(crate) fn infer(&mut self, obs: &Observation) -> &[f64] {
        for features in [&obs.producer, &obs.consumer] {
            assert_eq!(
                features.len(),
                self.lstm.input_size(),
                "LSTM input size mismatch"
            );
        }
        let embedding = self
            .lstm
            .infer_nonzeros(&[obs.producer.nonzeros(), obs.consumer.nonzeros()]);
        self.backbone.infer(embedding)
    }

    /// The embedding through the layers' plain-loop `forward_inference`
    /// references on owned dense vectors: the oracle the other paths are
    /// tested against, not a hot path.
    pub(crate) fn forward_inference(&self, obs: &Observation) -> Vec<f64> {
        let embedding = self
            .lstm
            .forward_inference(&[obs.producer.to_vec(), obs.consumer.to_vec()]);
        self.backbone.forward_inference(&embedding)
    }

    /// Training-mode forward pass over a batch, caching activations for
    /// [`Trunk::backward_batch`]: the LSTM reads each row's producer and
    /// consumer lists as they are stored, then one blocked matmul per
    /// backbone layer. Row `i` is bit-identical to [`Trunk::infer`] on
    /// observation `i`.
    pub(crate) fn forward_batch(&mut self, batch: &ObservationBatch<'_>) -> Tensor2 {
        assert_eq!(
            batch.feature_len(),
            self.lstm.input_size(),
            "LSTM input size mismatch"
        );
        let [producers, consumers] = [0, 1].map(|step| {
            batch
                .rows()
                .iter()
                .map(|row| row[step].nonzeros())
                .collect::<Vec<_>>()
        });
        let embedding = self.lstm.forward_batch_nonzeros(&[&producers, &consumers]);
        self.backbone.forward_batch(&embedding)
    }

    /// Backward pass for the most recent un-consumed
    /// [`Trunk::forward_batch`], given the gradient of its output.
    pub(crate) fn backward_batch(&mut self, grad_z: &Tensor2) {
        let grad_embedding = self.backbone.backward_batch(grad_z);
        self.lstm.backward_params_batch(&grad_embedding);
    }

    /// Clears gradients and cached activations.
    pub(crate) fn zero_grad(&mut self) {
        self.lstm.zero_grad();
        self.backbone.zero_grad();
    }

    /// The LSTM's parameters, then the backbone's.
    pub(crate) fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.lstm.parameters_mut();
        out.extend(self.backbone.parameters_mut());
        out
    }
}

//! Flat-action-space policy for the Fig. 6 ablation.
//!
//! The flat formulation enumerates a fixed set of (transformation,
//! parameter) combinations — uniform tile sizes and pairwise-swap
//! interchanges — and selects one with a single categorical head. It learns
//! faster (fewer choices per step) but cannot express the per-loop tile
//! size combinations the multi-discrete space can, which is why it
//! converges to a lower final speedup.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_env::{
    flat_action_space, num_enumerated_candidates, EnvConfig, FlatAction, Observation,
    ObservationBatch,
};
use mlir_rl_nn::{Linear, Lstm, MaskedCategorical, Mlp, Param, Scratch, Tensor2};
use mlir_rl_transforms::TransformationKind;

use crate::policy::{
    embed_observation, lstm_step_tensors_into, rank_candidates, ActionRecord, PolicyHyperparams,
};
use crate::ppo::PolicyModel;

/// The flat policy network: same embedding and backbone as the
/// multi-discrete policy, but a single categorical head over the whole flat
/// action list.
#[derive(Debug, Clone)]
pub struct FlatPolicyNetwork {
    env_config: EnvConfig,
    actions: Vec<FlatAction>,
    lstm: Lstm,
    backbone: Mlp,
    head: Linear,
    /// Reusable logits buffer for rollout-time action selection.
    logits_scratch: Scratch<Vec<f64>>,
    /// Batched logits of pending `evaluate_batch` calls, consumed by
    /// `backward_batch` so the backward pass never re-runs the forward
    /// network.
    pending_batches: Scratch<Vec<Tensor2>>,
    /// Reusable LSTM step tensors for the training batches.
    step_scratch: Scratch<[Tensor2; 2]>,
}

impl FlatPolicyNetwork {
    /// Creates a flat policy for the given environment configuration.
    pub fn new<R: Rng>(env_config: EnvConfig, hyper: PolicyHyperparams, rng: &mut R) -> Self {
        env_config.validate();
        let actions = flat_action_space(&env_config);
        let h = hyper.hidden_size;
        let lstm = Lstm::new(env_config.feature_len(), h, rng);
        let mut sizes = vec![h];
        sizes.extend(std::iter::repeat_n(h, hyper.backbone_layers));
        let backbone = Mlp::new(&sizes, true, rng);
        let head = Linear::new(h, actions.len(), rng);
        Self {
            env_config,
            actions,
            lstm,
            backbone,
            head,
            logits_scratch: Scratch::default(),
            pending_batches: Scratch::default(),
            step_scratch: Scratch::default(),
        }
    }

    /// The environment configuration the policy was built for.
    pub fn env_config(&self) -> &EnvConfig {
        &self.env_config
    }

    fn flat_mask(&self, obs: &Observation) -> Vec<bool> {
        use TransformationKind as K;
        let mask = &obs.mask;
        let tiles_fit = |index: usize| (0..obs.num_loops).all(|level| mask.tile_row(level)[index]);
        self.actions
            .iter()
            .map(|fa| {
                let (kind, fits) = match *fa {
                    FlatAction::UniformTiling { index } => (K::Tiling, tiles_fit(index)),
                    FlatAction::UniformTiledParallelization { index } => {
                        (K::TiledParallelization, tiles_fit(index))
                    }
                    FlatAction::UniformTiledFusion { index } => (K::TiledFusion, tiles_fit(index)),
                    FlatAction::Interchange { candidate } => (
                        K::Interchange,
                        candidate < num_enumerated_candidates(obs.num_loops),
                    ),
                    FlatAction::Vectorization => (K::Vectorization, true),
                    FlatAction::NoTransformation => (K::NoTransformation, true),
                };
                mask.allows(kind) && fits
            })
            .collect()
    }

    /// Allocation-free inference logits into `out`.
    fn infer_logits(&mut self, obs: &Observation, out: &mut Vec<f64>) {
        let embedding = embed_observation(&mut self.lstm, obs);
        let z = self.backbone.infer(embedding);
        self.head.infer_into(z, out);
    }

    /// The batch-1 inference logits next to the same logits through the
    /// layers' plain-loop `forward_inference` references, for the
    /// bit-for-bit test shared with [`crate::PolicyNetwork`].
    #[cfg(test)]
    pub(crate) fn logits_and_dense_oracle(&mut self, obs: &Observation) -> [Vec<f64>; 2] {
        let mut logits = Vec::new();
        self.infer_logits(obs, &mut logits);
        let embedding = self
            .lstm
            .forward_inference(&crate::policy::dense_sequence(obs));
        let z = self.backbone.forward_inference(&embedding);
        [logits, self.head.forward_inference(&z)]
    }

    /// Batched training-mode logits: one blocked matmul per layer, caching
    /// every layer's activations for the backward pass; row `i` is
    /// bit-identical to [`FlatPolicyNetwork::infer_logits`] on observation
    /// `i`.
    fn logits_train_batch(&mut self, batch: &ObservationBatch) -> Tensor2 {
        lstm_step_tensors_into(batch, &mut self.step_scratch.0);
        let embedding = self.lstm.forward_batch(&self.step_scratch.0);
        let z = self.backbone.forward_batch(&embedding);
        self.head.forward_batch(&z)
    }

    /// Draws one record from fixed logits/mask (the logits never change
    /// between draws of one ranking, so this is bit-identical to repeated
    /// `select_action` calls).
    fn record_from_logits(
        &self,
        obs: &Observation,
        logits: &[f64],
        mask: &[bool],
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        let dist = MaskedCategorical::new(logits, mask);
        let index = if greedy {
            dist.argmax()
        } else {
            dist.sample(rng)
        };
        self.record_for(obs, index, dist.log_prob(index), dist.entropy())
    }

    fn record_for(
        &self,
        obs: &Observation,
        index: usize,
        log_prob: f64,
        entropy: f64,
    ) -> ActionRecord {
        let action = self.actions[index].to_action(obs.num_loops);
        ActionRecord {
            action,
            kind_index: index,
            tile_indices: Vec::new(),
            interchange_candidate: None,
            interchange_permutation: None,
            log_prob,
            entropy,
        }
    }
}

impl PolicyModel for FlatPolicyNetwork {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        let mut logits = std::mem::take(&mut self.logits_scratch).0;
        self.infer_logits(obs, &mut logits);
        let mask = self.flat_mask(obs);
        // NoTransformation is always allowed, so the mask is never empty.
        let dist = MaskedCategorical::new(&logits, &mask);
        let index = if greedy {
            dist.argmax()
        } else {
            dist.sample(rng)
        };
        let record = self.record_for(obs, index, dist.log_prob(index), dist.entropy());
        self.logits_scratch = Scratch(logits);
        record
    }

    fn zero_grad(&mut self) {
        self.lstm.zero_grad();
        self.backbone.zero_grad();
        self.head.zero_grad();
        self.pending_batches.0.clear();
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.lstm.parameters_mut();
        out.extend(self.backbone.parameters_mut());
        out.extend(self.head.parameters_mut());
        out
    }

    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        assert_eq!(batch.len(), items.len(), "packed batch size mismatch");
        if items.is_empty() {
            // Nothing evaluated, nothing pushed: the matching
            // `backward_batch` is a no-op, so the pending stack stays
            // symmetric and an empty tick cannot panic the caller.
            return Vec::new();
        }
        let logits = self.logits_train_batch(batch);
        let mut out = Vec::with_capacity(items.len());
        for (i, (obs, record)) in items.iter().enumerate() {
            let mask = self.flat_mask(obs);
            let dist = MaskedCategorical::new(logits.row(i), &mask);
            out.push((dist.log_prob(record.kind_index), dist.entropy()));
        }
        self.pending_batches.0.push(logits);
        out
    }

    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        if items.is_empty() {
            assert!(coeffs.is_empty(), "coefficient count mismatch");
            return;
        }
        let logits = self
            .pending_batches
            .0
            .pop()
            .expect("backward_batch called without a matching evaluate_batch");
        assert_eq!(items.len(), logits.rows(), "batch mismatch");
        let mut grads = Tensor2::zeros(logits.rows(), logits.cols());
        for (i, ((obs, record), (coeff_logprob, coeff_entropy))) in
            items.iter().zip(coeffs).enumerate()
        {
            let mask = self.flat_mask(obs);
            let dist = MaskedCategorical::new(logits.row(i), &mask);
            let lp = dist.log_prob_grad(record.kind_index);
            let eg = dist.entropy_grad();
            for (slot, (l, e)) in grads.row_mut(i).iter_mut().zip(lp.iter().zip(&eg)) {
                *slot = coeff_logprob * l + coeff_entropy * e;
            }
        }
        let grad_z = self.head.backward_batch(&grads);
        let grad_embedding = self.backbone.backward_batch(&grad_z);
        self.lstm.backward_params_batch(&grad_embedding);
    }

    fn rank_actions(
        &mut self,
        obs: &Observation,
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<ActionRecord> {
        let mut logits = std::mem::take(&mut self.logits_scratch).0;
        self.infer_logits(obs, &mut logits);
        let mask = self.flat_mask(obs);
        let records = rank_candidates(k, rng, |greedy, rng| {
            self.record_from_logits(obs, &logits, &mask, greedy, rng)
        });
        self.logits_scratch = Scratch(logits);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppo::{GroupResult, InferenceGroup, InferenceMode};
    use mlir_rl_costmodel::{CostModel, MachineModel};
    use mlir_rl_env::OptimizationEnv;
    use mlir_rl_ir::ModuleBuilder;
    use rand::SeedableRng;

    fn observation() -> Observation {
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![64, 128]);
        let w = b.argument("B", vec![128, 32]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        let mut env =
            OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()));
        env.reset(b.finish()).unwrap()
    }

    fn flat_policy() -> FlatPolicyNetwork {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        FlatPolicyNetwork::new(
            EnvConfig::small(),
            PolicyHyperparams {
                hidden_size: 16,
                backbone_layers: 1,
            },
            &mut rng,
        )
    }

    #[test]
    fn empty_batches_evaluate_to_empty_results_instead_of_panicking() {
        let mut p = flat_policy();
        let batch = ObservationBatch::new(p.env_config().feature_len());
        assert!(p.evaluate_batch(&batch, &[]).is_empty());
        p.backward_batch(&[], &[]);
        // A real pair afterwards confirms the pending stack stayed
        // symmetric.
        let obs = observation();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let record = p.select_action(&obs, false, &mut rng);
        let mut packed = ObservationBatch::new(p.env_config().feature_len());
        packed.push(&obs);
        let out = p.evaluate_batch(&packed, &[(&obs, &record)]);
        assert_eq!(out.len(), 1);
        p.backward_batch(&[(&obs, &record)], &[(1.0, 0.01)]);
        p.zero_grad();
    }

    #[test]
    fn infer_groups_matches_direct_calls() {
        let obs = observation();
        let mut grouped = flat_policy();
        let mut groups = vec![
            InferenceGroup {
                observations: vec![obs.clone(), obs.clone()],
                mode: InferenceMode::Rank { k: 2 },
                rng: ChaCha8Rng::seed_from_u64(31),
            },
            InferenceGroup {
                observations: vec![obs.clone()],
                mode: InferenceMode::Sample { greedy: false },
                rng: ChaCha8Rng::seed_from_u64(32),
            },
        ];
        let results = grouped.infer_groups(&mut groups);

        let mut direct = flat_policy();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let direct_rank = direct.rank_actions_batch(&[&obs, &obs], 2, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let direct_sample = direct.select_action(&obs, false, &mut rng);

        match &results[0] {
            GroupResult::Ranked(ranked) => assert_eq!(ranked, &direct_rank),
            GroupResult::Sampled(_) => panic!("rank group answered with samples"),
        }
        match &results[1] {
            GroupResult::Sampled(sampled) => {
                assert_eq!(sampled.as_slice(), std::slice::from_ref(&direct_sample));
            }
            GroupResult::Ranked(_) => panic!("sample group answered with ranking"),
        }
    }

    #[test]
    fn flat_action_count_matches_enumeration() {
        let p = flat_policy();
        let config = EnvConfig::small();
        assert_eq!(p.actions.len(), flat_action_space(&config).len());
    }

    #[test]
    fn sampled_flat_actions_are_legal_kinds() {
        let mut p = flat_policy();
        let obs = observation();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..30 {
            let record = p.select_action(&obs, false, &mut rng);
            assert!(obs.mask.allows(record.action.kind()));
        }
    }

    #[test]
    fn evaluate_is_consistent_with_selection() {
        let mut p = flat_policy();
        let obs = observation();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let record = p.select_action(&obs, false, &mut rng);
        let (lp, ent) = p.evaluate(&obs, &record);
        assert!((lp - record.log_prob).abs() < 1e-9);
        assert!((ent - record.entropy).abs() < 1e-9);
        p.backward(&obs, &record, 1.0, 0.0);
        let grads: f64 = p
            .parameters_mut()
            .iter()
            .map(|g| g.grad_norm_squared())
            .sum();
        assert!(grads > 0.0);
        p.zero_grad();
    }

    #[test]
    fn flat_trainer_runs_an_iteration() {
        use crate::ppo::{PpoConfig, PpoTrainer};
        use crate::value::ValueNetwork;
        let config = EnvConfig::small();
        let hyper = PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let policy = FlatPolicyNetwork::new(config.clone(), hyper, &mut rng);
        let value = ValueNetwork::new(&config, hyper, &mut rng);
        let mut trainer = PpoTrainer::with_policy(
            policy,
            value,
            PpoConfig {
                trajectories_per_iteration: 2,
                minibatch_size: 4,
                update_epochs: 1,
                ..PpoConfig::paper()
            },
            rng,
        );
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![64, 64]);
        let w = b.argument("B", vec![64, 64]);
        b.matmul(a, w);
        let dataset = vec![b.finish()];
        let mut env = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
        let stats = trainer.train_iteration(&mut env, &dataset);
        assert!(stats.mean_speedup.is_finite());
    }
}

//! The multi-discrete policy network (Fig. 3 and 4 of the paper).
//!
//! Architecture: the producer and consumer representation vectors are fed
//! sequentially into an LSTM; the final hidden state goes through a backbone
//! of three fully connected ReLU layers; five heads map the backbone
//! embedding to sub-action distributions — transformation selection (6-way),
//! one `N x M` tile-size head per tiled transformation, and an interchange
//! head.
//!
//! Interchange comes in the two formulations of Sec. IV-A-1:
//!
//! * **Enumerated candidates** — a `3N-6`-way categorical over pairwise
//!   swaps of loops at distance ≤ 3.
//! * **Level pointers** — the head produces one score per loop; a
//!   permutation is built by repeatedly sampling (without replacement) from
//!   the masked softmax over the remaining loops, exactly the sub-step
//!   process of Appendix B expressed as a Plackett–Luce distribution over
//!   permutations. This covers all `N!` permutations with only `N` outputs.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_env::{
    num_enumerated_candidates, Action, EnvConfig, InterchangeMode, InterchangeSpec, Observation,
    ObservationBatch,
};
use mlir_rl_nn::{Linear, Lstm, MaskedCategorical, Mlp, Param, Scratch, Tensor2};
use mlir_rl_transforms::TransformationKind;

/// Hyper-parameters of the network (the paper uses 512 units everywhere;
/// the default here is smaller so that the benchmark harness trains in
/// minutes on one machine — pass 512 to reproduce the paper's sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyHyperparams {
    /// LSTM hidden size and backbone width.
    pub hidden_size: usize,
    /// Number of backbone layers.
    pub backbone_layers: usize,
}

impl Default for PolicyHyperparams {
    fn default() -> Self {
        Self {
            hidden_size: 64,
            backbone_layers: 3,
        }
    }
}

impl PolicyHyperparams {
    /// The paper's configuration: 512-unit LSTM and three 512-unit layers.
    pub fn paper() -> Self {
        Self {
            hidden_size: 512,
            backbone_layers: 3,
        }
    }
}

/// The sub-decisions taken for one action, with everything needed to
/// recompute its probability during PPO updates.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionRecord {
    /// The environment-facing action.
    pub action: Action,
    /// Index of the selected transformation kind.
    pub kind_index: usize,
    /// Selected tile-candidate index per loop level (empty when the action
    /// is not tiled).
    pub tile_indices: Vec<usize>,
    /// Selected interchange candidate (enumerated mode).
    pub interchange_candidate: Option<usize>,
    /// Selected permutation (level-pointer mode).
    pub interchange_permutation: Option<Vec<usize>>,
    /// Log-probability of the whole action under the sampling policy.
    pub log_prob: f64,
    /// Entropy of the distributions involved in the action.
    pub entropy: f64,
}

/// The policy network.
#[derive(Debug, Clone)]
pub struct PolicyNetwork {
    env_config: EnvConfig,
    hyper: PolicyHyperparams,
    lstm: Lstm,
    backbone: Mlp,
    transformation_head: Linear,
    tiling_head: Linear,
    parallelization_head: Linear,
    fusion_head: Linear,
    interchange_head: Linear,
    /// Reusable batch-1 decoding buffers for [`PolicyNetwork::select_action`]
    /// and [`PolicyNetwork::rank_actions`].
    head_scratch: Scratch<DecodeHeads>,
    /// Batched head outputs of pending [`PolicyNetwork::evaluate_batch`]
    /// calls, consumed by [`PolicyNetwork::backward_batch`].
    pending_batches: Scratch<Vec<HeadBatch>>,
    /// Reusable LSTM step tensors for the training batches: the packed
    /// producer/consumer rows are copied into these instead of freshly
    /// allocated tensors, so PPO minibatches reuse one arena.
    step_scratch: Scratch<[Tensor2; 2]>,
}

/// Per-head logits of one forward pass (training mode keeps them to build
/// gradients).
#[derive(Debug, Clone, Default)]
struct HeadOutputs {
    transformation: Vec<f64>,
    tiling: Vec<f64>,
    parallelization: Vec<f64>,
    fusion: Vec<f64>,
    interchange: Vec<f64>,
}

/// The heads [`PolicyNetwork::decide`] may read after the transformation
/// head, in the order of [`DecodeHeads::ready`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Head {
    Tiling,
    Parallelization,
    Fusion,
    Interchange,
}

impl Head {
    /// The tile-size head of a tiled transformation kind.
    fn tiles_of(kind: TransformationKind) -> Self {
        match kind {
            TransformationKind::TiledParallelization => Self::Parallelization,
            TransformationKind::TiledFusion => Self::Fusion,
            _ => Self::Tiling,
        }
    }
}

/// The head logits one decision reads. A decision reads the
/// transformation head and then at most one other: the chosen tiled kind's
/// tile head or the interchange head. Decoding therefore computes the
/// backbone output and the transformation head up front and each other
/// head on its first read ([`PolicyNetwork::head_logits`]).
#[derive(Debug, Clone, Default)]
struct DecodeHeads {
    /// The backbone output the heads are computed from.
    z: Vec<f64>,
    logits: HeadOutputs,
    /// Whether each [`Head`]'s logits are this observation's.
    ready: [bool; 4],
}

/// Per-head logits of one **batched** forward pass: one row per
/// observation in each tensor.
#[derive(Debug, Clone, Default)]
struct HeadBatch {
    transformation: Tensor2,
    tiling: Tensor2,
    parallelization: Tensor2,
    fusion: Tensor2,
    interchange: Tensor2,
}

impl HeadBatch {
    /// Extracts observation `i`'s logits as a per-sample [`HeadOutputs`].
    fn row_outputs(&self, i: usize) -> HeadOutputs {
        HeadOutputs {
            transformation: self.transformation.row(i).to_vec(),
            tiling: self.tiling.row(i).to_vec(),
            parallelization: self.parallelization.row(i).to_vec(),
            fusion: self.fusion.row(i).to_vec(),
            interchange: self.interchange.row(i).to_vec(),
        }
    }

    /// A zero-filled batch with the same shapes.
    fn zeros_like(&self) -> Self {
        Self {
            transformation: Tensor2::zeros(self.transformation.rows(), self.transformation.cols()),
            tiling: Tensor2::zeros(self.tiling.rows(), self.tiling.cols()),
            parallelization: Tensor2::zeros(
                self.parallelization.rows(),
                self.parallelization.cols(),
            ),
            fusion: Tensor2::zeros(self.fusion.rows(), self.fusion.cols()),
            interchange: Tensor2::zeros(self.interchange.rows(), self.interchange.cols()),
        }
    }
}

/// Packs an observation batch into the two LSTM time-step tensors
/// (producers first, consumers second — the same order the per-vector paths
/// feed the embedding LSTM), copying the packed rows into existing step
/// tensors: every network keeps one such pair as scratch, so PPO
/// minibatches do not allocate two tensors per batch.
pub(crate) fn lstm_step_tensors_into(batch: &ObservationBatch, steps: &mut [Tensor2; 2]) {
    let rows = batch.len();
    let cols = batch.feature_len();
    steps[0].assign_flat(rows, cols, batch.producers());
    steps[1].assign_flat(rows, cols, batch.consumers());
}

/// The embedding LSTM over one observation (producer first, consumer
/// second) for inference, reading each vector as the list
/// of non-zeros it is stored as: `O(non-zeros)` input memory and no dense
/// view, bit-identical to the dense forms.
pub(crate) fn embed_observation<'a>(lstm: &'a mut Lstm, obs: &Observation) -> &'a [f64] {
    for features in [&obs.producer, &obs.consumer] {
        assert_eq!(
            features.len(),
            lstm.input_size(),
            "LSTM input size mismatch"
        );
    }
    lstm.infer_nonzeros(&[obs.producer.nonzeros(), obs.consumer.nonzeros()])
}

/// An observation's two vectors as the owned dense sequence the
/// `forward_inference` oracles take.
pub(crate) fn dense_sequence(obs: &Observation) -> [Vec<f64>; 2] {
    [obs.producer.to_vec(), obs.consumer.to_vec()]
}

/// The shared candidate-ranking procedure behind
/// [`crate::PolicyModel::rank_actions`]: the greedy draw first, then
/// oversampled distinct candidates sorted by descending log-probability.
/// `draw(greedy, rng)` produces one action record; implementations that
/// can cache their forward pass hand in a draw closure over precomputed
/// logits, which keeps the RNG consumption (and therefore the results)
/// bit-identical to repeated `select_action` calls.
pub(crate) fn rank_candidates<F>(k: usize, rng: &mut ChaCha8Rng, mut draw: F) -> Vec<ActionRecord>
where
    F: FnMut(bool, &mut ChaCha8Rng) -> ActionRecord,
{
    let k = k.max(1);
    let mut out = vec![draw(true, rng)];
    if k > 1 {
        // Oversample: duplicates (and re-draws of the greedy action)
        // are discarded, so a few multiples of `k` attempts are needed
        // to fill the candidate list on peaked distributions.
        for _ in 0..k * 8 {
            if out.len() == k {
                break;
            }
            let candidate = draw(false, rng);
            if !out.iter().any(|r| r.action == candidate.action) {
                out.push(candidate);
            }
        }
        out[1..].sort_by(|a, b| {
            b.log_prob
                .partial_cmp(&a.log_prob)
                .expect("log-probabilities are finite")
        });
    }
    out
}

impl PolicyNetwork {
    /// Creates a policy for the given environment configuration.
    pub fn new<R: Rng>(env_config: EnvConfig, hyper: PolicyHyperparams, rng: &mut R) -> Self {
        env_config.validate();
        let feature_len = env_config.feature_len();
        let h = hyper.hidden_size;
        let lstm = Lstm::new(feature_len, h, rng);
        let mut sizes = vec![h];
        sizes.extend(std::iter::repeat_n(h, hyper.backbone_layers));
        let backbone = Mlp::new(&sizes, true, rng);
        let n = env_config.max_loops;
        let m = env_config.num_tile_candidates();
        let interchange_out = match env_config.interchange_mode {
            InterchangeMode::EnumeratedCandidates => env_config.num_enumerated_interchanges(),
            InterchangeMode::LevelPointers => n,
        };
        Self {
            lstm,
            backbone,
            transformation_head: Linear::new(h, 6, rng),
            tiling_head: Linear::new(h, n * m, rng),
            parallelization_head: Linear::new(h, n * m, rng),
            fusion_head: Linear::new(h, n * m, rng),
            interchange_head: Linear::new(h, interchange_out, rng),
            env_config,
            hyper,
            head_scratch: Scratch::default(),
            pending_batches: Scratch::default(),
            step_scratch: Scratch::default(),
        }
    }

    /// The environment configuration the policy was built for.
    pub fn env_config(&self) -> &EnvConfig {
        &self.env_config
    }

    /// The network hyper-parameters.
    pub fn hyperparams(&self) -> PolicyHyperparams {
        self.hyper
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&mut self) -> usize {
        self.parameters_mut().iter().map(|p| p.len()).sum()
    }

    /// Allocation-free batch-1 inference into reusable buffers: the
    /// backbone output and the transformation head, with every other head
    /// left to [`PolicyNetwork::head_logits`] (bit-identical to the layers'
    /// `forward_inference` oracles).
    fn infer_heads(&mut self, obs: &Observation, out: &mut DecodeHeads) {
        let embedding = embed_observation(&mut self.lstm, obs);
        let z = self.backbone.infer(embedding);
        out.z.clear();
        out.z.extend_from_slice(z);
        self.transformation_head
            .infer_into(z, &mut out.logits.transformation);
        out.ready = [false; 4];
    }

    /// `head`'s logits, computed from the kept backbone output on the
    /// first read.
    fn head_logits<'h>(&self, heads: &'h mut DecodeHeads, head: Head) -> &'h [f64] {
        let (layer, logits) = match head {
            Head::Tiling => (&self.tiling_head, &mut heads.logits.tiling),
            Head::Parallelization => (
                &self.parallelization_head,
                &mut heads.logits.parallelization,
            ),
            Head::Fusion => (&self.fusion_head, &mut heads.logits.fusion),
            Head::Interchange => (&self.interchange_head, &mut heads.logits.interchange),
        };
        let ready = &mut heads.ready[head as usize];
        if !*ready {
            layer.infer_into(&heads.z, logits);
            *ready = true;
        }
        logits
    }

    /// Batched training-mode forward pass over a packed observation batch:
    /// one blocked matmul per layer for the whole batch, caching every
    /// layer's activations for [`PolicyNetwork::backward_batch`]. Row `i`
    /// of every head tensor is bit-identical to [`PolicyNetwork::infer_heads`]
    /// on observation `i`.
    fn forward_heads_train_batch(&mut self, batch: &ObservationBatch) -> HeadBatch {
        lstm_step_tensors_into(batch, &mut self.step_scratch.0);
        let embedding = self.lstm.forward_batch(&self.step_scratch.0);
        let z = self.backbone.forward_batch(&embedding);
        HeadBatch {
            transformation: self.transformation_head.forward_batch(&z),
            tiling: self.tiling_head.forward_batch(&z),
            parallelization: self.parallelization_head.forward_batch(&z),
            fusion: self.fusion_head.forward_batch(&z),
            interchange: self.interchange_head.forward_batch(&z),
        }
    }

    fn tile_head_logits(outputs: &HeadOutputs, kind: TransformationKind) -> &[f64] {
        match kind {
            TransformationKind::Tiling => &outputs.tiling,
            TransformationKind::TiledParallelization => &outputs.parallelization,
            TransformationKind::TiledFusion => &outputs.fusion,
            _ => &outputs.tiling,
        }
    }

    /// Samples (or, with `greedy`, takes the most probable) action for an
    /// observation. Does not cache activations; use for rollouts and
    /// evaluation.
    pub fn select_action<R: Rng>(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut R,
    ) -> ActionRecord {
        // Temporarily take the scratch so `decide` can borrow `self`
        // immutably while reading the logits.
        let mut heads = std::mem::take(&mut self.head_scratch).0;
        self.infer_heads(obs, &mut heads);
        let record = self.decide(obs, &mut heads, greedy, rng);
        self.head_scratch = Scratch(heads);
        record
    }

    fn decide<R: Rng>(
        &self,
        obs: &Observation,
        heads: &mut DecodeHeads,
        greedy: bool,
        rng: &mut R,
    ) -> ActionRecord {
        let n = obs.num_loops;
        let m = self.env_config.num_tile_candidates();
        let mask = &obs.mask;

        // 1. Transformation selection.
        let kind_dist =
            MaskedCategorical::new(&heads.logits.transformation, mask.transformation.as_ref());
        let kind_index = if greedy {
            kind_dist.argmax()
        } else {
            kind_dist.sample(rng)
        };
        let kind = TransformationKind::from_index(kind_index);
        let mut log_prob = kind_dist.log_prob(kind_index);
        let mut entropy = kind_dist.entropy();

        let mut tile_indices = Vec::new();
        let mut interchange_candidate = None;
        let mut interchange_permutation = None;

        // 2. Parameters of the selected transformation.
        if kind.is_tiled() {
            let logits = self.head_logits(heads, Head::tiles_of(kind));
            for level in 0..n {
                // Operations deeper than `max_loops` share the last head row
                // (the representation is truncated to `max_loops` anyway).
                let head_level = level.min(self.env_config.max_loops - 1);
                let level_logits = &logits[head_level * m..(head_level + 1) * m];
                let dist = MaskedCategorical::new(level_logits, mask.tile_row(level));
                let idx = if greedy {
                    dist.argmax()
                } else {
                    dist.sample(rng)
                };
                log_prob += dist.log_prob(idx);
                entropy += dist.entropy();
                tile_indices.push(idx);
            }
        } else if kind == TransformationKind::Interchange {
            let interchange = self.head_logits(heads, Head::Interchange);
            match self.env_config.interchange_mode {
                InterchangeMode::EnumeratedCandidates => {
                    // Every candidate is legal once interchange is.
                    let num_candidates = num_enumerated_candidates(n).max(1);
                    let logits = &interchange[..num_candidates.min(interchange.len())];
                    let dist = MaskedCategorical::from_logits(logits);
                    let idx = if greedy {
                        dist.argmax()
                    } else {
                        dist.sample(rng)
                    };
                    log_prob += dist.log_prob(idx);
                    entropy += dist.entropy();
                    interchange_candidate = Some(idx);
                }
                InterchangeMode::LevelPointers => {
                    let head_len = n.min(interchange.len());
                    let logits = &interchange[..head_len];
                    let (mut perm, lp, ent) = sample_permutation(logits, greedy, rng);
                    // Loops beyond the head width keep their positions.
                    perm.extend(head_len..n);
                    log_prob += lp;
                    entropy += ent;
                    interchange_permutation = Some(perm);
                }
            }
        }

        let action = match kind {
            TransformationKind::Tiling => Action::Tiling {
                tile_indices: tile_indices.clone(),
            },
            TransformationKind::TiledParallelization => Action::TiledParallelization {
                tile_indices: tile_indices.clone(),
            },
            TransformationKind::TiledFusion => Action::TiledFusion {
                tile_indices: tile_indices.clone(),
            },
            TransformationKind::Interchange => {
                match (&interchange_candidate, &interchange_permutation) {
                    (Some(c), _) => Action::Interchange(InterchangeSpec::Candidate(*c)),
                    (_, Some(p)) => Action::Interchange(InterchangeSpec::Permutation(p.clone())),
                    _ => Action::NoTransformation,
                }
            }
            TransformationKind::Vectorization => Action::Vectorization,
            TransformationKind::NoTransformation => Action::NoTransformation,
        };

        ActionRecord {
            action,
            kind_index,
            tile_indices,
            interchange_candidate,
            interchange_permutation,
            log_prob,
            entropy,
        }
    }

    /// Recomputes the log-probabilities and entropies of a minibatch of
    /// stored actions under the *current* parameters through one batched
    /// forward pass per layer, caching the batch for
    /// [`PolicyNetwork::backward_batch`]. `batch` must pack the items'
    /// observations in order. Bit-identical, entry for entry, to one call
    /// per item.
    pub fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        assert_eq!(batch.len(), items.len(), "packed batch size mismatch");
        if items.is_empty() {
            // Nothing to evaluate and nothing pushed onto the pending
            // stack; the matching `backward_batch` call is a no-op too, so
            // an empty tick racing a drain cannot kill the caller.
            return Vec::new();
        }
        let heads = self.forward_heads_train_batch(batch);
        let mut out = Vec::with_capacity(items.len());
        for (i, (obs, record)) in items.iter().enumerate() {
            let row = heads.row_outputs(i);
            let (log_prob, entropy, _) = self.log_prob_and_grads(obs, record, &row, 0.0, 0.0);
            out.push((log_prob, entropy));
        }
        self.pending_batches.0.push(heads);
        out
    }

    /// Backward pass for the most recent un-consumed
    /// [`PolicyNetwork::evaluate_batch`] call: accumulates `coeff_logprob *
    /// d log_prob / d θ + coeff_entropy * d entropy / d θ` into the
    /// parameter gradients, with `coeffs[i]` holding `(coeff_logprob,
    /// coeff_entropy)` for item `i`. Parameter gradients accumulate in
    /// reverse item order — bit-identical to one call per item in reverse
    /// (the stacked-replay sequence). The head outputs were stored by
    /// `evaluate_batch`, so no part of the forward network runs again.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching `evaluate_batch` or the item
    /// count differs from the evaluated batch.
    pub fn backward_batch(
        &mut self,
        items: &[(&Observation, &ActionRecord)],
        coeffs: &[(f64, f64)],
    ) {
        if items.is_empty() {
            // `evaluate_batch` pushes nothing for an empty batch, so the
            // pending stack stays symmetric by popping nothing here.
            assert!(coeffs.is_empty(), "coefficient count mismatch");
            return;
        }
        let heads = self
            .pending_batches
            .0
            .pop()
            .expect("backward_batch called without a matching evaluate_batch");
        assert_eq!(items.len(), heads.transformation.rows(), "batch mismatch");
        assert_eq!(items.len(), coeffs.len(), "coefficient count mismatch");
        let mut grads = heads.zeros_like();
        for (i, ((obs, record), (coeff_logprob, coeff_entropy))) in
            items.iter().zip(coeffs).enumerate()
        {
            let row = heads.row_outputs(i);
            let (_, _, g) =
                self.log_prob_and_grads(obs, record, &row, *coeff_logprob, *coeff_entropy);
            grads
                .transformation
                .row_mut(i)
                .copy_from_slice(&g.transformation);
            grads.tiling.row_mut(i).copy_from_slice(&g.tiling);
            grads
                .parallelization
                .row_mut(i)
                .copy_from_slice(&g.parallelization);
            grads.fusion.row_mut(i).copy_from_slice(&g.fusion);
            grads.interchange.row_mut(i).copy_from_slice(&g.interchange);
        }

        // Push gradients through the heads into the backbone embedding, head
        // by head, starting from zeros.
        let rows = items.len();
        let h = self.hyper.hidden_size;
        let mut grad_z = Tensor2::zeros(rows, h);
        let add = |grad_z: &mut Tensor2, g: Tensor2| {
            for (a, b) in grad_z.data_mut().iter_mut().zip(g.data()) {
                *a += b;
            }
        };
        let g = self
            .transformation_head
            .backward_batch(&grads.transformation);
        add(&mut grad_z, g);
        let g = self.tiling_head.backward_batch(&grads.tiling);
        add(&mut grad_z, g);
        let g = self
            .parallelization_head
            .backward_batch(&grads.parallelization);
        add(&mut grad_z, g);
        let g = self.fusion_head.backward_batch(&grads.fusion);
        add(&mut grad_z, g);
        let g = self.interchange_head.backward_batch(&grads.interchange);
        add(&mut grad_z, g);
        let grad_embedding = self.backbone.backward_batch(&grad_z);
        self.lstm.backward_params_batch(&grad_embedding);
    }

    /// Ranks up to `k` distinct candidate actions for an observation (the
    /// greedy action first, then sampled candidates by descending
    /// log-probability) through **one** head inference instead of one per
    /// draw. Bit-identical to repeated `select_action` calls because the
    /// head logits do not change between draws.
    pub fn rank_actions(
        &mut self,
        obs: &Observation,
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<ActionRecord> {
        let mut heads = std::mem::take(&mut self.head_scratch).0;
        self.infer_heads(obs, &mut heads);
        let records = rank_candidates(k, rng, |greedy, rng| {
            self.decide(obs, &mut heads, greedy, rng)
        });
        self.head_scratch = Scratch(heads);
        records
    }

    /// Ranks candidates for a whole frontier of observations: one
    /// [`PolicyNetwork::rank_actions`] per observation, in order, threading
    /// `rng` through them. Each row keeps what batch-1 inference saves —
    /// the producer step the embedding LSTM memoises across one consumer's
    /// states, and the heads no draw reads — which packing the frontier
    /// into one batched forward pass would lose.
    pub fn rank_actions_batch(
        &mut self,
        observations: &[&Observation],
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<ActionRecord>> {
        observations
            .iter()
            .map(|obs| self.rank_actions(obs, k, rng))
            .collect()
    }

    /// Computes the log-prob, entropy and per-head logit gradients
    /// (`coeff_logprob * dlogp/dlogits + coeff_entropy * dH/dlogits`) of a
    /// stored action under the given head outputs.
    fn log_prob_and_grads(
        &self,
        obs: &Observation,
        record: &ActionRecord,
        outputs: &HeadOutputs,
        coeff_logprob: f64,
        coeff_entropy: f64,
    ) -> (f64, f64, HeadOutputs) {
        let n = obs.num_loops;
        let m = self.env_config.num_tile_candidates();
        let mask = &obs.mask;
        let kind = TransformationKind::from_index(record.kind_index);

        let mut grads = HeadOutputs {
            transformation: vec![0.0; outputs.transformation.len()],
            tiling: vec![0.0; outputs.tiling.len()],
            parallelization: vec![0.0; outputs.parallelization.len()],
            fusion: vec![0.0; outputs.fusion.len()],
            interchange: vec![0.0; outputs.interchange.len()],
        };

        // Transformation head.
        let kind_dist =
            MaskedCategorical::new(&outputs.transformation, mask.transformation.as_ref());
        let mut log_prob = kind_dist.log_prob(record.kind_index);
        let mut entropy = kind_dist.entropy();
        let lp_grad = kind_dist.log_prob_grad(record.kind_index);
        let ent_grad = kind_dist.entropy_grad();
        for i in 0..grads.transformation.len() {
            grads.transformation[i] = coeff_logprob * lp_grad[i] + coeff_entropy * ent_grad[i];
        }

        if kind.is_tiled() && !record.tile_indices.is_empty() {
            let logits = Self::tile_head_logits(outputs, kind);
            let grad_slot: &mut Vec<f64> = match kind {
                TransformationKind::Tiling => &mut grads.tiling,
                TransformationKind::TiledParallelization => &mut grads.parallelization,
                TransformationKind::TiledFusion => &mut grads.fusion,
                _ => &mut grads.tiling,
            };
            for (level, idx) in record.tile_indices.iter().enumerate().take(n) {
                let head_level = level.min(self.env_config.max_loops - 1);
                let level_logits = &logits[head_level * m..(head_level + 1) * m];
                let dist = MaskedCategorical::new(level_logits, mask.tile_row(level));
                log_prob += dist.log_prob(*idx);
                entropy += dist.entropy();
                let lp = dist.log_prob_grad(*idx);
                let eg = dist.entropy_grad();
                for j in 0..m {
                    grad_slot[head_level * m + j] += coeff_logprob * lp[j] + coeff_entropy * eg[j];
                }
            }
        } else if kind == TransformationKind::Interchange {
            match self.env_config.interchange_mode {
                InterchangeMode::EnumeratedCandidates => {
                    if let Some(c) = record.interchange_candidate {
                        let num_candidates = num_enumerated_candidates(n).max(1);
                        let len = num_candidates.min(outputs.interchange.len());
                        let dist = MaskedCategorical::from_logits(&outputs.interchange[..len]);
                        log_prob += dist.log_prob(c);
                        entropy += dist.entropy();
                        let lp = dist.log_prob_grad(c);
                        let eg = dist.entropy_grad();
                        for j in 0..len {
                            grads.interchange[j] = coeff_logprob * lp[j] + coeff_entropy * eg[j];
                        }
                    }
                }
                InterchangeMode::LevelPointers => {
                    if let Some(perm) = &record.interchange_permutation {
                        let len = n.min(outputs.interchange.len());
                        let logits = &outputs.interchange[..len];
                        let (lp, ent, grad) = permutation_log_prob(logits, perm);
                        log_prob += lp;
                        entropy += ent;
                        for (slot, g) in grads.interchange[..len].iter_mut().zip(&grad) {
                            *slot = coeff_logprob * g + coeff_entropy * 0.0;
                        }
                    }
                }
            }
        }

        (log_prob, entropy, grads)
    }

    /// Clears gradients and cached activations of every component.
    pub fn zero_grad(&mut self) {
        self.lstm.zero_grad();
        self.backbone.zero_grad();
        self.transformation_head.zero_grad();
        self.tiling_head.zero_grad();
        self.parallelization_head.zero_grad();
        self.fusion_head.zero_grad();
        self.interchange_head.zero_grad();
        self.pending_batches.0.clear();
    }

    /// All trainable parameters, in a stable order.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.lstm.parameters_mut();
        out.extend(self.backbone.parameters_mut());
        out.extend(self.transformation_head.parameters_mut());
        out.extend(self.tiling_head.parameters_mut());
        out.extend(self.parallelization_head.parameters_mut());
        out.extend(self.fusion_head.parameters_mut());
        out.extend(self.interchange_head.parameters_mut());
        out
    }
}

/// Samples a permutation from the Plackett–Luce distribution defined by the
/// per-loop scores (the level-pointer head): position by position, a loop is
/// drawn from the masked softmax over the loops not yet placed.
/// Returns the permutation, its log-probability and the summed entropy of
/// the conditional distributions.
pub fn sample_permutation<R: Rng>(
    logits: &[f64],
    greedy: bool,
    rng: &mut R,
) -> (Vec<usize>, f64, f64) {
    let n = logits.len();
    let mut remaining = vec![true; n];
    let mut permutation = Vec::with_capacity(n);
    let mut log_prob = 0.0;
    let mut entropy = 0.0;
    for _ in 0..n {
        let dist = MaskedCategorical::new(logits, &remaining);
        let choice = if greedy {
            dist.argmax()
        } else {
            dist.sample(rng)
        };
        log_prob += dist.log_prob(choice);
        entropy += dist.entropy();
        remaining[choice] = false;
        permutation.push(choice);
    }
    (permutation, log_prob, entropy)
}

/// Log-probability of a given permutation under the Plackett–Luce
/// distribution defined by `logits`, its conditional entropy, and the
/// gradient of the log-probability with respect to the logits.
pub fn permutation_log_prob(logits: &[f64], permutation: &[usize]) -> (f64, f64, Vec<f64>) {
    let n = logits.len();
    let mut remaining = vec![true; n];
    let mut log_prob = 0.0;
    let mut entropy = 0.0;
    let mut grad = vec![0.0; n];
    for &choice in permutation.iter().take(n) {
        if choice >= n || !remaining[choice] {
            // Degenerate stored permutation (should not happen); skip.
            continue;
        }
        let dist = MaskedCategorical::new(logits, &remaining);
        log_prob += dist.log_prob(choice);
        entropy += dist.entropy();
        let g = dist.log_prob_grad(choice);
        for j in 0..n {
            grad[j] += g[j];
        }
        remaining[choice] = false;
    }
    (log_prob, entropy, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatPolicyNetwork;
    use crate::ppo::{GroupResult, InferenceGroup, InferenceMode, PolicyModel};
    use crate::value::ValueNetwork;
    use mlir_rl_costmodel::{CostModel, MachineModel};
    use mlir_rl_env::{Features, OptimizationEnv};
    use mlir_rl_ir::ModuleBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    fn policy() -> PolicyNetwork {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        PolicyNetwork::new(EnvConfig::small(), PolicyHyperparams::default(), &mut rng)
    }

    #[test]
    fn selected_actions_respect_the_mask() {
        let obs = observation();
        let mut p = policy();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            let record = p.select_action(&obs, false, &mut rng);
            let kind = TransformationKind::from_index(record.kind_index);
            assert!(obs.mask.allows(kind), "sampled a masked kind {kind}");
            assert!(record.log_prob <= 0.0);
            assert!(record.entropy >= 0.0);
            if kind.is_tiled() {
                assert_eq!(record.tile_indices.len(), obs.num_loops);
            }
        }
    }

    #[test]
    fn greedy_selection_is_deterministic() {
        let obs = observation();
        let mut p = policy();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = p.select_action(&obs, true, &mut rng);
        let b = p.select_action(&obs, true, &mut rng);
        assert_eq!(a.action, b.action);
    }

    #[test]
    fn batch_one_decoding_computes_only_the_heads_it_reads() {
        let obs = observation();
        let mut p = policy();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut kinds_seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let record = p.select_action(&obs, false, &mut rng);
            let kind = TransformationKind::from_index(record.kind_index);
            let read = if kind.is_tiled() {
                Some(Head::tiles_of(kind))
            } else if kind == TransformationKind::Interchange {
                Some(Head::Interchange)
            } else {
                None
            };
            let ready = ALL_HEADS.map(|head| Some(head) == read);
            assert_eq!(p.head_scratch.0.ready, ready, "{kind}");
            kinds_seen.insert(record.kind_index);
        }
        assert!(kinds_seen.len() >= 4, "kinds sampled: {kinds_seen:?}");
    }

    #[test]
    fn evaluate_matches_selection_log_prob() {
        let obs = observation();
        let mut p = policy();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let record = p.select_action(&obs, false, &mut rng);
        let (log_prob, entropy) = p.evaluate(&obs, &record);
        assert!((log_prob - record.log_prob).abs() < 1e-9);
        assert!((entropy - record.entropy).abs() < 1e-9);
        p.zero_grad();
    }

    #[test]
    fn empty_batches_evaluate_to_empty_results_instead_of_panicking() {
        let mut p = policy();
        let batch = ObservationBatch::new(p.env_config().feature_len());
        assert!(p.evaluate_batch(&batch, &[]).is_empty());
        // The empty evaluate pushed nothing, so the empty backward pops
        // nothing and a subsequent real evaluate/backward pair is intact.
        p.backward_batch(&[], &[]);
        let obs = observation();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let record = p.select_action(&obs, false, &mut rng);
        let mut packed = ObservationBatch::new(p.env_config().feature_len());
        packed.push(&obs);
        let out = p.evaluate_batch(&packed, &[(&obs, &record)]);
        assert_eq!(out.len(), 1);
        p.backward_batch(&[(&obs, &record)], &[(1.0, 0.01)]);
        p.zero_grad();
    }

    /// Reset observations at the paper's 3252-feature representation: a
    /// consumer with a producer (`relu` of a `matmul`) and a producer-less
    /// operation, whose producer vector is all zeros.
    fn paper_observations() -> [Observation; 2] {
        let mut env =
            OptimizationEnv::new(EnvConfig::paper(), CostModel::new(MachineModel::default()));
        let mut b = ModuleBuilder::new("fused");
        let a = b.argument("A", vec![64, 128]);
        let w = b.argument("B", vec![128, 32]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        let fused = env.reset(b.finish()).unwrap();
        let mut b = ModuleBuilder::new("lone");
        let a = b.argument("A", vec![256, 64]);
        let w = b.argument("B", vec![64, 96]);
        b.matmul(a, w);
        let lone = env.reset(b.finish()).unwrap();
        [fused, lone]
    }

    /// Head logits through the layers' plain-loop `forward_inference`
    /// reference paths: every zero multiplied, one accumulator chain per
    /// output, no tiling and no column lists.
    fn dense_oracle_heads(p: &PolicyNetwork, obs: &Observation) -> HeadOutputs {
        let embedding = p.lstm.forward_inference(&dense_sequence(obs));
        let z = p.backbone.forward_inference(&embedding);
        HeadOutputs {
            transformation: p.transformation_head.forward_inference(&z),
            tiling: p.tiling_head.forward_inference(&z),
            parallelization: p.parallelization_head.forward_inference(&z),
            fusion: p.fusion_head.forward_inference(&z),
            interchange: p.interchange_head.forward_inference(&z),
        }
    }

    const ALL_HEADS: [Head; 4] = [
        Head::Tiling,
        Head::Parallelization,
        Head::Fusion,
        Head::Interchange,
    ];

    /// `decide` on logits with every head already computed (the oracle's).
    fn decide_on(
        p: &PolicyNetwork,
        obs: &Observation,
        heads: &HeadOutputs,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        let mut complete = DecodeHeads {
            z: Vec::new(),
            logits: heads.clone(),
            ready: [true; 4],
        };
        p.decide(obs, &mut complete, greedy, rng)
    }

    fn head_bits(heads: &HeadOutputs) -> Vec<u64> {
        [
            &heads.transformation,
            &heads.tiling,
            &heads.parallelization,
            &heads.fusion,
            &heads.interchange,
        ]
        .into_iter()
        .flatten()
        .map(|v| v.to_bits())
        .collect()
    }

    #[test]
    fn sparse_observations_decode_like_the_dense_oracle_bit_for_bit() {
        let observations = paper_observations();
        let [fused, lone] = &observations;
        // The inputs are what the sparse-column contraction is for, and
        // arrive as the lists it contracts over.
        let nnz = |f: &Features| f.nonzeros().0.len();
        assert_eq!(fused.consumer.len(), 3252);
        assert!(nnz(&fused.producer) > 0 && nnz(&fused.producer) * 2 <= 3252);
        assert!(nnz(&fused.consumer) > 0 && nnz(&fused.consumer) * 2 <= 3252);
        assert_eq!(nnz(&lone.producer), 0, "a producer-less operation");

        let hyper = PolicyHyperparams {
            hidden_size: 24,
            backbone_layers: 2,
        };
        let mut p =
            PolicyNetwork::new(EnvConfig::paper(), hyper, &mut ChaCha8Rng::seed_from_u64(3));
        let oracle: Vec<HeadOutputs> = observations
            .iter()
            .map(|obs| dense_oracle_heads(&p, obs))
            .collect();

        // select_action: the logits, then the greedy and the sampled draw.
        for (obs, heads) in observations.iter().zip(&oracle) {
            let mut got = DecodeHeads::default();
            p.infer_heads(obs, &mut got);
            assert_eq!(
                got.ready, [false; 4],
                "only the transformation head up front"
            );
            for head in ALL_HEADS {
                p.head_logits(&mut got, head);
            }
            assert_eq!(head_bits(&got.logits), head_bits(heads));
            for greedy in [true, false] {
                let record = p.select_action(obs, greedy, &mut ChaCha8Rng::seed_from_u64(7));
                let expected = decide_on(&p, obs, heads, greedy, &mut ChaCha8Rng::seed_from_u64(7));
                assert_eq!(record, expected);
            }
        }

        // The other two batch-1 networks read the same lists: the critic
        // against its `predict` oracle, the flat policy's logits against
        // the plain loops.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut value = ValueNetwork::new(&EnvConfig::paper(), hyper, &mut rng);
        let mut flat = FlatPolicyNetwork::new(EnvConfig::paper(), hyper, &mut rng);
        for obs in &observations {
            assert_eq!(
                value.predict_fast(obs).to_bits(),
                value.predict(obs).to_bits()
            );
            let [logits, oracle] = flat.logits_and_dense_oracle(obs);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&logits), bits(&oracle));
        }
        // None of it asked an observation for a dense view.
        for obs in &observations {
            assert!(!obs.producer.is_materialized() && !obs.consumer.is_materialized());
        }

        // rank_actions_batch: both patterns in one batch, the all-zero
        // producer row next to a non-zero one.
        let frontier = [fused, lone, fused];
        let frontier_heads = [&oracle[0], &oracle[1], &oracle[0]];
        let oracle_ranking = |k: usize, rng: &mut ChaCha8Rng| -> Vec<Vec<ActionRecord>> {
            frontier
                .iter()
                .zip(frontier_heads)
                .map(|(obs, heads)| {
                    rank_candidates(k, rng, |greedy, rng| decide_on(&p, obs, heads, greedy, rng))
                })
                .collect()
        };
        let expected_ranked = oracle_ranking(3, &mut ChaCha8Rng::seed_from_u64(11));
        let ranked = p.rank_actions_batch(&frontier, 3, &mut ChaCha8Rng::seed_from_u64(11));
        assert_eq!(ranked, expected_ranked);

        // infer_groups: a rank group, then a sample group.
        let mut sample_rng = ChaCha8Rng::seed_from_u64(13);
        let expected_sampled: Vec<ActionRecord> = [(lone, &oracle[1]), (fused, &oracle[0])]
            .into_iter()
            .map(|(obs, heads)| decide_on(&p, obs, heads, false, &mut sample_rng))
            .collect();
        let mut groups = vec![
            InferenceGroup {
                observations: frontier.into_iter().cloned().collect(),
                mode: InferenceMode::Rank { k: 3 },
                rng: ChaCha8Rng::seed_from_u64(11),
            },
            InferenceGroup {
                observations: vec![lone.clone(), fused.clone()],
                mode: InferenceMode::Sample { greedy: false },
                rng: ChaCha8Rng::seed_from_u64(13),
            },
        ];
        let results = PolicyModel::infer_groups(&mut p, &mut groups);
        let [GroupResult::Ranked(ranked_group), GroupResult::Sampled(sampled_group)] =
            results.as_slice()
        else {
            panic!("one ranked and one sampled result");
        };
        assert_eq!(ranked_group, &expected_ranked);
        assert_eq!(sampled_group, &expected_sampled);
    }

    #[test]
    fn infer_groups_with_no_rows_returns_empty_shapes() {
        let mut p = policy();
        assert!(PolicyModel::infer_groups(&mut p, &mut []).is_empty());
        let mut groups = vec![InferenceGroup {
            observations: Vec::new(),
            mode: InferenceMode::Sample { greedy: true },
            rng: ChaCha8Rng::seed_from_u64(0),
        }];
        match &PolicyModel::infer_groups(&mut p, &mut groups)[..] {
            [GroupResult::Sampled(records)] => assert!(records.is_empty()),
            other => panic!("unexpected shape: {} results", other.len()),
        }
    }

    #[test]
    fn backward_produces_nonzero_gradients() {
        let obs = observation();
        let mut p = policy();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let record = p.select_action(&obs, false, &mut rng);
        p.evaluate(&obs, &record);
        p.backward(&obs, &record, 1.0, 0.01);
        let total_grad: f64 = p
            .parameters_mut()
            .iter()
            .map(|param| param.grad_norm_squared())
            .sum();
        assert!(total_grad > 0.0, "backward must produce gradients");
    }

    #[test]
    fn policy_gradient_step_increases_action_probability() {
        // One REINFORCE-style step on a fixed action should increase its
        // probability.
        let obs = observation();
        let mut p = policy();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let record = p.select_action(&obs, false, &mut rng);
        let before = record.log_prob;
        let mut adam = mlir_rl_nn::Adam::new(1e-2);
        for _ in 0..5 {
            p.zero_grad();
            p.evaluate(&obs, &record);
            // Maximize log-prob: gradient coefficient -1 (Adam minimizes).
            p.backward(&obs, &record, -1.0, 0.0);
            adam.step(&mut p.parameters_mut());
        }
        let (after, _) = p.evaluate(&obs, &record);
        p.zero_grad();
        assert!(
            after > before,
            "log-prob should increase after reinforcement: {before} -> {after}"
        );
    }

    #[test]
    fn plackett_luce_permutation_probabilities_sum_to_one() {
        // For 3 loops, the probabilities of all 6 permutations sum to 1.
        let logits = [0.3, -0.5, 1.1];
        let perms = [
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        let total: f64 = perms
            .iter()
            .map(|p| permutation_log_prob(&logits, p).0.exp())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total probability {total}");
    }

    #[test]
    fn permutation_log_prob_gradient_matches_finite_difference() {
        let logits = [0.2, -0.1, 0.7, 0.0];
        let perm = vec![2, 0, 3, 1];
        let (lp, _, grad) = permutation_log_prob(&logits, &perm);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut l2 = logits.to_vec();
            l2[i] += eps;
            let (lp2, _, _) = permutation_log_prob(&l2, &perm);
            let fd = (lp2 - lp) / eps;
            assert!((fd - grad[i]).abs() < 1e-4, "i={i}: {fd} vs {}", grad[i]);
        }
    }

    #[test]
    fn sampled_permutations_are_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..20 {
            let (perm, lp, ent) = sample_permutation(&[0.1, 0.2, 0.3, 0.4], false, &mut rng);
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            assert!(lp <= 0.0);
            assert!(ent >= 0.0);
        }
    }

    #[test]
    fn enumerated_candidates_mode_works() {
        let mut config = EnvConfig::small();
        config.interchange_mode = InterchangeMode::EnumeratedCandidates;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut p = PolicyNetwork::new(config, PolicyHyperparams::default(), &mut rng);
        let obs = observation();
        // Sample until we see an interchange to exercise the candidate path.
        let mut saw_interchange = false;
        for _ in 0..200 {
            let record = p.select_action(&obs, false, &mut rng);
            if record.interchange_candidate.is_some() {
                saw_interchange = true;
                let (lp, _) = p.evaluate(&obs, &record);
                p.zero_grad();
                assert!((lp - record.log_prob).abs() < 1e-9);
                break;
            }
        }
        assert!(
            saw_interchange,
            "interchange was never sampled in 200 tries"
        );
    }

    #[test]
    fn parameter_count_is_reported() {
        let mut p = policy();
        assert!(p.num_parameters() > 10_000);
    }
}

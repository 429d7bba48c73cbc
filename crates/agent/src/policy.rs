//! The multi-discrete policy network (Fig. 3 and 4 of the paper).
//!
//! Architecture: the producer and consumer representation vectors are fed
//! sequentially into an LSTM; the final hidden state goes through a backbone
//! of three fully connected ReLU layers (the two are the trunk every network
//! shares); five heads map the backbone embedding to sub-action
//! distributions — transformation selection (6-way), one `N x M` tile-size
//! head per tiled transformation, and an interchange head.
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
//!
//! Drawing an action and re-scoring it for PPO run the same walk over these
//! sub-decisions (`crate::decision`).

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_env::{Action, EnvConfig, InterchangeMode, Observation, ObservationBatch};
use mlir_rl_nn::{Linear, Param, Scratch, Tensor2};

use crate::decision::{Draw, Head, HeadLogits, LogitFactors, Walk};
use crate::trunk::Trunk;

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
    trunk: Trunk,
    /// One linear layer per [`Head`], in [`Head`] order.
    heads: [Linear; 5],
    /// Reusable batch-1 decoding buffers for [`PolicyNetwork::select_action`]
    /// and [`PolicyNetwork::rank_actions`].
    head_scratch: Scratch<DecodeHeads>,
    /// The logit gradients pending [`PolicyNetwork::evaluate_batch`] calls
    /// kept for [`PolicyNetwork::backward_batch`], one entry per call.
    pending_batches: Scratch<Vec<LogitFactors>>,
}

/// Per-head logits of one forward pass, indexed by [`Head`] (training mode
/// keeps them to build gradients).
type HeadOutputs = [Vec<f64>; 5];

/// Per-head logits of one **batched** forward pass, indexed by [`Head`]:
/// one row per observation in each tensor.
type HeadBatch = [Tensor2; 5];

/// The head logits one decision reads. A decision reads the
/// transformation head and then at most one other: the chosen tiled kind's
/// tile head or the interchange head. Decoding therefore computes the
/// backbone output and the transformation head up front and each other
/// head on its first read (its [`HeadLogits`] implementation).
#[derive(Debug, Clone, Default)]
struct DecodeHeads {
    /// The backbone output the heads are computed from.
    z: Vec<f64>,
    logits: HeadOutputs,
    /// Whether each [`Head`]'s logits are this observation's.
    ready: [bool; 5],
}

/// Batch-1 decoding: each head's logits computed from the kept backbone
/// output on the first read.
impl HeadLogits for (&PolicyNetwork, &mut DecodeHeads) {
    fn of(&mut self, head: Head) -> &[f64] {
        let (network, heads, i) = (self.0, &mut *self.1, head as usize);
        if !heads.ready[i] {
            network.heads[i].infer_into(&heads.z, &mut heads.logits[i]);
            heads.ready[i] = true;
        }
        &heads.logits[i]
    }
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
        let trunk = Trunk::new(&env_config, hyper, rng);
        let tiles = env_config.max_loops * env_config.num_tile_candidates();
        let interchange = match env_config.interchange_mode {
            InterchangeMode::EnumeratedCandidates => env_config.num_enumerated_interchanges(),
            InterchangeMode::LevelPointers => env_config.max_loops,
        };
        let heads = [6, tiles, tiles, tiles, interchange]
            .map(|outputs| Linear::new(hyper.hidden_size, outputs, rng));
        Self {
            trunk,
            heads,
            env_config,
            hyper,
            head_scratch: Scratch::default(),
            pending_batches: Scratch::default(),
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
    /// left to their first read (bit-identical to the layers'
    /// `forward_inference` oracles).
    fn infer_heads(&mut self, obs: &Observation, out: &mut DecodeHeads) {
        let z = self.trunk.infer(obs);
        out.z.clear();
        out.z.extend_from_slice(z);
        out.ready = [false; 5];
        (&*self, out).of(Head::Transformation);
    }

    /// Batched training-mode forward pass over an observation batch (the
    /// trunk's, then one blocked matmul per head), caching every layer's
    /// activations for [`PolicyNetwork::backward_batch`]. Row `i`
    /// of every head tensor is bit-identical to [`PolicyNetwork::infer_heads`]
    /// on observation `i`.
    fn forward_heads_train_batch(&mut self, batch: &ObservationBatch<'_>) -> HeadBatch {
        let z = self.trunk.forward_batch(batch);
        self.heads.each_mut().map(|head| head.forward_batch(&z))
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
        // Temporarily take the scratch so the walk can borrow `self`
        // immutably while reading the logits.
        let mut heads = std::mem::take(&mut self.head_scratch).0;
        self.infer_heads(obs, &mut heads);
        let record = self.record_from_heads(obs, &mut heads, greedy, rng);
        self.head_scratch = Scratch(heads);
        record
    }

    /// Draws one action from an observation's decoded heads (the walk
    /// builds no gradient).
    fn record_from_heads<R: Rng>(
        &self,
        obs: &Observation,
        heads: &mut DecodeHeads,
        greedy: bool,
        rng: &mut R,
    ) -> ActionRecord {
        let mut draw = Draw::new(greedy, rng);
        let sums = Walk::new(&mut draw, None).action(&self.env_config, obs, &mut (self, heads));
        draw.record(obs, self.env_config.interchange_mode, sums)
    }

    /// Recomputes the log-probabilities and entropies of a minibatch of
    /// stored actions under the *current* parameters through one batched
    /// forward pass per layer, caching the batch — activations, and each
    /// distribution's logit gradients — for
    /// [`PolicyNetwork::backward_batch`]. `batch` must hold the items'
    /// observations in order. Bit-identical, entry for entry, to one call
    /// per item.
    pub fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch<'_>,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        assert_eq!(batch.len(), items.len(), "batch size mismatch");
        if items.is_empty() {
            // Nothing to evaluate and nothing pushed onto the pending
            // stack; the matching `backward_batch` call is a no-op too, so
            // an empty tick racing a drain cannot kill the caller.
            return Vec::new();
        }
        let heads = self.forward_heads_train_batch(batch);
        let mut factors = LogitFactors::default();
        let out = items
            .iter()
            .enumerate()
            .map(|(i, (obs, record))| {
                let mut rows = heads.each_ref().map(|head| head.row(i));
                Walk::new(*record, Some(&mut factors)).action(&self.env_config, obs, &mut rows)
            })
            .collect();
        self.pending_batches.0.push(factors);
        out
    }

    /// Backward pass for the most recent un-consumed
    /// [`PolicyNetwork::evaluate_batch`] call: accumulates `coeff_logprob *
    /// d log_prob / d θ + coeff_entropy * d entropy / d θ` into the
    /// parameter gradients, with `coeffs[i]` holding `(coeff_logprob,
    /// coeff_entropy)` for item `i`. Parameter gradients accumulate in
    /// reverse item order — bit-identical to one call per item in reverse
    /// (the stacked-replay sequence). The logit gradients were kept by
    /// `evaluate_batch`, so no part of the forward network and no
    /// distribution is built again.
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
        // `evaluate_batch` pushes nothing for an empty batch, so the pending
        // stack stays symmetric by popping nothing here.
        let pending = &mut self.pending_batches.0;
        let Some(factors) = LogitFactors::pop(pending, items.len(), coeffs.len()) else {
            return;
        };
        let mut grads = self
            .heads
            .each_ref()
            .map(|head| Tensor2::zeros(items.len(), head.output_size()));
        factors.weigh(coeffs, &mut grads);

        // Push gradients through the heads into the backbone embedding, head
        // by head in `Head` order, starting from zeros.
        let mut grad_z = Tensor2::zeros(items.len(), self.hyper.hidden_size);
        for (head, g) in self.heads.iter_mut().zip(&grads) {
            let g = head.backward_batch(g);
            for (a, b) in grad_z.data_mut().iter_mut().zip(g.data()) {
                *a += b;
            }
        }
        self.trunk.backward_batch(&grad_z);
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
            self.record_from_heads(obs, &mut heads, greedy, rng)
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

    /// Clears gradients and cached activations of every component.
    pub fn zero_grad(&mut self) {
        self.trunk.zero_grad();
        for head in &mut self.heads {
            head.zero_grad();
        }
        self.pending_batches.0.clear();
    }

    /// All trainable parameters, in a stable order: the trunk's, then each
    /// head's in `Head` order.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.trunk.parameters_mut();
        out.extend(self.heads.iter_mut().flat_map(Linear::parameters_mut));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatPolicyNetwork;
    use crate::ppo::{GroupResult, InferenceGroup, InferenceMode, PolicyModel};
    use crate::tests::evaluation_replays_selection;
    use crate::value::ValueNetwork;
    use mlir_rl_costmodel::{CostModel, MachineModel};
    use mlir_rl_env::{Features, InterchangeSpec, OptimizationEnv};
    use mlir_rl_ir::ModuleBuilder;
    use mlir_rl_nn::MaskedCategorical;
    use mlir_rl_transforms::TransformationKind;
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
            let ready = ALL_HEADS.map(|head| head == Head::Transformation || Some(head) == read);
            assert_eq!(p.head_scratch.0.ready, ready, "{kind}");
            kinds_seen.insert(record.kind_index);
        }
        assert!(kinds_seen.len() >= 4, "kinds sampled: {kinds_seen:?}");
    }

    #[test]
    fn evaluate_matches_selection_log_prob() {
        for mode in [
            InterchangeMode::LevelPointers,
            InterchangeMode::EnumeratedCandidates,
        ] {
            let config = EnvConfig {
                interchange_mode: mode,
                ..EnvConfig::small()
            };
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let mut p = PolicyNetwork::new(config.clone(), PolicyHyperparams::default(), &mut rng);
            let records = evaluation_replays_selection(&mut p, &config);
            // The walks reached every sub-decision: tile levels past the
            // head's rows, and the interchange head.
            let deep_tiles = records
                .iter()
                .any(|r| r.tile_indices.len() > config.max_loops);
            let interchange = records.iter().any(|r| match &r.action {
                Action::Interchange(InterchangeSpec::Candidate(_)) => {
                    mode == InterchangeMode::EnumeratedCandidates
                }
                Action::Interchange(InterchangeSpec::Permutation(_)) => {
                    mode == InterchangeMode::LevelPointers
                }
                _ => false,
            });
            assert!(
                deep_tiles && interchange,
                "{mode:?}: {} records",
                records.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "replayed record has no Tile(0) pick")]
    fn replaying_a_record_that_does_not_fit_its_observation_panics() {
        let obs = observation();
        let record = ActionRecord {
            action: Action::Tiling {
                tile_indices: Vec::new(),
            },
            kind_index: TransformationKind::Tiling.index(),
            tile_indices: Vec::new(),
            interchange_candidate: None,
            interchange_permutation: None,
            log_prob: 0.0,
            entropy: 0.0,
        };
        policy().evaluate(&obs, &record);
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
        let z = p.trunk.forward_inference(obs);
        p.heads.each_ref().map(|head| head.forward_inference(&z))
    }

    const ALL_HEADS: [Head; 5] = [
        Head::Transformation,
        Head::Tiling,
        Head::Parallelization,
        Head::Fusion,
        Head::Interchange,
    ];

    /// A draw from logits with every head already computed (the oracle's).
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
            ready: [true; 5],
        };
        p.record_from_heads(obs, &mut complete, greedy, rng)
    }

    fn head_bits(heads: &HeadOutputs) -> Vec<u64> {
        heads.iter().flatten().map(|v| v.to_bits()).collect()
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
                got.ready,
                [true, false, false, false, false],
                "only the transformation head up front"
            );
            for head in ALL_HEADS {
                (&p, &mut got).of(head);
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
    fn tile_levels_past_the_head_add_their_gradients_into_its_last_row() {
        // A conv2d has seven loops and `small()` heads four tile levels:
        // levels 3 to 6 read the last row of the head, and their logit
        // gradients add up there.
        let mut b = ModuleBuilder::new("conv");
        let x = b.argument("X", vec![1, 8, 16, 16]);
        let w = b.argument("W", vec![8, 8, 3, 3]);
        b.conv2d(x, w, 1);
        let mut env =
            OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()));
        let obs = env.reset(b.finish()).unwrap();
        let mut p = policy();
        let config = p.env_config().clone();
        assert!(obs.num_loops > config.max_loops);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let record = (0..200)
            .map(|_| p.select_action(&obs, false, &mut rng))
            .find(|r| TransformationKind::from_index(r.kind_index).is_tiled())
            .expect("a tiled action");
        let head = Head::tiles_of(TransformationKind::from_index(record.kind_index));
        let (coeff_logprob, coeff_entropy) = (0.7, -0.01);
        p.evaluate(&obs, &record);
        p.backward(&obs, &record, coeff_logprob, coeff_entropy);

        // The tile head's logit gradient, level by level from its logits.
        let mut heads = DecodeHeads::default();
        p.infer_heads(&obs, &mut heads);
        let logits = (&p, &mut heads).of(head).to_vec();
        let m = config.num_tile_candidates();
        let mut expected = vec![0.0; logits.len()];
        for (level, idx) in record.tile_indices.iter().enumerate() {
            let row = level.min(config.max_loops - 1) * m;
            let dist = MaskedCategorical::new(&logits[row..row + m], obs.mask.tile_row(level));
            let [mut dlogp, mut dh] = [(); 2].map(|()| Vec::new());
            dist.log_prob_grad(*idx, &mut dlogp);
            dist.entropy_grad(dist.entropy(), &mut dh);
            for (slot, (lp, eg)) in expected[row..row + m].iter_mut().zip(dlogp.iter().zip(&dh)) {
                *slot += coeff_logprob * lp + coeff_entropy * eg;
            }
        }
        // One item: the head's bias gradient is its logit gradient.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bias = p.heads[head as usize].parameters_mut()[1].grad().to_vec();
        assert_eq!(bits(&bias), bits(&expected));
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

    /// A reset observation of a relu over an `n`-d tensor (`n` loops), and
    /// head rows on which the transformation head all but forces an
    /// interchange (the other kinds' probabilities underflow to `0.0`, so
    /// its log-probability and entropy add nothing) and the level-pointer
    /// head scores `scores`.
    fn interchange_walk(scores: &[f64]) -> (Observation, [Vec<f64>; 5]) {
        let mut b = ModuleBuilder::new("relu");
        let x = b.argument("X", vec![8; scores.len()]);
        b.relu(x);
        let mut env =
            OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()));
        let obs = env.reset(b.finish()).unwrap();
        assert!(obs.mask.allows(TransformationKind::Interchange));
        let mut kinds = vec![-1.0e4; 6];
        kinds[TransformationKind::Interchange.index()] = 0.0;
        let heads = [kinds, Vec::new(), Vec::new(), Vec::new(), scores.to_vec()];
        (obs, heads)
    }

    /// Re-scores the level-pointer `permutation` under `scores` through the
    /// walk: `(log_prob, entropy, d log_prob / d scores)`.
    fn replay_permutation(scores: &[f64], permutation: &[usize]) -> (f64, f64, Vec<f64>) {
        let (obs, heads) = interchange_walk(scores);
        let spec = InterchangeSpec::Permutation(permutation.to_vec());
        let record = ActionRecord {
            action: Action::Interchange(spec),
            kind_index: TransformationKind::Interchange.index(),
            tile_indices: Vec::new(),
            interchange_candidate: None,
            interchange_permutation: Some(permutation.to_vec()),
            log_prob: 0.0,
            entropy: 0.0,
        };
        let mut factors = LogitFactors::default();
        let mut rows = heads.each_ref().map(Vec::as_slice);
        let config = EnvConfig::small();
        let (log_prob, entropy) =
            Walk::new(&record, Some(&mut factors)).action(&config, &obs, &mut rows);
        let mut grads = heads.each_ref().map(|head| Tensor2::zeros(1, head.len()));
        factors.weigh(&[(1.0, 0.0)], &mut grads);
        (
            log_prob,
            entropy,
            grads[Head::Interchange as usize].row(0).to_vec(),
        )
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
            .map(|p| replay_permutation(&logits, p).0.exp())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total probability {total}");
    }

    #[test]
    fn permutation_log_prob_gradient_matches_finite_difference() {
        let logits = [0.2, -0.1, 0.7, 0.0];
        let perm = vec![2, 0, 3, 1];
        let (lp, _, grad) = replay_permutation(&logits, &perm);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut l2 = logits.to_vec();
            l2[i] += eps;
            let (lp2, _, _) = replay_permutation(&l2, &perm);
            let fd = (lp2 - lp) / eps;
            assert!((fd - grad[i]).abs() < 1e-4, "i={i}: {fd} vs {}", grad[i]);
        }
    }

    #[test]
    fn sampled_permutations_are_valid() {
        let scores = [0.1, 0.2, 0.3, 0.4];
        let (obs, heads) = interchange_walk(&scores);
        let config = EnvConfig::small();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..20 {
            let mut draw = Draw::new(false, &mut rng);
            let mut rows = heads.each_ref().map(Vec::as_slice);
            let sums = Walk::new(&mut draw, None).action(&config, &obs, &mut rows);
            let record = draw.record(&obs, config.interchange_mode, sums);
            let permutation = record.interchange_permutation.expect("an interchange");
            assert!(record.log_prob <= 0.0);
            assert!(record.entropy >= 0.0);
            // The same walk replayed scores the draw to the bit.
            let (log_prob, entropy, _) = replay_permutation(&scores, &permutation);
            assert_eq!(log_prob.to_bits(), record.log_prob.to_bits());
            assert_eq!(entropy.to_bits(), record.entropy.to_bits());
            let mut sorted = permutation;
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
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

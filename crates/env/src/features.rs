//! State representation: the feature-extraction pipeline of Fig. 1 and the
//! action-history encoding of Appendix A.
//!
//! Every operation is represented by the concatenation of:
//!
//! 1. a one-hot encoding of the operation type (generic, matmul, conv,
//!    pooling, add, other);
//! 2. the loop upper bounds (log-normalized) and iterator-type flags;
//! 3. the vectorization pre-condition flag;
//! 4. the polyhedral access matrices of up to `L` operands, padded to
//!    `D x N`;
//! 5. the arithmetic-operation counts of the body;
//! 6. the one-hot action history: a `tau x N x M` block for tiled
//!    transformations and a `tau x N x N` block for interchanges.

use serde::{Deserialize, Serialize};

use mlir_rl_ir::{IteratorType, OpId};
use mlir_rl_transforms::ScheduledModule;

use crate::config::EnvConfig;
use crate::env::Observation;

/// A batch of observations packed for batched network inference: the
/// producer and consumer feature vectors are stored contiguously row-major
/// (one observation per row), so a policy or value network can run one
/// blocked matmul per layer over the whole batch instead of one matvec per
/// observation. PPO minibatches, beam-search frontiers and MCTS expansions
/// all pack through this type.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObservationBatch {
    feature_len: usize,
    len: usize,
    producers: Vec<f64>,
    consumers: Vec<f64>,
}

impl ObservationBatch {
    /// Creates an empty batch for observations with the given feature
    /// length.
    pub fn new(feature_len: usize) -> Self {
        Self {
            feature_len,
            len: 0,
            producers: Vec::new(),
            consumers: Vec::new(),
        }
    }

    /// Packs a batch from an iterator of observations.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty or the observations disagree on
    /// feature length.
    pub fn from_observations<'a, I>(observations: I) -> Self
    where
        I: IntoIterator<Item = &'a Observation>,
    {
        let mut iter = observations.into_iter();
        let first = iter.next().expect("observation batch must not be empty");
        let mut batch = Self::new(first.producer.len());
        batch.push(first);
        for obs in iter {
            batch.push(obs);
        }
        batch
    }

    /// Appends one observation's feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if the observation's feature length does not match the batch.
    pub fn push(&mut self, obs: &Observation) {
        assert_eq!(
            obs.producer.len(),
            self.feature_len,
            "producer feature length mismatch"
        );
        assert_eq!(
            obs.consumer.len(),
            self.feature_len,
            "consumer feature length mismatch"
        );
        self.producers.extend_from_slice(&obs.producer);
        self.consumers.extend_from_slice(&obs.consumer);
        self.len += 1;
    }

    /// Number of observations in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no observation was packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feature length of every packed vector.
    pub fn feature_len(&self) -> usize {
        self.feature_len
    }

    /// The packed producer features, row-major (`len x feature_len`).
    pub fn producers(&self) -> &[f64] {
        &self.producers
    }

    /// The packed consumer features, row-major (`len x feature_len`).
    pub fn consumers(&self) -> &[f64] {
        &self.consumers
    }
}

/// The per-operation action history, encoded per Appendix A.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActionHistory {
    /// For each time step, the chosen tile-candidate index per loop level
    /// (`None` when no tiled transformation was applied at that step).
    pub tiled: Vec<Option<Vec<usize>>>,
    /// For each time step, the chosen permutation (`permutation[i]` = loop
    /// placed at position `i`), or `None`.
    pub interchange: Vec<Option<Vec<usize>>>,
}

impl ActionHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a step with a tiled transformation.
    pub fn push_tiled(&mut self, tile_indices: Vec<usize>) {
        self.tiled.push(Some(tile_indices));
        self.interchange.push(None);
    }

    /// Records a step with an interchange.
    pub fn push_interchange(&mut self, permutation: Vec<usize>) {
        self.tiled.push(None);
        self.interchange.push(Some(permutation));
    }

    /// Records a step with neither (terminal actions record no history,
    /// Appendix A).
    pub fn push_empty(&mut self) {
        self.tiled.push(None);
        self.interchange.push(None);
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.tiled.len()
    }

    /// True if no step was recorded.
    pub fn is_empty(&self) -> bool {
        self.tiled.is_empty()
    }

    /// Flattens the history into the `tau x N x M` + `tau x N x N` feature
    /// block.
    pub fn to_features(&self, config: &EnvConfig) -> Vec<f64> {
        let tau = config.max_schedule_len;
        let n = config.max_loops;
        let m = config.num_tile_candidates();
        let mut out = vec![0.0; tau * n * m + tau * n * n];
        for (t, entry) in self.tiled.iter().take(tau).enumerate() {
            if let Some(tiles) = entry {
                for (level, idx) in tiles.iter().take(n).enumerate() {
                    if *idx < m {
                        out[t * n * m + level * m + idx] = 1.0;
                    }
                }
            }
        }
        let offset = tau * n * m;
        for (t, entry) in self.interchange.iter().take(tau).enumerate() {
            if let Some(perm) = entry {
                for (pos, loop_idx) in perm.iter().take(n).enumerate() {
                    if *loop_idx < n {
                        out[offset + t * n * n + pos * n + loop_idx] = 1.0;
                    }
                }
            }
        }
        out
    }
}

/// Log-normalizes a loop bound into roughly `[0, 1]` (bounds up to about a
/// million map below 1).
fn normalize_bound(bound: u64) -> f64 {
    ((bound as f64) + 1.0).log2() / 20.0
}

/// Extracts the representation vector of one operation in its current
/// schedule state.
///
/// The vector has length [`EnvConfig::feature_len`]. Operations deeper than
/// `config.max_loops` loops or with more than `config.max_operands` operands
/// are truncated (the paper fixes the same maxima).
///
/// # Panics
///
/// Panics if `op` does not belong to the scheduled module.
pub fn extract_features(
    scheduled: &ScheduledModule,
    op: OpId,
    history: &ActionHistory,
    config: &EnvConfig,
) -> Vec<f64> {
    let linalg_op = scheduled.module().op(op).expect("op belongs to module");
    let state = scheduled.state(op);
    let mut out = Vec::with_capacity(config.feature_len());

    // 1. Operation-type one-hot.
    let category = linalg_op.kind.feature_category();
    for (i, _) in mlir_rl_ir::OpCategory::ALL.iter().enumerate() {
        out.push(if i == category.index() { 1.0 } else { 0.0 });
    }

    // 2. Loop ranges: upper bound (normalized) and iterator type, in the
    //    current (interchanged) loop order.
    let bounds = state.visible_bounds(linalg_op);
    let iter_types = state.visible_iterator_types(linalg_op);
    for level in 0..config.max_loops {
        out.push(bounds.get(level).map_or(0.0, |b| normalize_bound(*b)));
    }
    for level in 0..config.max_loops {
        out.push(match iter_types.get(level) {
            Some(IteratorType::Parallel) => 1.0,
            Some(IteratorType::Reduction) => -1.0,
            None => 0.0,
        });
    }

    // 3. Vectorization pre-condition flag.
    out.push(if linalg_op.vectorization_precondition() {
        1.0
    } else {
        0.0
    });

    // 4. Access matrices, padded to L x D x N.
    let matrices = linalg_op
        .access_matrices()
        .expect("validated op has well-formed maps");
    for operand in 0..config.max_operands {
        match matrices.get(operand) {
            Some(m) => out.extend(m.to_padded_features(config.max_rank, config.max_loops)),
            None => out.extend(std::iter::repeat_n(0.0, config.max_rank * config.max_loops)),
        }
    }

    // 5. Arithmetic-operation counts.
    out.extend(linalg_op.arith.to_features());

    // 6. Action history.
    out.extend(history.to_features(config));

    debug_assert_eq!(out.len(), config.feature_len());
    out
}

/// A zero feature vector, used as the producer slot when the operation being
/// optimized has no producer.
pub fn zero_features(config: &EnvConfig) -> Vec<f64> {
    vec![0.0; config.feature_len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_ir::ModuleBuilder;
    use mlir_rl_transforms::Transformation;

    fn scheduled_chain() -> ScheduledModule {
        let mut b = ModuleBuilder::new("chain");
        let a = b.argument("A", vec![64, 128]);
        let w = b.argument("B", vec![128, 32]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        ScheduledModule::new(b.finish())
    }

    #[test]
    fn feature_vector_has_configured_length() {
        let s = scheduled_chain();
        let config = EnvConfig::small();
        let f = extract_features(&s, OpId(0), &ActionHistory::new(), &config);
        assert_eq!(f.len(), config.feature_len());
        assert_eq!(zero_features(&config).len(), config.feature_len());
    }

    #[test]
    fn operation_type_one_hot_is_correct() {
        let s = scheduled_chain();
        let config = EnvConfig::small();
        let matmul = extract_features(&s, OpId(0), &ActionHistory::new(), &config);
        // Category order: generic, matmul, conv, pooling, add, other.
        assert_eq!(&matmul[0..6], &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let relu = extract_features(&s, OpId(1), &ActionHistory::new(), &config);
        assert_eq!(&relu[0..6], &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn loop_bounds_and_iterator_types_encoded() {
        let s = scheduled_chain();
        let config = EnvConfig::small();
        let f = extract_features(&s, OpId(0), &ActionHistory::new(), &config);
        // Bounds (64, 32, 128) normalized, then padding zero.
        let bounds = &f[6..10];
        assert!(bounds[0] > 0.0 && bounds[1] > 0.0 && bounds[2] > 0.0);
        assert_eq!(bounds[3], 0.0);
        assert!(bounds[2] > bounds[1], "larger bound gives larger feature");
        // Iterator types: parallel, parallel, reduction, padding.
        let iters = &f[10..14];
        assert_eq!(iters, &[1.0, 1.0, -1.0, 0.0]);
        // Vectorization precondition true for matmul.
        assert_eq!(f[14], 1.0);
    }

    #[test]
    fn interchange_changes_the_observed_loop_order() {
        let mut s = scheduled_chain();
        let config = EnvConfig::small();
        let before = extract_features(&s, OpId(0), &ActionHistory::new(), &config);
        s.apply(
            OpId(0),
            Transformation::Interchange {
                permutation: vec![2, 0, 1],
            },
        )
        .unwrap();
        let after = extract_features(&s, OpId(0), &ActionHistory::new(), &config);
        assert_ne!(&before[6..14], &after[6..14]);
        // After interchange the first visible loop is the reduction.
        assert_eq!(after[10], -1.0);
    }

    #[test]
    fn arithmetic_counts_present() {
        let s = scheduled_chain();
        let config = EnvConfig::small();
        let f = extract_features(&s, OpId(0), &ActionHistory::new(), &config);
        let arith_offset =
            6 + 2 * config.max_loops + 1 + config.max_operands * config.max_rank * config.max_loops;
        // Matmul: add=1, mul=1.
        assert_eq!(
            &f[arith_offset..arith_offset + 5],
            &[1.0, 0.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn action_history_encoding() {
        let config = EnvConfig::small(); // N=4, M=5, tau=4
        let mut h = ActionHistory::new();
        h.push_tiled(vec![1, 0, 3]);
        h.push_interchange(vec![2, 0, 1]);
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
        let f = h.to_features(&config);
        let n = config.max_loops;
        let m = config.num_tile_candidates();
        assert_eq!(f.len(), 4 * n * m + 4 * n * n);
        // Step 0, level 0, tile index 1 is set.
        assert_eq!(f[1], 1.0);
        // Step 0, level 2, tile index 3 is set.
        assert_eq!(f[2 * m + 3], 1.0);
        // Step 1 belongs to the interchange block: position 0 holds loop 2.
        let offset = 4 * n * m;
        assert_eq!(f[offset + n * n + 2], 1.0);
        // Nothing recorded for step 0 in the interchange block.
        assert!(f[offset..offset + n * n].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn history_truncated_to_schedule_length() {
        let config = EnvConfig::small();
        let mut h = ActionHistory::new();
        for _ in 0..10 {
            h.push_tiled(vec![1, 1, 1, 1]);
        }
        // No panic, and the feature length is unchanged.
        assert_eq!(
            h.to_features(&config).len(),
            config.max_schedule_len * config.max_loops * config.num_tile_candidates()
                + config.max_schedule_len * config.max_loops * config.max_loops
        );
    }

    #[test]
    fn observation_batch_packs_row_major() {
        let obs = |p: f64, c: f64| Observation {
            producer: vec![p, p + 1.0],
            consumer: vec![c, c + 1.0],
            mask: crate::mask::ActionMask {
                transformation: [true; 6],
                tile_sizes: vec![],
                interchange_candidates: vec![true],
                level_pointer: vec![true],
            },
            num_loops: 1,
            op: OpId(0),
        };
        let a = obs(1.0, 10.0);
        let b = obs(2.0, 20.0);
        let batch = ObservationBatch::from_observations([&a, &b]);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.feature_len(), 2);
        assert_eq!(batch.producers(), &[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(batch.consumers(), &[10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn observation_batch_rejects_mismatched_lengths() {
        let mask = crate::mask::ActionMask {
            transformation: [true; 6],
            tile_sizes: vec![],
            interchange_candidates: vec![true],
            level_pointer: vec![true],
        };
        let a = Observation {
            producer: vec![1.0],
            consumer: vec![1.0],
            mask: mask.clone(),
            num_loops: 1,
            op: OpId(0),
        };
        let b = Observation {
            producer: vec![1.0, 2.0],
            consumer: vec![1.0, 2.0],
            mask,
            num_loops: 1,
            op: OpId(0),
        };
        ObservationBatch::from_observations([&a, &b]);
    }

    #[test]
    fn normalize_bound_is_monotonic() {
        assert!(normalize_bound(1024) > normalize_bound(16));
        assert!(normalize_bound(16) > normalize_bound(1));
        assert!(normalize_bound(1_000_000) <= 1.05);
    }
}

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
//!
//! At the paper's maxima the vector is 3 252 wide and holds about twenty
//! non-zeros, so it is built, stored and handed to the networks as the list
//! of those ([`Features`]); a dense slice exists only where somebody asks
//! for one ([`Features::as_slice`], [`ObservationBatch`]'s rows, the
//! [`extract_features_dense`] reference).

use std::sync::OnceLock;

use mlir_rl_ir::{IteratorType, OpId};
use mlir_rl_transforms::ScheduledModule;

use crate::config::EnvConfig;
use crate::env::Observation;

/// One representation vector, stored as its non-zeros: the vector's length,
/// the strictly ascending columns that hold a non-zero, and their values
/// (never `±0.0`; every other entry reads `+0.0`).
///
/// This is what the extractor writes, what a stored transition keeps
/// (under 1 KB at paper width, against 26 KB per dense vector) and what
/// batch-1 inference reads ([`Features::nonzeros`]). The dense form is a
/// view for oracles, tests and compatibility: [`Features::as_slice`]
/// materialises it on first use and keeps it as working state — it is not
/// carried by [`Clone`] and is ignored by [`PartialEq`], like every
/// `mlir_rl_nn::Scratch` buffer. Nothing on a hot path asks for it.
#[derive(Debug)]
pub struct Features {
    len: usize,
    cols: Vec<u32>,
    values: Vec<f64>,
    dense: OnceLock<Vec<f64>>,
}

impl Features {
    /// The all-zero vector of the given length (an empty list; owns no heap
    /// memory).
    pub fn zeros(len: usize) -> Self {
        Self::with_capacity(len, 0)
    }

    fn with_capacity(len: usize, nonzeros: usize) -> Self {
        assert!(u32::try_from(len).is_ok(), "feature length exceeds u32");
        Self {
            len,
            cols: Vec::with_capacity(nonzeros),
            values: Vec::with_capacity(nonzeros),
            dense: OnceLock::new(),
        }
    }

    /// Appends one entry; zeros are dropped. Columns must arrive strictly
    /// ascending, which the extractor's section order guarantees.
    fn push(&mut self, col: usize, value: f64) {
        debug_assert!(col < self.len, "feature column out of range");
        debug_assert!(
            self.cols.last().is_none_or(|last| (*last as usize) < col),
            "feature columns must be strictly ascending"
        );
        if value != 0.0 {
            self.cols.push(col as u32);
            self.values.push(value);
        }
    }

    /// Length of the vector (zeros included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a vector of length zero (not for an all-zero one).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The non-zero entries: strictly ascending columns and, in the same
    /// order, their values.
    pub fn nonzeros(&self) -> (&[u32], &[f64]) {
        (&self.cols, &self.values)
    }

    /// Writes the listed values into an all-zero row of the vector's length.
    fn scatter_into(&self, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.len);
        for (col, value) in self.cols.iter().zip(&self.values) {
            row[*col as usize] = *value;
        }
    }

    /// A freshly allocated dense copy (does not touch the cached view).
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        self.scatter_into(&mut out);
        out
    }

    /// The dense view, built on first use and kept until the value is
    /// dropped. Plain reference access for oracles and tests, not a hot
    /// path: it allocates `len()` floats that the list makes unnecessary.
    pub fn as_slice(&self) -> &[f64] {
        self.dense.get_or_init(|| self.to_vec())
    }

    /// Whether [`Features::as_slice`] has built the dense view — for tests
    /// (no hot path may) and memory accounting.
    pub fn is_materialized(&self) -> bool {
        self.dense.get().is_some()
    }
}

impl Clone for Features {
    /// Copies the list; the clone starts without a dense view.
    fn clone(&self) -> Self {
        Self {
            len: self.len,
            cols: self.cols.clone(),
            values: self.values.clone(),
            dense: OnceLock::new(),
        }
    }
}

impl PartialEq for Features {
    /// Equal lists are equal vectors (no stored value is a zero); whether
    /// either side has a dense view is not compared.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.cols == other.cols && self.values == other.values
    }
}

/// A batch of observations packed for batched network inference: the
/// producer and consumer feature vectors are stored contiguously row-major
/// (one observation per row), so a policy or value network can run one
/// blocked matmul per layer over the whole batch instead of one matvec per
/// observation. PPO minibatches, beam-search frontiers and MCTS expansions
/// all pack through this type.
#[derive(Debug, Clone, Default, PartialEq)]
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
        for (rows, features) in [
            (&mut self.producers, &obs.producer),
            (&mut self.consumers, &obs.consumer),
        ] {
            let start = rows.len();
            rows.resize(start + self.feature_len, 0.0);
            features.scatter_into(&mut rows[start..]);
        }
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
#[derive(Debug, Clone, Default, PartialEq)]
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
/// schedule state, as the list of its non-zeros.
///
/// The vector has length [`EnvConfig::feature_len`]. Operations deeper than
/// `config.max_loops` loops or with more than `config.max_operands` operands
/// are truncated (the paper fixes the same maxima). The entries are written
/// straight from the schedule state, the operation's indexing maps and the
/// action history, section by section in ascending column order; no dense
/// buffer is involved. [`extract_features_dense`] is the reference this is
/// property-tested against, bit for bit.
///
/// # Panics
///
/// Panics if `op` does not belong to the scheduled module.
pub fn extract_features(
    scheduled: &ScheduledModule,
    op: OpId,
    history: &ActionHistory,
    config: &EnvConfig,
) -> Features {
    let linalg_op = scheduled.module().op(op).expect("op belongs to module");
    let order = &scheduled.state(op).order;
    let (n, m) = (config.max_loops, config.num_tile_candidates());
    let (max_operands, max_rank, tau) = (
        config.max_operands,
        config.max_rank,
        config.max_schedule_len,
    );
    let maps = &linalg_op.indexing_maps[..linalg_op.indexing_maps.len().min(max_operands)];
    let loops = order.len().min(n);

    // An upper bound on the entries (exact but for zero arithmetic counts
    // while every map is a projected permutation), so the list is sized
    // once and owns little more than it holds.
    let history_entries = |steps: &[Option<Vec<usize>>]| -> usize {
        steps
            .iter()
            .take(tau)
            .flatten()
            .map(|s| s.len().min(n))
            .sum()
    };
    let capacity = 1
        + 2 * loops
        + 1
        + maps
            .iter()
            .map(|map| map.num_results().min(max_rank))
            .sum::<usize>()
        + 5
        + history_entries(&history.tiled)
        + history_entries(&history.interchange);
    let mut out = Features::with_capacity(config.feature_len(), capacity);

    // 1. Operation-type one-hot.
    out.push(linalg_op.kind.feature_category().index(), 1.0);
    let mut base = mlir_rl_ir::OpCategory::ALL.len();

    // 2. Loop ranges: upper bound (normalized) and iterator type, in the
    //    current (interchanged) loop order.
    for (level, it) in order.iter().take(n).enumerate() {
        out.push(base + level, normalize_bound(linalg_op.loop_bounds[*it]));
    }
    base += n;
    for (level, it) in order.iter().take(n).enumerate() {
        let flag = match linalg_op.iterator_types[*it] {
            IteratorType::Parallel => 1.0,
            IteratorType::Reduction => -1.0,
        };
        out.push(base + level, flag);
    }
    base += n;

    // 3. Vectorization pre-condition flag.
    if linalg_op.vectorization_precondition() {
        out.push(base, 1.0);
    }
    base += 1;

    // 4. Access matrices, padded to L x D x N: each indexing-map result is
    //    flattened through one reused coefficient buffer.
    let mut coeffs = Vec::with_capacity(linalg_op.num_loops());
    for (operand, map) in maps.iter().enumerate() {
        coeffs.resize(map.num_dims(), 0i64);
        for (row, result) in map.results().iter().take(max_rank).enumerate() {
            result
                .coefficients_into(&mut coeffs)
                .expect("validated op has well-formed maps");
            let row_base = base + (operand * max_rank + row) * n;
            for (dim, c) in coeffs.iter().take(n).enumerate() {
                out.push(row_base + dim, *c as f64);
            }
        }
    }
    base += max_operands * max_rank * n;

    // 5. Arithmetic-operation counts.
    let counts = linalg_op.arith.to_features();
    for (i, count) in counts.iter().enumerate() {
        out.push(base + i, *count);
    }
    base += counts.len();

    // 6. Action history: the `tau x N x M` tiled block, then the
    //    `tau x N x N` interchange block (Appendix A).
    for (block, width) in [(&history.tiled, m), (&history.interchange, n)] {
        for (t, entry) in block.iter().take(tau).enumerate() {
            for (level, choice) in entry.iter().flatten().take(n).enumerate() {
                if *choice < width {
                    out.push(base + (t * n + level) * width + choice, 1.0);
                }
            }
        }
        base += tau * n * width;
    }

    debug_assert_eq!(base, config.feature_len());
    out
}

/// [`extract_features`] as one dense vector, built the plain way — every
/// section pushed in order, zeros included, through
/// [`mlir_rl_ir::LinalgOp::access_matrices`],
/// [`mlir_rl_ir::affine::AccessMatrix::to_padded_features`] and
/// [`ActionHistory::to_features`]. This is the reference the list extractor
/// is tested against bit for bit; it is not a hot path.
///
/// # Panics
///
/// Panics if `op` does not belong to the scheduled module.
pub fn extract_features_dense(
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

/// The all-zero vector — an empty list — used as the producer slot when the
/// operation being optimized has no producer.
pub fn zero_features(config: &EnvConfig) -> Features {
    Features::zeros(config.feature_len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_ir::ModuleBuilder;
    use mlir_rl_transforms::Transformation;

    /// Lists the non-zeros of a dense vector. `-0.0` counts as zero, so it
    /// reads back as `+0.0`.
    fn from_dense(dense: &[f64]) -> Features {
        let mut out = Features::zeros(dense.len());
        for (col, value) in dense.iter().enumerate() {
            out.push(col, *value);
        }
        out
    }

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
        assert_eq!(f.as_slice().len(), config.feature_len());
        let zero = zero_features(&config);
        assert_eq!(zero.len(), config.feature_len());
        assert_eq!(zero.nonzeros(), (&[][..], &[][..]));
        assert_eq!(zero.as_slice(), vec![0.0; config.feature_len()]);
    }

    #[test]
    fn operation_type_one_hot_is_correct() {
        let s = scheduled_chain();
        let config = EnvConfig::small();
        let matmul = extract_features(&s, OpId(0), &ActionHistory::new(), &config);
        // Category order: generic, matmul, conv, pooling, add, other.
        assert_eq!(&matmul.as_slice()[0..6], &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let relu = extract_features(&s, OpId(1), &ActionHistory::new(), &config);
        assert_eq!(&relu.as_slice()[0..6], &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn loop_bounds_and_iterator_types_encoded() {
        let s = scheduled_chain();
        let config = EnvConfig::small();
        let f = extract_features(&s, OpId(0), &ActionHistory::new(), &config);
        let f = f.as_slice();
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
        assert_ne!(&before.as_slice()[6..14], &after.as_slice()[6..14]);
        // After interchange the first visible loop is the reduction.
        assert_eq!(after.as_slice()[10], -1.0);
    }

    #[test]
    fn arithmetic_counts_present() {
        let s = scheduled_chain();
        let config = EnvConfig::small();
        let f = extract_features(&s, OpId(0), &ActionHistory::new(), &config);
        let f = f.as_slice();
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
            producer: from_dense(&[p, p + 1.0]),
            consumer: from_dense(&[c, c + 1.0]),
            mask: crate::mask::ActionMask {
                transformation: [true; 6],
                tile_sizes: vec![],
                num_tile_candidates: 0,
            },
            num_loops: 1,
            op: OpId(0),
        };
        // The first producer row starts with a zero the list does not hold.
        let a = obs(0.0, 10.0);
        let b = obs(2.0, 20.0);
        let batch = ObservationBatch::from_observations([&a, &b]);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.feature_len(), 2);
        assert_eq!(batch.producers(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(batch.consumers(), &[10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn features_list_exactly_the_nonzeros() {
        let dense = [0.0, 1.5, -0.0, -2.0, 0.0];
        let f = from_dense(&dense);
        assert_eq!(f.len(), 5);
        assert!(!f.is_empty());
        assert_eq!(f.nonzeros(), (&[1u32, 3][..], &[1.5, -2.0][..]));
        // Dropped zeros read back as `+0.0`, whatever their sign was.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&f.to_vec()), bits(&[0.0, 1.5, 0.0, -2.0, 0.0]));
        assert_eq!(bits(f.as_slice()), bits(&f.to_vec()));
        assert_ne!(f, from_dense(&[0.0, 1.5, 0.0, -2.0]));
        assert_ne!(f, from_dense(&[0.0, 1.5, 0.0, -2.5, 0.0]));
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn observation_batch_rejects_mismatched_lengths() {
        let mask = crate::mask::ActionMask {
            transformation: [true; 6],
            tile_sizes: vec![],
            num_tile_candidates: 0,
        };
        let a = Observation {
            producer: from_dense(&[1.0]),
            consumer: from_dense(&[1.0]),
            mask: mask.clone(),
            num_loops: 1,
            op: OpId(0),
        };
        let b = Observation {
            producer: from_dense(&[1.0, 2.0]),
            consumer: from_dense(&[1.0, 2.0]),
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

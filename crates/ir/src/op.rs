//! Linalg-style structured operations.
//!
//! A [`LinalgOp`] models one `linalg.*` operation: an iteration domain
//! (loop bounds + iterator types), a set of tensor operands with affine
//! indexing maps, and a scalar body summarized by its arithmetic-operation
//! counts. This is the unit the RL environment optimizes, one at a time.

use std::fmt;

use crate::affine::{AccessMatrix, AffineMap};
use crate::error::IrError;
use crate::types::TensorType;

/// Identifier of an operation inside a [`crate::module::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Identifier of an SSA value (function argument or operation result).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub usize);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Kind of a loop iterator in the iteration domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IteratorType {
    /// Iterations are independent; the loop may be parallelized.
    Parallel,
    /// The loop carries a reduction; parallelizing it requires special care
    /// and is treated as illegal by the environment.
    Reduction,
}

impl IteratorType {
    /// MLIR spelling of the iterator type.
    pub fn name(self) -> &'static str {
        match self {
            IteratorType::Parallel => "parallel",
            IteratorType::Reduction => "reduction",
        }
    }

    /// Parses the MLIR spelling.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Parse`] for unknown spellings.
    pub fn parse(s: &str) -> Result<Self, IrError> {
        match s.trim().trim_matches('"') {
            "parallel" => Ok(IteratorType::Parallel),
            "reduction" => Ok(IteratorType::Reduction),
            other => Err(IrError::Parse {
                line: 0,
                message: format!("unknown iterator type `{other}`"),
            }),
        }
    }
}

impl fmt::Display for IteratorType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The operation category used by the state representation (Sec. IV-B).
///
/// The paper's one-hot encoding distinguishes `generic`, `matmul`, `conv`,
/// `pooling`, `add` and `other`; we keep the richer set of named operations
/// the workload generators produce and map them onto the paper's categories
/// via [`OpKind::feature_category`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `linalg.matmul`.
    Matmul,
    /// Batched matrix multiplication.
    BatchMatmul,
    /// 2-D convolution (NCHW x FCHW).
    Conv2D,
    /// Max pooling.
    MaxPool,
    /// Average pooling.
    AvgPool,
    /// Elementwise addition.
    Add,
    /// Elementwise ReLU (expressed as `linalg.generic` in MLIR).
    Relu,
    /// Elementwise sigmoid.
    Sigmoid,
    /// Row-wise softmax over a 2-D tensor.
    Softmax2D,
    /// A general `linalg.generic` loop nest.
    Generic,
    /// Any operation kind not seen during training.
    Unknown,
}

/// Feature-space category (the paper's one-hot operation types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCategory {
    /// `linalg.generic` loop nests and elementwise ops coded as generic.
    Generic,
    /// Matrix multiplications.
    Matmul,
    /// Convolutions.
    Conv,
    /// Pooling operators.
    Pooling,
    /// Elementwise additions.
    Add,
    /// Anything else.
    Other,
}

impl OpCategory {
    /// All categories, in the one-hot encoding order used by the feature
    /// extractor.
    pub const ALL: [OpCategory; 6] = [
        OpCategory::Generic,
        OpCategory::Matmul,
        OpCategory::Conv,
        OpCategory::Pooling,
        OpCategory::Add,
        OpCategory::Other,
    ];

    /// Index of the category within [`OpCategory::ALL`].
    pub fn index(self) -> usize {
        OpCategory::ALL
            .iter()
            .position(|c| *c == self)
            .expect("category present in ALL")
    }
}

impl OpKind {
    /// MLIR-like operation name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Matmul => "linalg.matmul",
            OpKind::BatchMatmul => "linalg.batch_matmul",
            OpKind::Conv2D => "linalg.conv_2d_nchw_fchw",
            OpKind::MaxPool => "linalg.pooling_nchw_max",
            OpKind::AvgPool => "linalg.pooling_nchw_sum",
            OpKind::Add => "linalg.add",
            OpKind::Relu => "linalg.relu",
            OpKind::Sigmoid => "linalg.sigmoid",
            OpKind::Softmax2D => "linalg.softmax",
            OpKind::Generic => "linalg.generic",
            OpKind::Unknown => "linalg.unknown",
        }
    }

    /// Parses an operation name produced by [`OpKind::name`].
    ///
    /// Unrecognized `linalg.` names map to [`OpKind::Unknown`].
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Parse`] if the name is not a `linalg.` operation.
    pub fn parse(s: &str) -> Result<Self, IrError> {
        let s = s.trim();
        if !s.starts_with("linalg.") {
            return Err(IrError::Parse {
                line: 0,
                message: format!("expected a linalg operation name, got `{s}`"),
            });
        }
        Ok(match s {
            "linalg.matmul" => OpKind::Matmul,
            "linalg.batch_matmul" => OpKind::BatchMatmul,
            "linalg.conv_2d_nchw_fchw" => OpKind::Conv2D,
            "linalg.pooling_nchw_max" => OpKind::MaxPool,
            "linalg.pooling_nchw_sum" => OpKind::AvgPool,
            "linalg.add" => OpKind::Add,
            "linalg.relu" => OpKind::Relu,
            "linalg.sigmoid" => OpKind::Sigmoid,
            "linalg.softmax" => OpKind::Softmax2D,
            "linalg.generic" => OpKind::Generic,
            _ => OpKind::Unknown,
        })
    }

    /// The paper's feature-space category for this operation kind.
    pub fn feature_category(self) -> OpCategory {
        match self {
            OpKind::Matmul | OpKind::BatchMatmul => OpCategory::Matmul,
            OpKind::Conv2D => OpCategory::Conv,
            OpKind::MaxPool | OpKind::AvgPool => OpCategory::Pooling,
            OpKind::Add => OpCategory::Add,
            // ReLU, sigmoid and softmax do not exist as named Linalg ops in
            // MLIR; the paper codes them as `linalg.generic`.
            OpKind::Relu | OpKind::Sigmoid | OpKind::Softmax2D | OpKind::Generic => {
                OpCategory::Generic
            }
            OpKind::Unknown => OpCategory::Other,
        }
    }

    /// Returns true for purely elementwise operations (all-parallel iteration
    /// space, identity indexing maps).
    pub fn is_elementwise(self) -> bool {
        matches!(self, OpKind::Add | OpKind::Relu | OpKind::Sigmoid)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counts of scalar arithmetic operations in the body of a Linalg op
/// (the "Operations Count" feature of Sec. IV-B).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ArithCounts {
    /// Number of additions per iteration.
    pub add: u32,
    /// Number of subtractions per iteration.
    pub sub: u32,
    /// Number of multiplications per iteration.
    pub mul: u32,
    /// Number of divisions per iteration.
    pub div: u32,
    /// Number of exponentials per iteration.
    pub exp: u32,
    /// Number of comparison/max operations per iteration (pooling, ReLU).
    pub max: u32,
}

impl ArithCounts {
    /// Total scalar operations per iteration point.
    pub fn total(&self) -> u32 {
        self.add + self.sub + self.mul + self.div + self.exp + self.max
    }

    /// Weighted FLOP-equivalent cost per iteration point; divisions and
    /// exponentials cost more than additions on real hardware.
    pub fn weighted_cost(&self) -> f64 {
        f64::from(self.add)
            + f64::from(self.sub)
            + f64::from(self.mul)
            + 4.0 * f64::from(self.div)
            + 10.0 * f64::from(self.exp)
            + f64::from(self.max)
    }

    /// Feature-vector encoding `[add, sub, mul, div, exp]` as in the paper.
    pub fn to_features(&self) -> [f64; 5] {
        [
            f64::from(self.add),
            f64::from(self.sub),
            f64::from(self.mul),
            f64::from(self.div),
            f64::from(self.exp),
        ]
    }
}

/// One structured Linalg operation.
///
/// Invariants (checked by [`LinalgOp::validate`]):
/// * there is exactly one indexing map per operand (inputs then output);
/// * every indexing map declares `loop_bounds.len()` iterators;
/// * every map's result rank equals the rank of the corresponding operand;
/// * `iterator_types.len() == loop_bounds.len()`;
/// * the product of the loop bounds fits in a `u64`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinalgOp {
    /// Operation identifier (assigned by the owning module).
    pub id: OpId,
    /// Operation kind.
    pub kind: OpKind,
    /// Iterator type of each loop level, outermost first.
    pub iterator_types: Vec<IteratorType>,
    /// Upper bound of each loop level (lower bound 0, step 1 as in Linalg).
    pub loop_bounds: Vec<u64>,
    /// SSA values read by the operation.
    pub inputs: Vec<ValueId>,
    /// Tensor types of the input operands (parallel to `inputs`).
    pub input_types: Vec<TensorType>,
    /// SSA value produced by the operation.
    pub result: ValueId,
    /// Tensor type of the result.
    pub result_type: TensorType,
    /// Indexing maps: one per input, followed by one for the output.
    pub indexing_maps: Vec<AffineMap>,
    /// Arithmetic operation counts of the scalar body.
    pub arith: ArithCounts,
}

impl LinalgOp {
    /// Number of loop levels `N`.
    pub fn num_loops(&self) -> usize {
        self.loop_bounds.len()
    }

    /// Number of accessed tensors `L` (inputs + output).
    pub fn num_operands(&self) -> usize {
        self.inputs.len() + 1
    }

    /// Total number of iteration points of the loop nest.
    pub fn iteration_points(&self) -> u64 {
        self.loop_bounds.iter().product()
    }

    /// Returns the iterator type of loop `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_loops()`.
    pub fn iterator_type(&self, level: usize) -> IteratorType {
        self.iterator_types[level]
    }

    /// Indices of the reduction loops.
    pub fn reduction_loops(&self) -> Vec<usize> {
        self.iterator_types
            .iter()
            .enumerate()
            .filter_map(|(i, t)| (*t == IteratorType::Reduction).then_some(i))
            .collect()
    }

    /// Indices of the parallel loops.
    pub fn parallel_loops(&self) -> Vec<usize> {
        self.iterator_types
            .iter()
            .enumerate()
            .filter_map(|(i, t)| (*t == IteratorType::Parallel).then_some(i))
            .collect()
    }

    /// Indexing map of input operand `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= inputs.len()`.
    pub fn input_map(&self, i: usize) -> &AffineMap {
        &self.indexing_maps[i]
    }

    /// Indexing map of the output operand.
    pub fn output_map(&self) -> &AffineMap {
        &self.indexing_maps[self.indexing_maps.len() - 1]
    }

    /// Polyhedral access matrices of all operands (inputs then output).
    ///
    /// # Errors
    ///
    /// Propagates [`IrError`] from malformed indexing maps.
    pub fn access_matrices(&self) -> Result<Vec<AccessMatrix>, IrError> {
        self.indexing_maps
            .iter()
            .map(AffineMap::access_matrix)
            .collect()
    }

    /// Total scalar arithmetic operations of one full execution.
    pub fn total_flops(&self) -> f64 {
        self.iteration_points() as f64 * f64::from(self.arith.total())
    }

    /// Static vectorization pre-conditions (the "Vectorization
    /// Pre-conditions" feature): all indexing maps must be projected
    /// permutations (no strided/gathered accesses) and the op must have at
    /// least one loop.
    ///
    /// The *dynamic* restriction from the paper's action mask — the innermost
    /// loop must not exceed 512 iterations after tiling — is checked by the
    /// environment, because it depends on the current schedule.
    pub fn vectorization_precondition(&self) -> bool {
        !self.loop_bounds.is_empty()
            && self
                .indexing_maps
                .iter()
                .all(AffineMap::is_projected_permutation)
    }

    /// Checks the structural invariants listed on the type.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`IrError`].
    pub fn validate(&self) -> Result<(), IrError> {
        let operands = self.num_operands();
        if self.indexing_maps.len() != operands {
            return Err(IrError::OperandMapMismatch {
                operands,
                maps: self.indexing_maps.len(),
            });
        }
        if self.input_types.len() != self.inputs.len() {
            return Err(IrError::OperandMapMismatch {
                operands: self.inputs.len(),
                maps: self.input_types.len(),
            });
        }
        if self.iterator_types.len() != self.loop_bounds.len() {
            return Err(IrError::IteratorArityMismatch {
                operand: 0,
                map_dims: self.iterator_types.len(),
                op_dims: self.loop_bounds.len(),
            });
        }
        let count = self
            .loop_bounds
            .iter()
            .try_fold(1u64, |n, &b| n.checked_mul(b));
        if count.is_none() {
            return Err(IrError::IterationCountOverflow {
                bounds: self.loop_bounds.clone(),
            });
        }
        let num_dims = self.loop_bounds.len();
        for (i, map) in self.indexing_maps.iter().enumerate() {
            if map.num_dims() != num_dims {
                return Err(IrError::IteratorArityMismatch {
                    operand: i,
                    map_dims: map.num_dims(),
                    op_dims: num_dims,
                });
            }
            let tensor_rank = if i < self.inputs.len() {
                self.input_types[i].rank()
            } else {
                self.result_type.rank()
            };
            if map.num_results() != tensor_rank {
                return Err(IrError::RankMismatch {
                    operand: i,
                    map_rank: map.num_results(),
                    tensor_rank,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ElementType;

    fn matmul_op() -> LinalgOp {
        // C[256x512] = A[256x1024] * B[1024x512]
        LinalgOp {
            id: OpId(0),
            kind: OpKind::Matmul,
            iterator_types: vec![
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Reduction,
            ],
            loop_bounds: vec![256, 512, 1024],
            inputs: vec![ValueId(0), ValueId(1)],
            input_types: vec![
                TensorType::new(vec![256, 1024], ElementType::F32).unwrap(),
                TensorType::new(vec![1024, 512], ElementType::F32).unwrap(),
            ],
            result: ValueId(2),
            result_type: TensorType::new(vec![256, 512], ElementType::F32).unwrap(),
            indexing_maps: vec![
                AffineMap::projection(3, &[0, 2]),
                AffineMap::projection(3, &[2, 1]),
                AffineMap::projection(3, &[0, 1]),
            ],
            arith: ArithCounts {
                add: 1,
                mul: 1,
                ..Default::default()
            },
        }
    }

    #[test]
    fn iterator_type_parse() {
        assert_eq!(
            IteratorType::parse("\"parallel\"").unwrap(),
            IteratorType::Parallel
        );
        assert_eq!(
            IteratorType::parse("reduction").unwrap(),
            IteratorType::Reduction
        );
        assert!(IteratorType::parse("window").is_err());
    }

    #[test]
    fn op_kind_categories() {
        assert_eq!(OpKind::Matmul.feature_category(), OpCategory::Matmul);
        assert_eq!(OpKind::Relu.feature_category(), OpCategory::Generic);
        assert_eq!(OpKind::MaxPool.feature_category(), OpCategory::Pooling);
        assert_eq!(OpKind::Unknown.feature_category(), OpCategory::Other);
        assert_eq!(OpCategory::Matmul.index(), 1);
        assert_eq!(OpCategory::Other.index(), 5);
    }

    #[test]
    fn op_kind_parse_roundtrip() {
        for kind in [
            OpKind::Matmul,
            OpKind::BatchMatmul,
            OpKind::Conv2D,
            OpKind::MaxPool,
            OpKind::AvgPool,
            OpKind::Add,
            OpKind::Relu,
            OpKind::Sigmoid,
            OpKind::Softmax2D,
            OpKind::Generic,
        ] {
            assert_eq!(OpKind::parse(kind.name()).unwrap(), kind);
        }
        assert_eq!(
            OpKind::parse("linalg.something_new").unwrap(),
            OpKind::Unknown
        );
        assert!(OpKind::parse("arith.addf").is_err());
    }

    #[test]
    fn arith_counts() {
        let c = ArithCounts {
            add: 1,
            mul: 1,
            exp: 1,
            ..Default::default()
        };
        assert_eq!(c.total(), 3);
        assert!(c.weighted_cost() > 3.0);
        assert_eq!(c.to_features(), [1.0, 0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn matmul_structure() {
        let op = matmul_op();
        op.validate().unwrap();
        assert_eq!(op.num_loops(), 3);
        assert_eq!(op.num_operands(), 3);
        assert_eq!(op.iteration_points(), 256 * 512 * 1024);
        assert_eq!(op.reduction_loops(), vec![2]);
        assert_eq!(op.parallel_loops(), vec![0, 1]);
        assert_eq!(op.total_flops(), (256 * 512 * 1024) as f64 * 2.0);
        assert!(op.vectorization_precondition());
    }

    #[test]
    fn validation_catches_map_count_mismatch() {
        let mut op = matmul_op();
        op.indexing_maps.pop();
        assert!(matches!(
            op.validate(),
            Err(IrError::OperandMapMismatch { .. })
        ));
    }

    #[test]
    fn validation_catches_rank_mismatch() {
        let mut op = matmul_op();
        op.indexing_maps[0] = AffineMap::projection(3, &[0]);
        assert!(matches!(op.validate(), Err(IrError::RankMismatch { .. })));
    }

    #[test]
    fn validation_catches_iterator_arity_mismatch() {
        let mut op = matmul_op();
        op.indexing_maps[0] = AffineMap::projection(4, &[0, 2]);
        assert!(matches!(
            op.validate(),
            Err(IrError::IteratorArityMismatch { .. })
        ));
    }

    #[test]
    fn vectorization_precondition_fails_on_strided_access() {
        use crate::affine::AffineExpr;
        let mut op = matmul_op();
        op.indexing_maps[0] =
            AffineMap::new(3, vec![AffineExpr::dim(0) * 2, AffineExpr::dim(2)]).unwrap();
        assert!(!op.vectorization_precondition());
    }
}

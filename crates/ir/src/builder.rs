//! Convenience builder for modules of named Linalg operations.
//!
//! The builder knows the iteration domain, iterator types, indexing maps and
//! body arithmetic of each named operation the workload generators need
//! (matmul, conv2d, pooling, elementwise ops, softmax, and free-form
//! generics), mirroring how Torch-MLIR lowers PyTorch models into Linalg.

use crate::affine::{AffineExpr, AffineMap};
use crate::module::{Module, ValueDef};
use crate::op::{ArithCounts, IteratorType, LinalgOp, OpId, OpKind, ValueId};
use crate::types::{ElementType, TensorType};

/// Builder for [`Module`]s.
///
/// Methods that create operations take the SSA values of their inputs and
/// return the SSA value of the result, so operation chains read naturally:
///
/// ```
/// use mlir_rl_ir::builder::ModuleBuilder;
///
/// let mut b = ModuleBuilder::new("mlp_layer");
/// let x = b.argument("x", vec![32, 256]);
/// let w = b.argument("w", vec![256, 128]);
/// let y = b.matmul(x, w);
/// let _a = b.relu(y);
/// let module = b.finish();
/// module.validate().unwrap();
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
    next_temp: usize,
}

impl ModuleBuilder {
    /// Creates a builder for a module with the given name, using `f32`
    /// elements.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            module: Module::new(name),
            next_temp: 0,
        }
    }

    /// Finishes construction and returns the module.
    pub fn finish(self) -> Module {
        self.module
    }

    /// Declares a function argument with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape contains a zero-sized dimension.
    pub fn argument(&mut self, name: &str, shape: Vec<u64>) -> ValueId {
        let ty = TensorType::new(shape, ElementType::F32).expect("valid argument shape");
        self.module.add_value(ty, ValueDef::Argument, name)
    }

    fn temp_name(&mut self) -> String {
        let name = format!("t{}", self.next_temp);
        self.next_temp += 1;
        name
    }

    fn value_shape(&self, v: ValueId) -> Vec<u64> {
        self.module
            .value(v)
            .expect("value defined in this module")
            .ty
            .shape()
            .to_vec()
    }

    fn tensor(&self, shape: Vec<u64>) -> TensorType {
        TensorType::new(shape, ElementType::F32).expect("valid shape")
    }

    fn push(&mut self, op: LinalgOp) -> ValueId {
        let name = self.temp_name();
        let id = self.module.add_op(op, name);
        self.module.op(id).expect("op just inserted").result
    }

    /// Matrix multiplication `C[MxN] = A[MxK] * B[KxN]`.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not 2-D or their inner dimensions disagree.
    pub fn matmul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        let sa = self.value_shape(a);
        let sb = self.value_shape(b);
        assert_eq!(sa.len(), 2, "matmul lhs must be 2-D, got {sa:?}");
        assert_eq!(sb.len(), 2, "matmul rhs must be 2-D, got {sb:?}");
        assert_eq!(sa[1], sb[0], "matmul inner dimensions must agree");
        let (m, k, n) = (sa[0], sa[1], sb[1]);
        let op = LinalgOp {
            id: OpId(0),
            kind: OpKind::Matmul,
            iterator_types: vec![
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Reduction,
            ],
            loop_bounds: vec![m, n, k],
            inputs: vec![a, b],
            input_types: vec![self.tensor(vec![m, k]), self.tensor(vec![k, n])],
            result: ValueId(0),
            result_type: self.tensor(vec![m, n]),
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
        };
        self.push(op)
    }

    /// Batched matrix multiplication `C[BxMxN] = A[BxMxK] * B[BxKxN]`.
    ///
    /// # Panics
    ///
    /// Panics if operands are not 3-D or shapes disagree.
    pub fn batch_matmul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        let sa = self.value_shape(a);
        let sb = self.value_shape(b);
        assert_eq!(sa.len(), 3, "batch_matmul lhs must be 3-D");
        assert_eq!(sb.len(), 3, "batch_matmul rhs must be 3-D");
        assert_eq!(sa[0], sb[0], "batch dimensions must agree");
        assert_eq!(sa[2], sb[1], "inner dimensions must agree");
        let (bsz, m, k, n) = (sa[0], sa[1], sa[2], sb[2]);
        let op = LinalgOp {
            id: OpId(0),
            kind: OpKind::BatchMatmul,
            iterator_types: vec![
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Reduction,
            ],
            loop_bounds: vec![bsz, m, n, k],
            inputs: vec![a, b],
            input_types: vec![self.tensor(vec![bsz, m, k]), self.tensor(vec![bsz, k, n])],
            result: ValueId(0),
            result_type: self.tensor(vec![bsz, m, n]),
            indexing_maps: vec![
                AffineMap::projection(4, &[0, 1, 3]),
                AffineMap::projection(4, &[0, 3, 2]),
                AffineMap::projection(4, &[0, 1, 2]),
            ],
            arith: ArithCounts {
                add: 1,
                mul: 1,
                ..Default::default()
            },
        };
        self.push(op)
    }

    /// 2-D convolution in NCHW/FCHW layout with the given stride.
    ///
    /// Input `[N, C, H, W]`, filter `[F, C, KH, KW]`, output
    /// `[N, F, OH, OW]` with `OH = (H - KH) / stride + 1`.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches or if the kernel does not fit.
    pub fn conv2d(&mut self, input: ValueId, filter: ValueId, stride: u64) -> ValueId {
        assert!(stride >= 1, "stride must be at least 1");
        let si = self.value_shape(input);
        let sf = self.value_shape(filter);
        assert_eq!(si.len(), 4, "conv2d input must be 4-D (NCHW)");
        assert_eq!(sf.len(), 4, "conv2d filter must be 4-D (FCHW)");
        assert_eq!(si[1], sf[1], "channel dimensions must agree");
        let (n, c, h, w) = (si[0], si[1], si[2], si[3]);
        let (f, kh, kw) = (sf[0], sf[2], sf[3]);
        assert!(h >= kh && w >= kw, "kernel larger than input");
        let oh = (h - kh) / stride + 1;
        let ow = (w - kw) / stride + 1;
        // Loops: (d0=n, d1=f, d2=oh, d3=ow, d4=c, d5=kh, d6=kw)
        let s = stride as i64;
        let input_map = AffineMap::new(
            7,
            vec![
                AffineExpr::dim(0),
                AffineExpr::dim(4),
                AffineExpr::dim(2) * s + AffineExpr::dim(5),
                AffineExpr::dim(3) * s + AffineExpr::dim(6),
            ],
        )
        .expect("valid conv input map");
        let filter_map = AffineMap::projection(7, &[1, 4, 5, 6]);
        let output_map = AffineMap::projection(7, &[0, 1, 2, 3]);
        let op = LinalgOp {
            id: OpId(0),
            kind: OpKind::Conv2D,
            iterator_types: vec![
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Reduction,
                IteratorType::Reduction,
                IteratorType::Reduction,
            ],
            loop_bounds: vec![n, f, oh, ow, c, kh, kw],
            inputs: vec![input, filter],
            input_types: vec![
                self.tensor(vec![n, c, h, w]),
                self.tensor(vec![f, c, kh, kw]),
            ],
            result: ValueId(0),
            result_type: self.tensor(vec![n, f, oh, ow]),
            indexing_maps: vec![input_map, filter_map, output_map],
            arith: ArithCounts {
                add: 1,
                mul: 1,
                ..Default::default()
            },
        };
        self.push(op)
    }

    fn pooling(&mut self, input: ValueId, window: u64, stride: u64, kind: OpKind) -> ValueId {
        assert!(stride >= 1, "stride must be at least 1");
        let si = self.value_shape(input);
        assert_eq!(si.len(), 4, "pooling input must be 4-D (NCHW)");
        let (n, c, h, w) = (si[0], si[1], si[2], si[3]);
        assert!(h >= window && w >= window, "window larger than input");
        let oh = (h - window) / stride + 1;
        let ow = (w - window) / stride + 1;
        // Loops: (d0=n, d1=c, d2=oh, d3=ow, d4=kh, d5=kw)
        let s = stride as i64;
        let input_map = AffineMap::new(
            6,
            vec![
                AffineExpr::dim(0),
                AffineExpr::dim(1),
                AffineExpr::dim(2) * s + AffineExpr::dim(4),
                AffineExpr::dim(3) * s + AffineExpr::dim(5),
            ],
        )
        .expect("valid pooling input map");
        let output_map = AffineMap::projection(6, &[0, 1, 2, 3]);
        let arith = if kind == OpKind::MaxPool {
            ArithCounts {
                max: 1,
                ..Default::default()
            }
        } else {
            ArithCounts {
                add: 1,
                ..Default::default()
            }
        };
        let op = LinalgOp {
            id: OpId(0),
            kind,
            iterator_types: vec![
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Reduction,
                IteratorType::Reduction,
            ],
            loop_bounds: vec![n, c, oh, ow, window, window],
            inputs: vec![input],
            input_types: vec![self.tensor(vec![n, c, h, w])],
            result: ValueId(0),
            result_type: self.tensor(vec![n, c, oh, ow]),
            indexing_maps: vec![input_map, output_map],
            arith,
        };
        self.push(op)
    }

    /// Max pooling over `window x window` with the given stride (NCHW).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn max_pool(&mut self, input: ValueId, window: u64, stride: u64) -> ValueId {
        self.pooling(input, window, stride, OpKind::MaxPool)
    }

    /// Average (sum) pooling over `window x window` (NCHW).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn avg_pool(&mut self, input: ValueId, window: u64, stride: u64) -> ValueId {
        self.pooling(input, window, stride, OpKind::AvgPool)
    }

    fn elementwise_unary(&mut self, input: ValueId, kind: OpKind, arith: ArithCounts) -> ValueId {
        let shape = self.value_shape(input);
        let rank = shape.len();
        assert!(rank >= 1, "elementwise op needs a ranked tensor");
        let map = AffineMap::identity(rank);
        let op = LinalgOp {
            id: OpId(0),
            kind,
            iterator_types: vec![IteratorType::Parallel; rank],
            loop_bounds: shape.clone(),
            inputs: vec![input],
            input_types: vec![self.tensor(shape.clone())],
            result: ValueId(0),
            result_type: self.tensor(shape),
            indexing_maps: vec![map.clone(), map],
            arith,
        };
        self.push(op)
    }

    /// Elementwise ReLU.
    ///
    /// # Panics
    ///
    /// Panics if the input is rank 0.
    pub fn relu(&mut self, input: ValueId) -> ValueId {
        self.elementwise_unary(
            input,
            OpKind::Relu,
            ArithCounts {
                max: 1,
                ..Default::default()
            },
        )
    }

    /// Elementwise sigmoid `1 / (1 + exp(-x))`.
    ///
    /// # Panics
    ///
    /// Panics if the input is rank 0.
    pub fn sigmoid(&mut self, input: ValueId) -> ValueId {
        self.elementwise_unary(
            input,
            OpKind::Sigmoid,
            ArithCounts {
                add: 1,
                div: 1,
                exp: 1,
                ..Default::default()
            },
        )
    }

    /// Elementwise addition of two tensors with identical shapes.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        let sa = self.value_shape(a);
        let sb = self.value_shape(b);
        assert_eq!(sa, sb, "elementwise add requires identical shapes");
        let rank = sa.len();
        let map = AffineMap::identity(rank);
        let op = LinalgOp {
            id: OpId(0),
            kind: OpKind::Add,
            iterator_types: vec![IteratorType::Parallel; rank],
            loop_bounds: sa.clone(),
            inputs: vec![a, b],
            input_types: vec![self.tensor(sa.clone()), self.tensor(sa.clone())],
            result: ValueId(0),
            result_type: self.tensor(sa),
            indexing_maps: vec![map.clone(), map.clone(), map],
            arith: ArithCounts {
                add: 1,
                ..Default::default()
            },
        };
        self.push(op)
    }

    /// Row-wise softmax of a 2-D tensor, expressed as a single generic op
    /// with a reduction over the columns (the normalization pass).
    ///
    /// # Panics
    ///
    /// Panics if the input is not 2-D.
    pub fn softmax_2d(&mut self, input: ValueId) -> ValueId {
        let s = self.value_shape(input);
        assert_eq!(s.len(), 2, "softmax_2d input must be 2-D");
        let (rows, cols) = (s[0], s[1]);
        let op = LinalgOp {
            id: OpId(0),
            kind: OpKind::Softmax2D,
            iterator_types: vec![IteratorType::Parallel, IteratorType::Reduction],
            loop_bounds: vec![rows, cols],
            inputs: vec![input],
            input_types: vec![self.tensor(vec![rows, cols])],
            result: ValueId(0),
            result_type: self.tensor(vec![rows, cols]),
            indexing_maps: vec![AffineMap::identity(2), AffineMap::identity(2)],
            arith: ArithCounts {
                add: 1,
                div: 1,
                exp: 1,
                max: 1,
                ..Default::default()
            },
        };
        self.push(op)
    }

    /// A free-form `linalg.generic` operation.
    ///
    /// `inputs` are existing SSA values; `indexing_maps` must contain one map
    /// per input followed by the output map; `loop_bounds` and
    /// `iterator_types` define the iteration domain; `result_shape` is the
    /// shape of the produced tensor.
    ///
    /// # Panics
    ///
    /// Panics if the resulting operation fails validation.
    #[allow(clippy::too_many_arguments)]
    pub fn generic(
        &mut self,
        inputs: Vec<ValueId>,
        loop_bounds: Vec<u64>,
        iterator_types: Vec<IteratorType>,
        indexing_maps: Vec<AffineMap>,
        result_shape: Vec<u64>,
        arith: ArithCounts,
    ) -> ValueId {
        let input_types = inputs
            .iter()
            .map(|v| self.tensor(self.value_shape(*v)))
            .collect();
        let op = LinalgOp {
            id: OpId(0),
            kind: OpKind::Generic,
            iterator_types,
            loop_bounds,
            inputs,
            input_types,
            result: ValueId(0),
            result_type: self.tensor(result_shape),
            indexing_maps,
            arith,
        };
        op.validate().expect("generic op must be well-formed");
        self.push(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpCategory;

    #[test]
    fn matmul_shapes_and_maps() {
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![256, 1024]);
        let w = b.argument("B", vec![1024, 512]);
        let c = b.matmul(a, w);
        let m = b.finish();
        m.validate().unwrap();
        let op = &m.ops()[0];
        assert_eq!(op.loop_bounds, vec![256, 512, 1024]);
        assert_eq!(op.kind.feature_category(), OpCategory::Matmul);
        assert_eq!(m.value(c).unwrap().ty.shape(), &[256, 512]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatched_shapes() {
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![4, 8]);
        let w = b.argument("B", vec![9, 3]);
        b.matmul(a, w);
    }

    #[test]
    fn conv2d_output_shape_and_loops() {
        let mut b = ModuleBuilder::new("c");
        let x = b.argument("x", vec![1, 64, 56, 56]);
        let w = b.argument("w", vec![128, 64, 3, 3]);
        let y = b.conv2d(x, w, 1);
        let m = b.finish();
        m.validate().unwrap();
        let op = &m.ops()[0];
        assert_eq!(op.loop_bounds, vec![1, 128, 54, 54, 64, 3, 3]);
        assert_eq!(op.num_loops(), 7);
        assert_eq!(op.reduction_loops(), vec![4, 5, 6]);
        assert_eq!(m.value(y).unwrap().ty.shape(), &[1, 128, 54, 54]);
    }

    #[test]
    fn conv2d_with_stride() {
        let mut b = ModuleBuilder::new("c");
        let x = b.argument("x", vec![1, 3, 224, 224]);
        let w = b.argument("w", vec![64, 3, 7, 7]);
        let y = b.conv2d(x, w, 2);
        let m = b.finish();
        assert_eq!(m.value(y).unwrap().ty.shape(), &[1, 64, 109, 109]);
        // Strided conv has a non-permutation input map, so vectorization
        // preconditions fail.
        assert!(!m.ops()[0].vectorization_precondition());
    }

    #[test]
    fn max_pool_structure() {
        let mut b = ModuleBuilder::new("p");
        let x = b.argument("x", vec![1, 64, 112, 112]);
        let y = b.max_pool(x, 2, 2);
        let m = b.finish();
        m.validate().unwrap();
        assert_eq!(m.value(y).unwrap().ty.shape(), &[1, 64, 56, 56]);
        assert_eq!(m.ops()[0].num_loops(), 6);
        assert_eq!(m.ops()[0].arith.max, 1);
    }

    #[test]
    fn elementwise_ops() {
        let mut b = ModuleBuilder::new("e");
        let x = b.argument("x", vec![32, 1000]);
        let y = b.argument("y", vec![32, 1000]);
        let s = b.add(x, y);
        let r = b.relu(s);
        let g = b.sigmoid(r);
        let _sm = b.softmax_2d(g);
        let m = b.finish();
        m.validate().unwrap();
        assert_eq!(m.ops().len(), 4);
        assert!(m.ops()[0].kind.is_elementwise());
        assert!(m.ops()[1].kind.is_elementwise());
        // Softmax has a reduction loop.
        assert_eq!(m.ops()[3].reduction_loops(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn add_rejects_shape_mismatch() {
        let mut b = ModuleBuilder::new("e");
        let x = b.argument("x", vec![4, 4]);
        let y = b.argument("y", vec![4, 5]);
        b.add(x, y);
    }

    #[test]
    fn generic_op_construction() {
        let mut b = ModuleBuilder::new("g");
        let x = b.argument("x", vec![16, 16, 16]);
        let _y = b.generic(
            vec![x],
            vec![16, 16, 16],
            vec![
                IteratorType::Parallel,
                IteratorType::Parallel,
                IteratorType::Reduction,
            ],
            vec![AffineMap::identity(3), AffineMap::projection(3, &[0, 1])],
            vec![16, 16],
            ArithCounts {
                add: 1,
                mul: 2,
                ..Default::default()
            },
        );
        let m = b.finish();
        m.validate().unwrap();
        assert_eq!(m.ops()[0].kind, OpKind::Generic);
    }
}

//! Trainable parameter tensors.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::tensor::{add_matmul_tn_rev, matmul_nn, matmul_nt, matmul_nt_cols, ActiveCols, Tensor2};

/// A trainable parameter: a dense matrix (or vector when `cols == 1`) with
/// an accumulated gradient.
///
/// Values are stored row-major. Layers accumulate into [`Param::grad`]
/// during the backward pass; the optimizer consumes and clears it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Number of rows (output features for a weight matrix).
    pub rows: usize,
    /// Number of columns (input features for a weight matrix).
    pub cols: usize,
    /// Row-major values.
    pub value: Vec<f64>,
    /// Row-major accumulated gradient.
    pub grad: Vec<f64>,
}

impl Param {
    /// Creates a parameter filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            value: vec![0.0; rows * cols],
            grad: vec![0.0; rows * cols],
        }
    }

    /// Creates a parameter with Xavier/Glorot-uniform initialization.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let value = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Self {
            rows,
            cols,
            value,
            grad: vec![0.0; rows * cols],
        }
    }

    /// Number of scalar values.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True if the parameter holds no values.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.value[row * self.cols + col]
    }

    /// Adds `g` to the gradient at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn add_grad(&mut self, row: usize, col: usize, g: f64) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.grad[row * self.cols + col] += g;
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Matrix-vector product `value * x`: the plain reference loop the
    /// kernels are tested against. Each output element is one sequential
    /// sum over ascending columns seeded from `+0.0` (spelled out rather
    /// than `Iterator::sum`, whose neutral element is `-0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// [`Param::matvec`] written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output size mismatch");
        for (r, slot) in out.iter_mut().enumerate() {
            let row = &self.value[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            *slot = acc;
        }
    }

    /// Transposed matrix-vector product `value^T * y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    pub fn matvec_transposed(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "matvec_transposed dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (yr, row) in y.iter().zip(self.value.chunks_exact(self.cols)) {
            for (slot, w) in out.iter_mut().zip(row) {
                *slot += w * yr;
            }
        }
        out
    }

    /// Accumulates the outer product `y * x^T` into the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows` or `x.len() != cols`.
    pub fn add_outer_to_grad(&mut self, y: &[f64], x: &[f64]) {
        assert_eq!(y.len(), self.rows, "outer product row mismatch");
        assert_eq!(x.len(), self.cols, "outer product col mismatch");
        for (r, yr) in y.iter().enumerate() {
            let row = &mut self.grad[r * self.cols..(r + 1) * self.cols];
            for (c, xc) in x.iter().enumerate() {
                row[c] += yr * xc;
            }
        }
    }

    /// [`Param::add_outer_to_grad`] over the listed columns of `x` only
    /// (`cols` scanned from `x`, or from a batch holding it as a row).
    /// Bit-identical:
    /// every skipped product is `±0.0`, and a gradient that started at
    /// `+0.0` holds no `-0.0` for it to change (see [`crate::tensor`]).
    pub(crate) fn add_outer_to_grad_cols(&mut self, y: &[f64], x: &[f64], cols: &ActiveCols) {
        let Some(idx) = cols.sparse() else {
            return self.add_outer_to_grad(y, x);
        };
        assert_eq!(y.len(), self.rows, "outer product row mismatch");
        assert_eq!(x.len(), self.cols, "outer product col mismatch");
        for (r, yr) in y.iter().enumerate() {
            let row = &mut self.grad[r * self.cols..(r + 1) * self.cols];
            for &c in idx {
                row[c as usize] += yr * x[c as usize];
            }
        }
    }

    /// Batched matrix product `x * value^T` (`x` is one sample per row):
    /// row `i` of the result is bit-identical to
    /// [`Param::matvec`]`(x.row(i))` for every batch size. Writes into
    /// `out`, resizing it to `x.rows() x self.rows`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.cols`.
    pub fn matmul_batch_into(&self, x: &Tensor2, out: &mut Tensor2) {
        assert_eq!(x.cols(), self.cols, "matmul_batch dimension mismatch");
        out.reshape_for_overwrite(x.rows(), self.rows);
        matmul_nt(
            x.data(),
            &self.value,
            x.rows(),
            self.rows,
            self.cols,
            out.data_mut(),
        );
    }

    /// [`Param::matmul_batch_into`] with `x`'s column list supplied by the
    /// caller, who scanned it from this `x` and shares it between several
    /// products.
    pub(crate) fn matmul_batch_cols_into(&self, x: &Tensor2, cols: &ActiveCols, out: &mut Tensor2) {
        assert_eq!(x.cols(), self.cols, "matmul_batch dimension mismatch");
        out.reshape_for_overwrite(x.rows(), self.rows);
        matmul_nt_cols(
            x.data(),
            &self.value,
            x.rows(),
            self.rows,
            self.cols,
            cols,
            out.data_mut(),
        );
    }

    /// Allocating twin of [`Param::matmul_batch_into`].
    pub fn matmul_batch(&self, x: &Tensor2) -> Tensor2 {
        let mut out = Tensor2::zeros(0, 0);
        self.matmul_batch_into(x, &mut out);
        out
    }

    /// Batched transposed product `y * value` (`y` is one upstream gradient
    /// per row): row `i` is bit-identical to
    /// [`Param::matvec_transposed`]`(y.row(i))`. Writes into `out`,
    /// resizing it to `y.rows() x self.cols`.
    ///
    /// # Panics
    ///
    /// Panics if `y.cols() != self.rows`.
    pub fn matmul_batch_transposed_into(&self, y: &Tensor2, out: &mut Tensor2) {
        assert_eq!(
            y.cols(),
            self.rows,
            "matmul_batch_transposed dimension mismatch"
        );
        out.reshape_for_overwrite(y.rows(), self.cols);
        matmul_nn(
            y.data(),
            &self.value,
            y.rows(),
            self.cols,
            self.rows,
            out.data_mut(),
        );
    }

    /// Allocating twin of [`Param::matmul_batch_transposed_into`].
    pub fn matmul_batch_transposed(&self, y: &Tensor2) -> Tensor2 {
        let mut out = Tensor2::zeros(0, 0);
        self.matmul_batch_transposed_into(y, &mut out);
        out
    }

    /// Accumulates the outer products `y.row(b) * x.row(b)^T` into the
    /// gradient for `b` from the **last** batch row down to the first —
    /// bit-identical to calling [`Param::add_outer_to_grad`] once per row
    /// in reverse order, which is the order a per-sample backward replay
    /// visits a minibatch (layer caches are stacks).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ or the column counts do not match
    /// the parameter shape.
    pub fn add_outer_batch_to_grad(&mut self, y: &Tensor2, x: &Tensor2) {
        assert_eq!(y.rows(), x.rows(), "outer product batch mismatch");
        assert_eq!(y.cols(), self.rows, "outer product row mismatch");
        assert_eq!(x.cols(), self.cols, "outer product col mismatch");
        add_matmul_tn_rev(
            y.data(),
            x.data(),
            y.rows(),
            self.rows,
            self.cols,
            &mut self.grad,
        );
    }

    /// L2 norm of the gradient (used for gradient clipping).
    pub fn grad_norm_squared(&self) -> f64 {
        self.grad.iter().map(|g| g * g).sum()
    }

    /// Scales the gradient in place.
    pub fn scale_grad(&mut self, factor: f64) {
        self.grad.iter_mut().for_each(|g| *g *= factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zeros_and_shape() {
        let p = Param::zeros(3, 4);
        assert_eq!(p.len(), 12);
        assert!(!p.is_empty());
        assert_eq!(p.at(2, 3), 0.0);
    }

    #[test]
    fn xavier_init_within_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = Param::xavier(64, 32, &mut rng);
        let limit = (6.0 / 96.0f64).sqrt();
        assert!(p.value.iter().all(|v| v.abs() <= limit));
        // Not all zeros.
        assert!(p.value.iter().any(|v| v.abs() > 1e-6));
    }

    #[test]
    fn matvec_and_transpose() {
        let mut p = Param::zeros(2, 3);
        p.value = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(p.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(p.matvec_transposed(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn matvec_is_seeded_from_positive_zero_like_the_kernels() {
        // Every product is -0.0 (zero input x negative weights), or there
        // are no products at all: `Iterator::sum` would return -0.0.
        let mut p = Param::zeros(2, 3);
        p.value = vec![-1.0, -2.0, -3.0, -4.0, -5.0, -6.0];
        let x = [0.0; 3];
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(p.matvec(&x)), vec![0; 2]);
        let mut out = [1.0; 2];
        p.matvec_into(&x, &mut out);
        assert_eq!(bits(out.to_vec()), vec![0; 2]);
        assert_eq!(bits(Param::zeros(2, 0).matvec(&[])), vec![0; 2]);
        // ... and that is what the kernel computes.
        let kernel = p.matmul_batch(&Tensor2::from_row(&x));
        assert_eq!(bits(kernel.into_flat()), vec![0; 2]);
        let empty = Param::zeros(2, 0).matmul_batch(&Tensor2::zeros(1, 0));
        assert_eq!(bits(empty.into_flat()), vec![0; 2]);
    }

    #[test]
    fn outer_product_grad_accumulation() {
        let mut p = Param::zeros(2, 2);
        p.add_outer_to_grad(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(p.grad, vec![3.0, 4.0, 6.0, 8.0]);
        p.add_outer_to_grad(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(p.grad, vec![4.0, 5.0, 6.0, 8.0]);
        p.zero_grad();
        assert!(p.grad.iter().all(|g| *g == 0.0));
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut p = Param::zeros(1, 2);
        p.grad = vec![3.0, 4.0];
        assert_eq!(p.grad_norm_squared(), 25.0);
        p.scale_grad(0.5);
        assert_eq!(p.grad, vec![1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        Param::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}

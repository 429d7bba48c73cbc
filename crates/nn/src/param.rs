//! Trainable parameter tensors.
//!
//! # Ownership rule
//!
//! A [`Param`] is two buffers with two different owners:
//!
//! * **Values are shared, copy-on-write.** They live behind an `Arc`; a
//!   clone is a reference count, whatever the size of the tensor, so
//!   handing a network to a rollout worker, a service worker, a search
//!   driver worker or the policy registry copies no weights. The write paths —
//!   [`Param::value_mut`] / [`Param::value_and_grad_mut`] (init, an Adam
//!   step) — un-share first (`Arc::make_mut`: a private copy if
//!   anyone else holds the buffer, nothing otherwise), and
//!   [`Param::set_value`] (weight-snapshot load) swaps in a fresh buffer.
//!   A reader of a clone therefore never sees a later write to its source:
//!   a published policy version is immune to the trainer.
//! * **The gradient is per instance, lazily `+0.0`.** It is working state
//!   like [`Scratch`] buffers: a clone starts without one, `PartialEq`
//!   ignores it, and it materialises `+0.0`-filled on the first
//!   [`Param::zero_grad`] or accumulation. Starting at `+0.0` is the
//!   precondition of the sparse-gradient proof in [`crate::tensor`].
//!   [`Param::grad`] of a never-materialised gradient is the empty slice.
//!
//! **Resolve a write accessor once per parameter per step, never per
//! element.** Each call checks the reference count (and the gradient's
//! length); `p.value_mut()[i] -= ..` inside the Adam loop measured
//! `train-ppo` at 36.5 jobs/s against 52 with the slices taken before the
//! loop.
//!
//! # Storage-order rule
//!
//! A `Param` is logically a `rows x cols` matrix (outputs x inputs for a
//! weight), and every one is stored **input-major**: `(row, col)` at
//! `col * rows + row`, one contiguous run of `rows` weights per input. The
//! forward product then streams one run per input column — per listed
//! column when the input is a sparse observation or a ReLU output — instead
//! of gathering one weight from each of `rows` rows (the kernels are in
//! [`crate::tensor`]). A vector (`rows x 1` or `1 x cols`) reads the same
//! in either order.
//!
//! * **Logical order** — the layout does not show: `rows` / `cols`,
//!   [`Param::at`], [`Param::add_grad`], [`Param::set_value`],
//!   [`Param::logical_values`], [`Param::logical_grad`], the reference
//!   loops ([`Param::matvec`], [`Param::matvec_transposed`],
//!   [`Param::add_outer_to_grad`]), the batched products, and
//!   [`Param::grad_norm_squared`], which folds row by row. Each output of
//!   a product and each gradient element is the same sequence of
//!   operations as the row-major reference loops perform.
//! * **Storage order** — the buffers as stored: [`Param::value`],
//!   [`Param::value_mut`], [`Param::grad`], [`Param::grad_mut`],
//!   [`Param::value_and_grad_mut`] and [`Param::zero_grad`]. They are for
//!   elementwise work (Adam and its clip scale, a fill);
//!   [`Param::storage_index`] places `(row, col)` in them.
//!   A reader whose result depends on the order (a weight image, a
//!   fingerprint, a digest) reads the logical iterators instead.

use std::sync::Arc;

use rand::Rng;

use crate::scratch::Scratch;
use crate::tensor::{
    add_matmul_tn_rev, matmul_nn_cols, matmul_nt, with_scanned_cols, ActiveCols, Tensor2,
};

/// Logical rows [`Param::xavier`] draws before writing them.
const XAVIER_BLOCK: usize = 8;

/// A trainable parameter: a dense matrix (or vector when `cols == 1`) with
/// an accumulated gradient.
///
/// Values are shared copy-on-write between clones; the gradient belongs to
/// one instance. Both are stored input-major (see the
/// [module docs](self)). Layers accumulate into the gradient during the
/// backward pass; the optimizer consumes and clears it.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Number of rows (output features for a weight matrix).
    pub rows: usize,
    /// Number of columns (input features for a weight matrix).
    pub cols: usize,
    /// Values in storage order, shared with every clone until one of them
    /// writes.
    value: Arc<Vec<f64>>,
    /// Accumulated gradient in storage order; empty until first needed.
    grad: Scratch<Vec<f64>>,
}

impl Param {
    /// Creates a parameter filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_values(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a parameter with Xavier/Glorot-uniform initialization,
    /// drawing the values in logical order and putting each in its place.
    ///
    /// The draws are staged `XAVIER_BLOCK` logical rows at a time, so
    /// each input's run takes them as one contiguous write: at 128 x 3252
    /// one scattered write per draw took 1.8x the time of writing the draws
    /// in order, the staged writes about 1.05x. The stage holds 8 rows
    /// (208 KB at 3252 inputs), not a row-major copy of the matrix.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let mut value = vec![0.0; rows * cols];
        let mut stage = Vec::with_capacity(XAVIER_BLOCK.min(rows) * cols);
        for first in (0..rows).step_by(XAVIER_BLOCK) {
            let height = XAVIER_BLOCK.min(rows - first);
            stage.clear();
            stage.extend((0..height * cols).map(|_| rng.gen_range(-limit..limit)));
            for (c, run) in value.chunks_exact_mut(rows).enumerate() {
                for (r, slot) in run[first..first + height].iter_mut().enumerate() {
                    *slot = stage[r * cols + c];
                }
            }
        }
        Self::from_values(rows, cols, value)
    }

    /// A parameter over `value`, given in storage order.
    fn from_values(rows: usize, cols: usize, value: Vec<f64>) -> Self {
        Self {
            rows,
            cols,
            value: Arc::new(value),
            grad: Scratch::default(),
        }
    }

    /// Position of `(row, col)` in the storage-order slices
    /// ([`Param::value`], [`Param::grad`] and their `_mut` twins).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn storage_index(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col < self.cols, "index out of range");
        col * self.rows + row
    }

    /// The values in storage order; for elementwise readers only.
    pub fn value(&self) -> &[f64] {
        &self.value
    }

    /// The values in storage order, for writing. Un-shares them first: if
    /// a clone still holds the buffer this instance gets a private copy.
    pub fn value_mut(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.value).as_mut_slice()
    }

    /// Replaces the values with `value`, given in logical order, by an
    /// input-major copy of it. Clones keep the old buffer.
    ///
    /// # Panics
    ///
    /// Panics if `value.len()` does not match the parameter's.
    pub fn set_value(&mut self, value: Vec<f64>) {
        assert_eq!(value.len(), self.len(), "value length mismatch");
        let mut stored = vec![0.0; value.len()];
        for (r, row) in value.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, v) in row.iter().enumerate() {
                stored[c * self.rows + r] = *v;
            }
        }
        self.value = Arc::new(stored);
    }

    /// `buf` (this parameter's value or gradient buffer, or the empty
    /// slice) in logical order.
    fn logical<'a>(&self, buf: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        let (rows, cols) = if buf.is_empty() {
            (0, 0)
        } else {
            (self.rows, self.cols)
        };
        (0..rows).flat_map(move |r| (0..cols).map(move |c| buf[c * rows + r]))
    }

    /// The values in logical order: `(row, col)` at position
    /// `row * cols + col`. For readers whose result depends on the order
    /// (weight images, fingerprints).
    pub fn logical_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.logical(&self.value)
    }

    /// The accumulated gradient in storage order, or the empty slice if
    /// this instance never materialised one (equivalent to all `+0.0`); for
    /// elementwise readers only.
    pub fn grad(&self) -> &[f64] {
        &self.grad.0
    }

    /// The gradient in the logical order of [`Param::logical_values`];
    /// empty, like [`Param::grad`], if never materialised.
    pub fn logical_grad(&self) -> impl Iterator<Item = f64> + '_ {
        self.logical(&self.grad.0)
    }

    /// The gradient in storage order, for writing, materialised
    /// `+0.0`-filled on first use.
    pub fn grad_mut(&mut self) -> &mut [f64] {
        if self.grad.0.len() != self.value.len() {
            self.grad.0 = vec![0.0; self.value.len()];
        }
        &mut self.grad.0
    }

    /// [`Param::value_mut`] and [`Param::grad_mut`] together — what an
    /// optimizer step takes, once, before its element loop.
    pub fn value_and_grad_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        self.grad_mut();
        (
            Arc::make_mut(&mut self.value).as_mut_slice(),
            &mut self.grad.0,
        )
    }

    /// True if `other` reads the very same value buffer (one is a clone of
    /// the other and neither has written since).
    pub fn shares_value_with(&self, other: &Param) -> bool {
        Arc::ptr_eq(&self.value, &other.value)
    }

    /// True if any other instance holds this value buffer, i.e. the next
    /// write would copy it.
    pub fn is_value_shared(&self) -> bool {
        Arc::strong_count(&self.value) > 1
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
        self.value[self.storage_index(row, col)]
    }

    /// Adds `g` to the gradient at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn add_grad(&mut self, row: usize, col: usize, g: f64) {
        let idx = self.storage_index(row, col);
        self.grad_mut()[idx] += g;
    }

    /// Resets the accumulated gradient to `+0.0` (storage order is
    /// immaterial), materialising it if this instance has none yet.
    pub fn zero_grad(&mut self) {
        self.grad_mut().fill(0.0);
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
            let mut acc = 0.0;
            for (c, xi) in x.iter().enumerate() {
                acc += self.at(r, c) * xi;
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
        for (r, yr) in y.iter().enumerate() {
            for (c, slot) in out.iter_mut().enumerate() {
                *slot += self.at(r, c) * yr;
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
        self.add_outer_over(y, x, 0..x.len());
    }

    /// [`Param::add_outer_to_grad`] over the listed columns of `x` only
    /// (`cols` scanned from `x`, or from a batch holding it as a row), one
    /// contiguous run of `rows` per listed column. Bit-identical: every
    /// skipped product is `±0.0`, and a gradient that started at `+0.0`
    /// holds no `-0.0` for it to change (see [`crate::tensor`]).
    pub(crate) fn add_outer_to_grad_cols(&mut self, y: &[f64], x: &[f64], cols: &ActiveCols) {
        match cols.sparse() {
            Some(idx) => self.add_outer_over(y, x, idx.iter().map(|&c| c as usize)),
            None => self.add_outer_to_grad(y, x),
        }
    }

    /// Adds `y * x[c]` to the run of input `c`, for each `c` of `listed`.
    fn add_outer_over(&mut self, y: &[f64], x: &[f64], listed: impl Iterator<Item = usize>) {
        assert_eq!(y.len(), self.rows, "outer product row mismatch");
        assert_eq!(x.len(), self.cols, "outer product col mismatch");
        let rows = self.rows;
        let grad = self.grad_mut();
        for c in listed {
            let xc = x[c];
            for (g, yr) in grad[c * rows..(c + 1) * rows].iter_mut().zip(y) {
                *g += yr * xc;
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
        with_scanned_cols(x.data(), x.rows(), x.cols(), |cols| {
            self.matmul_batch_cols_into(x, cols, out);
        });
    }

    /// [`Param::matmul_batch_into`] with `x`'s column list supplied by the
    /// caller, who scanned it from this `x` and shares it between several
    /// products.
    pub(crate) fn matmul_batch_cols_into(&self, x: &Tensor2, cols: &ActiveCols, out: &mut Tensor2) {
        assert_eq!(x.cols(), self.cols, "matmul_batch dimension mismatch");
        out.reshape_for_overwrite(x.rows(), self.rows);
        matmul_nn_cols(
            x.data(),
            &self.value,
            x.rows(),
            self.rows,
            self.cols,
            cols,
            out.data_mut(),
        );
    }

    /// One row of [`Param::matmul_batch_cols_into`]: `out = value · x` for
    /// a lone input row `x` with its column list — the `1 x 16` run tiles
    /// batch-1 inference runs, over the list alone or, when it is not
    /// sparse, over every input.
    pub(crate) fn matvec_cols_into(&self, x: &[f64], cols: &ActiveCols, out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output size mismatch");
        matmul_nn_cols(x, &self.value, 1, self.rows, self.cols, cols, out);
    }

    /// Allocating twin of [`Param::matmul_batch_into`].
    pub fn matmul_batch(&self, x: &Tensor2) -> Tensor2 {
        let mut out = Tensor2::zeros(0, 0);
        self.matmul_batch_into(x, &mut out);
        out
    }

    /// Batched transposed product `y * value` (`y` is one upstream gradient
    /// per row): row `i` is bit-identical to
    /// [`Param::matvec_transposed`]`(y.row(i))`. The storage is `value^T`
    /// row-major, so this is [`matmul_nt`] against it. Writes into `out`,
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
        matmul_nt(
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
    /// visits a minibatch (layer caches are stacks). Stored input-major,
    /// the gradient is the transposed product `x^T y`: the same products
    /// (operands swapped, which IEEE multiplication ignores) added in the
    /// same descending batch order.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ or the column counts do not match
    /// the parameter shape.
    pub fn add_outer_batch_to_grad(&mut self, y: &Tensor2, x: &Tensor2) {
        assert_eq!(y.rows(), x.rows(), "outer product batch mismatch");
        assert_eq!(y.cols(), self.rows, "outer product row mismatch");
        assert_eq!(x.cols(), self.cols, "outer product col mismatch");
        let (rows, cols) = (self.rows, self.cols);
        add_matmul_tn_rev(x.data(), y.data(), x.rows(), cols, rows, self.grad_mut());
    }

    /// Squared L2 norm of the gradient (used for gradient clipping), folded
    /// in logical order, row by row; `+0.0` for a
    /// never-materialised gradient. Seeded from `+0.0`: squares are never
    /// `-0.0`, so this is bit-identical to `Iterator::sum` whenever there
    /// is anything to add.
    pub fn grad_norm_squared(&self) -> f64 {
        self.logical_grad().fold(0.0, |acc, g| acc + g * g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
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
        assert!(p.value().iter().all(|v| v.abs() <= limit));
        // Not all zeros.
        assert!(p.value().iter().any(|v| v.abs() > 1e-6));
    }

    #[test]
    fn matvec_and_transpose() {
        let mut p = Param::zeros(2, 3);
        p.set_value(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(p.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(p.matvec_transposed(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn matvec_is_seeded_from_positive_zero_like_the_kernels() {
        // Every product is -0.0 (zero input x negative weights), or there
        // are no products at all: `Iterator::sum` would return -0.0.
        let mut p = Param::zeros(2, 3);
        p.set_value(vec![-1.0, -2.0, -3.0, -4.0, -5.0, -6.0]);
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
        let logical = |p: &Param| p.logical_grad().collect::<Vec<_>>();
        p.add_outer_to_grad(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(logical(&p), [3.0, 4.0, 6.0, 8.0]);
        p.add_outer_to_grad(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(logical(&p), [4.0, 5.0, 6.0, 8.0]);
        p.zero_grad();
        assert_eq!(p.grad(), [0.0; 4]);
    }

    #[test]
    fn grad_norm() {
        let mut p = Param::zeros(1, 2);
        p.grad_mut().copy_from_slice(&[3.0, 4.0]);
        assert_eq!(p.grad_norm_squared(), 25.0);
    }

    fn random_param(rows: usize, cols: usize, seed: u64) -> Param {
        Param::xavier(rows, cols, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_clone_shares_the_values_and_equals_its_source() {
        let mut source = random_param(4, 3, 1);
        let early = source.clone();
        assert!(early.shares_value_with(&source) && source.is_value_shared());
        assert_eq!(early, source);
        // ... also once the source holds a gradient the clone does not.
        source.add_grad(1, 2, 0.5);
        let late = source.clone();
        assert!(late.shares_value_with(&source) && late.grad().is_empty());
        assert_eq!(late, source);
        assert_eq!(early, late);
        drop((early, late));
        assert!(!source.is_value_shared());
    }

    #[test]
    fn a_step_on_the_clone_unshares_exactly_what_it_wrote() {
        let (mut a, mut b) = (random_param(3, 2, 2), random_param(2, 2, 3));
        let before = (bits(a.value()), bits(b.value()));
        let mut stepped = a.clone();
        let kept = b.clone();
        stepped.add_grad(0, 1, 1.0);
        Adam::new(0.1).step(&mut [&mut stepped]);
        assert!(!stepped.shares_value_with(&a) && !a.is_value_shared());
        assert!(kept.shares_value_with(&b));
        assert_eq!((bits(a.value()), bits(b.value())), before);
        assert_ne!(stepped, a);
        // A step on the sole owner writes in place: nothing to un-share.
        let at = a.value().as_ptr();
        a.add_grad(0, 0, 1.0);
        b.add_grad(0, 0, 1.0);
        Adam::new(0.1).step(&mut [&mut a, &mut b]);
        assert_eq!(a.value().as_ptr(), at);
        assert!(!kept.shares_value_with(&b));
        assert_eq!(bits(kept.value()), before.1);
    }

    #[test]
    fn a_clone_starts_from_a_positive_zero_gradient() {
        let mut source = random_param(3, 8, 4);
        source.grad_mut().fill(-1.5);
        let mut clone = source.clone();
        assert!(clone.grad().is_empty());
        assert_eq!(bits(clone.grad_mut()), vec![0; 24]);
        // The sparse-gradient precondition: from `zero_grad` on, the clone
        // accumulates exactly like a parameter that never had a source.
        let mut fresh = Param::zeros(3, 8);
        let (y, x) = ([0.5, -2.0, 0.0], [0.0, -1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
        let mut cols = ActiveCols::default();
        cols.scan(&x, 1, x.len());
        assert!(cols.sparse().is_some());
        let mut clone = source.clone();
        for p in [&mut clone, &mut fresh] {
            p.zero_grad();
            p.add_outer_to_grad_cols(&y, &x, &cols);
        }
        assert_eq!(bits(clone.grad()), bits(fresh.grad()));
        assert!(clone.grad().iter().any(|g| *g != 0.0));
        assert!(source.grad().iter().all(|g| *g == -1.5));
    }

    #[test]
    fn a_gradient_nobody_wrote_costs_nothing() {
        let mut p = random_param(5, 5, 5);
        let clone = p.clone();
        assert_eq!(p.grad_norm_squared().to_bits(), 0);
        let mut adam = Adam::new(0.1);
        assert_eq!(adam.clip_and_step(&mut [&mut p], 1e-3).to_bits(), 0);
        adam.step(&mut [&mut p]);
        assert_eq!(p.grad().len() + p.grad.0.capacity(), 0);
        assert!(
            p.shares_value_with(&clone),
            "an untouched parameter stays shared"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        Param::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}

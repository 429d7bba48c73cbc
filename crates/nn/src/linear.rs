//! Fully connected (dense) layers and the ReLU MLP used as the policy
//! backbone.
//!
//! Both layer types train on row-major batches ([`Tensor2`], one sample per
//! row) through `forward_batch` / `backward_batch` — a single sample is a
//! batch of one. Inference also has per-vector entry points
//! ([`Linear::infer_into`], [`Mlp::infer`]); every path is bit-identical to
//! the plain-loop `forward_inference` references (the kernels fix the
//! accumulation order — see [`crate::tensor`]).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::relu_in_place;
use crate::param::Param;
use crate::scratch::Scratch;
use crate::tensor::{matmul_nt, Tensor2};

/// A fully connected layer `y = W x + b`.
///
/// The layer caches the input batch of every forward call since the last
/// [`Linear::zero_grad`] so that backward passes can be replayed in reverse
/// order (the caches are stacks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: Param,
    bias: Param,
    #[serde(skip)]
    cached_inputs: Vec<Tensor2>,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights.
    pub fn new<R: Rng>(input: usize, output: usize, rng: &mut R) -> Self {
        Self {
            weight: Param::xavier(output, input, rng),
            bias: Param::zeros(output, 1),
            cached_inputs: Vec::new(),
        }
    }

    /// Input feature count.
    pub fn input_size(&self) -> usize {
        self.weight.cols
    }

    /// Output feature count.
    pub fn output_size(&self) -> usize {
        self.weight.rows
    }

    /// The shared affine map for a batch: `out = x W^T + b` row-wise, with
    /// `out` resized to `batch x output`.
    fn affine_batch_into(&self, x: &Tensor2, out: &mut Tensor2) {
        self.weight.matmul_batch_into(x, out);
        for r in 0..out.rows() {
            for (yi, b) in out.row_mut(r).iter_mut().zip(self.bias.value()) {
                *yi += b;
            }
        }
    }

    /// Batched forward pass (one sample per row), caching the input batch
    /// for a later [`Linear::backward_batch`]. Row `i` of the result is
    /// bit-identical to [`Linear::infer_into`] on `x.row(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input size.
    pub fn forward_batch(&mut self, x: &Tensor2) -> Tensor2 {
        let mut y = Tensor2::zeros(0, 0);
        self.affine_batch_into(x, &mut y);
        self.cached_inputs.push(x.clone());
        y
    }

    /// Batched inference (no caching) into a caller-provided tensor;
    /// bit-identical to [`Linear::forward_batch`] row by row.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input size.
    pub fn infer_batch_into(&self, x: &Tensor2, out: &mut Tensor2) {
        self.affine_batch_into(x, out);
    }

    /// Forward pass without caching, written over the plain
    /// [`Param::matvec`] loop: the reference the kernel-backed paths
    /// ([`Linear::infer_into`], the batched forms) are tested bit for bit
    /// against; it is not a hot path.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the input size.
    pub fn forward_inference(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.weight.matvec(x);
        for (yi, b) in y.iter_mut().zip(self.bias.value()) {
            *yi += b;
        }
        y
    }

    /// Allocation-free inference: writes `W x + b` into `out` (resizing it
    /// to the output size). Bit-identical to [`Linear::forward_inference`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the input size.
    pub fn infer_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.weight.cols, "matvec dimension mismatch");
        // The kernel reads the storage as row-major, which a `Linear`
        // weight always is (`Param::xavier`).
        debug_assert!(!self.weight.is_input_major());
        // No zero-fill: the kernel overwrites every element.
        out.resize(self.weight.rows, 0.0);
        matmul_nt(
            x,
            self.weight.value(),
            1,
            self.weight.rows,
            self.weight.cols,
            out,
        );
        for (yi, b) in out.iter_mut().zip(self.bias.value()) {
            *yi += b;
        }
    }

    /// Batched backward pass for the most recent un-consumed forward call.
    /// Accumulates parameter gradients in **reverse row order** (exactly
    /// the sequence a per-sample replay performs against stacked caches)
    /// and returns the per-row gradients with respect to the inputs.
    ///
    /// # Panics
    ///
    /// Panics if there is no cached forward call to consume or the gradient
    /// batch shape does not match the cached input batch / output size.
    pub fn backward_batch(&mut self, grad_output: &Tensor2) -> Tensor2 {
        assert_eq!(
            grad_output.cols(),
            self.weight.rows,
            "gradient size mismatch"
        );
        let x = self
            .cached_inputs
            .pop()
            .expect("backward called without a matching forward");
        assert_eq!(grad_output.rows(), x.rows(), "gradient batch size mismatch");
        self.weight.add_outer_batch_to_grad(grad_output, &x);
        let bias_grad = self.bias.grad_mut();
        for b in (0..grad_output.rows()).rev() {
            for (gb, g) in bias_grad.iter_mut().zip(grad_output.row(b)) {
                *gb += g;
            }
        }
        self.weight.matmul_batch_transposed(grad_output)
    }

    /// Clears gradients and cached activations.
    pub fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
        self.cached_inputs.clear();
    }

    /// The layer's parameters (weight, bias), for the optimizer.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// Ping-pong working memory for [`Mlp::infer`] / [`Mlp::infer_batch`].
#[derive(Debug, Clone, Default)]
struct MlpBuffers {
    /// Batch-of-1 staging tensor for the per-vector [`Mlp::infer`] wrapper.
    input: Tensor2,
    /// The two alternating layer-output buffers.
    pp: [Tensor2; 2],
}

/// A multi-layer perceptron with ReLU activations after every layer except
/// the last (the paper's backbone uses three 512-unit ReLU layers; heads add
/// a final linear layer without activation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    relu_output: bool,
    #[serde(skip)]
    cached_activations: Vec<Vec<Tensor2>>,
    /// Ping-pong buffers reused by [`Mlp::infer`] / [`Mlp::infer_batch`].
    #[serde(skip)]
    infer_buffers: Scratch<MlpBuffers>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `[64, 512, 512]`
    /// builds two layers 64->512 and 512->512. With `relu_output == true`
    /// every layer is followed by ReLU; otherwise the final layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng>(sizes: &[usize], relu_output: bool, rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least one layer");
        let layers = sizes
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
            relu_output,
            cached_activations: Vec::new(),
            infer_buffers: Scratch::default(),
        }
    }

    /// Output feature count.
    pub fn output_size(&self) -> usize {
        self.layers
            .last()
            .expect("at least one layer")
            .output_size()
    }

    /// Input feature count.
    pub fn input_size(&self) -> usize {
        self.layers
            .first()
            .expect("at least one layer")
            .input_size()
    }

    /// Batched forward pass with caching for
    /// [`Mlp::backward_batch`]: one matmul per layer for the whole batch.
    /// Row `i` is bit-identical to [`Mlp::infer`]`(x.row(i))`.
    pub fn forward_batch(&mut self, x: &Tensor2) -> Tensor2 {
        let n = self.layers.len();
        let mut activations: Vec<Tensor2> = Vec::with_capacity(n);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let input: &Tensor2 = activations.last().unwrap_or(x);
            let mut h = layer.forward_batch(input);
            if i + 1 < n || self.relu_output {
                relu_in_place(h.data_mut());
            }
            activations.push(h);
        }
        let out = activations.last().expect("at least one layer").clone();
        self.cached_activations.push(activations);
        out
    }

    /// Forward pass without caching over [`Linear::forward_inference`]:
    /// the plain-loop reference for the kernel-backed paths.
    pub fn forward_inference(&self, x: &[f64]) -> Vec<f64> {
        let n = self.layers.len();
        let mut h = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut pre = layer.forward_inference(&h);
            if i + 1 < n || self.relu_output {
                relu_in_place(&mut pre);
            }
            h = pre;
        }
        h
    }

    /// Runs the inference layer stack over `x` using the given ping-pong
    /// buffers; returns the index of the buffer holding the final output.
    fn run_infer(&self, x: &Tensor2, pp: &mut [Tensor2; 2]) -> usize {
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let (cur, prev) = {
                let (a, b) = pp.split_at_mut(1);
                if i % 2 == 0 {
                    (&mut a[0], &b[0])
                } else {
                    (&mut b[0], &a[0])
                }
            };
            let input: &Tensor2 = if i == 0 { x } else { prev };
            layer.infer_batch_into(input, cur);
            if i + 1 < n || self.relu_output {
                relu_in_place(cur.data_mut());
            }
        }
        (n + 1) % 2
    }

    /// Allocation-free batched inference using internal ping-pong buffers.
    /// Returns a tensor borrowing the network's scratch; row `i` is
    /// bit-identical to [`Mlp::infer`]`(x.row(i))` and to
    /// [`Mlp::forward_inference`].
    pub fn infer_batch(&mut self, x: &Tensor2) -> &Tensor2 {
        let mut bufs = std::mem::take(&mut self.infer_buffers).0;
        let idx = self.run_infer(x, &mut bufs.pp);
        self.infer_buffers = Scratch(bufs);
        &self.infer_buffers.0.pp[idx]
    }

    /// Allocation-free inference (a thin wrapper over batch-of-1). Returns
    /// a slice borrowing the network's scratch; bit-identical to
    /// [`Mlp::forward_inference`].
    pub fn infer(&mut self, x: &[f64]) -> &[f64] {
        let mut bufs = std::mem::take(&mut self.infer_buffers).0;
        bufs.input.assign_flat(1, x.len(), x);
        let idx = self.run_infer(&bufs.input, &mut bufs.pp);
        self.infer_buffers = Scratch(bufs);
        self.infer_buffers.0.pp[idx].row(0)
    }

    /// Batched backward pass for the most recent un-consumed forward call.
    /// Parameter gradients accumulate in reverse row order (the per-sample
    /// replay sequence); returns the per-row input gradients.
    ///
    /// # Panics
    ///
    /// Panics if there is no cached forward call.
    pub fn backward_batch(&mut self, grad_output: &Tensor2) -> Tensor2 {
        let activations = self
            .cached_activations
            .pop()
            .expect("backward called without a matching forward");
        let n = self.layers.len();
        let mut grad = grad_output.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            if i + 1 < n || self.relu_output {
                // Gate in place (bit-identical to `relu_backward` per row,
                // without allocating): gradient passes only where the
                // forward output was positive.
                let act = &activations[i];
                for (g, a) in grad.data_mut().iter_mut().zip(act.data()) {
                    *g = if *a > 0.0 { *g } else { 0.0 };
                }
            }
            grad = layer.backward_batch(&grad);
        }
        grad
    }

    /// Clears gradients and cached activations of all layers.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
        self.cached_activations.clear();
    }

    /// All parameters, for the optimizer.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(Linear::parameters_mut)
            .collect()
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(Linear::num_parameters).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    /// One sample as a batch of one.
    fn one(x: &[f64]) -> Tensor2 {
        Tensor2::from_row(x)
    }

    #[test]
    fn linear_shapes() {
        let mut l = Linear::new(4, 3, &mut rng());
        assert_eq!(l.input_size(), 4);
        assert_eq!(l.output_size(), 3);
        assert_eq!(l.num_parameters(), 15);
        let y = l.forward_batch(&one(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!((y.rows(), y.cols()), (1, 3));
        assert_eq!(y.data(), l.forward_inference(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let mut l = Linear::new(3, 2, &mut rng());
        let x = vec![0.5, -1.0, 2.0];
        let eps = 1e-6;

        // Loss = sum of outputs.
        let y = l.forward_batch(&one(&x));
        let _gx = l.backward_batch(&one(&[1.0, 1.0]));
        let loss = |layer: &Linear, x: &[f64]| layer.forward_inference(x).iter().sum::<f64>();
        let base = y.data().iter().sum::<f64>();

        // Check a few weight entries.
        for (r, c) in [(0, 0), (1, 2), (0, 1)] {
            let mut perturbed = l.clone();
            {
                let mut params = perturbed.parameters_mut();
                let idx = r * 3 + c;
                params[0].value_mut()[idx] += eps;
            }
            let fd = (loss(&perturbed, &x) - base) / eps;
            let analytic = l.parameters_mut()[0].grad()[r * 3 + c];
            assert!(
                (fd - analytic).abs() < 1e-4,
                "weight ({r},{c}): fd {fd} vs {analytic}"
            );
        }
    }

    #[test]
    fn linear_input_gradient_matches_finite_difference() {
        let mut l = Linear::new(3, 2, &mut rng());
        let x = vec![0.5, -1.0, 2.0];
        let eps = 1e-6;
        let base: f64 = l.forward_batch(&one(&x)).data().iter().sum();
        let gx = l.backward_batch(&one(&[1.0, 1.0])).into_flat();
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let fd = (l.forward_inference(&xp).iter().sum::<f64>() - base) / eps;
            assert!((fd - gx[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn mlp_forward_backward_and_finite_difference() {
        let mut mlp = Mlp::new(&[4, 8, 3], false, &mut rng());
        assert_eq!(mlp.input_size(), 4);
        assert_eq!(mlp.output_size(), 3);
        let x = vec![0.1, -0.2, 0.3, 0.7];
        let y = mlp.forward_batch(&one(&x));
        assert_eq!(y.cols(), 3);
        let gx = mlp.backward_batch(&one(&[1.0, 0.0, -1.0])).into_flat();
        assert_eq!(gx.len(), 4);

        // Finite-difference check of the input gradient.
        let eps = 1e-6;
        let loss = |m: &Mlp, x: &[f64]| {
            let y = m.forward_inference(x);
            y[0] - y[2]
        };
        let base = loss(&mlp, &x);
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let fd = (loss(&mlp, &xp) - base) / eps;
            assert!((fd - gx[i]).abs() < 1e-4, "input {i}: {fd} vs {}", gx[i]);
        }
    }

    #[test]
    fn backward_without_forward_panics() {
        let mut l = Linear::new(2, 2, &mut rng());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            l.backward_batch(&one(&[1.0, 1.0]));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn minibatch_backward_in_reverse_order() {
        // Two forward calls, two backward calls: gradients accumulate.
        let mut l = Linear::new(2, 1, &mut rng());
        l.forward_batch(&one(&[1.0, 0.0]));
        l.forward_batch(&one(&[0.0, 1.0]));
        l.backward_batch(&one(&[1.0]));
        l.backward_batch(&one(&[1.0]));
        let params = l.parameters_mut();
        // dW = [1,0] + [0,1] = [1,1]; db = 2.
        assert_eq!(params[0].grad(), [1.0, 1.0]);
        assert_eq!(params[1].grad(), [2.0]);
    }

    #[test]
    fn infer_matches_forward_inference_bitwise() {
        let mut mlp = Mlp::new(&[6, 9, 4], false, &mut rng());
        let x: Vec<f64> = (0..6).map(|i| (i as f64) * 0.3 - 0.7).collect();
        let expected = mlp.forward_inference(&x);
        let got = mlp.infer(&x).to_vec();
        assert_eq!(expected, got, "scratch inference must be bit-identical");
        // Repeated calls reuse the buffers and stay identical.
        assert_eq!(expected, mlp.infer(&x).to_vec());
        // A relu-output MLP with an even layer count exercises the other
        // ping-pong exit.
        let mut mlp2 = Mlp::new(&[4, 4, 4], true, &mut rng());
        let y = vec![0.2, -0.4, 0.8, 0.0];
        assert_eq!(mlp2.forward_inference(&y), mlp2.infer(&y).to_vec());
    }

    #[test]
    fn linear_infer_into_matches_forward_inference() {
        let l = Linear::new(3, 5, &mut rng());
        let x = [0.4, -0.2, 1.5];
        let mut out = Vec::new();
        l.infer_into(&x, &mut out);
        assert_eq!(out, l.forward_inference(&x));
    }

    #[test]
    fn cloned_mlp_infers_identically_with_fresh_scratch() {
        let mut mlp = Mlp::new(&[3, 5, 2], false, &mut rng());
        let x = [1.0, 2.0, 3.0];
        let a = mlp.infer(&x).to_vec();
        let mut cloned = mlp.clone();
        assert_eq!(a, cloned.infer(&x).to_vec());
    }

    #[test]
    fn forward_batch_rows_match_per_vector_forward() {
        let rows = [
            vec![0.1, -0.2, 0.3, 0.7],
            vec![1.0, 0.0, -1.0, 0.5],
            vec![-0.4, 0.9, 0.2, -0.6],
        ];
        let batch = Tensor2::from_rows(4, rows.iter().map(Vec::as_slice));

        let mut batched = Mlp::new(&[4, 6, 3], false, &mut rng());
        let mut serial = batched.clone();
        let out = batched.forward_batch(&batch);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(out.row(i), serial.infer(row), "row {i}");
        }
        // The batched inference path agrees too.
        let inferred = batched.infer_batch(&batch).clone();
        assert_eq!(inferred, out);
        batched.zero_grad();
    }

    #[test]
    fn backward_batch_matches_reverse_per_sample_replay() {
        let rows = [
            vec![0.1, -0.2, 0.3],
            vec![1.0, 0.4, -1.0],
            vec![-0.4, 0.9, 0.2],
            vec![0.7, -0.7, 0.1],
            vec![0.0, 0.5, -0.3],
        ];
        let grads = [
            vec![1.0, -0.5],
            vec![0.2, 0.8],
            vec![-1.0, 0.1],
            vec![0.4, 0.4],
            vec![-0.2, 0.9],
        ];
        let x = Tensor2::from_rows(3, rows.iter().map(Vec::as_slice));
        let g = Tensor2::from_rows(2, grads.iter().map(Vec::as_slice));

        let mut batched = Mlp::new(&[3, 7, 2], true, &mut rng());
        let mut serial = batched.clone();

        batched.forward_batch(&x);
        let gx_batched = batched.backward_batch(&g);

        for row in &rows {
            serial.forward_batch(&one(row));
        }
        let mut gx_serial: Vec<Vec<f64>> = Vec::new();
        for grad in grads.iter().rev() {
            gx_serial.push(serial.backward_batch(&one(grad)).into_flat());
        }
        gx_serial.reverse();
        for (i, gs) in gx_serial.iter().enumerate() {
            assert_eq!(gx_batched.row(i), gs.as_slice(), "input grad row {i}");
        }
        // Parameter gradients are bit-identical to the reverse replay.
        let pb = batched.parameters_mut();
        let ps = serial.parameters_mut();
        for (a, b) in pb.iter().zip(&ps) {
            assert_eq!(a.grad(), b.grad());
        }
    }

    #[test]
    fn zero_grad_clears_state() {
        let mut mlp = Mlp::new(&[2, 4, 2], true, &mut rng());
        mlp.forward_batch(&one(&[1.0, 1.0]));
        mlp.backward_batch(&one(&[1.0, 1.0]));
        mlp.zero_grad();
        assert!(mlp
            .parameters_mut()
            .iter()
            .all(|p| p.grad().iter().all(|g| *g == 0.0)));
    }
}

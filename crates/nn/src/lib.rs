//! # mlir-rl-nn
//!
//! A minimal, dependency-free neural-network library: dense layers, a
//! single-layer LSTM, masked categorical distributions and the Adam
//! optimizer — exactly the building blocks the paper's actor-critic
//! networks need (LSTM producer-consumer embedding, 3x512 ReLU backbone,
//! softmax action heads, value head, PPO training).
//!
//! Layers operate on batches: a minibatch is a row-major [`Tensor2`] (one
//! sample per row) pushed through `forward_batch` / `infer_batch` /
//! `backward_batch`, which run one blocked matmul per layer instead of one
//! matvec per sample. Training has only this path — a single sample is a
//! batch of one — while inference keeps per-vector entry points (`infer`,
//! `infer_into`) for batch-1 callers. The LSTM also takes a training batch
//! as each row's list of non-zeros (`Lstm::forward_batch_nonzeros`), the
//! form observations are stored in. The kernels fix their accumulation
//! order so that every row of a batched result is **bit-for-bit
//! identical** to the same row run alone and to the plain-loop
//! `forward_inference` references — batching is purely a throughput knob,
//! never a numerics change (property-tested). `backward_batch` accumulates
//! parameter gradients in reverse row order, exactly like replaying one-row
//! `backward_batch` calls against stacked caches.
//!
//! ## Example
//!
//! ```
//! use mlir_rl_nn::{Adam, Linear, MaskedCategorical, Tensor2};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let mut head = Linear::new(16, 6, &mut rng);
//! // One sample is a batch of one row.
//! let logits = head.forward_batch(&Tensor2::from_row(&[0.1; 16]));
//! let dist = MaskedCategorical::new(logits.row(0), &[true, true, true, true, false, true]);
//! let action = dist.argmax();
//! assert!(action != 4, "masked actions are never selected");
//!
//! // One policy-gradient step on that action.
//! let mut grad_logits = Vec::new();
//! dist.log_prob_grad(action, &mut grad_logits);
//! grad_logits.iter_mut().for_each(|g| *g = -*g);
//! head.backward_batch(&Tensor2::from_row(&grad_logits));
//! let mut adam = Adam::new(1e-3);
//! adam.step(&mut head.parameters_mut());
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod adam;
pub mod distribution;
pub mod linear;
pub mod lstm;
pub mod param;
pub mod scratch;
pub mod tensor;

pub use activation::{
    masked_softmax, relu, relu_in_place, sigmoid, sigmoid_in_place, softmax, tanh, tanh_in_place,
};
pub use adam::Adam;
pub use distribution::MaskedCategorical;
pub use linear::{Linear, Mlp};
pub use lstm::Lstm;
pub use param::Param;
pub use scratch::Scratch;
pub use tensor::Tensor2;

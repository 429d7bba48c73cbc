//! Deep-learning single-operator workloads (Sec. VI-A, Table II).
//!
//! The paper collects the most frequent operators from 121 TensorFlow Hub /
//! Hugging Face models and generates shape variants of each: matrix
//! multiplication, 2-D convolution, max pooling, matrix addition and ReLU.
//! This module generates the same operator families with seeded random
//! shapes for training, plus a fixed set of ResNet-style evaluation shapes
//! that are *not* drawn from the training distribution (Sec. VII-A-2).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_ir::{Module, ModuleBuilder};

/// The operator families of the single-operator dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DlOperator {
    /// Matrix multiplication.
    Matmul,
    /// 2-D convolution.
    Conv2D,
    /// Max pooling.
    MaxPooling,
    /// Elementwise matrix addition.
    MatrixAddition,
    /// ReLU activation.
    Relu,
}

impl DlOperator {
    /// All families, in the order of Table II.
    pub const ALL: [DlOperator; 5] = [
        DlOperator::Matmul,
        DlOperator::Conv2D,
        DlOperator::MaxPooling,
        DlOperator::MatrixAddition,
        DlOperator::Relu,
    ];

    /// Number of training examples of this family in the paper's dataset
    /// (Table II).
    pub fn paper_training_count(self) -> usize {
        match self {
            DlOperator::Matmul => 187,
            DlOperator::Conv2D => 278,
            DlOperator::MaxPooling => 250,
            DlOperator::MatrixAddition => 271,
            DlOperator::Relu => 149,
        }
    }

    /// Display name used in tables and figures.
    pub fn name(self) -> &'static str {
        match self {
            DlOperator::Matmul => "Matmul",
            DlOperator::Conv2D => "Conv2D",
            DlOperator::MaxPooling => "Maxpooling",
            DlOperator::MatrixAddition => "Add",
            DlOperator::Relu => "ReLU",
        }
    }
}

fn pick(rng: &mut ChaCha8Rng, choices: &[u64]) -> u64 {
    choices[rng.gen_range(0..choices.len())]
}

/// Generates one random training example of the given operator family.
pub fn random_operator(kind: DlOperator, rng: &mut ChaCha8Rng) -> Module {
    match kind {
        DlOperator::Matmul => {
            let m = pick(rng, &[32, 64, 128, 256, 512, 768, 1024]);
            let k = pick(rng, &[64, 128, 256, 512, 768, 1024]);
            let n = pick(rng, &[32, 64, 128, 256, 512, 1024]);
            matmul_module(m, n, k)
        }
        DlOperator::Conv2D => {
            let c = pick(rng, &[3, 16, 32, 64, 128]);
            let f = pick(rng, &[16, 32, 64, 128, 256]);
            let hw = pick(rng, &[14, 28, 56, 112]);
            let k = pick(rng, &[1, 3, 5]);
            let stride = pick(rng, &[1, 2]);
            conv2d_module(1, c, hw, hw, f, k, stride)
        }
        DlOperator::MaxPooling => {
            let c = pick(rng, &[16, 32, 64, 128, 256]);
            let hw = pick(rng, &[14, 28, 56, 112]);
            let w = pick(rng, &[2, 3]);
            maxpool_module(1, c, hw, hw, w, 2)
        }
        DlOperator::MatrixAddition => {
            let rows = pick(rng, &[64, 128, 256, 512, 1024]);
            let cols = pick(rng, &[64, 128, 256, 512, 1024, 2048]);
            add_module(rows, cols)
        }
        DlOperator::Relu => {
            let rows = pick(rng, &[64, 128, 256, 512, 1024]);
            let cols = pick(rng, &[64, 128, 256, 512, 1024, 4096]);
            relu_module(rows, cols)
        }
    }
}

/// A single matmul module `C[MxN] = A[MxK] * B[KxN]`.
pub fn matmul_module(m: u64, n: u64, k: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("matmul_{m}x{n}x{k}"));
    let a = b.argument("A", vec![m, k]);
    let w = b.argument("B", vec![k, n]);
    b.matmul(a, w);
    b.finish()
}

/// A single NCHW conv2d module.
pub fn conv2d_module(n: u64, c: u64, h: u64, w: u64, f: u64, kernel: u64, stride: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("conv2d_{c}x{h}x{w}_f{f}k{kernel}s{stride}"));
    let x = b.argument("x", vec![n, c, h, w]);
    let filt = b.argument("w", vec![f, c, kernel, kernel]);
    b.conv2d(x, filt, stride);
    b.finish()
}

/// A single max-pooling module.
pub fn maxpool_module(n: u64, c: u64, h: u64, w: u64, window: u64, stride: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("maxpool_{c}x{h}x{w}_w{window}s{stride}"));
    let x = b.argument("x", vec![n, c, h, w]);
    b.max_pool(x, window, stride);
    b.finish()
}

/// A single elementwise-addition module.
pub fn add_module(rows: u64, cols: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("add_{rows}x{cols}"));
    let x = b.argument("x", vec![rows, cols]);
    let y = b.argument("y", vec![rows, cols]);
    b.add(x, y);
    b.finish()
}

/// A single ReLU module.
pub fn relu_module(rows: u64, cols: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("relu_{rows}x{cols}"));
    let x = b.argument("x", vec![rows, cols]);
    b.relu(x);
    b.finish()
}

/// Generates the single-operator training dataset.
///
/// `scale` in `(0, 1]` shrinks every family count proportionally so that the
/// harness can train on a laptop; `scale = 1.0` reproduces the Table II
/// counts (1135 examples).
///
/// # Panics
///
/// Panics if `scale` is not in `(0, 1]`.
pub fn training_dataset(scale: f64, seed: u64) -> Vec<Module> {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for kind in DlOperator::ALL {
        let count = ((kind.paper_training_count() as f64 * scale).round() as usize).max(1);
        for _ in 0..count {
            out.push(random_operator(kind, &mut rng));
        }
    }
    out
}

/// Per-family counts of a dataset generated by [`training_dataset`]
/// (reproduces Table II when `scale = 1.0`).
pub fn dataset_composition(scale: f64) -> Vec<(DlOperator, usize)> {
    DlOperator::ALL
        .iter()
        .map(|k| {
            (
                *k,
                ((k.paper_training_count() as f64 * scale).round() as usize).max(1),
            )
        })
        .collect()
}

/// The evaluation benchmark of Sec. VII-A-2: operator shapes taken from
/// widely used models (ResNet-style), not seen during training. Returns
/// `(family, module)` pairs.
pub fn evaluation_benchmark() -> Vec<(DlOperator, Module)> {
    let mut out = Vec::new();
    // Matmul: classifier and transformer-style projections.
    for (m, n, k) in [(1, 1000, 512), (64, 4096, 1024), (512, 512, 2048)] {
        out.push((DlOperator::Matmul, matmul_module(m, n, k)));
    }
    // Conv2D: ResNet stage shapes.
    for (c, hw, f, k, s) in [(3, 224, 64, 7, 2), (64, 56, 64, 3, 1), (256, 14, 512, 3, 2)] {
        out.push((DlOperator::Conv2D, conv2d_module(1, c, hw, hw, f, k, s)));
    }
    // Max pooling.
    for (c, hw, w, s) in [(64, 112, 3, 2), (256, 28, 2, 2), (512, 14, 2, 2)] {
        out.push((DlOperator::MaxPooling, maxpool_module(1, c, hw, hw, w, s)));
    }
    // Add (residual connections flattened to 2-D).
    for (r, c) in [(256, 3136), (512, 784), (1024, 196)] {
        out.push((DlOperator::MatrixAddition, add_module(r, c)));
    }
    // ReLU.
    for (r, c) in [(64, 12544), (256, 3136), (1024, 196)] {
        out.push((DlOperator::Relu, relu_module(r, c)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_match_table_ii() {
        let total: usize = DlOperator::ALL
            .iter()
            .map(|k| k.paper_training_count())
            .sum();
        assert_eq!(total, 1135);
        assert_eq!(DlOperator::Matmul.paper_training_count(), 187);
        assert_eq!(DlOperator::Conv2D.paper_training_count(), 278);
    }

    #[test]
    fn generated_modules_are_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for kind in DlOperator::ALL {
            for _ in 0..5 {
                let m = random_operator(kind, &mut rng);
                m.validate().unwrap();
                assert_eq!(m.ops().len(), 1);
            }
        }
    }

    #[test]
    fn training_dataset_scales() {
        let small = training_dataset(0.01, 3);
        assert!(small.len() >= 5 && small.len() < 30);
        for m in &small {
            m.validate().unwrap();
        }
        let composition = dataset_composition(1.0);
        let total: usize = composition.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 1135);
    }

    #[test]
    fn training_dataset_is_reproducible() {
        let a = training_dataset(0.02, 9);
        let b = training_dataset(0.02, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name(), y.name());
        }
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        training_dataset(0.0, 0);
    }

    #[test]
    fn evaluation_benchmark_covers_all_families() {
        let bench = evaluation_benchmark();
        for kind in DlOperator::ALL {
            assert!(
                bench.iter().filter(|(k, _)| *k == kind).count() >= 3,
                "family {kind:?} needs at least 3 evaluation shapes"
            );
        }
        for (_, m) in &bench {
            m.validate().unwrap();
        }
    }
}

//! LQCD (Lattice Quantum Chromodynamics) workloads (Sec. VI-B, VII-A-2).
//!
//! LQCD correlator codes are long sequences of deep loop nests (often more
//! than 12 levels) that read and write tensors, with parallel outer loops
//! and reductions in the inner levels (sums over color and spin indices).
//! The paper integrates MLIR RL as a backend of an LQCD DSL compiler and
//! evaluates on three correlator applications of increasing complexity:
//! dibaryon–dibaryon, dibaryon–hexaquark and hexaquark–hexaquark.
//!
//! This module generates structurally equivalent contraction kernels: deep
//! generic operations over a spacetime extent `S`, color extent 3 and spin
//! extent 4, with inner reductions and multiple tensor operands.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_ir::{AffineMap, ArithCounts, IteratorType, Module, ModuleBuilder};

/// Color extent of QCD tensors.
pub const COLOR: u64 = 3;
/// Spin extent of QCD tensors.
pub const SPIN: u64 = 4;

/// Builds one correlator-style contraction: `depth` loops of which the first
/// `parallel_levels` are parallel (spacetime/source indices of extent
/// `spatial_extent`) and the rest are reductions over color/spin indices.
/// The operation reads `num_inputs` tensors, each indexed by a distinct
/// subset of the iterators, and accumulates into a tensor indexed by the
/// parallel iterators.
///
/// # Panics
///
/// Panics if `parallel_levels == 0` or `parallel_levels >= depth`.
pub fn contraction_kernel(
    builder: &mut ModuleBuilder,
    spatial_extent: u64,
    depth: usize,
    parallel_levels: usize,
    num_inputs: usize,
) {
    assert!(parallel_levels > 0, "need at least one parallel level");
    assert!(parallel_levels < depth, "need at least one reduction level");

    // Loop extents: parallel spacetime loops of extent `spatial_extent`,
    // then alternating color/spin reduction loops.
    let mut bounds = Vec::with_capacity(depth);
    let mut iterator_types = Vec::with_capacity(depth);
    for i in 0..depth {
        if i < parallel_levels {
            bounds.push(spatial_extent);
            iterator_types.push(IteratorType::Parallel);
        } else {
            bounds.push(if (i - parallel_levels).is_multiple_of(2) {
                COLOR
            } else {
                SPIN
            });
            iterator_types.push(IteratorType::Reduction);
        }
    }

    // Each input tensor is indexed by a sliding window of iterators so that
    // different inputs share some iterators (creating reuse) but not all.
    let mut inputs = Vec::new();
    let mut maps = Vec::new();
    let rank = (depth / 2).clamp(2, 6);
    for t in 0..num_inputs {
        let start = (t * 2) % (depth - rank + 1);
        let dims: Vec<usize> = (start..start + rank).collect();
        let shape: Vec<u64> = dims.iter().map(|d| bounds[*d]).collect();
        let arg = builder.argument(&format!("prop{t}"), shape);
        inputs.push(arg);
        maps.push(AffineMap::projection(depth, &dims));
    }
    // Output indexed by the parallel iterators.
    let out_dims: Vec<usize> = (0..parallel_levels).collect();
    let out_shape: Vec<u64> = out_dims.iter().map(|d| bounds[*d]).collect();
    maps.push(AffineMap::projection(depth, &out_dims));

    builder.generic(
        inputs,
        bounds,
        iterator_types,
        maps,
        out_shape,
        ArithCounts {
            add: 1,
            mul: num_inputs.max(1) as u32,
            ..Default::default()
        },
    );
}

/// One standalone LQCD training kernel: a module holding a single deep
/// contraction.
pub fn lqcd_kernel(
    spatial_extent: u64,
    depth: usize,
    parallel_levels: usize,
    num_inputs: usize,
) -> Module {
    let mut b = ModuleBuilder::new(format!(
        "lqcd_kernel_s{spatial_extent}_d{depth}_p{parallel_levels}"
    ));
    contraction_kernel(&mut b, spatial_extent, depth, parallel_levels, num_inputs);
    b.finish()
}

/// Generates the LQCD training dataset: shape variants of the seven
/// compiler-test loop-nest patterns (the paper extracts 691 variants).
///
/// `scale` in `(0, 1]` shrinks the count for laptop-scale training.
///
/// # Panics
///
/// Panics if `scale` is not in `(0, 1]`.
pub fn training_dataset(scale: f64, seed: u64) -> Vec<Module> {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let count = ((691.0 * scale).round() as usize).max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // The seven structural patterns (depth, parallel levels, inputs).
    let patterns: [(usize, usize, usize); 7] = [
        (6, 2, 2),
        (8, 2, 3),
        (8, 3, 2),
        (10, 3, 3),
        (10, 4, 4),
        (12, 4, 3),
        (12, 5, 4),
    ];
    (0..count)
        .map(|i| {
            let (depth, parallel, inputs) = patterns[i % patterns.len()];
            let s = [8u64, 12, 16, 24, 32][rng.gen_range(0..5usize)];
            lqcd_kernel(s, depth, parallel, inputs)
        })
        .collect()
}

/// The three LQCD benchmark applications of Table IV. Each is a sequence of
/// correlator contractions of increasing depth and operand count; `S` is the
/// input (spacetime) size used in the paper's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LqcdApplication {
    /// Two two-baryon (six-quark) systems, S = 24.
    DibaryonDibaryon,
    /// A two-baryon system against a six-quark exotic, S = 32.
    DibaryonHexaquark,
    /// Two six-quark states (the heaviest correlators), S = 12.
    HexaquarkHexaquark,
}

impl LqcdApplication {
    /// All applications in the order of Table IV.
    pub const ALL: [LqcdApplication; 3] = [
        LqcdApplication::HexaquarkHexaquark,
        LqcdApplication::DibaryonDibaryon,
        LqcdApplication::DibaryonHexaquark,
    ];

    /// The input size `S` used by the paper.
    pub fn input_size(self) -> u64 {
        match self {
            LqcdApplication::DibaryonDibaryon => 24,
            LqcdApplication::DibaryonHexaquark => 32,
            LqcdApplication::HexaquarkHexaquark => 12,
        }
    }

    /// Display name matching Table IV.
    pub fn name(self) -> &'static str {
        match self {
            LqcdApplication::DibaryonDibaryon => "dibaryon-dibaryon",
            LqcdApplication::DibaryonHexaquark => "dibaryon-hexaquark",
            LqcdApplication::HexaquarkHexaquark => "hexaquark-hexaquark",
        }
    }

    /// Builds the application's module: a sequence of contraction kernels of
    /// increasing depth (the heaviest application has the deepest nests and
    /// the most operands).
    pub fn module(self) -> Module {
        let s = self.input_size();
        let (kernels, max_depth, inputs): (usize, usize, usize) = match self {
            LqcdApplication::DibaryonDibaryon => (6, 10, 3),
            LqcdApplication::DibaryonHexaquark => (8, 11, 4),
            LqcdApplication::HexaquarkHexaquark => (10, 12, 5),
        };
        let mut b = ModuleBuilder::new(self.name());
        for k in 0..kernels {
            let depth = (max_depth - (k % 3)).max(6);
            let parallel = (depth / 3).max(2);
            contraction_kernel(&mut b, s, depth, parallel, inputs);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deep_with_inner_reductions() {
        let m = lqcd_kernel(16, 12, 4, 4);
        m.validate().unwrap();
        let op = &m.ops()[0];
        assert_eq!(op.num_loops(), 12);
        // Four parallel levels, then eight reductions in the inner levels.
        assert_eq!(op.iterator_types[..4], [IteratorType::Parallel; 4]);
        assert_eq!(op.iterator_types[4..], [IteratorType::Reduction; 8]);
    }

    #[test]
    fn training_dataset_has_variants_of_the_seven_patterns() {
        let ds = training_dataset(0.02, 11);
        assert!(ds.len() >= 7);
        for m in &ds {
            m.validate().unwrap();
            assert!(m.ops()[0].num_loops() >= 6);
        }
        let full_count = ((691.0f64 * 1.0).round()) as usize;
        assert_eq!(full_count, 691);
    }

    #[test]
    fn applications_match_table_iv_inputs() {
        assert_eq!(LqcdApplication::DibaryonDibaryon.input_size(), 24);
        assert_eq!(LqcdApplication::DibaryonHexaquark.input_size(), 32);
        assert_eq!(LqcdApplication::HexaquarkHexaquark.input_size(), 12);
        assert_eq!(LqcdApplication::ALL.len(), 3);
    }

    #[test]
    fn application_modules_are_valid_and_ordered_by_complexity() {
        let dd = LqcdApplication::DibaryonDibaryon.module();
        let dh = LqcdApplication::DibaryonHexaquark.module();
        let hh = LqcdApplication::HexaquarkHexaquark.module();
        let depth = |m: &Module| m.ops().iter().map(|op| op.num_loops()).max();
        for m in [&dd, &dh, &hh] {
            m.validate().unwrap();
            assert!(depth(m) >= Some(8));
        }
        // The hexaquark-hexaquark correlators are the heaviest (most
        // kernels, deepest nests).
        assert!(hh.ops().len() > dd.ops().len());
        assert!(depth(&hh) >= depth(&dd));
        // The paper reports these applications span 1000-8000 lines of
        // MLIR; our miniature IR is more compact but still substantial.
        assert!(mlir_rl_ir::printer::print_module(&hh).lines().count() > 50);
    }
}

//! # mlir-rl-workloads
//!
//! Workload and dataset generators for the MLIR RL reproduction:
//!
//! * single deep-learning operators with random shapes (Table II),
//! * random operator sequences of length 5 (Sec. VI-A),
//! * LQCD correlator kernels and the three benchmark applications of
//!   Table IV (Sec. VI-B),
//! * the ResNet-18 / MobileNetV2 / VGG model graphs of Table III and V,
//! * the combined training dataset (3959 examples at full scale).

#![warn(missing_docs)]

pub mod dl_ops;
pub mod lqcd;
pub mod models;
pub mod sequences;

use mlir_rl_ir::Module;

pub use dl_ops::{evaluation_benchmark, DlOperator};
pub use lqcd::LqcdApplication;
pub use models::NeuralNetwork;

/// Assembles the combined training dataset: single DL operators, random DL
/// operator sequences and LQCD kernels. At `scale = 1.0` this matches the
/// paper's 3959 examples (1135 single operators + 2133 sequences + 691 LQCD
/// kernels); smaller scales shrink every part proportionally so the harness
/// can train on one machine.
///
/// # Panics
///
/// Panics if `scale` is not in `(0, 1]`.
pub fn full_training_dataset(scale: f64, seed: u64) -> Vec<Module> {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let mut out = dl_ops::training_dataset(scale, seed);
    let sequences_full = 3959 - 1135 - 691;
    let seq_count = ((sequences_full as f64 * scale).round() as usize).max(1);
    out.extend(sequences::sequence_dataset(seq_count, seed.wrapping_add(1)));
    out.extend(lqcd::training_dataset(scale, seed.wrapping_add(2)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_dataset_scales_to_the_paper_size() {
        // Count without generating everything: the composition adds up.
        let dl: usize = dl_ops::DlOperator::ALL
            .iter()
            .map(|k| k.paper_training_count())
            .sum();
        assert_eq!(dl + 2133 + 691, 3959);
        // A tiny scale still produces a usable mixed dataset.
        let ds = full_training_dataset(0.005, 1);
        assert!(ds.len() >= 8);
        for m in &ds {
            m.validate().unwrap();
        }
    }

    #[test]
    fn last_producer_is_the_latest_producer_on_generated_modules() {
        let mut modules = full_training_dataset(0.02, 7);
        modules.extend(
            NeuralNetwork::ALL
                .iter()
                .map(|n| n.module())
                .chain(LqcdApplication::ALL.iter().map(|a| a.module())),
        );
        let mut with_producer = 0;
        for m in &modules {
            for op in m.op_order() {
                let want = m.producers(op).into_iter().max();
                assert_eq!(m.last_producer(op), want, "{} {op}", m.name());
                with_producer += usize::from(want.is_some());
            }
        }
        assert!(
            with_producer > 100,
            "only {with_producer} ops have a producer"
        );
    }
}

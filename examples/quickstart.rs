//! Quickstart: build a small Linalg module, stand up an `OptimizationService`
//! around a quickly-trained MLIR RL agent, and serve optimization requests
//! against it — then compare with the hand-written baselines.
//!
//! Run with `cargo run --example quickstart`.

use mlir_rl_baselines::{speedup_over_mlir, Baseline, VendorLibrary, VendorMode};
use mlir_rl_core::{MlirRlOptimizer, OptimizationRequest, OptimizerConfig};
use mlir_rl_costmodel::MachineModel;
use mlir_rl_ir::{printer::print_module, ModuleBuilder};
use mlir_rl_search::SearchSpec;

fn main() {
    // The paper's running example: a 256x1024 by 1024x512 matmul followed by
    // a ReLU.
    let mut b = ModuleBuilder::new("quickstart");
    let a = b.argument("A", vec![256, 1024]);
    let w = b.argument("B", vec![1024, 512]);
    let mm = b.matmul(a, w);
    b.relu(mm);
    let module = b.finish();

    println!("--- input module ---\n{}", print_module(&module));

    // Train a quick, laptop-scale policy on the module itself, then hand it
    // to a long-lived service: the deployment surface. The service owns the
    // policy snapshot and one persistent evaluation cache that every
    // request warms for every later request.
    let mut optimizer = MlirRlOptimizer::new(OptimizerConfig::quick());
    optimizer.train(std::slice::from_ref(&module), 4);
    let service = optimizer.spawn_service(2);

    // Submit requests: greedy decoding (the paper's deployment) and a
    // beam-4 search, each fully determined by (module, spec, seed).
    let pending = service.submit_batch(vec![
        OptimizationRequest::new(module.clone(), SearchSpec::Greedy).with_seed(1),
        OptimizationRequest::new(module.clone(), SearchSpec::beam(4)).with_seed(1),
    ]);
    for handle in &pending {
        let response = handle.wait();
        let outcome = response.outcome.as_ref().expect("valid requests complete");
        println!(
            "{:<16} baseline {:.4}s -> optimized {:.4}s  (speedup {:.2}x, {} nodes, {} cache hits, queued {:.1}ms)",
            response.searcher,
            outcome.baseline_s,
            outcome.best_s,
            outcome.speedup,
            outcome.nodes_expanded,
            response.cache_hits,
            response.queue_s * 1e3,
        );
    }
    let stats = service.metrics();
    println!(
        "service: {} requests served, cache hit-rate {:.1}%",
        stats.completed,
        stats.cache_hit_rate() * 100.0
    );

    // Compare against the vendor-library analogue of PyTorch.
    let machine = MachineModel::xeon_e5_2680_v4();
    for mode in [VendorMode::Eager, VendorMode::Compiled] {
        let baseline = VendorLibrary::new(mode);
        let result = baseline.optimize(&module);
        println!(
            "{:<16} speedup over MLIR baseline: {:.2}x",
            baseline.name(),
            speedup_over_mlir(&result, &module, &machine)
        );
    }
}

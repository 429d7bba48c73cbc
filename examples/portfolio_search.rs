//! Portfolio-optimize the DL-operator evaluation workloads through the
//! request/response service API: train a quick policy, spawn an
//! `OptimizationService`, and submit one `SearchSpec::Portfolio` request
//! per workload — the whole roster (greedy decode, beam,
//! progressively-widened MCTS, random) runs per request on the service's
//! one persistent evaluation cache, round-robin first and then racing with
//! a target speedup where the first member past the target ends the roster.
//!
//! Run with `cargo run --release --example portfolio_search`.

use mlir_rl_core::{MlirRlOptimizer, OptimizationRequest, OptimizerConfig};
use mlir_rl_search::{PortfolioMode, SearchSpec};
use mlir_rl_workloads::dl_ops;

fn roster(mode: PortfolioMode) -> SearchSpec {
    SearchSpec::Portfolio {
        members: vec![
            SearchSpec::Greedy,
            SearchSpec::beam(4),
            SearchSpec::Mcts {
                iterations: 48,
                branch: 4,
                widening: Some((1.0, 0.6)),
            },
            SearchSpec::random(24),
        ],
        mode,
        budget: None,
    }
}

fn main() {
    let dataset = dl_ops::training_dataset(0.02, 7);
    let mut optimizer = MlirRlOptimizer::new(OptimizerConfig::quick());
    println!("training on {} single-operator examples ...", dataset.len());
    optimizer.train(&dataset, 6);

    let workloads: Vec<_> = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    let workers = mlir_rl_agent::default_rollout_workers();
    let service = optimizer.spawn_service(workers);
    println!(
        "\nserving {} portfolio requests over {workers} worker(s):\n",
        workloads.len()
    );

    for mode in [
        PortfolioMode::RoundRobin,
        PortfolioMode::Racing {
            target_speedup: 8.0,
        },
    ] {
        let spec = roster(mode);
        let pending = service.submit_batch(
            workloads
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    OptimizationRequest::new(m.clone(), spec.clone()).with_seed(500 + i as u64)
                })
                .collect(),
        );
        let responses = mlir_rl_core::wait_all(&pending);

        // Aggregate speedups and per-member attribution from the
        // responses' portfolio outcomes.
        let geomean = (responses
            .iter()
            .map(|r| r.speedup().max(1e-12).ln())
            .sum::<f64>()
            / responses.len() as f64)
            .exp();
        let evaluations: usize = responses.iter().map(|r| r.evaluations).sum();
        let lookups: usize = responses.iter().map(|r| r.total_lookups()).sum();
        println!(
            "  {:<18} geomean speedup {:>6.2}x | {:>6} cost-model evals | request hit-rate {:>5.1}% | mean service {:>6.1}ms",
            format!("{mode:?}"),
            geomean,
            evaluations,
            100.0 * (lookups - evaluations) as f64 / lookups.max(1) as f64,
            1e3 * responses.iter().map(|r| r.service_s).sum::<f64>() / responses.len() as f64,
        );
        for rank in 0..4 {
            let rows: Vec<_> = responses
                .iter()
                .filter_map(|r| r.outcome.as_ref())
                .filter_map(|o| o.members.iter().find(|m| m.rank == rank))
                .collect();
            println!(
                "    rank {rank} {:<14} wins {:>2}  reached-target {:>2}  evals {:>6}",
                rows.first().map(|m| m.member.as_str()).unwrap_or("-"),
                rows.iter().filter(|m| m.winner).count(),
                rows.iter().filter(|m| m.reached_target).count(),
                rows.iter().map(|m| m.evaluations).sum::<usize>(),
            );
        }
    }
    let stats = service.metrics();
    println!(
        "\nservice lifetime: {} completed requests, shared-cache hit-rate {:.1}%;",
        stats.completed,
        stats.cache_hit_rate() * 100.0
    );
    println!("every member of every request scores schedules through the service's");
    println!("one persistent cache, so requests warm each other up — and racing ends");
    println!("each request's roster at the first member, in rank order, that reaches");
    println!("the target (deterministically — see the service docs).");
}

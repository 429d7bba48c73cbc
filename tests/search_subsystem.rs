//! Cross-crate property tests of the schedule-search subsystem.

use proptest::prelude::*;

use mlir_rl_agent::{PolicyHyperparams, PolicyNetwork};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, OptimizationEnv};
use mlir_rl_ir::{Module, ModuleBuilder};
use mlir_rl_search::{
    BeamSearch, GreedyPolicy, Mcts, RandomSearch, SearchDriver, SearchOutcome, Searcher,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn env() -> OptimizationEnv {
    OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()))
}

fn policy(seed: u64) -> PolicyNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    PolicyNetwork::new(
        EnvConfig::small(),
        PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        },
        &mut rng,
    )
}

fn chain(m: u64, n: u64, k: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("chain_{m}x{n}x{k}"));
    let a = b.argument("A", vec![m, k]);
    let w = b.argument("B", vec![k, n]);
    let mm = b.matmul(a, w);
    b.relu(mm);
    b.finish()
}

/// The seed-determined payload of an outcome: everything except the cache
/// hit/miss split, which legitimately depends on table warmth and thread
/// interleaving.
fn deterministic_fields(o: &SearchOutcome) -> (String, f64, f64, Vec<mlir_rl_env::Action>, usize) {
    (
        o.module.clone(),
        o.best_s,
        o.speedup,
        o.best_actions.clone(),
        o.nodes_expanded,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A width-1 beam expands exactly the greedy action at every step, so
    /// its chosen action sequence, final schedule and final time are
    /// step-for-step identical to greedy policy decoding — for any module
    /// shape and any (untrained) policy initialization.
    #[test]
    fn beam_width_one_is_step_for_step_greedy(
        m in 8u64..256, n in 8u64..256, k in 8u64..256,
        policy_seed in 0u64..1000, search_seed in 0u64..1000,
    ) {
        let module = chain(m, n, k);
        let mut p = policy(policy_seed);
        let mut e1 = env();
        let greedy = GreedyPolicy.search(&mut e1, &mut p, &module, search_seed);
        let mut e2 = env();
        let beam = BeamSearch::new(1).search(&mut e2, &mut p, &module, search_seed);
        prop_assert_eq!(&greedy.best_actions, &beam.best_actions);
        prop_assert_eq!(greedy.best_s, beam.best_s);
        prop_assert_eq!(&greedy.best_schedule, &beam.best_schedule);
        prop_assert_eq!(greedy.speedup, beam.speedup);
    }

    /// MCTS and random search are bit-for-bit deterministic under a fixed
    /// seed for any driver thread count: the shared cache changes only who
    /// computes an estimate, never its value.
    #[test]
    fn mcts_and_random_are_thread_count_invariant(
        policy_seed in 0u64..1000, base_seed in 0u64..1000,
    ) {
        let batch = vec![
            chain(64, 64, 64),
            chain(96, 48, 32),
            chain(32, 128, 64),
            chain(64, 64, 64),
        ];
        let template = env();
        let p = policy(policy_seed);
        for searcher in [
            Box::new(Mcts::new(6).with_branch(2)) as Box<dyn Searcher<PolicyNetwork>>,
            Box::new(RandomSearch::new(3)),
        ] {
            let mut reference: Option<Vec<_>> = None;
            for workers in [1usize, 2, 4] {
                let report = SearchDriver::new(workers)
                    .with_seed(base_seed)
                    .run(&template, &p, searcher.as_ref(), &batch);
                let fields: Vec<_> = report.outcomes.iter().map(deterministic_fields).collect();
                match &reference {
                    None => reference = Some(fields),
                    Some(expected) => prop_assert_eq!(
                        expected,
                        &fields,
                        "{} with {} workers diverged",
                        searcher.name(),
                        workers
                    ),
                }
            }
        }
    }
}

#[test]
fn search_and_rollout_lookup_accounting_use_the_same_invariant() {
    // hits + evaluations == total lookups, for the search outcomes and the
    // environment's episode stats alike (the satellite accounting fix).
    let module = chain(64, 64, 64);
    let mut e = env();
    let mut p = policy(0);
    let outcome = BeamSearch::new(3).search(&mut e, &mut p, &module, 1);
    assert_eq!(
        outcome.total_lookups(),
        outcome.evaluations + outcome.cache_hits
    );
    assert_eq!(
        outcome.total_lookups(),
        (e.lifetime_hits() + e.lifetime_misses()) as usize,
        "outcome accounting must agree with the environment's own counters"
    );
    let stats = e.stats();
    assert_eq!(stats.total_lookups(), stats.evaluations + stats.cache_hits);
}

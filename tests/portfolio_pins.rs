//! Bit pins of racing portfolio outcomes.
//!
//! The serving benchmark's racing roster — greedy decoding, beam-2 and
//! random-8 racing to a 2.0× target — searches every operator of the
//! evaluation benchmark on one warm environment, and the same roster races a
//! matmul chain to a target every member reaches (0.0) and to one nobody
//! reaches (∞). One FNV-1a digest over each outcome's winner rank,
//! `speedup` / `best_s` bits, best actions and schedule, node count and
//! lookup total is pinned as a literal: however the race is executed, it
//! must report these exact outcomes.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::{PolicyHyperparams, PolicyNetwork};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, OptimizationEnv};
use mlir_rl_ir::{Fnv1a, Module, ModuleBuilder};
use mlir_rl_search::{SearchOutcome, SearchSpec, Searcher};
use mlir_rl_workloads::dl_ops;

/// The serving benchmark's policy weight seed.
const WEIGHT_SEED: u64 = 0x6d6c_6972;
const SEARCH_SEED: u64 = 7;

fn racing(target_speedup: f64) -> Box<dyn Searcher<PolicyNetwork>> {
    SearchSpec::racing(
        vec![
            SearchSpec::Greedy,
            SearchSpec::beam(2),
            SearchSpec::random(8),
        ],
        target_speedup,
    )
    .build()
}

fn chain(m: u64, n: u64, k: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("chain_{m}x{n}x{k}"));
    let a = b.argument("A", vec![m, k]);
    let w = b.argument("B", vec![k, n]);
    let mm = b.matmul(a, w);
    b.relu(mm);
    b.finish()
}

fn write_outcome(fnv: &mut Fnv1a, outcome: &SearchOutcome) -> usize {
    let winner = outcome
        .members
        .iter()
        .find(|m| m.winner)
        .expect("a racing outcome names its winner")
        .rank;
    fnv.write(&(winner as u64).to_le_bytes());
    fnv.write(&outcome.speedup.to_bits().to_le_bytes());
    fnv.write(&outcome.best_s.to_bits().to_le_bytes());
    fnv.write(format!("{:?}", outcome.best_actions).as_bytes());
    fnv.write(&[0xff]);
    fnv.write(format!("{:?}", outcome.best_schedule).as_bytes());
    fnv.write(&[0xfe]);
    fnv.write(&(outcome.nodes_expanded as u64).to_le_bytes());
    fnv.write(&(outcome.total_lookups() as u64).to_le_bytes());
    winner
}

#[test]
fn racing_outcomes_are_pinned() {
    let config = EnvConfig::small();
    let mut policy = PolicyNetwork::new(
        config.clone(),
        PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        },
        &mut ChaCha8Rng::seed_from_u64(WEIGHT_SEED),
    );
    let mut env = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
    let mut fnv = Fnv1a::new();

    let race = racing(2.0);
    let mut winners = [0usize; 3];
    for (_, module) in dl_ops::evaluation_benchmark() {
        let outcome = race.search(&mut env, &mut policy, &module, SEARCH_SEED);
        winners[write_outcome(&mut fnv, &outcome)] += 1;
    }

    let module = chain(96, 48, 64);
    let everyone = racing(0.0).search(&mut env, &mut policy, &module, SEARCH_SEED);
    assert_eq!(write_outcome(&mut fnv, &everyone), 0, "rank 0 always wins");
    let nobody = racing(f64::INFINITY).search(&mut env, &mut policy, &module, SEARCH_SEED);
    write_outcome(&mut fnv, &nobody);
    assert!(nobody.members.iter().all(|m| !m.reached_target));

    assert_eq!(winners, [0, 14, 1], "beam-2 wins 14 modules, random-8 one");
    assert_eq!(fnv.finish(), 0xfb3e_2e89_8c80_993c);
}

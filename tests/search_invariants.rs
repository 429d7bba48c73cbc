//! The searcher invariant harness: one table-driven battery that EVERY
//! `Searcher` implementation — present and future — is run through.
//!
//! The contract the battery enforces (add new searchers to `roster()` and
//! they inherit it):
//!
//! 1. **Same-seed reproducibility**: two searches from identical fresh
//!    state are bit-for-bit identical, portfolio member rows included.
//! 2. **Lookup accounting**: `evaluations + cache_hits == total_lookups`,
//!    and the outcome's delta agrees with the environment cache's own
//!    counters.
//! 3. **Greedy floor**: searchers seeded with the greedy trajectory
//!    (beam, portfolios containing greedy) never report a worse speedup
//!    than greedy decoding under the same seed.
//! 4. **Snapshot hygiene**: running any searcher on an environment does
//!    not poison it — a snapshot taken before the search restores to a
//!    bitwise-identical mid-episode state afterwards.
//! 5. **Observations stay lists**: no searcher asks an observation for its
//!    dense view on the way to or from the policy.
//! 6. **The embedding memo is invisible**: a policy whose LSTM prefix memo
//!    is dropped before every inference call searches bit-identically to
//!    one that keeps it.
//! 7. **The live episode does not leak in**: a search on an environment
//!    holding an equal module in another allocation, another module, or
//!    another module's restored snapshot matches a fresh environment's.

use proptest::prelude::*;

use mlir_rl_agent::{ActionRecord, PolicyHyperparams, PolicyModel, PolicyNetwork};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, Observation, ObservationBatch, OptimizationEnv};
use mlir_rl_ir::{Module, ModuleBuilder};
use mlir_rl_obs::TraceRecorder;
use mlir_rl_search::{
    random_action, BeamSearch, GreedyPolicy, Mcts, MemberStatus, Portfolio, RandomSearch,
    SearchDriver, SearchOutcome, Searcher,
};
use mlir_rl_workloads::sequences::{random_sequence, SEQUENCE_LENGTH};
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

/// One roster entry: the searcher plus which battery clauses apply to it.
struct Entry<P: PolicyModel = PolicyNetwork> {
    searcher: Box<dyn Searcher<P>>,
    /// Seeded with the greedy trajectory: must be `>=` greedy decoding.
    greedy_seeded: bool,
}

fn entry<P: PolicyModel>(searcher: impl Searcher<P> + 'static, greedy_seeded: bool) -> Entry<P> {
    Entry {
        searcher: Box::new(searcher),
        greedy_seeded,
    }
}

/// Every `Searcher` implementation, in one table. New searchers go here.
/// Generic over the policy so a clause can run the table with a checking
/// wrapper around the network.
fn roster<P: PolicyModel + 'static>() -> Vec<Entry<P>> {
    vec![
        entry(GreedyPolicy, true),
        entry(BeamSearch::new(1), true),
        entry(BeamSearch::new(4), true),
        entry(Mcts::new(8).with_branch(3), false),
        entry(
            Mcts::new(8)
                .with_branch(4)
                .with_progressive_widening(1.0, 0.6),
            false,
        ),
        entry(RandomSearch::new(3), false),
        entry(
            Portfolio::round_robin()
                .with_member(GreedyPolicy)
                .with_member(BeamSearch::new(2))
                .with_member(Mcts::new(6).with_branch(2)),
            true,
        ),
        entry(
            Portfolio::round_robin()
                .with_member(GreedyPolicy)
                .with_member(BeamSearch::new(2))
                .with_budget(40),
            true,
        ),
        entry(
            Portfolio::racing(2.0)
                .with_member(GreedyPolicy)
                .with_member(BeamSearch::new(2))
                .with_member(RandomSearch::new(2)),
            true,
        ),
    ]
}

/// One portfolio member row's seed-determined fields: rank, status,
/// winner, reached target, speedup bits and nodes expanded.
type MemberFields = (usize, MemberStatus, bool, bool, u64, usize);

/// The seed-determined payload of an outcome: everything except the cache
/// hit/miss split (warmth-dependent).
fn deterministic_fields(
    o: &SearchOutcome,
) -> (
    String,
    u64,
    u64,
    Vec<mlir_rl_env::Action>,
    usize,
    usize,
    Vec<MemberFields>,
) {
    (
        o.module.clone(),
        o.best_s.to_bits(),
        o.speedup.to_bits(),
        o.best_actions.clone(),
        o.nodes_expanded,
        o.total_lookups(),
        o.members
            .iter()
            .map(|m| {
                (
                    m.rank,
                    m.status,
                    m.winner,
                    m.reached_target,
                    m.speedup.to_bits(),
                    m.nodes_expanded,
                )
            })
            .collect(),
    )
}

#[test]
fn battery_same_seed_searches_are_reproducible() {
    let module = chain(96, 48, 64);
    for e in roster() {
        let mut p = policy(3);
        let (mut e1, mut e2) = (env(), env());
        let a = e.searcher.search(&mut e1, &mut p, &module, 17);
        let b = e.searcher.search(&mut e2, &mut p, &module, 17);
        assert_eq!(
            deterministic_fields(&a),
            deterministic_fields(&b),
            "{} must reproduce bit-for-bit under the same seed",
            e.searcher.name()
        );
        assert_eq!(a.best_schedule, b.best_schedule, "{}", e.searcher.name());
        // Identical fresh state reproduces even the hit/miss split.
        assert_eq!(a.evaluations, b.evaluations, "{}", e.searcher.name());
        assert_eq!(a.cache_hits, b.cache_hits, "{}", e.searcher.name());
    }
}

#[test]
fn battery_probe_enabled_runs_are_bitwise_identical_to_disabled() {
    // Attaching a trace probe must be purely observational: for every
    // roster searcher, a probed run is bit-for-bit the unprobed run —
    // emission never touches RNG state, lookup order or control flow —
    // and the probe actually captures phase events with the right trace
    // id.
    let module = chain(96, 48, 64);
    for e in roster() {
        let mut p = policy(3);
        let (mut plain_env, mut probed_env) = (env(), env());
        let recorder = TraceRecorder::new(4096, 1);
        probed_env.set_probe(recorder.probe(0).with_trace(7));
        let plain = e.searcher.search(&mut plain_env, &mut p, &module, 17);
        let probed = e.searcher.search(&mut probed_env, &mut p, &module, 17);
        assert_eq!(
            deterministic_fields(&plain),
            deterministic_fields(&probed),
            "{} with a probe attached must match the probe-free run bit-for-bit",
            e.searcher.name()
        );
        assert_eq!(
            plain.best_schedule,
            probed.best_schedule,
            "{}",
            e.searcher.name()
        );
        assert_eq!(
            plain.evaluations,
            probed.evaluations,
            "{}",
            e.searcher.name()
        );
        assert_eq!(plain.cache_hits, probed.cache_hits, "{}", e.searcher.name());
        let snapshot = recorder.snapshot();
        assert!(
            !snapshot.events.is_empty(),
            "{} must emit phase events through the probe",
            e.searcher.name()
        );
        assert!(
            snapshot.events.iter().all(|event| event.trace_id == 7),
            "{} events must carry the scoped trace id",
            e.searcher.name()
        );
    }
}

#[test]
fn battery_lookup_accounting_is_consistent() {
    let module = chain(64, 64, 64);
    for e in roster() {
        let mut environment = env();
        let mut p = policy(5);
        let outcome = e.searcher.search(&mut environment, &mut p, &module, 23);
        assert_eq!(
            outcome.total_lookups(),
            outcome.evaluations + outcome.cache_hits,
            "{}",
            e.searcher.name()
        );
        assert!(outcome.speedup.is_finite() && outcome.speedup > 0.0);
        assert!(outcome.baseline_s > 0.0 && outcome.best_s > 0.0);
        assert!(!outcome.best_schedule.is_empty(), "{}", e.searcher.name());
        // The outcome's delta accounting agrees with the environment's own
        // counters.
        assert_eq!(
            outcome.total_lookups(),
            (environment.lifetime_hits() + environment.lifetime_misses()) as usize,
            "{} outcome accounting must agree with the env cache",
            e.searcher.name()
        );
    }
}

#[test]
fn battery_greedy_seeded_searchers_respect_the_greedy_floor() {
    for (seed, module) in [chain(64, 64, 64), chain(128, 64, 32), chain(96, 48, 64)]
        .into_iter()
        .enumerate()
    {
        let mut p = policy(7);
        let greedy = GreedyPolicy.search(&mut env(), &mut p, &module, seed as u64);
        for e in roster() {
            if !e.greedy_seeded {
                continue;
            }
            let outcome = e.searcher.search(&mut env(), &mut p, &module, seed as u64);
            assert!(
                outcome.speedup >= greedy.speedup,
                "{} ({}) must be >= greedy ({}) on {}",
                e.searcher.name(),
                outcome.speedup,
                greedy.speedup,
                module.name()
            );
        }
    }
}

#[test]
fn battery_searches_leave_snapshots_restorable() {
    let probe = chain(64, 64, 64);
    let other = chain(96, 48, 32);
    for e in roster() {
        let mut environment = env();
        let mut p = policy(9);
        // Drive a fresh episode a few steps in and snapshot it.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut obs = environment.reset(probe.clone());
        for _ in 0..2 {
            if let Some(current) = obs.clone() {
                let action = random_action(&current.mask, &environment.config().clone(), &mut rng);
                environment.step(&action);
                obs = environment.current_observation();
            }
        }
        let snapshot = environment.snapshot();
        let expect_obs = environment.current_observation();
        let expect_scheduled = environment.scheduled().cloned();
        let expect_peek = environment.peek_time_s();
        // A full search on a different module tramples the episode state…
        let _ = e.searcher.search(&mut environment, &mut p, &other, 31);
        // …but restoring the snapshot brings back the exact branch point.
        environment.restore(&snapshot);
        assert_eq!(
            environment.current_observation(),
            expect_obs,
            "{} must not corrupt restored observations",
            e.searcher.name()
        );
        assert_eq!(
            environment.scheduled().cloned(),
            expect_scheduled,
            "{} must not corrupt restored schedule state",
            e.searcher.name()
        );
        assert_eq!(
            environment.peek_time_s().to_bits(),
            expect_peek.to_bits(),
            "{} must not corrupt restored cost estimates",
            e.searcher.name()
        );
    }
}

/// An environment whose live episode is the one `start` names: an equal
/// copy of `module` in its own allocation, `other`, or a restored snapshot
/// of `other` (taken before an episode on `module`).
fn env_holding(start: usize, module: &Module, other: &Module) -> OptimizationEnv {
    let mut environment = env();
    let walk = |environment: &mut OptimizationEnv, m: &Module| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut obs = environment.reset(m.clone());
        for _ in 0..2 {
            if let Some(current) = obs {
                let action = random_action(&current.mask, &environment.config().clone(), &mut rng);
                environment.step(&action);
                obs = environment.current_observation();
            }
        }
    };
    match start {
        0 => walk(&mut environment, module),
        1 => walk(&mut environment, other),
        _ => {
            walk(&mut environment, other);
            let snapshot = environment.snapshot();
            walk(&mut environment, module);
            environment.restore(&snapshot);
        }
    }
    environment
}

#[test]
fn battery_the_live_episode_does_not_leak_into_a_search() {
    // A search copies its module once and its resets keep the fingerprint
    // and visit order while the live episode holds that copy. Whatever the
    // environment held before — an equal module elsewhere in memory,
    // another module, another module's restored snapshot — the outcome is
    // a fresh environment's.
    let module = chain(96, 48, 64);
    // One op where `module` has two, so a stale visit order shows.
    let mut b = ModuleBuilder::new("lone_matmul");
    let a = b.argument("A", vec![64, 128]);
    let w = b.argument("B", vec![128, 32]);
    b.matmul(a, w);
    let other = b.finish();
    for e in roster() {
        let fresh = e.searcher.search(&mut env(), &mut policy(3), &module, 17);
        for start in 0..3 {
            let mut environment = env_holding(start, &module, &other);
            let outcome = e
                .searcher
                .search(&mut environment, &mut policy(3), &module, 17);
            let name = e.searcher.name();
            assert_eq!(
                deterministic_fields(&outcome),
                deterministic_fields(&fresh),
                "{name}, start {start}"
            );
            assert_eq!(outcome.baseline_s.to_bits(), fresh.baseline_s.to_bits());
            assert_eq!(outcome.best_schedule, fresh.best_schedule, "{name}");
        }
    }
}

#[test]
fn battery_tiny_cache_eviction_is_invisible_to_every_searcher() {
    // Storage-tier invariant: a deliberately starved shared cache forces
    // entry-wise eviction under every roster searcher, yet the
    // seed-determined outcome fields stay bit-identical to the roomy
    // default environment — eviction only re-runs the deterministic
    // estimator. (The hit/miss *split* legitimately shifts: an evicted
    // entry's comeback is a miss.)
    use mlir_rl_costmodel::SharedEvalCache;
    let module = chain(96, 48, 64);
    let tiny_backend = SharedEvalCache::new(32);
    let mut evictions_seen = 0;
    for e in roster() {
        let mut p = policy(3);
        let (mut roomy_env, mut tiny_env) = (env(), env());
        tiny_env.replace_cache(tiny_backend.clone());
        let roomy = e.searcher.search(&mut roomy_env, &mut p, &module, 17);
        let tiny = e.searcher.search(&mut tiny_env, &mut p, &module, 17);
        assert_eq!(
            deterministic_fields(&roomy),
            deterministic_fields(&tiny),
            "{} must be bit-identical under a tiny evicting cache",
            e.searcher.name()
        );
        assert_eq!(
            roomy.best_schedule,
            tiny.best_schedule,
            "{}",
            e.searcher.name()
        );
        assert!(
            tiny_backend.len() <= 32,
            "{} overflowed the global capacity bound",
            e.searcher.name()
        );
        evictions_seen = tiny_backend.evictions();
    }
    assert!(
        evictions_seen > 0,
        "the 32-entry cache never evicted across the whole roster"
    );
}

#[test]
fn single_member_round_robin_portfolio_is_bitwise_the_member() {
    // Satellite invariant: wrapping one searcher in a portfolio changes
    // nothing but the outcome's searcher label and attribution rows.
    let module = chain(96, 64, 48);
    let members: Vec<(&str, Box<dyn Searcher<PolicyNetwork>>)> = vec![
        ("greedy", Box::new(GreedyPolicy)),
        ("beam", Box::new(BeamSearch::new(3))),
        ("mcts", Box::new(Mcts::new(6).with_branch(2))),
        ("random", Box::new(RandomSearch::new(2))),
    ];
    for (label, member) in members {
        let mut p = policy(11);
        let alone = member.search(&mut env(), &mut p, &module, 13);
        let wrapped = Portfolio::round_robin().with_boxed_member(member).search(
            &mut env(),
            &mut p,
            &module,
            13,
        );
        assert_eq!(alone.module, wrapped.module, "{label}");
        assert_eq!(alone.baseline_s.to_bits(), wrapped.baseline_s.to_bits());
        assert_eq!(alone.best_s.to_bits(), wrapped.best_s.to_bits(), "{label}");
        assert_eq!(alone.speedup.to_bits(), wrapped.speedup.to_bits());
        assert_eq!(alone.best_actions, wrapped.best_actions, "{label}");
        assert_eq!(alone.best_schedule, wrapped.best_schedule, "{label}");
        assert_eq!(alone.nodes_expanded, wrapped.nodes_expanded, "{label}");
        assert_eq!(alone.evaluations, wrapped.evaluations, "{label}");
        assert_eq!(alone.cache_hits, wrapped.cache_hits, "{label}");
        assert_eq!(wrapped.members.len(), 1);
        assert!(wrapped.members[0].winner);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Battery clause 1 as a property: reproducibility holds for every
    /// roster searcher over arbitrary module shapes, seeds and budgets
    /// (the budget scales the searchers' iteration/width/episode knobs and
    /// the portfolio's lookup ledger).
    #[test]
    fn prop_reproducibility_over_module_seed_and_budget(
        m in 8u64..192, n in 8u64..192, k in 8u64..192,
        seed in 0u64..1000, budget in 1usize..6,
    ) {
        let module = chain(m, n, k);
        let searchers: Vec<Box<dyn Searcher<PolicyNetwork>>> = vec![
            Box::new(BeamSearch::new(budget)),
            Box::new(Mcts::new(budget * 3).with_branch(2).with_progressive_widening(1.0, 0.5)),
            Box::new(RandomSearch::new(budget)),
            Box::new(
                Portfolio::round_robin()
                    .with_member(GreedyPolicy)
                    .with_member(BeamSearch::new(2))
                    .with_budget(40 * budget as u64),
            ),
        ];
        for searcher in searchers {
            let mut p = policy(seed ^ 0xabcd);
            let (mut e1, mut e2) = (env(), env());
            let a = searcher.search(&mut e1, &mut p, &module, seed);
            let b = searcher.search(&mut e2, &mut p, &module, seed);
            prop_assert_eq!(
                deterministic_fields(&a),
                deterministic_fields(&b),
                "{} diverged",
                searcher.name()
            );
        }
    }

    /// Battery clause 4 as a property: snapshot/restore round-trips are
    /// bitwise lossless at every depth of a random episode.
    #[test]
    fn prop_snapshot_restore_is_bitwise_lossless(
        m in 8u64..192, n in 8u64..192, k in 8u64..192,
        seed in 0u64..1000, steps in 0usize..5,
    ) {
        let module = chain(m, n, k);
        let mut environment = env();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = environment.config().clone();
        let mut obs = environment.reset(module);
        for _ in 0..steps {
            if let Some(current) = obs.clone() {
                let action = random_action(&current.mask, &config, &mut rng);
                environment.step(&action);
                obs = environment.current_observation();
            }
        }
        let snapshot = environment.snapshot();
        let expect_obs = environment.current_observation();
        let expect_scheduled = environment.scheduled().cloned();
        let expect_peek = environment.peek_time_s();
        // Wander off the branch point, then come back.
        if let Some(mask) = environment.current_mask() {
            let action = random_action(&mask, &config, &mut rng);
            environment.step(&action);
        }
        environment.restore(&snapshot);
        prop_assert_eq!(environment.current_observation(), expect_obs);
        prop_assert_eq!(environment.scheduled().cloned(), expect_scheduled);
        prop_assert_eq!(environment.peek_time_s().to_bits(), expect_peek.to_bits());
    }

    /// Satellite invariant: a single-member round-robin portfolio is
    /// outcome-bitwise-identical to the member alone, for any seed.
    #[test]
    fn prop_single_member_portfolio_identity(
        policy_seed in 0u64..1000, seed in 0u64..1000, width in 1usize..4,
    ) {
        let module = chain(64, 96, 32);
        let mut p = policy(policy_seed);
        let alone = BeamSearch::new(width).search(&mut env(), &mut p, &module, seed);
        let wrapped = Portfolio::round_robin()
            .with_member(BeamSearch::new(width))
            .search(&mut env(), &mut p, &module, seed);
        prop_assert_eq!(alone.best_s.to_bits(), wrapped.best_s.to_bits());
        prop_assert_eq!(alone.speedup.to_bits(), wrapped.speedup.to_bits());
        prop_assert_eq!(&alone.best_actions, &wrapped.best_actions);
        prop_assert_eq!(&alone.best_schedule, &wrapped.best_schedule);
        prop_assert_eq!(alone.nodes_expanded, wrapped.nodes_expanded);
        prop_assert_eq!(alone.evaluations, wrapped.evaluations);
        prop_assert_eq!(alone.cache_hits, wrapped.cache_hits);
    }

    /// Satellite invariant: racing-mode results are worker-count invariant
    /// under a fixed seed — through the batch driver, for 1/2/4 workers.
    #[test]
    fn prop_racing_portfolio_is_worker_count_invariant(
        policy_seed in 0u64..1000, base_seed in 0u64..1000, target in 1.0f64..8.0,
    ) {
        let batch = vec![
            chain(64, 64, 64),
            chain(96, 48, 32),
            chain(32, 128, 64),
            chain(64, 64, 64),
        ];
        let template = env();
        let p = policy(policy_seed);
        let race = Portfolio::racing(target)
            .with_member(GreedyPolicy)
            .with_member(BeamSearch::new(2))
            .with_member(Mcts::new(6).with_branch(2));
        let mut reference: Option<Vec<_>> = None;
        for workers in [1usize, 2, 4] {
            let report = SearchDriver::new(workers)
                .with_seed(base_seed)
                .run(&template, &p, &race, &batch);
            let fields: Vec<_> = report.outcomes.iter().map(deterministic_fields).collect();
            match &reference {
                None => reference = Some(fields),
                Some(expected) => prop_assert_eq!(
                    expected,
                    &fields,
                    "racing portfolio with {} workers diverged",
                    workers
                ),
            }
        }
    }
}

/// A policy network that fails the test when an observation reaches it, or
/// leaves it, holding a dense view: observations are lists of non-zeros,
/// and at paper width a dense view per search node is 26 KB nobody reads.
#[derive(Clone)]
struct DenseFree {
    network: PolicyNetwork,
    observations_seen: usize,
}

impl DenseFree {
    fn check(&mut self, observations: &[&Observation]) {
        for obs in observations {
            assert!(
                !obs.consumer.is_materialized() && !obs.producer.is_materialized(),
                "an observation on the search path holds a dense view"
            );
        }
        self.observations_seen += observations.len();
    }
}

impl PolicyModel for DenseFree {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        let record = self.network.select_action(obs, greedy, rng);
        self.check(&[obs]);
        record
    }
    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        self.network.evaluate_batch(batch, items)
    }
    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        self.network.backward_batch(items, coeffs);
    }
    fn zero_grad(&mut self) {
        self.network.zero_grad();
    }
    fn parameters_mut(&mut self) -> Vec<&mut mlir_rl_nn::Param> {
        self.network.parameters_mut()
    }
    fn rank_actions(
        &mut self,
        obs: &Observation,
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<ActionRecord> {
        let ranked = self.network.rank_actions(obs, k, rng);
        self.check(&[obs]);
        ranked
    }
    fn rank_actions_batch(
        &mut self,
        observations: &[&Observation],
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<ActionRecord>> {
        let ranked = self.network.rank_actions_batch(observations, k, rng);
        self.check(observations);
        ranked
    }
}

#[test]
fn battery_no_searcher_materialises_a_dense_observation() {
    let module = chain(96, 48, 64);
    let mut policy_backed = 0;
    for e in roster::<DenseFree>() {
        let mut p = DenseFree {
            network: policy(3),
            observations_seen: 0,
        };
        let outcome = e.searcher.search(&mut env(), &mut p, &module, 17);
        assert!(outcome.nodes_expanded > 0, "{}", e.searcher.name());
        policy_backed += usize::from(p.observations_seen > 0);
    }
    // Not vacuous: all but `RandomSearch` put observations through this
    // instance.
    assert!(policy_backed >= 8, "only {policy_backed} searchers checked");
}

/// A policy network that drops its embedding LSTM's prefix memo before
/// every inference call: `parameters_mut()`, the door every weight write
/// passes through, clears it, so every batch-1 call runs the producer step.
#[derive(Clone)]
struct MemoCleared(PolicyNetwork);

impl PolicyModel for MemoCleared {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        self.0.parameters_mut();
        self.0.select_action(obs, greedy, rng)
    }
    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        self.0.evaluate_batch(batch, items)
    }
    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        self.0.backward_batch(items, coeffs);
    }
    fn zero_grad(&mut self) {
        self.0.zero_grad();
    }
    fn parameters_mut(&mut self) -> Vec<&mut mlir_rl_nn::Param> {
        self.0.parameters_mut()
    }
    fn rank_actions(
        &mut self,
        obs: &Observation,
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<ActionRecord> {
        self.0.parameters_mut();
        self.0.rank_actions(obs, k, rng)
    }
    fn rank_actions_batch(
        &mut self,
        observations: &[&Observation],
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<ActionRecord>> {
        self.0.parameters_mut();
        self.0.rank_actions_batch(observations, k, rng)
    }
}

#[test]
fn battery_the_embedding_memo_is_invisible_to_every_searcher() {
    // A two-op chain and a five-op sequence: producers repeat on every
    // step of one consumer and change between consumers.
    let sequence = random_sequence(SEQUENCE_LENGTH, &mut ChaCha8Rng::seed_from_u64(8));
    for module in [chain(96, 48, 64), sequence] {
        for (kept, cleared) in roster::<PolicyNetwork>()
            .into_iter()
            .zip(roster::<MemoCleared>())
        {
            let name = kept.searcher.name();
            let mut p = policy(3);
            let mut q = MemoCleared(policy(3));
            let a = kept.searcher.search(&mut env(), &mut p, &module, 17);
            let b = cleared.searcher.search(&mut env(), &mut q, &module, 17);
            assert_eq!(
                deterministic_fields(&a),
                deterministic_fields(&b),
                "{name} must not see the memo on {}",
                module.name()
            );
            assert_eq!(a.best_schedule, b.best_schedule, "{name}");
            assert_eq!(a.evaluations, b.evaluations, "{name}");
            assert_eq!(a.cache_hits, b.cache_hits, "{name}");
        }
    }
}

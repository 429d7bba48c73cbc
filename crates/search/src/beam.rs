//! Beam search with policy-ranked expansion and cost-model scoring.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::PolicyModel;
use mlir_rl_env::{Action, EpisodeSnapshot, Observation, OptimizationEnv};
use mlir_rl_ir::Module;
use mlir_rl_obs::EventKind;

use crate::greedy::greedy_rollout;
use crate::searcher::{
    finish_outcome, max_episode_steps, reseed_for_search, BestFound, LookupMeter, SearchOutcome,
    Searcher, StopToken,
};

/// Beam search over the schedule space.
///
/// At every step the **whole frontier** is ranked through one
/// [`PolicyModel::rank_actions_batch`] call: per state, the greedy action
/// first, then sampled candidates by descending log-probability, from one
/// batch-1 forward pass per state (not per draw), which keeps the
/// embedding LSTM's producer memo and computes only the heads a draw
/// reads — faster per state than one batched pass over the frontier, which
/// keeps neither. Children are scored with the cost model through the
/// shared evaluation cache, and the best `width` children (lowest
/// estimated time) survive. The search is seeded with the
/// plain greedy trajectory, so the outcome is **never worse than
/// [`crate::GreedyPolicy`]**, and with `width == 1` the expansion is
/// exactly the greedy action at every step — step-for-step identical to
/// greedy decoding (property-tested).
///
/// The per-call RNG contract: each `rank_actions_batch` call consumes
/// exactly the draws its oversampled ranking needs, in frontier order, and
/// nothing in between — the draws of ranking each state on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeamSearch {
    /// Beam width: surviving states per step *and* candidate actions ranked
    /// per expansion.
    pub width: usize,
}

impl BeamSearch {
    /// Creates a beam search with the given width (clamped to at least 1).
    pub fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
        }
    }
}

impl Default for BeamSearch {
    fn default() -> Self {
        Self::new(4)
    }
}

/// A live (not yet terminal) state of the beam. Terminal children are
/// folded straight into the best-so-far instead of occupying beam slots.
struct BeamState {
    snapshot: EpisodeSnapshot,
    actions: Vec<Action>,
    /// Estimated time of the state's schedule (lower is better).
    score: f64,
}

impl<P: PolicyModel> Searcher<P> for BeamSearch {
    fn name(&self) -> String {
        format!("beam-{}", self.width)
    }

    /// The search body. `stop` is checked between depths: once it fires
    /// the search ends with the best schedule found so far (never worse
    /// than the greedy seed); a fresh token never fires.
    fn search_with_stop(
        &self,
        env: &mut OptimizationEnv,
        policy: &mut P,
        module: &Module,
        seed: u64,
        stop: &StopToken,
    ) -> SearchOutcome {
        let module = Arc::new(module.clone());
        let meter = LookupMeter::start(env);
        reseed_for_search(env, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut nodes = 0usize;

        // Seed: the pure greedy trajectory. This pins the floor of the
        // search at greedy decoding even if the greedy path is later pruned
        // out of the beam.
        let rollout = greedy_rollout(env, policy, &module, &mut rng);
        let baseline_s = rollout.baseline_s;
        let mut best_s = rollout.final_s;
        let mut best_actions = rollout.actions;
        nodes += rollout.steps;

        // Root of the beam: a fresh episode (cache-hot after the seed).
        let obs = env.reset(Arc::clone(&module));
        let mut beams = if obs.is_some() {
            vec![BeamState {
                snapshot: env.snapshot(),
                actions: Vec::new(),
                score: env.peek_time_s(),
            }]
        } else {
            Vec::new()
        };

        let max_depth = max_episode_steps(env, &module);
        let probe = env.probe().clone();
        for depth in 0..max_depth {
            if beams.is_empty() || stop.stops() {
                break;
            }
            probe.emit(
                EventKind::BeamDepth,
                None,
                [depth as u64, beams.len() as u64, 0],
            );
            // Rank the whole frontier in one call. The policy RNG is
            // consumed per state in beam order and the environment steps
            // run afterwards in the same order as the historical
            // per-state loop, so outcomes are bit-identical.
            let frontier: Vec<Observation> = beams
                .iter()
                .map(|beam| {
                    env.restore(&beam.snapshot);
                    env.current_observation()
                        .expect("live beam state has an observation")
                })
                .collect();
            let frontier_refs: Vec<&Observation> = frontier.iter().collect();
            let ranked = policy.rank_actions_batch(&frontier_refs, self.width, &mut rng);

            let mut children = Vec::new();
            for (beam, records) in beams.iter().zip(ranked) {
                for record in records {
                    env.restore(&beam.snapshot);
                    let outcome = env.step(&record.action);
                    nodes += 1;
                    let score = env.peek_time_s();
                    let mut actions = beam.actions.clone();
                    actions.push(record.action);
                    if outcome.done {
                        // Terminal child: a complete schedule. Fold it into
                        // the best-so-far; it needs no beam slot (there is
                        // nothing left to expand from it).
                        if score < best_s {
                            best_s = score;
                            best_actions = actions;
                        }
                    } else {
                        children.push(BeamState {
                            snapshot: env.snapshot(),
                            actions,
                            score,
                        });
                    }
                }
            }
            // Keep the `width` most promising live states.
            children.sort_by(|a, b| {
                a.score
                    .partial_cmp(&b.score)
                    .expect("estimated times are finite")
            });
            children.truncate(self.width);
            beams = children;
        }

        finish_outcome(
            Searcher::<P>::name(self),
            env,
            &module,
            &meter,
            baseline_s,
            BestFound {
                time_s: best_s,
                actions: best_actions,
            },
            nodes,
        )
    }
}

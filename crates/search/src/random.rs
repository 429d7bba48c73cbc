//! Budgeted uniform-random search — the policy-free baseline.

use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::PolicyModel;
use mlir_rl_env::{
    num_enumerated_candidates, Action, ActionMask, EnvConfig, InterchangeMode, InterchangeSpec,
    OptimizationEnv,
};
use mlir_rl_ir::Module;
use mlir_rl_obs::EventKind;
use mlir_rl_transforms::TransformationKind;

use crate::searcher::{
    finish_outcome, reseed_for_search, BestFound, LookupMeter, SearchOutcome, Searcher, StopToken,
};

/// Uniform-random search over the *masked* action space: `episodes` full
/// episodes of random legal actions, keeping the fastest final schedule.
/// The floor is the untransformed baseline (speedup ≥ 1), and the point of
/// the searcher is to quantify how much of the other searchers' gains come
/// from the policy rather than from raw evaluation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomSearch {
    /// Number of random episodes to roll out.
    pub episodes: usize,
}

impl RandomSearch {
    /// Creates a random search with the given episode budget (at least 1).
    pub fn new(episodes: usize) -> Self {
        Self {
            episodes: episodes.max(1),
        }
    }
}

impl Default for RandomSearch {
    fn default() -> Self {
        Self::new(32)
    }
}

/// Draws one of the `true` entries of `allowed` uniformly: one `gen_range`
/// over their count, and no draw at all when there are none.
fn draw_allowed(allowed: &[bool], rng: &mut ChaCha8Rng) -> Option<usize> {
    let count = allowed.iter().filter(|a| **a).count();
    if count == 0 {
        return None;
    }
    let k = rng.gen_range(0..count);
    (0..allowed.len()).filter(|i| allowed[*i]).nth(k)
}

/// Samples a uniform-random action among those the mask allows: a kind,
/// then per loop level a tile candidate from that level's row (the mask's
/// [`ActionMask::num_loops`] rows), or an interchange drawn over every
/// candidate or permutation. The mask is all it reads, so a caller takes it
/// from [`OptimizationEnv::current_mask`] without extracting features (or
/// from an observation it already holds); the draws are the same either
/// way.
pub fn random_action(mask: &ActionMask, config: &EnvConfig, rng: &mut ChaCha8Rng) -> Action {
    let num_loops = mask.num_loops();
    let kind = draw_allowed(&mask.transformation, rng).map_or(
        TransformationKind::NoTransformation,
        TransformationKind::from_index,
    );
    let random_tiles = |rng: &mut ChaCha8Rng| -> Vec<usize> {
        (0..num_loops)
            .map(|level| draw_allowed(mask.tile_row(level), rng).unwrap_or(0))
            .collect()
    };
    match kind {
        TransformationKind::Tiling => Action::Tiling {
            tile_indices: random_tiles(rng),
        },
        TransformationKind::TiledParallelization => Action::TiledParallelization {
            tile_indices: random_tiles(rng),
        },
        TransformationKind::TiledFusion => Action::TiledFusion {
            tile_indices: random_tiles(rng),
        },
        TransformationKind::Interchange => match config.interchange_mode {
            // Every candidate is legal once interchange is.
            InterchangeMode::EnumeratedCandidates => {
                let candidates = num_enumerated_candidates(num_loops).max(1);
                Action::Interchange(InterchangeSpec::Candidate(rng.gen_range(0..candidates)))
            }
            InterchangeMode::LevelPointers => {
                let mut permutation: Vec<usize> = (0..num_loops).collect();
                permutation.shuffle(rng);
                Action::Interchange(InterchangeSpec::Permutation(permutation))
            }
        },
        TransformationKind::Vectorization => Action::Vectorization,
        TransformationKind::NoTransformation => Action::NoTransformation,
    }
}

impl<P: PolicyModel> Searcher<P> for RandomSearch {
    fn name(&self) -> String {
        format!("random-{}", self.episodes)
    }

    /// The search body. `stop` is checked between episodes: once it fires
    /// the search ends with the best schedule found so far; a fresh token
    /// never fires. The first episode always runs (it scores the baseline
    /// the outcome is reported against).
    fn search_with_stop(
        &self,
        env: &mut OptimizationEnv,
        policy: &mut P,
        module: &Module,
        seed: u64,
        stop: &StopToken,
    ) -> SearchOutcome {
        let _ = policy; // policy-free baseline
        let module = Arc::new(module.clone());
        let meter = LookupMeter::start(env);
        reseed_for_search(env, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut nodes = 0usize;
        let config = env.config().clone();

        let probe = env.probe().clone();
        let mut baseline_s = 0.0;
        let mut best_s = f64::INFINITY;
        let mut best_actions: Vec<Action> = Vec::new();
        for episode in 0..self.episodes {
            if episode > 0 && stop.stops() {
                break;
            }
            probe.emit(EventKind::RandomEpisode, None, [episode as u64, 0, 0]);
            env.restart(Arc::clone(&module));
            if episode == 0 {
                // The noise-free estimate of the do-nothing schedule is the
                // baseline and the floor of the best-so-far.
                baseline_s = env.peek_time_s();
                best_s = baseline_s;
            }
            let mut actions = Vec::new();
            while let Some(mask) = env.current_mask() {
                let action = random_action(&mask, &config, &mut rng);
                env.step(&action);
                actions.push(action);
                nodes += 1;
            }
            let final_s = env.peek_time_s();
            if final_s < best_s {
                best_s = final_s;
                best_actions = actions;
            }
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

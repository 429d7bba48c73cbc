//! Declarative search specifications — the request-level description of a
//! searcher.
//!
//! A [`SearchSpec`] is what a serving request carries instead of a live
//! [`Searcher`] object: a plain, owned, thread-safe description (greedy /
//! beam / MCTS / random / a whole portfolio roster) that any worker can
//! [`SearchSpec::build`] into the corresponding searcher on its own thread.
//! Keeping the spec declarative is what lets a long-lived service queue
//! requests, validate them at admission ([`SearchSpec::try_validate`]) and
//! stay deterministic: two workers building the same spec get searchers
//! that behave identically under the same seed.

use mlir_rl_agent::PolicyModel;
use mlir_rl_env::EnvConfig;
use mlir_rl_ir::Module;

use crate::beam::BeamSearch;
use crate::greedy::GreedyPolicy;
use crate::mcts::Mcts;
use crate::portfolio::{Portfolio, PortfolioMode};
use crate::random::RandomSearch;
use crate::searcher::Searcher;

/// A declarative description of a schedule search, buildable into a
/// [`Searcher`] on any worker thread.
///
/// Each variant mirrors one searcher of this crate; [`SearchSpec::name`]
/// matches the display name the built searcher reports in its outcomes.
/// Custom [`Searcher`] objects (e.g. the baseline adapters) have no spec —
/// they run through [`crate::SearchDriver`] instead of a request queue.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchSpec {
    /// Greedy policy decoding ([`GreedyPolicy`]) — the paper's deployment
    /// behavior.
    Greedy,
    /// Policy-ranked beam search ([`BeamSearch`]).
    Beam {
        /// Beam width (1 = greedy decoding).
        width: usize,
    },
    /// Monte-Carlo tree search ([`Mcts`]).
    Mcts {
        /// Selection/expansion/playout iterations.
        iterations: usize,
        /// Candidate actions ranked per expanded node.
        branch: usize,
        /// Optional progressive widening `(c, alpha)`; `None` keeps every
        /// ranked edge selectable (the bitwise-preserving default).
        widening: Option<(f64, f64)>,
    },
    /// Budgeted uniform-random search ([`RandomSearch`]).
    Random {
        /// Episodes sampled.
        episodes: usize,
    },
    /// A roster of member specs run as one [`Portfolio`] on a shared
    /// evaluation cache.
    Portfolio {
        /// Member specs, in roster-rank order (the order they run in).
        members: Vec<SearchSpec>,
        /// Round-robin or racing execution.
        mode: PortfolioMode,
        /// Optional cap on the roster's total cost-model lookups (the
        /// common eval-budget ledger of the portfolio).
        budget: Option<u64>,
    },
}

impl SearchSpec {
    /// A beam spec.
    pub fn beam(width: usize) -> Self {
        Self::Beam { width }
    }

    /// An MCTS spec with the given iteration budget and branching factor,
    /// widening off.
    pub fn mcts(iterations: usize, branch: usize) -> Self {
        Self::Mcts {
            iterations,
            branch,
            widening: None,
        }
    }

    /// A random-search spec.
    pub fn random(episodes: usize) -> Self {
        Self::Random { episodes }
    }

    /// A round-robin portfolio spec over the given members.
    pub fn round_robin(members: Vec<SearchSpec>) -> Self {
        Self::Portfolio {
            members,
            mode: PortfolioMode::RoundRobin,
            budget: None,
        }
    }

    /// A racing portfolio spec over the given members.
    pub fn racing(members: Vec<SearchSpec>, target_speedup: f64) -> Self {
        Self::Portfolio {
            members,
            mode: PortfolioMode::Racing { target_speedup },
            budget: None,
        }
    }

    /// Display name of the searcher this spec builds — identical to the
    /// [`Searcher::name`] of [`SearchSpec::build`]'s result.
    pub fn name(&self) -> String {
        match self {
            Self::Greedy => "greedy-policy".to_string(),
            Self::Beam { width } => format!("beam-{}", width.max(&1)),
            Self::Mcts { iterations, .. } => format!("mcts-{}", iterations.max(&1)),
            Self::Random { episodes } => format!("random-{}", episodes.max(&1)),
            Self::Portfolio { members, mode, .. } => match mode {
                PortfolioMode::RoundRobin => format!("portfolio-rr-{}", members.len()),
                PortfolioMode::Racing { .. } => format!("portfolio-race-{}", members.len()),
            },
        }
    }

    /// A deterministic upper-bound estimate of the cost-model lookups a
    /// search of this spec may spend on `module` under `env` — the unit
    /// reservation-style budget admission charges *before* the search runs
    /// (reconciled against the real spend afterwards). The estimate is a
    /// pure function of `(spec, env, module)`, never of load, cache warmth
    /// or worker count, which is what makes admission decisions derived
    /// from it reproducible for a fixed submission sequence. The formulas
    /// bound each searcher by its episode budget times a per-episode lookup
    /// bound; they deliberately over-reserve (refunds are cheap, blown
    /// ledgers are not).
    pub fn cost_estimate(&self, env: &EnvConfig, module: &Module) -> u64 {
        // Per episode `(ops + 1) x (max_schedule_len + 3)` lookups: above
        // the `ops x (max_schedule_len + 2)` steps an episode can take
        // (`OptimizationEnv::step`), plus one lookup for the baseline
        // estimate.
        let episode = ((module.ops().len() as u64).saturating_add(1))
            .saturating_mul(env.max_schedule_len as u64 + 3);
        let estimate = match self {
            Self::Greedy => episode.saturating_add(1),
            Self::Beam { width } => episode
                .saturating_mul((*width as u64).saturating_add(1))
                .saturating_add(1),
            Self::Mcts { iterations, .. } => episode
                .saturating_mul((*iterations as u64).saturating_add(1))
                .saturating_add(1),
            Self::Random { episodes } => episode
                .saturating_mul((*episodes as u64).saturating_add(1))
                .saturating_add(1),
            Self::Portfolio {
                members, budget, ..
            } => {
                let roster: u64 = members.iter().fold(0u64, |sum, m| {
                    sum.saturating_add(m.cost_estimate(env, module))
                });
                // A portfolio's own ledger already caps its members' spend.
                budget.map_or(roster, |cap| roster.min(cap.saturating_add(1)))
            }
        };
        estimate.max(1)
    }

    /// Checks the spec for problems a built searcher could not recover
    /// from, returning a human-readable description of the first one. Used
    /// by request admission so malformed requests become response errors
    /// instead of degenerate searches.
    pub fn try_validate(&self) -> Result<(), String> {
        match self {
            Self::Greedy => Ok(()),
            Self::Beam { width } => {
                if *width == 0 {
                    Err("beam width must be >= 1".to_string())
                } else {
                    Ok(())
                }
            }
            Self::Mcts {
                iterations,
                branch,
                widening,
            } => {
                if *iterations == 0 {
                    return Err("mcts iteration budget must be >= 1".to_string());
                }
                if *branch == 0 {
                    return Err("mcts branching factor must be >= 1".to_string());
                }
                if let Some((c, alpha)) = widening {
                    if !c.is_finite() || !alpha.is_finite() || *c < 0.0 || *alpha < 0.0 {
                        return Err(format!(
                            "mcts widening coefficients must be finite and >= 0 \
                             (got c={c}, alpha={alpha})"
                        ));
                    }
                }
                Ok(())
            }
            Self::Random { episodes } => {
                if *episodes == 0 {
                    Err("random search episode budget must be >= 1".to_string())
                } else {
                    Ok(())
                }
            }
            Self::Portfolio { members, mode, .. } => {
                if members.is_empty() {
                    return Err("portfolio roster must not be empty".to_string());
                }
                if let PortfolioMode::Racing { target_speedup } = mode {
                    if target_speedup.is_nan() {
                        return Err("racing target speedup must not be NaN".to_string());
                    }
                }
                members.iter().try_for_each(SearchSpec::try_validate)
            }
        }
    }

    /// Builds the searcher this spec describes. Degenerate numeric fields
    /// are clamped the same way the searchers' own constructors clamp them;
    /// reject them earlier with [`SearchSpec::try_validate`] when a hard
    /// error is wanted instead.
    pub fn build<P: PolicyModel + 'static>(&self) -> Box<dyn Searcher<P>> {
        match self {
            Self::Greedy => Box::new(GreedyPolicy),
            Self::Beam { width } => Box::new(BeamSearch::new(*width)),
            Self::Mcts {
                iterations,
                branch,
                widening,
            } => {
                let mut mcts = Mcts::new(*iterations).with_branch(*branch);
                if let Some((c, alpha)) = widening {
                    mcts = mcts.with_progressive_widening(*c, *alpha);
                }
                Box::new(mcts)
            }
            Self::Random { episodes } => Box::new(RandomSearch::new(*episodes)),
            Self::Portfolio {
                members,
                mode,
                budget,
            } => {
                let mut portfolio = members.iter().fold(Portfolio::new(*mode), |p, member| {
                    p.with_boxed_member(member.build())
                });
                if let Some(cap) = budget {
                    portfolio = portfolio.with_budget(*cap);
                }
                Box::new(portfolio)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_agent::{PolicyHyperparams, PolicyNetwork};
    use mlir_rl_costmodel::{CostModel, MachineModel};
    use mlir_rl_env::{EnvConfig, OptimizationEnv};
    use mlir_rl_ir::ModuleBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn specs() -> Vec<SearchSpec> {
        vec![
            SearchSpec::Greedy,
            SearchSpec::beam(3),
            SearchSpec::mcts(6, 2),
            SearchSpec::Mcts {
                iterations: 6,
                branch: 2,
                widening: Some((1.0, 0.6)),
            },
            SearchSpec::random(3),
            SearchSpec::round_robin(vec![SearchSpec::Greedy, SearchSpec::beam(2)]),
            SearchSpec::racing(vec![SearchSpec::Greedy, SearchSpec::beam(2)], 2.0),
        ]
    }

    #[test]
    fn names_match_built_searchers() {
        for spec in specs() {
            let built: Box<dyn Searcher<PolicyNetwork>> = spec.build();
            assert_eq!(spec.name(), built.name(), "{spec:?}");
            assert_eq!(spec.try_validate(), Ok(()));
        }
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        for (spec, needle) in [
            (SearchSpec::beam(0), "beam width"),
            (SearchSpec::mcts(0, 2), "iteration budget"),
            (SearchSpec::mcts(4, 0), "branching factor"),
            (
                SearchSpec::Mcts {
                    iterations: 4,
                    branch: 2,
                    widening: Some((f64::NAN, 0.5)),
                },
                "widening",
            ),
            (SearchSpec::random(0), "episode budget"),
            (SearchSpec::round_robin(Vec::new()), "roster"),
            (
                SearchSpec::racing(vec![SearchSpec::Greedy], f64::NAN),
                "NaN",
            ),
            (
                SearchSpec::round_robin(vec![SearchSpec::beam(0)]),
                "beam width",
            ),
        ] {
            let err = spec.try_validate().unwrap_err();
            assert!(err.contains(needle), "{spec:?}: {err}");
        }
    }

    #[test]
    fn cost_estimates_bound_real_spend_and_are_pure() {
        let config = EnvConfig::small();
        let env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut policy = PolicyNetwork::new(
            config.clone(),
            PolicyHyperparams {
                hidden_size: 16,
                backbone_layers: 1,
            },
            &mut rng,
        );
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![64, 64]);
        let w = b.argument("B", vec![64, 64]);
        b.matmul(a, w);
        let module = b.finish();

        for spec in specs() {
            let estimate = spec.cost_estimate(&config, &module);
            assert!(estimate >= 1, "{spec:?}");
            // Pure in (spec, env, module): repeated calls agree.
            assert_eq!(estimate, spec.cost_estimate(&config, &module), "{spec:?}");
            // An upper bound on what the built searcher actually spends.
            let outcome =
                spec.build::<PolicyNetwork>()
                    .search(&mut env.clone(), &mut policy, &module, 11);
            assert!(
                outcome.total_lookups() as u64 <= estimate,
                "{spec:?}: spent {} over the {estimate} reservation",
                outcome.total_lookups()
            );
        }
        // A portfolio's own budget caps its reservation.
        let capped = SearchSpec::Portfolio {
            members: vec![SearchSpec::beam(4), SearchSpec::random(8)],
            mode: PortfolioMode::RoundRobin,
            budget: Some(10),
        };
        assert!(capped.cost_estimate(&config, &module) <= 11);
    }

    #[test]
    fn built_spec_searches_like_the_hand_built_searcher() {
        let mut env =
            OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut policy = PolicyNetwork::new(
            EnvConfig::small(),
            PolicyHyperparams {
                hidden_size: 16,
                backbone_layers: 1,
            },
            &mut rng,
        );
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![64, 64]);
        let w = b.argument("B", vec![64, 64]);
        b.matmul(a, w);
        let module = b.finish();

        let from_spec =
            SearchSpec::beam(2)
                .build()
                .search(&mut env.clone(), &mut policy, &module, 11);
        let by_hand = BeamSearch::new(2).search(&mut env, &mut policy, &module, 11);
        assert_eq!(from_spec.best_actions, by_hand.best_actions);
        assert_eq!(from_spec.best_s, by_hand.best_s);
        assert_eq!(from_spec.nodes_expanded, by_hand.nodes_expanded);
    }
}

//! Monte-Carlo tree search with policy priors (PUCT) and cost-model
//! playouts.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::PolicyModel;
use mlir_rl_env::{Action, EpisodeSnapshot, OptimizationEnv};
use mlir_rl_ir::Module;
use mlir_rl_obs::EventKind;

use crate::searcher::{
    finish_outcome, reseed_for_search, BestFound, LookupMeter, SearchOutcome, Searcher, StopToken,
};

/// UCT over the schedule tree, AlphaZero-style: expansion is guided by
/// policy priors (softmax over the ranked candidates' log-probabilities),
/// leaf evaluation is a policy-sampled playout to the end of the episode
/// scored by the cost model, and values are log-speedups over the baseline.
/// Every complete playout is a candidate best schedule, so the reported
/// outcome is the best terminal state seen anywhere in the search.
///
/// Fully deterministic under a fixed seed: one RNG drives candidate
/// ranking and playouts, selection ties break toward the lower edge index,
/// and cost-model values are deterministic whether they hit or miss the
/// cache — so the outcome is independent of how many driver threads run
/// around it (property-tested). That RNG advances only inside the policy
/// calls this searcher issues (ranking and playout sampling, in program
/// order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mcts {
    /// Number of selection/expansion/playout iterations.
    pub iterations: usize,
    /// Candidate actions ranked per expanded node (the branching factor).
    pub branch: usize,
    /// PUCT exploration constant `c`.
    pub exploration: f64,
    /// Progressive-widening tuning. The default disables it, preserving
    /// the plain PUCT search bit for bit.
    pub tuning: MctsConfig,
}

/// Progressive widening for [`Mcts`], the one tuning knob beyond the core
/// PUCT parameters.
///
/// It defaults to **off**, and when off the searcher evaluates the tree
/// exactly as it did before the knob existed — the default-configured
/// outcome is bitwise unchanged (tested).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MctsConfig {
    /// Progressive-widening coefficient `c`: a node with `v` visits may
    /// select among its first `⌈c·v^alpha⌉` prior-ranked edges (clamped to
    /// `[1, branch]`), so the effective branching factor *grows with visit
    /// count* instead of being fixed — small budgets concentrate on the
    /// policy's top candidates, large budgets widen out. `0.0` disables
    /// widening (every ranked edge is always selectable), preserving the
    /// historical behavior bit for bit.
    pub widening_c: f64,
    /// Progressive-widening exponent `alpha` (ignored while `widening_c`
    /// is `0.0`).
    pub widening_alpha: f64,
}

impl Default for MctsConfig {
    fn default() -> Self {
        Self {
            widening_c: 0.0,
            widening_alpha: 0.5,
        }
    }
}

impl MctsConfig {
    /// Number of selectable children under the progressive-widening
    /// schedule `⌈c·visits^alpha⌉` for a node with `visits` visits, before
    /// clamping to the ranked branch width. At least 1 (a node must always
    /// have one selectable edge), and monotone non-decreasing in `visits`
    /// (unit-tested).
    pub fn widened_children(c: f64, alpha: f64, visits: f64) -> usize {
        let allowed = (c * visits.max(0.0).powf(alpha.max(0.0))).ceil();
        if allowed.is_finite() && allowed >= 1.0 {
            allowed as usize
        } else {
            1
        }
    }
}

impl Mcts {
    /// Creates an MCTS searcher with the given iteration budget, branching
    /// factor 4, exploration constant 1.4 and progressive widening off.
    pub fn new(iterations: usize) -> Self {
        Self {
            iterations: iterations.max(1),
            branch: 4,
            exploration: 1.4,
            tuning: MctsConfig::default(),
        }
    }

    /// Sets the branching factor (candidates ranked per node).
    pub fn with_branch(mut self, branch: usize) -> Self {
        self.branch = branch.max(1);
        self
    }

    /// Enables progressive widening: a node with `v` visits selects among
    /// its first `⌈c·v^alpha⌉` prior-ranked edges (clamped to the branch
    /// width). Pass `c = 0.0` to disable again.
    pub fn with_progressive_widening(mut self, c: f64, alpha: f64) -> Self {
        self.tuning.widening_c = c.max(0.0);
        self.tuning.widening_alpha = alpha.max(0.0);
        self
    }
}

impl Default for Mcts {
    fn default() -> Self {
        Self::new(64)
    }
}

struct Edge {
    action: Action,
    prior: f64,
    child: Option<usize>,
}

struct Node {
    snapshot: EpisodeSnapshot,
    actions: Vec<Action>,
    done: bool,
    expanded: bool,
    edges: Vec<Edge>,
    visits: f64,
    value_sum: f64,
}

impl Node {
    fn mean_value(&self) -> f64 {
        if self.visits > 0.0 {
            self.value_sum / self.visits
        } else {
            0.0
        }
    }
}

impl<P: PolicyModel> Searcher<P> for Mcts {
    fn name(&self) -> String {
        format!("mcts-{}", self.iterations)
    }

    /// The search body. `stop` is checked between iterations: once it
    /// fires the search ends with its best-so-far; a fresh token never
    /// fires, which is the plain [`Searcher::search`] path.
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
        let mut nodes_expanded = 0usize;

        let root_obs = env.reset(Arc::clone(&module));
        // The noise-free estimate of the empty schedule is both the
        // baseline every value is a log-speedup against and the floor of
        // the best-so-far.
        let baseline_s = env.peek_time_s();
        let mut best_s = baseline_s;
        let mut best_actions: Vec<Action> = Vec::new();

        let mut arena = vec![Node {
            snapshot: env.snapshot(),
            actions: Vec::new(),
            done: root_obs.is_none(),
            expanded: false,
            edges: Vec::new(),
            visits: 0.0,
            value_sum: 0.0,
        }];

        let probe = env.probe().clone();
        for iteration in 0..self.iterations {
            if arena[0].done || stop.stops() {
                break;
            }
            probe.emit(
                EventKind::MctsIteration,
                None,
                [iteration as u64, nodes_expanded as u64, 0],
            );
            // --- Selection (with inline expansion of unvisited edges) ----
            let mut path = vec![0usize];
            let mut node = 0usize;
            loop {
                if arena[node].done {
                    break;
                }
                if !arena[node].expanded {
                    // Rank candidates from the node's observation and turn
                    // their log-probabilities into priors.
                    env.restore(&arena[node].snapshot);
                    let obs = env
                        .current_observation()
                        .expect("live node has an observation");
                    let candidates = policy.rank_actions(&obs, self.branch, &mut rng);
                    let max_lp = candidates
                        .iter()
                        .map(|c| c.log_prob)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let weights: Vec<f64> = candidates
                        .iter()
                        .map(|c| (c.log_prob - max_lp).exp())
                        .collect();
                    let total: f64 = weights.iter().sum();
                    arena[node].edges = candidates
                        .into_iter()
                        .zip(weights)
                        .map(|(record, w)| Edge {
                            action: record.action,
                            prior: w / total.max(1e-12),
                            child: None,
                        })
                        .collect();
                    arena[node].expanded = true;
                }
                // PUCT over the edges; ties break toward the lower index.
                // Progressive widening (when enabled) restricts selection
                // to the first ⌈c·visits^alpha⌉ prior-ranked edges, so the
                // branching factor grows with the node's visit count; when
                // disabled every ranked edge is selectable, exactly the
                // historical behavior.
                let selectable = if self.tuning.widening_c > 0.0 {
                    MctsConfig::widened_children(
                        self.tuning.widening_c,
                        self.tuning.widening_alpha,
                        arena[node].visits,
                    )
                    .min(arena[node].edges.len())
                } else {
                    arena[node].edges.len()
                };
                let parent_visits = arena[node].visits.max(1.0);
                let mut chosen = 0usize;
                let mut chosen_score = f64::NEG_INFINITY;
                for (i, edge) in arena[node].edges.iter().take(selectable).enumerate() {
                    let (q, child_visits) = match edge.child {
                        Some(c) => (arena[c].mean_value(), arena[c].visits),
                        None => (0.0, 0.0),
                    };
                    let u =
                        self.exploration * edge.prior * parent_visits.sqrt() / (1.0 + child_visits);
                    let score = q + u;
                    if score > chosen_score {
                        chosen_score = score;
                        chosen = i;
                    }
                }
                match arena[node].edges[chosen].child {
                    Some(child) => {
                        node = child;
                        path.push(node);
                    }
                    None => {
                        // Expand the edge into a new child and stop there.
                        env.restore(&arena[node].snapshot);
                        let action = arena[node].edges[chosen].action.clone();
                        let outcome = env.step(&action);
                        nodes_expanded += 1;
                        let mut actions = arena[node].actions.clone();
                        actions.push(action);
                        let child = Node {
                            snapshot: env.snapshot(),
                            actions,
                            done: outcome.done,
                            expanded: false,
                            edges: Vec::new(),
                            visits: 0.0,
                            value_sum: 0.0,
                        };
                        let child_index = arena.len();
                        arena.push(child);
                        arena[node].edges[chosen].child = Some(child_index);
                        path.push(child_index);
                        break;
                    }
                }
            }

            // --- Evaluation: cost-model playout from the path's leaf -----
            let leaf = *path.last().expect("path starts at the root");
            env.restore(&arena[leaf].snapshot);
            let mut playout_actions = arena[leaf].actions.clone();
            let mut obs = env.current_observation();
            while let Some(current) = obs {
                let record = policy.select_action(&current, false, &mut rng);
                env.step(&record.action);
                playout_actions.push(record.action);
                nodes_expanded += 1;
                obs = env.current_observation();
            }
            let final_s = env.peek_time_s();
            if final_s < best_s {
                best_s = final_s;
                best_actions = playout_actions;
            }
            let value = if final_s > 0.0 {
                (baseline_s / final_s).max(1e-12).ln()
            } else {
                0.0
            };

            // --- Backpropagation ----------------------------------------
            for &n in &path {
                arena[n].visits += 1.0;
                arena[n].value_sum += value;
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
            nodes_expanded,
        )
    }
}

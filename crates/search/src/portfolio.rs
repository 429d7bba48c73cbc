//! Portfolio search: a roster of searchers on one shared evaluation cache.
//!
//! No single searcher dominates the schedule space at every budget — beam
//! search wins small budgets, MCTS catches up as its tree deepens, random
//! search calibrates how much the policy is worth. A [`Portfolio`] runs a
//! configurable roster of member searchers over the *same* module against
//! one [`mlir_rl_costmodel::SharedEvalCache`] and reports the best schedule
//! any member found, with per-member attribution. Because every member
//! scores schedules through the same table, the members warm each other up:
//! the portfolio reaches the best-of-members schedule for *less* total
//! estimator spend than running the members independently.
//!
//! Members run one after another, in rank order, on the caller's
//! environment handle; warmth flows member to member through its cache.
//! Between members the portfolio checks its lookup budget and the caller's
//! [`StopToken`]; once either is spent the remaining members are skipped.
//! The two modes differ only in when the roster ends:
//!
//! * **Round-robin** ([`PortfolioMode::RoundRobin`]): every member gets its
//!   turn and the best schedule wins. A single-member round-robin portfolio
//!   is outcome-identical to running that member alone (property-tested).
//! * **Racing** ([`PortfolioMode::Racing`]): the first member whose search
//!   reaches the target speedup wins and later members are skipped; when
//!   nobody reaches it, the best schedule wins as in round-robin.
//!
//! Both are serial and bitwise deterministic in the seed, for any
//! [`crate::SearchDriver`] worker count.

use mlir_rl_agent::PolicyModel;
use mlir_rl_env::OptimizationEnv;
use mlir_rl_ir::Module;
use mlir_rl_obs::EventKind;

use crate::searcher::{MemberOutcome, MemberStatus, SearchOutcome, Searcher, StopToken};

/// How a [`Portfolio`] ends its roster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PortfolioMode {
    /// Every member runs; the best schedule wins.
    RoundRobin,
    /// The first member (in roster-rank order) whose completed search
    /// reaches `target_speedup` wins and the members after it are skipped.
    Racing {
        /// Speedup that ends the race.
        target_speedup: f64,
    },
}

/// A searcher that runs a roster of member searchers — greedy, beam, MCTS,
/// random, even nested portfolios — and reports the best schedule any of
/// them found, with per-member [`MemberOutcome`] attribution inside the
/// [`SearchOutcome`]. See the module docs for the two modes.
pub struct Portfolio<P: PolicyModel> {
    members: Vec<Box<dyn Searcher<P>>>,
    mode: PortfolioMode,
    /// Cap on total cost-model lookups across members.
    budget: Option<u64>,
}

impl<P: PolicyModel> Portfolio<P> {
    /// An empty portfolio in the given mode; add members with
    /// [`Portfolio::with_member`].
    pub fn new(mode: PortfolioMode) -> Self {
        Self {
            members: Vec::new(),
            mode,
            budget: None,
        }
    }

    /// An empty round-robin portfolio.
    pub fn round_robin() -> Self {
        Self::new(PortfolioMode::RoundRobin)
    }

    /// An empty racing portfolio with the given target speedup.
    pub fn racing(target_speedup: f64) -> Self {
        Self::new(PortfolioMode::Racing { target_speedup })
    }

    /// Adds a member searcher at the next roster rank (members run in rank
    /// order).
    pub fn with_member<S: Searcher<P> + 'static>(mut self, member: S) -> Self {
        self.members.push(Box::new(member));
        self
    }

    /// Adds an already-boxed member searcher.
    pub fn with_boxed_member(mut self, member: Box<dyn Searcher<P>>) -> Self {
        self.members.push(member);
        self
    }

    /// Caps the total cost-model lookups the roster may spend. The check
    /// happens between member runs — deterministic because completed
    /// members' lookup totals are seed-deterministic — and members whose
    /// turn comes after exhaustion are skipped.
    pub fn with_budget(mut self, total_lookups: u64) -> Self {
        self.budget = Some(total_lookups);
        self
    }

    /// The execution mode.
    pub fn mode(&self) -> PortfolioMode {
        self.mode
    }

    /// Number of roster members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the roster is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Display names of the roster, in rank order.
    pub fn member_names(&self) -> Vec<String> {
        self.members.iter().map(|m| m.name()).collect()
    }

    /// Degenerate outcome when no member ran: the untransformed schedule.
    fn empty_outcome(&self, env: &mut OptimizationEnv, module: &Module) -> SearchOutcome {
        let meter = crate::searcher::LookupMeter::start(env);
        env.restart(module.clone());
        let baseline_s = env.peek_time_s();
        let best_schedule = env
            .scheduled()
            .map(|s| s.states().iter().map(|st| st.schedule.clone()).collect())
            .unwrap_or_default();
        let (evaluations, cache_hits) = meter.finish(env);
        SearchOutcome {
            searcher: Searcher::<P>::name(self),
            module: module.name().to_string(),
            baseline_s,
            best_s: baseline_s,
            speedup: 1.0,
            best_actions: Vec::new(),
            best_schedule,
            nodes_expanded: 0,
            evaluations,
            cache_hits,
            members: Vec::new(),
        }
    }
}

fn member_row(
    rank: usize,
    outcome: &SearchOutcome,
    target_speedup: f64,
    status: MemberStatus,
) -> MemberOutcome {
    MemberOutcome {
        member: outcome.searcher.clone(),
        rank,
        speedup: outcome.speedup,
        best_s: outcome.best_s,
        nodes_expanded: outcome.nodes_expanded,
        evaluations: outcome.evaluations,
        cache_hits: outcome.cache_hits,
        reached_target: outcome.speedup >= target_speedup,
        winner: false,
        status,
    }
}

impl<P: PolicyModel> std::fmt::Debug for Portfolio<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field("members", &self.member_names())
            .field("mode", &self.mode)
            .field("budget", &self.budget)
            .finish()
    }
}

impl<P: PolicyModel> Searcher<P> for Portfolio<P> {
    fn name(&self) -> String {
        match self.mode {
            PortfolioMode::RoundRobin => format!("portfolio-rr-{}", self.members.len()),
            PortfolioMode::Racing { .. } => format!("portfolio-race-{}", self.members.len()),
        }
    }

    /// Runs the members in rank order. `stop` is handed to every member
    /// and checked after each one: the member it cut short reports
    /// `Stopped` and the members after it `Skipped`.
    fn search_with_stop(
        &self,
        env: &mut OptimizationEnv,
        policy: &mut P,
        module: &Module,
        seed: u64,
        stop: &StopToken,
    ) -> SearchOutcome {
        let target = match self.mode {
            PortfolioMode::RoundRobin => f64::INFINITY,
            PortfolioMode::Racing { target_speedup } => target_speedup,
        };
        let cap = self.budget.unwrap_or(u64::MAX);
        let probe = env.probe().clone();
        // Ran members, indexed by rank: the roster ends at the first skip,
        // so they always form a prefix of it.
        let mut ran: Vec<SearchOutcome> = Vec::new();
        let mut rows: Vec<MemberOutcome> = Vec::with_capacity(self.members.len());
        let mut spent = 0u64;
        let mut claimant = None;
        for member in &self.members {
            if claimant.is_some() || spent >= cap || stop.stops() {
                break;
            }
            let rank = ran.len();
            let name = member.name();
            // Every member gets the portfolio's own seed: members are
            // different algorithms, and sharing the seed is what makes a
            // single-member portfolio identical to running that member
            // alone.
            probe.emit(EventKind::MemberBegin, Some(&name), [rank as u64, 0, 0]);
            let outcome = member.search_with_stop(env, policy, module, seed, stop);
            let status = if stop.stops() {
                MemberStatus::Stopped
            } else {
                MemberStatus::Completed
            };
            let lookups = outcome.total_lookups() as u64;
            spent = spent.saturating_add(lookups);
            probe.emit(
                EventKind::MemberEnd,
                Some(&name),
                [rank as u64, status as u64, 0],
            );
            probe.emit(EventKind::BudgetCharge, None, [lookups, spent, 0]);
            if outcome.speedup >= target {
                claimant = Some(rank);
            }
            rows.push(member_row(rank, &outcome, target, status));
            ran.push(outcome);
        }
        rows.extend(
            self.members
                .iter()
                .enumerate()
                .skip(ran.len())
                .map(|(rank, member)| MemberOutcome {
                    member: member.name(),
                    rank,
                    speedup: 1.0,
                    best_s: 0.0,
                    nodes_expanded: 0,
                    evaluations: 0,
                    cache_hits: 0,
                    reached_target: false,
                    winner: false,
                    status: MemberStatus::Skipped,
                }),
        );

        let Some(winner_rank) = claimant.or_else(|| {
            ran.iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.best_s
                        .partial_cmp(&b.best_s)
                        .expect("estimated times are finite")
                })
                .map(|(rank, _)| rank)
        }) else {
            // Nothing ran (e.g. a zero budget skipped every member): report
            // the untransformed schedule but keep the attribution rows.
            let mut outcome = self.empty_outcome(env, module);
            outcome.members = rows;
            return outcome;
        };
        rows[winner_rank].winner = true;
        let winner = &ran[winner_rank];
        probe.emit(
            EventKind::MemberWin,
            Some(&winner.searcher),
            [winner_rank as u64, 0, 0],
        );
        SearchOutcome {
            searcher: Searcher::<P>::name(self),
            module: winner.module.clone(),
            baseline_s: winner.baseline_s,
            best_s: winner.best_s,
            speedup: winner.speedup,
            best_actions: winner.best_actions.clone(),
            best_schedule: winner.best_schedule.clone(),
            nodes_expanded: ran.iter().map(|o| o.nodes_expanded).sum(),
            evaluations: ran.iter().map(|o| o.evaluations).sum(),
            cache_hits: ran.iter().map(|o| o.cache_hits).sum(),
            members: rows,
        }
    }
}

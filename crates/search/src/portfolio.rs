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
//! Two execution modes:
//!
//! * **Round-robin** ([`PortfolioMode::RoundRobin`]): members run one after
//!   another on the caller's environment handle, each charged against a
//!   common [`EvalBudget`] ledger; once the ledger is exhausted the
//!   remaining members are skipped. Fully serial and bitwise deterministic —
//!   a single-member round-robin portfolio is outcome-identical to running
//!   that member alone (property-tested).
//! * **Racing** ([`PortfolioMode::Racing`]): members run concurrently on
//!   cloned environment handles sharing one cache, and the first member past
//!   the target speedup ends the race. Determinism is preserved by ranking:
//!   a member only honors a stop from a *lower-ranked* claimant, so the
//!   winner — the lowest-ranked member that, run to completion, reaches the
//!   target (or the best finisher when nobody does) — and every member
//!   ranked at or below it always run to completion. The reported outcome
//!   aggregates exactly that deterministic prefix, which is what keeps
//!   racing outcomes bit-identical for any thread timing and any
//!   [`crate::SearchDriver`] worker count (property-tested). Losers ranked
//!   above the winner wind down early; their partial effort appears only in
//!   the member attribution rows.

use mlir_rl_agent::PolicyModel;
use mlir_rl_costmodel::EvalBudget;
use mlir_rl_env::OptimizationEnv;
use mlir_rl_ir::Module;
use mlir_rl_obs::EventKind;

use crate::searcher::{MemberOutcome, MemberStatus, SearchOutcome, Searcher, StopToken};

/// How a [`Portfolio`] executes its roster.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PortfolioMode {
    /// Members run serially on one environment handle, sharing its cache
    /// and a common eval-budget ledger.
    RoundRobin,
    /// Members run concurrently on cloned handles of one shared cache; the
    /// first member (in roster-rank order) whose completed search reaches
    /// `target_speedup` wins and higher-ranked members wind down early.
    Racing {
        /// Speedup that ends the race.
        target_speedup: f64,
    },
}

/// A searcher that runs a roster of member searchers — greedy, beam, MCTS,
/// random, even nested portfolios — and reports the best schedule any of
/// them found, with per-member [`MemberOutcome`] attribution inside the
/// [`SearchOutcome`]. See the module docs for the two execution modes and
/// their determinism story.
pub struct Portfolio<P: PolicyModel> {
    members: Vec<Box<dyn Searcher<P>>>,
    mode: PortfolioMode,
    /// Cap on total cost-model lookups across members (round-robin gate).
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

    /// Adds a member searcher at the next roster rank (rank doubles as the
    /// racing priority: lower ranks preempt higher ones).
    pub fn with_member<S: Searcher<P> + 'static>(mut self, member: S) -> Self {
        self.members.push(Box::new(member));
        self
    }

    /// Adds an already-boxed member searcher.
    pub fn with_boxed_member(mut self, member: Box<dyn Searcher<P>>) -> Self {
        self.members.push(member);
        self
    }

    /// Caps the total cost-model lookups the roster may spend (the common
    /// eval-budget ledger). In round-robin mode the check happens between
    /// member runs — deterministic because completed members' lookup totals
    /// are seed-deterministic — and members whose turn comes after
    /// exhaustion are skipped. Racing mode only accounts against the
    /// ledger (its members start together).
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

    fn ledger(&self) -> EvalBudget {
        match self.budget {
            Some(cap) => EvalBudget::limited(cap),
            None => EvalBudget::unlimited(),
        }
    }

    /// Degenerate outcome of an empty roster: the untransformed schedule.
    fn empty_outcome(&self, env: &mut OptimizationEnv, module: &Module) -> SearchOutcome {
        let meter = crate::searcher::LookupMeter::start(env);
        let _ = env.reset(module.clone());
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

    fn search_round_robin(
        &self,
        env: &mut OptimizationEnv,
        policy: &mut P,
        module: &Module,
        seed: u64,
        rank: usize,
        stop: &StopToken,
    ) -> SearchOutcome {
        let ledger = self.ledger();
        let probe = env.probe().clone();
        let mut finished: Vec<(usize, SearchOutcome)> = Vec::new();
        let mut skipped: Vec<usize> = Vec::new();
        for (member_rank, member) in self.members.iter().enumerate() {
            // An external stop (a served request's cancellation or
            // deadline) ends the round-robin at a member boundary; the
            // members that never got a turn report `Skipped`, exactly like
            // budget-skipped members.
            if ledger.is_exhausted() || stop.stops(rank) {
                skipped.push(member_rank);
                continue;
            }
            // Every member gets the portfolio's own seed: members are
            // different algorithms, and sharing the seed is what makes a
            // single-member portfolio identical to running that member
            // alone. Warmth flows member to member through `env`'s cache.
            // The external token is threaded through at the portfolio's own
            // rank so stop-aware members also wind down mid-run.
            probe.emit(
                EventKind::MemberBegin,
                Some(&member.name()),
                [member_rank as u64, 0, 0],
            );
            let outcome = member.search_with_stop(env, policy, module, seed, rank, stop);
            let spent_after = ledger.charge(outcome.total_lookups() as u64);
            probe.emit(
                EventKind::MemberEnd,
                Some(&member.name()),
                [member_rank as u64, 0, 0],
            );
            probe.emit(
                EventKind::BudgetCharge,
                None,
                [outcome.total_lookups() as u64, spent_after, 0],
            );
            finished.push((member_rank, outcome));
        }
        self.assemble(env, module, finished, skipped, None, usize::MAX)
    }

    #[allow(clippy::too_many_arguments)]
    fn search_racing(
        &self,
        env: &mut OptimizationEnv,
        policy: &mut P,
        module: &Module,
        seed: u64,
        target_speedup: f64,
        rank: usize,
        stop: &StopToken,
    ) -> SearchOutcome {
        let ledger = self.ledger();
        // The race runs in its own claimant space, linked to the external
        // token: member claims stay internal, while an external cancel or
        // deadline stops every member through the parent link.
        let race = stop.child(rank);

        let mut raced: Vec<(usize, SearchOutcome, bool)> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.members.len());
            for (member_rank, member) in self.members.iter().enumerate() {
                // Member threads share the caller's evaluation table.
                let mut member_env = env.clone_sharing_cache();
                let mut member_policy = policy.clone();
                let race = &race;
                let ledger = ledger.clone();
                handles.push(scope.spawn(move || {
                    // The member environment carries the request's probe, so
                    // racing members trace into the same request lane.
                    let probe = member_env.probe().clone();
                    let name = member.name();
                    probe.emit(
                        EventKind::MemberBegin,
                        Some(&name),
                        [member_rank as u64, 0, 0],
                    );
                    let outcome = member.search_with_stop(
                        &mut member_env,
                        &mut member_policy,
                        module,
                        seed,
                        member_rank,
                        race,
                    );
                    // Only a member that was never preempted may claim:
                    // its outcome is its full search, so "reached the
                    // target" is a deterministic fact about (seed,
                    // module), not about thread timing.
                    let preempted = race.stops(member_rank);
                    if !preempted && outcome.speedup >= target_speedup {
                        race.claim(member_rank);
                    }
                    ledger.charge(outcome.total_lookups() as u64);
                    probe.emit(
                        EventKind::MemberEnd,
                        Some(&name),
                        [member_rank as u64, preempted as u64, 0],
                    );
                    (member_rank, outcome, preempted)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("portfolio member thread panicked"))
                .collect()
        });
        raced.sort_by_key(|(rank, _, _)| *rank);

        // The deterministic prefix: the winner is the lowest-ranked member
        // that (run to completion) reached the target; every member ranked
        // at or below it always completes. Members above the claimant are
        // attribution-only — their stopping point depends on timing.
        let claimant = race.claimant();
        let counted_below = claimant.unwrap_or(usize::MAX);
        let finished: Vec<(usize, SearchOutcome)> = raced
            .iter()
            .filter(|(rank, _, _)| *rank <= counted_below)
            .map(|(rank, outcome, _)| (*rank, outcome.clone()))
            .collect();
        let extras: Vec<MemberOutcome> = raced
            .into_iter()
            .filter(|(rank, _, _)| *rank > counted_below)
            .map(|(rank, outcome, preempted)| {
                member_row(
                    rank,
                    &outcome,
                    target_speedup,
                    false,
                    if preempted {
                        MemberStatus::Stopped
                    } else {
                        MemberStatus::Completed
                    },
                )
            })
            .collect();
        self.assemble_with_extras(
            env,
            module,
            finished,
            extras,
            Some(target_speedup),
            claimant,
        )
    }

    fn assemble(
        &self,
        env: &mut OptimizationEnv,
        module: &Module,
        finished: Vec<(usize, SearchOutcome)>,
        skipped: Vec<usize>,
        target: Option<f64>,
        claimant: usize,
    ) -> SearchOutcome {
        let extras = skipped
            .into_iter()
            .map(|rank| MemberOutcome {
                member: self.members[rank].name(),
                rank,
                speedup: 1.0,
                best_s: 0.0,
                nodes_expanded: 0,
                evaluations: 0,
                cache_hits: 0,
                reached_target: false,
                winner: false,
                status: MemberStatus::Skipped,
            })
            .collect();
        self.assemble_with_extras(
            env,
            module,
            finished,
            extras,
            target,
            (claimant != usize::MAX).then_some(claimant),
        )
    }

    /// Builds the portfolio outcome from the deterministically-counted
    /// member outcomes (`finished`) plus attribution-only rows (`extras`:
    /// racing losers above the winner, budget-skipped members).
    fn assemble_with_extras(
        &self,
        env: &mut OptimizationEnv,
        module: &Module,
        finished: Vec<(usize, SearchOutcome)>,
        extras: Vec<MemberOutcome>,
        target: Option<f64>,
        claimant: Option<usize>,
    ) -> SearchOutcome {
        let Some(winner_rank) = claimant.or_else(|| {
            finished
                .iter()
                .min_by(|(ra, a), (rb, b)| {
                    a.best_s
                        .partial_cmp(&b.best_s)
                        .expect("estimated times are finite")
                        .then(ra.cmp(rb))
                })
                .map(|(rank, _)| *rank)
        }) else {
            // Nothing ran (e.g. a zero budget skipped every member): report
            // the untransformed schedule but keep the attribution rows.
            let mut outcome = self.empty_outcome(env, module);
            outcome.members = extras;
            outcome.members.sort_by_key(|m| m.rank);
            return outcome;
        };

        let mut members: Vec<MemberOutcome> = finished
            .iter()
            .map(|(rank, outcome)| {
                member_row(
                    *rank,
                    outcome,
                    target.unwrap_or(f64::INFINITY),
                    *rank == winner_rank,
                    MemberStatus::Completed,
                )
            })
            .chain(extras)
            .collect();
        members.sort_by_key(|m| m.rank);

        let winner = &finished
            .iter()
            .find(|(rank, _)| *rank == winner_rank)
            .expect("winner rank comes from the finished set")
            .1;
        env.probe().emit(
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
            nodes_expanded: finished.iter().map(|(_, o)| o.nodes_expanded).sum(),
            evaluations: finished.iter().map(|(_, o)| o.evaluations).sum(),
            cache_hits: finished.iter().map(|(_, o)| o.cache_hits).sum(),
            members,
        }
    }
}

fn member_row(
    rank: usize,
    outcome: &SearchOutcome,
    target_speedup: f64,
    winner: bool,
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
        winner,
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

    fn search_with_stop(
        &self,
        env: &mut OptimizationEnv,
        policy: &mut P,
        module: &Module,
        seed: u64,
        rank: usize,
        stop: &StopToken,
    ) -> SearchOutcome {
        if self.members.is_empty() {
            return self.empty_outcome(env, module);
        }
        match self.mode {
            PortfolioMode::RoundRobin => {
                self.search_round_robin(env, policy, module, seed, rank, stop)
            }
            PortfolioMode::Racing { target_speedup } => {
                self.search_racing(env, policy, module, seed, target_speedup, rank, stop)
            }
        }
    }
}

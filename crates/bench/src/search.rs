//! Schedule search: speedup-vs-budget per searcher through the batch
//! [`SearchDriver`] on one shared eval cache, and the same roster as a
//! round-robin and a racing [`Portfolio`].

use mlir_rl_agent::PolicyNetwork;
use mlir_rl_baselines::{MullapudiAutoscheduler, VendorLibrary, VendorMode};
use mlir_rl_core::SpeedupTable;
use mlir_rl_costmodel::{hit_rate, median, CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, OptimizationEnv};
use mlir_rl_search::{
    BaselineSearcher, BatchSearchReport, BeamSearch, GreedyPolicy, Mcts, MemberAggregate,
    Portfolio, RandomSearch, SearchDriver, Searcher,
};
use mlir_rl_workloads::dl_ops;

use crate::report::{ensure_all, report, rows, Report, Row, Rows};
use crate::{evaluation_modules, train_mlir_rl, ExperimentScale};

report! {
    /// Budget and cache accounting of one searcher over the whole workload
    /// batch.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SearcherBudgetSummary {
        /// Searcher display name.
        name: String = "searcher",
        /// Geometric-mean speedup over the MLIR baseline across the
        /// workloads.
        geomean_speedup: f64 = "geomean",
        /// Cost-model evaluations actually performed (the eval budget
        /// spent).
        evaluations: usize = "evals",
        /// Total cost-model lookups (evaluations + cache hits).
        total_lookups: usize = "lookups",
        /// Hit-rate of the batch-wide shared evaluation cache.
        shared_cache_hit_rate: f64 = "shared-cache hit-rate",
        /// Environment steps across every branch of every search.
        nodes_expanded: usize = "nodes",
        /// Wall-clock seconds for the batch.
        wall_s: f64 = "wall (s)",
    }
}

impl SearcherBudgetSummary {
    fn new(name: String, report: &BatchSearchReport) -> Self {
        Self {
            name,
            geomean_speedup: report.geomean_speedup(),
            evaluations: report.total_evaluations(),
            total_lookups: report.outcomes.iter().map(|o| o.total_lookups()).sum(),
            shared_cache_hit_rate: report.shared_cache_hit_rate(),
            nodes_expanded: report.total_nodes_expanded(),
            wall_s: report.wall_s,
        }
    }
}

impl Rows for MemberAggregate {
    fn rows(&self) -> Vec<Row> {
        rows!(self;
            member "member",
            rank "rank",
            wins "wins",
            reached_target "reached target",
            stopped "stopped",
            skipped "skipped",
            evaluations "evals",
            cache_hits "cache hits",
        )
    }
}

report! {
    /// The `exp search` report: per-workload speedups per searcher plus each
    /// searcher's evaluation budget and shared-cache accounting.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SearchReport {
        /// Worker threads the driver fanned each batch over.
        workers: usize = "driver workers",
        /// Rows: workloads; columns: searchers; values: speedup over the
        /// MLIR baseline.
        table: SpeedupTable = "speedups",
        /// One budget summary per searcher, in column order.
        summaries: Vec<SearcherBudgetSummary> = "eval budgets",
    }
}

impl Report for SearchReport {
    fn check(&self) -> Result<(), String> {
        let column = |wanted: fn(&str) -> bool| {
            let found = self.table.columns.iter().position(|c| wanted(c));
            found.ok_or("the greedy and beam columns must be present")
        };
        let greedy = column(|c| c == "greedy-policy")?;
        let beam = column(|c| c.starts_with("beam-"))?;
        let rows = || self.table.rows.iter().map(|(_, values)| values);
        ensure_all!(
            !self.table.rows.is_empty(),
            // Beam search is seeded with the greedy trajectory, so its
            // column dominates greedy's on every workload.
            rows().all(|values| values[beam] >= values[greedy]),
            rows().flatten().all(|v| v.is_finite() && *v > 0.0),
            self.summaries
                .iter()
                .all(|s| s.evaluations <= s.total_lookups),
        )
    }
}

/// Runs every searcher (greedy, beam-4, MCTS, random, plus the vendor and
/// Mullapudi comparison systems through the [`BaselineSearcher`] adapter)
/// over the Sec. VII-A-2 DL-operator evaluation workloads with a policy
/// trained at the given scale, batched through the parallel
/// [`mlir_rl_search::SearchDriver`]. MCTS and random budgets scale with
/// `scale.trajectories_per_iteration`.
pub fn search_speedups(scale: &ExperimentScale, workers: usize) -> SearchReport {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 81);
    let rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 9);
    let workloads = evaluation_modules();
    // One environment template for every searcher: the driver's workers
    // join its evaluation table, so each batch warms the next.
    let env = OptimizationEnv::new(
        EnvConfig::small(),
        CostModel::new(MachineModel::xeon_e5_2680_v4()),
    );
    let driver = SearchDriver::new(workers).with_seed(9);

    let budget = scale.trajectories_per_iteration;
    let searchers: Vec<Box<dyn Searcher<PolicyNetwork>>> = vec![
        Box::new(GreedyPolicy),
        Box::new(BeamSearch::new(4)),
        Box::new(Mcts::new((budget * 4).max(8))),
        Box::new(RandomSearch::new((budget * 2).max(4))),
        Box::new(BaselineSearcher::new(VendorLibrary::new(
            VendorMode::Compiled,
        ))),
        Box::new(BaselineSearcher::new(MullapudiAutoscheduler::new())),
    ];

    let mut table = SpeedupTable::new(
        "exp_search: speedup over MLIR baseline, per searcher",
        searchers.iter().map(|s| s.name()).collect(),
    );
    let mut summaries = Vec::new();
    let mut per_module: Vec<Vec<f64>> = vec![Vec::new(); workloads.len()];
    for searcher in &searchers {
        let report = driver.run(&env, rl.policy(), searcher.as_ref(), &workloads);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            per_module[i].push(outcome.speedup);
        }
        summaries.push(SearcherBudgetSummary::new(searcher.name(), &report));
    }
    for (module, speedups) in workloads.iter().zip(per_module) {
        table.push_row(module.name(), speedups);
    }
    SearchReport {
        workers: workers.max(1),
        table,
        summaries,
    }
}

report! {
    /// The `exp portfolio` report: per-workload speedups for each roster
    /// member run independently and for the portfolio (round-robin and
    /// racing), the eval budgets showing the shared-cache warmth the
    /// portfolio gains, the per-member win/spend attribution, and the
    /// racing determinism check.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PortfolioReport {
        /// Worker threads the driver fanned each batch over.
        workers: usize = "driver workers",
        /// Rows: workloads; columns: independent members, then the two
        /// portfolio modes; values: speedup over the MLIR baseline.
        table: SpeedupTable = "speedups",
        /// Budget summary of each member run independently (fresh cache
        /// each).
        singles: Vec<SearcherBudgetSummary> = "eval budgets, members run independently",
        /// Budget summary of the round-robin portfolio batch.
        round_robin: SearcherBudgetSummary = "eval budget, round-robin portfolio",
        /// Budget summary of the racing portfolio batch. Its figures cover
        /// each module's roster up to the winner: a prefix of what the
        /// round-robin batch runs, under the same seeds.
        racing: SearcherBudgetSummary = "eval budget, racing portfolio",
        /// Per-member attribution of the round-robin batch (wins, spend).
        members: Vec<MemberAggregate> = "member attribution, round-robin",
        /// Per-member attribution of the racing batch (wins, targets,
        /// skips).
        racing_members: Vec<MemberAggregate> = "member attribution, racing",
        /// Total estimator runs of all independent member runs together
        /// (the spend the portfolio's shared warmth is measured against).
        singles_evaluations: usize = "evals of the independent runs together",
        /// Hit-rate of the independent member runs **combined** (all their
        /// lookups, no warmth shared between members) — the apples-to-apples
        /// baseline the portfolio's cross-member warmth is measured
        /// against: the portfolio performs the same lookups and must hit
        /// strictly more.
        singles_hit_rate: f64 = "hit-rate of the independent runs combined",
        /// Best shared-cache hit-rate any independent member achieved.
        best_single_hit_rate: f64 = "best single-member hit-rate",
        /// Modules on which the round-robin portfolio's speedup equals the
        /// best of the independently-run members (expected: all of them).
        best_of_members_matches: usize = "modules where round-robin = best of members",
        /// Number of workload modules.
        modules: usize = "modules",
        /// The racing target speedup (median of the per-module
        /// best-of-members, so roughly half the modules can end their race
        /// early).
        racing_target: f64 = "racing target speedup",
        /// Modules whose racing winner reached the target.
        racing_reached_target: usize = "modules whose racing winner reached it",
        /// Mean cost-model lookups the racing winner spent per module — the
        /// evals-to-target figure when the target was reached.
        racing_mean_winner_lookups: f64 = "mean racing-winner lookups",
        /// Whether the racing batch produced bit-identical outcomes with 1,
        /// 2 and 4 driver workers (the determinism acceptance check).
        racing_worker_invariant: bool = "racing bit-identical across 1/2/4 workers",
    }
}

impl Report for PortfolioReport {
    fn check(&self) -> Result<(), String> {
        let wins = |members: &[MemberAggregate]| members.iter().map(|m| m.wins).sum::<usize>();
        ensure_all!(
            self.modules > 0,
            // The round-robin portfolio reproduces the per-module best of
            // its independently-run members, spends fewer estimator runs
            // doing it (shared warmth), and hits more often than their
            // lookups combined.
            self.best_of_members_matches == self.modules,
            self.round_robin.evaluations < self.singles_evaluations,
            self.round_robin.shared_cache_hit_rate > self.singles_hit_rate,
            // Racing: bit-identical outcomes across 1/2/4 workers, and a
            // prefix of the round-robin roster never spends more.
            self.racing_worker_invariant,
            self.racing.total_lookups <= self.round_robin.total_lookups,
            self.racing.nodes_expanded <= self.round_robin.nodes_expanded,
            self.racing_reached_target > 0 && self.racing_mean_winner_lookups > 0.0,
            // Attribution covers the whole roster, and every module has a
            // winner in both modes.
            self.members.len() == 4 && wins(&self.members) == self.modules,
            self.racing_members.len() == 4 && wins(&self.racing_members) == self.modules,
        )
    }
}

/// Runs the portfolio experiment: each roster member (greedy, beam-4,
/// progressively-widened MCTS, random) independently through the
/// [`SearchDriver`] on a fresh shared cache, then the same roster as a
/// round-robin [`Portfolio`] (one cache warming every member and module)
/// and as a racing portfolio targeting the median best-of-members speedup.
/// All runs use the same base seed, so the round-robin portfolio's
/// per-module result is exactly the best of the members' independent
/// results — for less total estimator spend, which is the point.
pub fn portfolio_speedups(scale: &ExperimentScale, workers: usize) -> PortfolioReport {
    let dataset = dl_ops::training_dataset(scale.dataset_scale, 91);
    let rl = train_mlir_rl(EnvConfig::small(), &dataset, scale, 13);
    let workloads = evaluation_modules();
    let fresh_env = || {
        OptimizationEnv::new(
            EnvConfig::small(),
            CostModel::new(MachineModel::xeon_e5_2680_v4()),
        )
    };
    let base_seed = 77;
    let driver = SearchDriver::new(workers).with_seed(base_seed);

    // One definition of the roster, used for the independent-singles runs
    // AND both portfolio modes, so the best-of-members comparison can
    // never drift apart from what the portfolio actually runs.
    let budget = scale.trajectories_per_iteration;
    let make_members = || -> Vec<Box<dyn Searcher<PolicyNetwork>>> {
        vec![
            Box::new(GreedyPolicy),
            Box::new(BeamSearch::new(4)),
            Box::new(
                Mcts::new((budget * 4).max(8))
                    .with_branch(4)
                    .with_progressive_widening(1.0, 0.6),
            ),
            Box::new(RandomSearch::new((budget * 2).max(4))),
        ]
    };
    let members = make_members();
    let roster = |mode: Portfolio<PolicyNetwork>| {
        make_members()
            .into_iter()
            .fold(mode, Portfolio::with_boxed_member)
    };

    // --- each member independently, fresh cache each -----------------
    let mut singles = Vec::new();
    let mut single_reports = Vec::new();
    for member in &members {
        let report = driver.run(&fresh_env(), rl.policy(), member.as_ref(), &workloads);
        singles.push(SearcherBudgetSummary::new(member.name(), &report));
        single_reports.push(report);
    }
    let singles_evaluations: usize = singles.iter().map(|s| s.evaluations).sum();
    let best_single_hit_rate = singles
        .iter()
        .map(|s| s.shared_cache_hit_rate)
        .fold(0.0, f64::max);
    let singles_lookups: usize = singles.iter().map(|s| s.total_lookups).sum();
    let singles_hit_rate = hit_rate(
        (singles_lookups - singles_evaluations) as u64,
        singles_evaluations as u64,
    );
    let best_of_singles: Vec<f64> = (0..workloads.len())
        .map(|i| {
            single_reports
                .iter()
                .map(|r| r.outcomes[i].speedup)
                .fold(0.0, f64::max)
        })
        .collect();

    // --- the same roster as a round-robin portfolio ------------------
    let rr = roster(Portfolio::round_robin());
    let rr_report = driver.run(&fresh_env(), rl.policy(), &rr, &workloads);
    let best_of_members_matches = rr_report
        .outcomes
        .iter()
        .zip(&best_of_singles)
        .filter(|(o, best)| (o.speedup - **best).abs() <= 1e-9 * best.max(1.0))
        .count();

    // --- racing, targeting the median best-of-members ----------------
    let racing_target = median(&best_of_singles).unwrap_or(1.0);
    let race = roster(Portfolio::racing(racing_target));
    let race_report = driver.run(&fresh_env(), rl.policy(), &race, &workloads);
    let racing_reached_target = race_report
        .outcomes
        .iter()
        .filter(|o| o.members.iter().any(|m| m.winner && m.reached_target))
        .count();
    let winner_lookups: Vec<usize> = race_report
        .outcomes
        .iter()
        .flat_map(|o| o.members.iter().filter(|m| m.winner))
        .map(|m| m.total_lookups())
        .collect();
    let racing_mean_winner_lookups =
        winner_lookups.iter().sum::<usize>() as f64 / winner_lookups.len().max(1) as f64;

    // --- the determinism acceptance check: 1/2/4 driver workers ------
    let fields = |report: &BatchSearchReport| -> Vec<_> {
        report
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.best_s.to_bits(),
                    o.speedup.to_bits(),
                    o.best_actions.clone(),
                    o.nodes_expanded,
                    o.total_lookups(),
                )
            })
            .collect()
    };
    let reference = fields(&race_report);
    let racing_worker_invariant = [1usize, 2, 4].iter().all(|w| {
        let report = SearchDriver::new(*w).with_seed(base_seed).run(
            &fresh_env(),
            rl.policy(),
            &race,
            &workloads,
        );
        fields(&report) == reference
    });

    // --- the per-workload table --------------------------------------
    let rr_name = Searcher::<PolicyNetwork>::name(&rr);
    let race_name = Searcher::<PolicyNetwork>::name(&race);
    let mut columns: Vec<String> = members.iter().map(|m| m.name()).collect();
    columns.extend([rr_name.clone(), race_name.clone()]);
    let mut table = SpeedupTable::new(
        "exp_portfolio: speedup over MLIR baseline, members vs portfolio",
        columns,
    );
    for (i, module) in workloads.iter().enumerate() {
        let reports = single_reports.iter().chain([&rr_report, &race_report]);
        table.push_row(
            module.name(),
            reports.map(|r| r.outcomes[i].speedup).collect(),
        );
    }

    PortfolioReport {
        workers: workers.max(1),
        table,
        singles,
        round_robin: SearcherBudgetSummary::new(rr_name, &rr_report),
        racing: SearcherBudgetSummary::new(race_name, &race_report),
        members: rr_report.member_attribution(),
        racing_members: race_report.member_attribution(),
        singles_evaluations,
        singles_hit_rate,
        best_single_hit_rate,
        best_of_members_matches,
        modules: workloads.len(),
        racing_target,
        racing_reached_target,
        racing_mean_winner_lookups,
        racing_worker_invariant,
    }
}

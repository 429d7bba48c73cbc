//! The one table of experiments the `exp` binary dispatches through.

use mlir_rl_core::report::json;
use mlir_rl_obs::TraceSnapshot;

use crate::cli::ExpArgs;
use crate::report::{Rendered, Report, Row, Value};
use crate::{load, lookup, nn, online, paper, search, service, throughput, train, ExperimentScale};

/// What a run hands back: the report, and the trace when one was recorded.
pub type Outcome = (Box<dyn Report>, Option<TraceSnapshot>);

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// `exp <name>`; the JSON report carries `"experiment": "exp_<name>"`.
    pub name: &'static str,
    /// One line for `exp list`.
    pub about: &'static str,
    /// Whether it accepts `--trace <path>` besides `--smoke` and `--json`,
    /// which every experiment takes.
    pub trace: bool,
    /// Whether it fans out over `MLIR_RL_WORKERS` threads.
    pub workers: bool,
    /// Whether it belongs to the deterministic paper set: run by
    /// `exp paper`, pinned by `tests/golden/paper_*.json`. Every other
    /// experiment is timing-dependent and guarded by its report's `check`.
    pub paper: bool,
    /// Runs it.
    pub run: fn(&ExpArgs) -> Outcome,
}

fn untraced(report: impl Report + 'static) -> Outcome {
    (Box::new(report), None)
}

fn traced((report, trace): (impl Report + 'static, Option<TraceSnapshot>)) -> Outcome {
    (Box::new(report), trace)
}

/// The report of a paper experiment: the tables or figures it
/// regenerates, by JSON key.
fn exhibits<const N: usize>(parts: [(&'static str, Value); N]) -> Outcome {
    let rows = parts.map(|(key, value)| Row {
        key,
        label: key,
        value,
    });
    untraced(rows.to_vec())
}

/// Every experiment, in `exp list` order (the paper set first, in the
/// order of the golden documents).
pub static EXPERIMENTS: [Experiment; 18] = [
    Experiment {
        name: "action_space_size",
        about: "Sec. IV-A: flat vs multi-discrete action-space size",
        trace: false,
        workers: false,
        paper: true,
        run: |_| exhibits([("table", (&paper::action_space_size()).into())]),
    },
    Experiment {
        name: "datasets",
        about: "Tables II and V: training-set and model composition",
        trace: false,
        workers: false,
        paper: true,
        run: |_| {
            let (table2, table5) = paper::datasets();
            exhibits([("table2", (&table2).into()), ("table5", (&table5).into())])
        },
    },
    Experiment {
        name: "fig5",
        about: "Fig. 5: speedup per DL operator vs Halide RL, PyTorch, PyTorch compiler",
        trace: false,
        workers: false,
        paper: true,
        run: |a| exhibits([("table", (&paper::fig5_operators(&a.scale)).into())]),
    },
    Experiment {
        name: "table3",
        about: "Table III: ResNet-18, MobileNetV2 and VGG speedups",
        trace: false,
        workers: false,
        paper: true,
        run: |a| exhibits([("table", (&paper::table3_models(&a.scale)).into())]),
    },
    Experiment {
        name: "table4",
        about: "Table IV: LQCD application speedups vs the Halide autoscheduler",
        trace: false,
        workers: false,
        paper: true,
        run: |a| exhibits([("table", (&paper::table4_lqcd(&a.scale)).into())]),
    },
    Experiment {
        name: "ablation_interchange",
        about: "Sec. VII-D: level-pointer vs enumerated interchange",
        trace: false,
        workers: false,
        paper: true,
        run: |a| exhibits([("table", (&paper::ablation_interchange(&a.scale)).into())]),
    },
    Experiment {
        name: "fig6",
        about: "Fig. 6: flat vs multi-discrete action space over training",
        trace: false,
        workers: false,
        paper: true,
        run: |a| exhibits([("figure", (&paper::fig6_action_space(&a.scale)).into())]),
    },
    Experiment {
        name: "fig7",
        about: "Fig. 7: final vs immediate reward over iterations and training cost",
        trace: false,
        workers: false,
        paper: true,
        run: |a| {
            let (by_iteration, by_time) = paper::fig7_reward_modes(&a.scale);
            exhibits([
                ("by_iteration", (&by_iteration).into()),
                ("by_time", (&by_time).into()),
            ])
        },
    },
    Experiment {
        name: "overhead",
        about: "Sec. VII-B: policy-inference and transformation overhead (wall-clock)",
        trace: false,
        workers: false,
        paper: false,
        run: |a| untraced(paper::overhead(&a.scale)),
    },
    Experiment {
        name: "rollout_throughput",
        about: "serial vs parallel rollout collection, fan-out fixed costs",
        trace: false,
        workers: true,
        paper: false,
        run: |a| untraced(throughput::rollout_throughput(&a.scale, a.workers)),
    },
    Experiment {
        name: "train_split",
        about: "one PPO iteration by phase: collection with the critic beside and inline, update chains",
        trace: false,
        workers: false,
        paper: false,
        run: |a| untraced(train::train_split(&a.scale)),
    },
    Experiment {
        name: "lookup_split",
        about: "a cost-model lookup's key read, and a miss's lowering and pricing per op",
        trace: false,
        workers: false,
        paper: false,
        run: |a| untraced(lookup::lookup_split(&a.scale)),
    },
    Experiment {
        name: "search",
        about: "speedup and eval budget per searcher through the batch driver",
        trace: false,
        workers: true,
        paper: false,
        run: |a| untraced(search::search_speedups(&a.scale, a.workers)),
    },
    Experiment {
        name: "nn_throughput",
        about: "batched vs per-vector NN kernels; the observation-shaped LSTM",
        trace: false,
        workers: false,
        paper: false,
        run: |a| untraced(nn::nn_throughput(&a.scale)),
    },
    Experiment {
        name: "portfolio",
        about: "round-robin and racing portfolios vs their members run alone",
        trace: false,
        workers: true,
        paper: false,
        run: |a| untraced(search::portfolio_speedups(&a.scale, a.workers)),
    },
    Experiment {
        name: "service",
        about: "request stream: warm vs restored vs tiny-cache vs cold services",
        trace: true,
        workers: true,
        paper: false,
        run: |a| {
            traced(service::service_throughput(
                &a.scale,
                a.workers,
                a.trace_capacity(),
            ))
        },
    },
    Experiment {
        name: "load",
        about: "open-loop burst against a bounded-queue service: tails, backpressure",
        trace: true,
        workers: true,
        paper: false,
        run: |a| traced(load::load_test(&a.scale, a.workers, a.trace_capacity())),
    },
    Experiment {
        name: "online",
        about: "online learning on served traffic: hot swap, per-version determinism",
        trace: true,
        workers: true,
        paper: false,
        run: |a| {
            traced(online::online_learning(
                &a.scale,
                a.workers,
                a.trace_capacity(),
            ))
        },
    },
];

/// The experiment registered as `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|experiment| experiment.name == name)
}

/// The deterministic paper set at `scale`, each report ready to print.
pub fn paper_reports(scale: &ExperimentScale) -> Vec<Rendered> {
    let args = ExpArgs::new(*scale, 1);
    EXPERIMENTS
        .iter()
        .filter(|experiment| experiment.paper)
        .map(|experiment| Rendered::new(experiment.name, (experiment.run)(&args).0.as_ref()))
        .collect()
}

/// The paper document `exp paper --json` prints and
/// `tests/golden/paper_*.json` pin: one entry per paper experiment, each
/// that experiment's `--json` report.
pub fn paper_document(scale: &ExperimentScale) -> String {
    let reports = paper_reports(scale);
    json::object(
        1,
        reports
            .iter()
            .map(|report| (report.name, report.json_at(2))),
    )
}

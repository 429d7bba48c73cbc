//! The one experiment binary.
//!
//! * `exp list` — every registered experiment: name, whether it takes
//!   `--trace` (all take `--smoke` and `--json`), whether it is pinned (the
//!   deterministic paper set) or checked (timing-dependent, guarded by its
//!   report's `check`), whether it reads `MLIR_RL_WORKERS`, and a one-line
//!   description.
//! * `exp <name> [--smoke] [--json] [--trace <path>]` — one experiment; it
//!   prints the report, then exits 1 if the report's `check` fails.
//! * `exp paper [--smoke] [--json]` — the deterministic paper set;
//!   `--json` prints the document `tests/golden/paper_*.json` pin, so this
//!   binary is also the tool that regenerates them.
//!
//! Scale with `MLIR_RL_SCALE` (`smoke` / `standard` / `full`) or pass
//! `--smoke`; worker count with `MLIR_RL_WORKERS` (default: available
//! parallelism). Arguments and both variables are parsed strictly
//! (`mlir_rl_bench::cli`): anything unrecognized exits 2 with usage.

use mlir_rl_bench::cli::{self, Command};
use mlir_rl_bench::report::Rendered;
use mlir_rl_bench::{export_trace, registry, EXPERIMENTS};

fn main() {
    match cli::parse() {
        Command::List => {
            for e in &EXPERIMENTS {
                let flags = if e.trace { "--trace" } else { "-" };
                let guard = if e.paper { "pinned" } else { "checked" };
                let workers = if e.workers { "workers" } else { "-" };
                println!("{:<22}{flags:<9}{guard:<9}{workers:<9}{}", e.name, e.about);
            }
        }
        Command::Paper(args) if args.json => println!("{}", registry::paper_document(&args.scale)),
        Command::Paper(args) => {
            for report in registry::paper_reports(&args.scale) {
                println!("{report}");
            }
        }
        Command::Run(experiment, args) => {
            let (report, trace) = (experiment.run)(&args);
            if let (Some(path), Some(trace)) = (&args.trace, &trace) {
                export_trace(trace, path);
            }
            let rendered = Rendered::new(experiment.name, report.as_ref());
            if args.json {
                println!("{}", rendered.to_json());
            } else {
                println!("{rendered}");
            }
            if let Err(problem) = report.check() {
                eprintln!("exp {}: check failed: {problem}", experiment.name);
                std::process::exit(1);
            }
        }
    }
}

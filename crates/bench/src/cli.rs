//! The one strict reader of the `exp` binary's command line and
//! environment.
//!
//! `--smoke` and `--json` are accepted everywhere, `--trace <path>` where
//! the registry entry declares it, and nothing else; an unknown argument, an undeclared flag, an unknown
//! experiment, or an `MLIR_RL_SCALE` / `MLIR_RL_WORKERS` value that does
//! not parse prints the problem and a usage line and exits with status 2.
//! A typo never silently runs something else: `--smokey` is not the
//! standard scale, `MLIR_RL_SCALE=smok` is not `standard`,
//! `MLIR_RL_WORKERS=two` is not "all cores".

use std::path::PathBuf;

use crate::registry::{self, Experiment};
use crate::{ExperimentScale, DEFAULT_TRACE_CAPACITY};

/// What one run was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// `--smoke` wins; otherwise `MLIR_RL_SCALE` decides (default
    /// `standard`).
    pub scale: ExperimentScale,
    /// `MLIR_RL_WORKERS`, defaulting to the machine's available
    /// parallelism; always at least 1.
    pub workers: usize,
    /// Print the machine-readable JSON report instead of text.
    pub json: bool,
    /// Write a Chrome trace-event JSON trace to this path.
    pub trace: Option<PathBuf>,
}

impl ExpArgs {
    /// A text-mode, untraced run at `scale` on `workers` threads.
    pub fn new(scale: ExperimentScale, workers: usize) -> Self {
        Self {
            scale,
            workers: workers.max(1),
            json: false,
            trace: None,
        }
    }

    /// The per-ring event capacity to trace with, when `--trace` was given.
    pub fn trace_capacity(&self) -> Option<usize> {
        self.trace.as_ref().map(|_| DEFAULT_TRACE_CAPACITY)
    }
}

/// What the `exp` binary was asked to do.
#[derive(Debug, Clone)]
pub enum Command {
    /// `exp list`: print the registry.
    List,
    /// `exp paper [--smoke] [--json]`: the deterministic paper set.
    Paper(ExpArgs),
    /// `exp <name> [flags]`: one experiment.
    Run(&'static Experiment, ExpArgs),
}

/// The flag engine: `args` are the arguments after the experiment name,
/// `trace` whether `--trace <path>` (record a structured service trace and
/// export it as Chrome trace-event JSON) is accepted, `scale_var` /
/// `workers_var` the values of `MLIR_RL_SCALE` / `MLIR_RL_WORKERS` (`None`
/// when unset).
pub fn try_parse(
    args: impl IntoIterator<Item = String>,
    trace: bool,
    scale_var: Option<&str>,
    workers_var: Option<&str>,
) -> Result<ExpArgs, String> {
    let workers = match workers_var {
        None => mlir_rl_agent::default_rollout_workers(),
        Some(value) => value.parse::<usize>().map_err(|_| {
            format!("MLIR_RL_WORKERS must be a non-negative integer, not `{value}`")
        })?,
    };
    let mut out = ExpArgs::new(ExperimentScale::from_var(scale_var)?, workers);
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => out.scale = ExperimentScale::smoke(),
            "--json" => out.json = true,
            "--trace" if trace => {
                let path = iter
                    .next()
                    .ok_or_else(|| "--trace requires a path argument".to_string())?;
                out.trace = Some(PathBuf::from(path));
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(out)
}

/// The whole command line (without the program name) plus the two
/// environment values; `Err` carries the problem and the usage to print.
pub fn try_command(
    argv: impl IntoIterator<Item = String>,
    scale_var: Option<&str>,
    workers_var: Option<&str>,
) -> Result<Command, String> {
    let general = "usage: exp list | exp paper [--smoke] [--json] | exp <name> [flags]";
    let mut argv = argv.into_iter();
    let name = argv
        .next()
        .ok_or_else(|| format!("no experiment named\n{general}"))?;
    if name == "list" {
        return match argv.next() {
            None => Ok(Command::List),
            Some(extra) => Err(format!("unrecognized argument `{extra}`\nusage: exp list")),
        };
    }
    let experiment = registry::find(&name);
    if experiment.is_none() && name != "paper" {
        return Err(format!(
            "no experiment named `{name}` (see `exp list`)\n{general}"
        ));
    }
    let trace = experiment.is_some_and(|experiment| experiment.trace);
    let args = try_parse(argv, trace, scale_var, workers_var).map_err(|problem| {
        let trace = if trace { " [--trace <path>]" } else { "" };
        format!("{problem}\nusage: exp {name} [--smoke] [--json]{trace}")
    })?;
    Ok(match experiment {
        Some(experiment) => Command::Run(experiment, args),
        None => Command::Paper(args),
    })
}

/// Parses the process arguments and environment; on a problem prints it
/// with the usage to stderr and exits with status 2.
pub fn parse() -> Command {
    let var = |name| std::env::var(name).ok();
    let (scale, workers) = (var("MLIR_RL_SCALE"), var("MLIR_RL_WORKERS"));
    let command = try_command(
        std::env::args().skip(1),
        scale.as_deref(),
        workers.as_deref(),
    );
    command.unwrap_or_else(|problem| {
        eprintln!("exp: {problem}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn accepts_declared_flags_in_any_order() {
        let parsed = try_parse(
            args(&["--json", "--trace", "/tmp/t.json", "--smoke"]),
            true,
            Some("full"),
            Some("3"),
        )
        .expect("all flags declared");
        assert!(parsed.json && parsed.workers == 3);
        // `--smoke` wins over the variable.
        assert_eq!(parsed.scale, ExperimentScale::smoke());
        assert_eq!(parsed.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(parsed.trace_capacity(), Some(DEFAULT_TRACE_CAPACITY));
        // Every registry entry takes exactly the flags it declares.
        for experiment in &registry::EXPERIMENTS {
            for (flags, declared) in [
                (vec!["--smoke"], true),
                (vec!["--json"], true),
                (vec!["--trace", "t.json"], experiment.trace),
            ] {
                let mut argv = vec![experiment.name];
                argv.extend(flags);
                let command = try_command(args(&argv), None, None);
                assert_eq!(command.is_ok(), declared, "{argv:?}");
            }
        }
    }

    #[test]
    fn rejects_unknown_and_undeclared_flags() {
        assert!(try_parse(args(&["--smokey"]), true, None, None).is_err());
        // `--trace` exists on other experiments but is not declared here,
        // so it must be rejected rather than silently ignored.
        assert!(try_parse(args(&["--trace", "t.json"]), false, None, None).is_err());
        // The same rule for the two variables: a typo is an error, never
        // a silent default (`0` workers still clamps to 1).
        assert!(try_parse(args(&[]), false, Some("smok"), None).is_err());
        assert!(try_parse(args(&[]), false, None, Some("two")).is_err());
        assert_eq!(
            try_parse(args(&[]), false, Some("smoke"), Some("0")).map(|a| (a.scale, a.workers)),
            Ok((ExperimentScale::smoke(), 1))
        );
        // And for the experiment name and the two group commands.
        for argv in [
            &[][..],
            &["fig55"],
            &["fig5", "--smokey"],
            &["list", "--json"],
            &["paper", "--trace", "t.json"],
        ] {
            let problem = try_command(args(argv), None, None).expect_err("must be rejected");
            assert!(problem.contains("usage: exp"), "{problem}");
        }
        assert!(try_command(args(&["fig5"]), Some("smok"), None).is_err());
    }

    #[test]
    fn trace_requires_a_path() {
        assert!(try_parse(args(&["--trace"]), true, None, None).is_err());
    }

    #[test]
    fn empty_argv_is_the_default() {
        let parsed = try_parse(args(&[]), false, None, None).expect("empty is fine");
        assert_eq!(parsed.scale, ExperimentScale::standard());
        assert!(parsed.workers >= 1 && !parsed.json && parsed.trace.is_none());
        let list = try_command(args(&["list"]), None, None);
        assert!(matches!(list, Ok(Command::List)));
        let paper = try_command(args(&["paper", "--smoke", "--json"]), None, None);
        assert!(matches!(paper, Ok(Command::Paper(a)) if a.json));
    }
}

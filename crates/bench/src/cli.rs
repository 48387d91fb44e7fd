//! The `pim-bench` command-line interface: one CLI over the central
//! experiment registry.
//!
//! ```text
//! pim-bench list
//! pim-bench describe <name>
//! pim-bench run <name>... | all
//!     [--format table|json|csv] [--out <path>]
//!     [--threads N] [--seed N] [--set key=value]...
//!     [--arch <name>]... [--workload <WLn>]... [--dataflow <WS|OS|IS|FL|searched>]...
//!     [--strategy sfc|greedy]
//! pim-bench perf [--quick] [--out <path>] [--max-seconds N] [--gate <baseline.json>]
//! ```
//!
//! `run` builds one declarative [`Scenario`] from the flags, resolves it
//! once, and executes every requested experiment against a shared
//! [`pim_core::RunContext`] — so `run all` constructs the four 2.5D
//! platforms exactly once.

use std::fmt;

use dnn::Dataflow;
use mapper::StrategyKind;
use pim_core::{experiments, NoiArch, Scenario, ScenarioError};

use crate::output::{render, Format};

/// The `--help` text.
pub const USAGE: &str = "\
pim-bench — declarative experiment runner for the DATE 2024 reproduction

USAGE:
    pim-bench list                      list every registered experiment
    pim-bench describe <name>           show one experiment and its default scenario
    pim-bench run <name>... | all       run experiments (shared platforms)
    pim-bench perf                      time every experiment, write BENCH JSON

PERF OPTIONS:
    --quick                   CI scenario: WL1 only (full Table II otherwise)
    --out <path>              where to write the JSON (default: BENCH_18.json)
    --max-seconds <N>         fail (exit 1) if the optimized run-all exceeds N s
    --gate <baseline.json>    fail (exit 1) on >25% regression in the
                              fig3/dataflows/mapping_search cells vs the committed baseline

RUN OPTIONS:
    --format table|json|csv   output format (default: table)
    --out <path>              write the rendered output to a file instead of stdout
    --threads <N>             worker threads (results are identical for any N)
    --seed <N>                override the stochastic components' seeds
    --set <key=value>         SystemConfig override (repeatable; validated);
                              `faults.*` keys configure the resilience fault model
                              (e.g. faults.chip_mtbf_ms=20 faults.max_retries=5)
    --arch <name>             architecture subset: Floret, SIAM, Kite, SWAP (repeatable)
    --workload <WLn>          Table II mix subset (repeatable)
    --dataflow <mode>         dataflow subset: WS, OS, IS, FL, searched (repeatable)
    --strategy sfc|greedy     force the mapping strategy (default: per-arch paper choice)

EXAMPLES:
    pim-bench run fig3
    pim-bench run serving                  # multi-tenant fleet serving sweep
    pim-bench run resilience               # serving under a seeded fault plan
    pim-bench run resilience --set faults.chip_mtbf_ms=10 --set faults.timeout_ms=16
    pim-bench run dataflows --workload WL1 --dataflow WS --dataflow FL
    pim-bench run mapping_search --workload WL3   # searched loop nests vs the hand modes
    pim-bench run table1 fig3 --format json --out results.json
    pim-bench run all --format json        # every experiment, one JSON array
    pim-bench run fig5 --set sim_sampling=32 --set batch=4 --threads 1
    pim-bench run poisson --strategy greedy
    pim-bench perf --quick --max-seconds 300 --gate BENCH_13_quick.json";

/// A CLI failure, split by exit code.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (exit 2): unknown flag, missing value, bad format.
    Usage(String),
    /// Scenario resolution or experiment failure (exit 1).
    Run(ScenarioError),
    /// `--out` file could not be written (exit 1).
    Io(String),
    /// `pim-bench perf --max-seconds` ceiling exceeded (exit 1).
    Perf(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Perf(m) => f.write_str(m),
            CliError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `pim-bench list`
    List,
    /// `pim-bench describe <name>`
    Describe(String),
    /// `pim-bench run <names...> [flags]`
    Run {
        /// Requested experiment names (`all` already expanded).
        names: Vec<String>,
        /// The declarative scenario built from the flags (boxed: the
        /// serving block makes it by far the largest variant payload).
        scenario: Box<Scenario>,
        /// Output format.
        format: Format,
        /// Optional output file.
        out: Option<String>,
    },
    /// `pim-bench perf [--quick] [--out <path>] [--max-seconds N]
    /// [--gate <baseline.json>]`
    Perf {
        /// Use the reduced CI scenario (WL1 only).
        quick: bool,
        /// Where to write the JSON report.
        out: String,
        /// Optional hard ceiling on the optimized run-all wall time.
        max_seconds: Option<f64>,
        /// Committed `BENCH_*.json` to gate the fig3/dataflows/
        /// mapping_search cells against (>25% regression fails).
        gate: Option<String>,
    },
    /// `pim-bench help` / `--help`
    Help,
}

/// Parses CLI arguments (without the program name).
///
/// # Errors
///
/// [`CliError::Usage`] with a message naming the offending argument.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let usage = |m: String| CliError::Usage(m);
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "describe" => {
            let name = args
                .get(1)
                .ok_or_else(|| usage("describe: missing experiment name".into()))?;
            Ok(Command::Describe(name.clone()))
        }
        "perf" => {
            let mut quick = false;
            let mut out = "BENCH_18.json".to_string();
            let mut max_seconds = None;
            let mut gate = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                let mut value_of = |flag: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| usage(format!("{flag}: missing value")))
                };
                match arg.as_str() {
                    "--quick" => quick = true,
                    "--out" => out = value_of("--out")?,
                    "--max-seconds" => {
                        let v = value_of("--max-seconds")?;
                        max_seconds =
                            Some(v.parse::<f64>().map_err(|_| {
                                usage(format!("--max-seconds: invalid number `{v}`"))
                            })?);
                    }
                    "--gate" => gate = Some(value_of("--gate")?),
                    flag => return Err(usage(format!("perf: unknown flag `{flag}`"))),
                }
            }
            Ok(Command::Perf {
                quick,
                out,
                max_seconds,
                gate,
            })
        }
        "run" => {
            let mut names: Vec<String> = Vec::new();
            let mut scenario = Scenario::new("");
            let mut format = Format::Table;
            let mut out = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                let mut value_of = |flag: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| usage(format!("{flag}: missing value")))
                };
                match arg.as_str() {
                    "--format" => {
                        format = value_of("--format")?.parse().map_err(usage)?;
                    }
                    "--out" => out = Some(value_of("--out")?),
                    "--threads" => {
                        let v = value_of("--threads")?;
                        scenario.threads = Some(
                            v.parse()
                                .map_err(|_| usage(format!("--threads: invalid count `{v}`")))?,
                        );
                    }
                    "--seed" => {
                        let v = value_of("--seed")?;
                        scenario.seed = Some(
                            v.parse()
                                .map_err(|_| usage(format!("--seed: invalid seed `{v}`")))?,
                        );
                    }
                    "--set" => {
                        let v = value_of("--set")?;
                        let (key, value) = v.split_once('=').ok_or_else(|| {
                            usage(format!("--set: expected key=value, got `{v}`"))
                        })?;
                        scenario
                            .overrides
                            .push((key.to_string(), value.to_string()));
                    }
                    "--arch" => {
                        let v = value_of("--arch")?;
                        scenario.archs.push(v.parse::<NoiArch>().map_err(usage)?);
                    }
                    "--workload" => scenario.workloads.push(value_of("--workload")?),
                    "--strategy" => {
                        let v = value_of("--strategy")?;
                        scenario.strategy = Some(v.parse::<StrategyKind>().map_err(usage)?);
                    }
                    "--dataflow" => {
                        let v = value_of("--dataflow")?;
                        scenario.dataflows.push(
                            v.parse::<Dataflow>()
                                .map_err(|_| usage(format!("--dataflow: unknown mode `{v}`")))?,
                        );
                    }
                    flag if flag.starts_with('-') => {
                        return Err(usage(format!("run: unknown flag `{flag}`")));
                    }
                    name => names.push(name.to_string()),
                }
            }
            if names.is_empty() {
                return Err(usage("run: missing experiment name (or `all`)".into()));
            }
            if names.iter().any(|n| n == "all") {
                names = experiments::registry()
                    .names()
                    .iter()
                    .map(ToString::to_string)
                    .collect();
            }
            scenario.experiment.clone_from(&names[0]);
            Ok(Command::Run {
                names,
                scenario: Box::new(scenario),
                format,
                out,
            })
        }
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

/// Executes a parsed command, returning the text to print on stdout.
///
/// # Errors
///
/// [`CliError::Run`] for unknown experiments or failed scenarios,
/// [`CliError::Io`] when `--out` cannot be written.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    let registry = experiments::registry();
    match cmd {
        Command::Help => Ok(format!("{USAGE}\n")),
        Command::List => {
            let mut out = String::new();
            for spec in registry.specs() {
                out.push_str(&format!("{:<18} {}\n", spec.name, spec.description));
            }
            Ok(out)
        }
        Command::Describe(name) => {
            let spec = registry
                .get(name)
                .ok_or_else(|| CliError::Run(ScenarioError::UnknownExperiment(name.clone())))?;
            let resolved = Scenario::new(spec.name).resolve().map_err(CliError::Run)?;
            let archs: Vec<&str> = resolved.archs.iter().map(NoiArch::name).collect();
            let dataflows: Vec<&str> = resolved.dataflows.iter().map(|d| d.name()).collect();
            Ok(format!(
                "{}\n    {}\n\ndefault scenario:\n    archs:     {}\n    workloads: {}\n    \
                 dataflows: {}\n    threads:   {}\n    seed:      paper defaults\n\nspec (JSON):\n{}\n",
                spec.name,
                spec.description,
                archs.join(", "),
                resolved.workloads.join(", "),
                dataflows.join(", "),
                resolved.threads,
                serde_json::to_string_pretty(&Scenario::new(spec.name)).expect("serializable"),
            ))
        }
        Command::Perf {
            quick,
            out,
            max_seconds,
            gate,
        } => {
            let report = crate::perf::run(*quick).map_err(CliError::Run)?;
            std::fs::write(out, report.to_json())
                .map_err(|e| CliError::Io(format!("--out {out}: {e}")))?;
            let mut text = format!("{}wrote perf report to {out}\n", report.summary());
            if let Some(baseline_path) = gate {
                let baseline = std::fs::read_to_string(baseline_path)
                    .map_err(|e| CliError::Io(format!("--gate {baseline_path}: {e}")))?;
                match report.gate_against(&baseline) {
                    Ok(summary) => text.push_str(&summary),
                    Err(failure) => return Err(CliError::Perf(format!("{failure}\n{text}"))),
                }
            }
            if let Some(max) = *max_seconds {
                let took = report.run_all.optimized_ms / 1e3;
                if took > max {
                    return Err(CliError::Perf(format!(
                        "perf: optimized run-all took {took:.1} s, over the {max:.1} s ceiling\n{text}"
                    )));
                }
            }
            Ok(text)
        }
        Command::Run {
            names,
            scenario,
            format,
            out,
        } => {
            // Fail fast on unknown names before any platform is built.
            for name in names {
                if registry.get(name).is_none() {
                    return Err(CliError::Run(ScenarioError::UnknownExperiment(
                        name.clone(),
                    )));
                }
            }
            let resolved = scenario.resolve().map_err(CliError::Run)?;
            let ctx = pim_core::RunContext::new(resolved);
            let mut outputs = Vec::with_capacity(names.len());
            for name in names {
                outputs.push(registry.run(&ctx, name).map_err(CliError::Run)?);
            }
            let rendered = render(&outputs, *format);
            match out {
                Some(path) => {
                    std::fs::write(path, &rendered)
                        .map_err(|e| CliError::Io(format!("--out {path}: {e}")))?;
                    Ok(format!("wrote {} experiment(s) to {path}\n", outputs.len()))
                }
                None => Ok(rendered),
            }
        }
    }
}

/// Full CLI entry point: parses, executes, prints, returns the exit
/// code (0 ok, 1 run failure, 2 usage).
pub fn run_from<I: IntoIterator<Item = String>>(args: I) -> i32 {
    let args: Vec<String> = args.into_iter().collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("pim-bench: {e}\n\n{USAGE}");
            return 2;
        }
    };
    match execute(&cmd) {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e @ CliError::Usage(_)) => {
            eprintln!("pim-bench: {e}\n\n{USAGE}");
            2
        }
        Err(e) => {
            eprintln!("pim-bench: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_run_with_every_flag() {
        let cmd = parse(&argv(&[
            "run",
            "dataflows",
            "--format",
            "json",
            "--threads",
            "2",
            "--seed",
            "9",
            "--set",
            "batch=4",
            "--arch",
            "floret",
            "--workload",
            "WL1",
            "--dataflow",
            "FL",
            "--strategy",
            "greedy",
            "--out",
            "/tmp/x.json",
        ]))
        .unwrap();
        let Command::Run {
            names,
            scenario,
            format,
            out,
        } = cmd
        else {
            panic!("expected run");
        };
        assert_eq!(names, vec!["dataflows"]);
        assert_eq!(format, Format::Json);
        assert_eq!(out.as_deref(), Some("/tmp/x.json"));
        assert_eq!(scenario.threads, Some(2));
        assert_eq!(scenario.seed, Some(9));
        assert_eq!(scenario.overrides, vec![("batch".into(), "4".into())]);
        assert_eq!(scenario.archs, vec![NoiArch::Floret { lambda: 6 }]);
        assert_eq!(scenario.workloads, vec!["WL1"]);
        assert_eq!(scenario.dataflows, vec![Dataflow::FusedLayer]);
        assert_eq!(scenario.strategy, Some(StrategyKind::Greedy));
    }

    #[test]
    fn searched_dataflow_parses_at_the_cli() {
        let Command::Run { scenario, .. } =
            parse(&argv(&["run", "dataflows", "--dataflow", "searched"])).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(scenario.dataflows, vec![Dataflow::Searched]);
        let err = parse(&argv(&["run", "dataflows", "--dataflow", "rowwise"])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("expected usage error");
        };
        assert!(msg.contains("rowwise"), "{msg}");
    }

    #[test]
    fn run_all_expands_to_the_registry() {
        let Command::Run { names, .. } = parse(&argv(&["run", "all"])).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(names.len(), experiments::registry().specs().len());
        assert!(names.contains(&"fig7".to_string()));
    }

    #[test]
    fn usage_errors_name_the_problem() {
        for (args, needle) in [
            (vec!["run"], "missing experiment"),
            (vec!["run", "fig3", "--format", "yaml"], "yaml"),
            (vec!["run", "fig3", "--set", "batch4"], "key=value"),
            (vec!["run", "fig3", "--bogus"], "--bogus"),
            (vec!["frobnicate"], "frobnicate"),
            (vec!["run", "fig3", "--arch", "torus"], "torus"),
            (vec!["run", "poisson", "--strategy", "fast"], "fast"),
        ] {
            let err = parse(&argv(&args)).unwrap_err();
            let CliError::Usage(msg) = err else {
                panic!("{args:?}: expected usage error");
            };
            assert!(msg.contains(needle), "{args:?}: {msg}");
        }
    }

    #[test]
    fn list_covers_the_registry_and_help_prints_usage() {
        let listing = execute(&Command::List).unwrap();
        for spec in experiments::registry().specs() {
            assert!(listing.contains(spec.name), "missing {}", spec.name);
        }
        assert!(execute(&Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn describe_shows_the_default_scenario() {
        let text = execute(&Command::Describe("fig3".into())).unwrap();
        assert!(text.contains("fig3"), "{text}");
        assert!(text.contains("Kite, SIAM, SWAP, Floret"), "{text}");
        assert!(text.contains("\"experiment\": \"fig3\""), "{text}");
        assert!(matches!(
            execute(&Command::Describe("fig99".into())),
            Err(CliError::Run(ScenarioError::UnknownExperiment(_)))
        ));
    }

    #[test]
    fn run_rejects_unknown_experiments_before_building_platforms() {
        let cmd = parse(&argv(&["run", "fig99"])).unwrap();
        assert!(matches!(
            execute(&cmd),
            Err(CliError::Run(ScenarioError::UnknownExperiment(_)))
        ));
    }

    #[test]
    fn run_table1_renders_all_formats() {
        for (fmt, needle) in [
            ("table", "Table I"),
            ("json", "\"experiment\": \"table1\""),
            ("csv", "# experiment: table1"),
        ] {
            let cmd = parse(&argv(&["run", "table1", "--format", fmt])).unwrap();
            let text = execute(&cmd).unwrap();
            assert!(text.contains(needle), "{fmt}: {text}");
        }
    }
}

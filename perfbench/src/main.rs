//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload, prints every metric by name and unit, then one
//! JSON result line. Exits 1 when an operation failed, 2 on bad
//! arguments or a set-up the repository cannot build.

use std::process::ExitCode;

use perfbench::run::{result_json, run};
use perfbench::workloads::{Kind, Seeds};

const USAGE: &str =
    "usage: perfbench --workload <paper_all|noi_hifi|serving|resilience> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--spans <file>]";

struct Args {
    kind: Kind,
    seeds: Seeds,
    seconds: f64,
    traced: bool,
    spans: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seeds = Seeds::paper();
    let mut seconds = 10.0;
    let mut traced = false;
    let mut spans = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => kind = Some(value()?.parse::<Kind>()?),
            "--seed" => {
                let v = value()?;
                seeds =
                    Seeds::from_seed(v.parse().map_err(|_| format!("--seed: bad number `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: bad duration `{v}`"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                }
            }
            "--spans" => spans = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seeds,
        seconds,
        traced,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(args.kind, args.seeds, args.seconds, args.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.kind.name());
            return ExitCode::from(2);
        }
    };
    for f in &report.failures {
        println!("FAILED {f}");
    }
    let (setup_raw, cpu_raw, calib) = report.raw_medians;
    println!(
        "iterations: {} untraced body CPU s {:?}",
        report.iteration_cpu_s.len(),
        report.iteration_cpu_s
    );
    println!("raw medians: setup {setup_raw} s, body {cpu_raw} s, calibration kernel {calib} s");
    for m in &report.metrics {
        let note = if m.measured {
            ""
        } else {
            "  (not simulated by this workload)"
        };
        println!("{:<22} {:>16.6} {}{note}", m.name, m.value, m.unit);
    }
    if let (Some(path), Some(json)) = (&args.spans, &report.spans_json) {
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("perfbench: --spans {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", result_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

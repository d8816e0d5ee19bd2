//! `ccs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit and sample count, then one
//! JSON result line. Exits non-zero when any correctness check failed.

use ccs_perfbench::{run, Args, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: ccs-perfbench --workload <plan_scale|online_stream|serve_mixed> --seed <n> \
     --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ccs-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ccs-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mode = if args.trace { "traced" } else { "end-to-end" };
    println!(
        "{} seed={} ({mode}): {} of {} checks passed",
        args.workload,
        args.seed,
        outcome.checks.attempted - outcome.checks.failed,
        outcome.checks.attempted
    );
    for m in &outcome.metrics {
        println!(
            "  {:<30} {:>16.6} {:<6} n={:<8} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    for msg in &outcome.checks.messages {
        println!("CHECK FAILED: {msg}");
    }
    for m in outcome.metrics.iter().filter(|m| !m.value.is_finite()) {
        println!("CHECK FAILED: metric {} is not a finite number", m.name);
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

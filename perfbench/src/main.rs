//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`.
//!
//! A traced run executes a fixed number of rounds, `seconds` times the
//! workload's nominal round rate, so its counts repeat exactly for a seed.

use perfbench::gen::{Workload, FULL_ROWS};
use perfbench::{run, Budget, RunConfig};
use std::process::ExitCode;

/// Rounds per second a traced run is given, per workload: about what this
/// benchmark's reference host completes with tracing on.
fn traced_rounds_per_second(w: Workload) -> f64 {
    match w {
        Workload::SkipHot => 110.0,
        Workload::ScanUniform => 1.1,
        Workload::ServeChurn => 9.0,
    }
}

fn parse() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value} (skip-hot, scan-uniform, serve-churn)")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of (0, 600]"));
    }
    let budget = if trace {
        Budget::Rounds((seconds * traced_rounds_per_second(workload)).ceil() as u64)
    } else {
        Budget::Seconds(seconds)
    };
    let trace_out = trace.then(|| format!("perfbench/traces/{}.tsv", workload.name()).into());
    Ok(RunConfig {
        workload,
        seed,
        rows: FULL_ROWS,
        budget,
        trace,
        trace_out,
    })
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

//! Command-line entry point; see the crate docs.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{Provenance, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, RunConfig, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Stores and segment files live under the working directory (the
    // checkout root), one directory per process.
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
    };
    println!(
        "{}",
        Provenance::collect(args.seed, &work).json(&args.workload)
    );
    let mut outcome = workloads::run(&args.workload, &cfg).expect("workload name was checked");
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        outcome
            .metrics
            .set("failed_share", outcome.checks.failed_share());
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in outcome.checks.failed() {
        println!("# FAILED: {failure}");
    }
    println!("{}", outcome.metrics.result_line(declared, &outcome.checks));
    if outcome.checks.failed().is_empty() && outcome.checks.attempted() > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

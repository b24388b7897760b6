//! QuGeo benchmark: one command runs a workload of the paper pipeline
//! and prints its metrics, last line a JSON result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fwi_pipeline|vqc_train|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result carries every end-to-end metric; with
//! `--trace 1` the run also records spans around its calls into each
//! layer and the result carries every per-layer metric instead. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod calib;
mod env;
mod fit;
mod fwi;
mod report;
mod serve;
mod stats;
mod trace;
mod vqc;

use std::process::ExitCode;

use env::{json_escape, Fingerprint};
use report::{Outcome, END_TO_END, PER_LAYER};
use trace::Recorder;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input of the run is made from.
    pub seed: u64,
    /// How long the timed phase runs (at least its minimum repetitions).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["fwi_pipeline", "vqc_train", "serve"];

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Writes a traced run's spans beside the benchmark executable.
pub fn write_trace(rec: &Recorder, workload: &str, seed: u64) {
    let path = env::out_dir().join(format!("trace-{workload}-seed{seed}.jsonl"));
    match rec.write_json(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::probe();
    println!(
        "{{\"fingerprint\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        fingerprint.to_json(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let out: Outcome = match args.workload.as_str() {
        "fwi_pipeline" => fwi::run(&args),
        "vqc_train" => vqc::run(&args),
        _ => serve::run(&args),
    };
    for problem in &out.problems {
        eprintln!("problem: {problem}");
    }
    if out.problem_count > out.problems.len() {
        eprintln!(
            "… and {} more problems",
            out.problem_count - out.problems.len()
        );
    }

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            // A layer this workload bypasses did no work.
            None if args.trace => 0.0,
            measured => {
                eprintln!("error: metric {name} was not measured ({measured:?}); no result");
                return ExitCode::FAILURE;
            }
        };
        if value != 0.0 && value.abs() < 1e-3 {
            println!("{name:<32} {value:>16.6e} {unit}");
        } else {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problem_count == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    let record = env::out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let saved = std::fs::write(
        &record,
        format!(
            "{{\"fingerprint\": {}, \"workload\": \"{}\", \"seed\": {}, \"result\": {result}}}\n",
            fingerprint.to_json(),
            json_escape(&args.workload),
            args.seed
        ),
    );
    if let Err(e) = saved {
        eprintln!("could not write {}: {e}", record.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}

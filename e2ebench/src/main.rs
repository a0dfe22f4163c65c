//! End-to-end benchmark of gdlog through the entry points users hit.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <ring_cold|islands_factored|mc_walks|serve_warm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it sends the same requests again through the traced path and
//! reports per-layer metrics, writing the spans to
//! `$CARGO_TARGET_DIR/e2ebench-traces/` (or `e2ebench/target/…`). Every
//! answer is checked against a reference computed before timing starts.
//! The last line of standard output is the result as one JSON object; the
//! line before it holds the run's metadata. See `e2ebench/README.md`.

mod harness;
mod islands;
mod respond;
mod ring;
mod serve;
mod speed;
mod stats;
mod sys;
mod trace;

use harness::{Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["ring_cold", "islands_factored", "mc_walks", "serve_warm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds takes a positive number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A JSON string literal (the values here are plain ASCII).
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A finite number as JSON, with every digit.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metadata<W: Workload>(workload: &W, args: &Args, outcome: &Outcome) -> String {
    let mut members = vec![
        ("workload", quoted(&args.workload)),
        ("trace", args.trace.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", number(args.seconds)),
        ("nproc", sys::nproc().to_string()),
        (
            "available_parallelism",
            sys::available_parallelism().to_string(),
        ),
        ("executor_threads", workload.executor_threads().to_string()),
        ("callers", workload.callers().to_string()),
        ("git_commit", quoted(&sys::git_commit())),
        ("rustc", quoted(sys::rustc_version())),
    ];
    members.extend(outcome.meta.iter().cloned());
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {v}", quoted(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from)
        .join("e2ebench-traces")
}

fn run<W: Workload>(workload: W, args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        let outcome = harness::measure(&workload, args.seconds);
        println!("{}", metadata(&workload, args, &outcome));
        return Ok(outcome);
    }
    let (outcome, trace) = harness::trace(&workload, args.seconds);
    let meta = metadata(&workload, args, &outcome);
    let dir = trace_dir();
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace.write_json(&meta)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    println!("{meta}");
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "ring_cold" => run(ring::RingCold::new(args.seed), &args),
        "islands_factored" => run(islands::Islands::new(args.seed), &args),
        "mc_walks" => run(ring::McWalks::new(args.seed), &args),
        _ => run(serve::ServeWarm::new(args.seed), &args),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        eprintln!("{:<26} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(m.name),
                number(m.value),
                quoted(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.tally.attempted,
        outcome.tally.failed(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units the benchmark prints are the ones its
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap_or(""))
            .collect();
        let mut printed: Vec<&str> = WORKLOADS.to_vec();
        printed.extend(harness::END_TO_END.iter().map(|&(name, _)| name));
        printed.extend(harness::per_layer_names().iter().map(|&(name, _)| name));
        assert_eq!(declared, printed);
        for (name, unit) in harness::END_TO_END
            .iter()
            .copied()
            .chain(harness::per_layer_names())
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{entry} not in BENCHMARK.json");
        }
    }
}

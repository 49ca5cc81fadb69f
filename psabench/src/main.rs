//! Benchmark of the PSA pipeline.
//!
//! ```text
//! cargo run --release --manifest-path psabench/Cargo.toml -- \
//!     --workload detect|monitor|localize --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a readable report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use psa_runtime::Engine;
use psabench::metrics::{end_to_end, per_layer, report};
use psabench::report::{peak_rss_mb, result_line};
use psabench::workload::Config;
use psabench::{detect, localize, monitor};
use std::process::ExitCode;

const USAGE: &str =
    "usage: psabench --workload detect|monitor|localize --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("psabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "detect" => detect::run(&config),
        "monitor" => monitor::run(&config),
        "localize" => localize::run(&config),
        _ => unreachable!("parse accepts only known workloads"),
    };
    let rss = peak_rss_mb();
    let metrics = if config.trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome, rss.unwrap_or(f64::NAN))
    };
    print!("{}", report(&workload, &outcome, &metrics));
    let correct = outcome.compared > 0
        && outcome.mismatches == 0
        && outcome.run.failed() == 0
        && outcome
            .traced
            .as_ref()
            .is_ok_and(|t| config.trace != t.is_empty())
        && rss.is_some();
    println!(
        "{}",
        result_line(
            correct,
            outcome.run.attempted(),
            outcome.run.failed(),
            &metrics
        )
    );
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["detect", "monitor", "localize"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be finite and non-negative".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok((
        workload,
        Config {
            seed,
            seconds,
            trace,
            engine: Engine::from_env(),
        },
    ))
}

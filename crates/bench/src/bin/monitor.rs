//! Streaming run-time monitor: online detection from a live record
//! stream under Trojan activation schedules (Sec. II-A / VI-D).
//!
//! ```text
//! monitor [--jobs N] [--seeds K] [--bench-json [PATH]]
//! ```
//!
//! Prints a deterministic cycle-stamped event log (byte-identical at
//! any worker count — CI `cmp`s `--jobs 1` against `PSA_JOBS=2`);
//! timing/engine chatter goes to stderr, and `--bench-json` writes the
//! per-stage wall times (default path `BENCH_monitor.json`).

use psa_bench::experiments;
use psa_bench::harness::{bench_json_path, engine_from_cli, positive_usize_arg, ArtifactTimer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = engine_from_cli(&args);
    let json_path = bench_json_path(&args, "BENCH_monitor.json");
    let seeds = positive_usize_arg(&args, "--seeds", 1);
    let mut timer = ArtifactTimer::new();

    println!("== Streaming run-time monitor: event log (Sec. II-A / VI-D) ==");
    let chip = timer.time("build_chip", None, experiments::build_chip);
    // Learn the run-time baseline once per process (its own timed
    // stage) and share it across every session — the event log stays
    // byte-identical because the sessions see the same baseline bits
    // either way.
    let baseline = timer.time("learn_baseline", None, || {
        psa_runtime::Campaign::new(&chip, engine).learn_baseline(experiments::RUNTIME_BASELINE_SEED)
    });
    let outcomes = timer.time("monitor_sessions", None, || {
        experiments::monitor_outcomes_with(&chip, &engine, seeds, &baseline)
    });
    print!("{}", experiments::monitor_event_log(&outcomes));

    eprintln!(
        "[psa-runtime] monitor: {} worker(s), {} session(s), total wall {:.2} s",
        engine.workers(),
        outcomes.len(),
        timer.total_s()
    );
    for (name, secs, _) in timer.entries() {
        eprintln!("[psa-runtime]   {name:<16} {secs:>9.3} s");
    }
    if let Some(path) = json_path {
        timer
            .write_json(&path, engine.workers())
            .expect("bench-json path is writable");
        eprintln!("[psa-runtime] wrote {}", path.display());
    }
}

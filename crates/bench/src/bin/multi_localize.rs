//! Multi-emitter joint localization: K concurrent synthetic emitters
//! recovered by successive cancellation over the hypothesis grid —
//! count, location, and drive power per source (Sec. VI-D generalized
//! from one source to K; the atlas is the one-source case).
//!
//! ```text
//! multi_localize [--max-k K] [--grid G] [--tuples T] [--seeds S]
//!                [--jobs N] [--bench-json [PATH]]
//! ```
//!
//! Draws `T` deterministic placement tuples per source count
//! `1..=K` from a `G`×`G` site grid, evaluates every tuple at three
//! VDD/temperature corners × `S` seed replicas, and prints the per-K
//! accuracy table (exact-count rate, mean per-source error, miss /
//! false-alarm rates, drive-power error). Stdout is byte-identical at
//! any worker count — CI `cmp`s `--jobs 1` against `PSA_JOBS=2`; rates
//! go to stderr, and `--bench-json` writes `psa-bench-json/1` counted
//! stages (default path `BENCH_multiloc.json`) that `bench_check`
//! gates, per record or tuple, against the committed seed. Set `PSA_BENCH_FAST=1`
//! for a reduced smoke shape.

use psa_bench::experiments;
use psa_bench::harness::{
    bench_json_path, digest, engine_from_cli, positive_usize_arg, ArtifactTimer,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = engine_from_cli(&args);
    let json_path = bench_json_path(&args, "BENCH_multiloc.json");
    let fast = std::env::var("PSA_BENCH_FAST").is_ok_and(|v| v != "0");
    let (dk, dg, dt) = if fast { (2, 3, 2) } else { (3, 4, 3) };
    let max_k = positive_usize_arg(&args, "--max-k", dk);
    let grid = positive_usize_arg(&args, "--grid", dg);
    let tuples_per_k = positive_usize_arg(&args, "--tuples", dt);
    let seeds = positive_usize_arg(&args, "--seeds", 1);
    let mut timer = ArtifactTimer::new();

    println!(
        "== Multi-emitter joint localization: K=1..{max_k}, {grid}x{grid} sites, {tuples_per_k} tuple(s)/K =="
    );
    let chip = experiments::build_chip();
    let n_sensors = chip.sensor_bank().len();

    // Stage 1: per-corner baselines + amplitude-to-drive calibrations
    // (one baseline sweep over every sensor plus one calibration per
    // corner, counted as sensors + 1 units per corner).
    let campaign = timer.time(
        "multiloc_setup",
        Some((experiments::atlas_corners(seeds).len() * (n_sensors + 1)) as u64),
        || experiments::multiloc_campaign(&chip, &engine, seeds),
    );
    let tuples = experiments::multiloc_tuples(
        &chip,
        campaign.localizer().config(),
        max_k,
        grid,
        tuples_per_k,
    );
    let jobs = experiments::multiloc_jobs(&tuples, campaign.corners());

    // Stage 2: the joint-localization fan-out, one unit per tuple.
    let outcomes = timer.time("multiloc_tuples", Some(jobs.len() as u64), || {
        campaign
            .run(&jobs)
            .expect("every generated tuple is on-die and separated")
    });
    let counts: Vec<f64> = outcomes
        .iter()
        .map(|o| o.outcome.sources.len() as f64)
        .collect();
    let errors: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.score.pairs.iter().map(|p| p.error_um))
        .collect();
    println!(
        "stage multiloc_tuples: {} tuples, count digest {}, error digest {}",
        outcomes.len(),
        digest(&counts),
        digest(&errors)
    );
    print!(
        "{}",
        experiments::multiloc_report(campaign.corners(), &outcomes, max_k)
    );

    eprintln!(
        "[psa-runtime] multi_localize: {} worker(s), {} tuple(s), total wall {:.2} s",
        engine.workers(),
        outcomes.len(),
        timer.total_s()
    );
    for (name, secs, n) in timer.entries() {
        let n = n.unwrap_or_default();
        eprintln!(
            "[psa-runtime]   {name:<16} {n:>7} units {secs:>9.3} s  {:>10.2} units/s",
            ArtifactTimer::rate(*secs, n)
        );
    }
    if let Some(path) = json_path {
        timer
            .write_json(&path, engine.workers())
            .expect("bench-json path is writable");
        eprintln!("[psa-runtime] wrote {}", path.display());
    }
}

//! Localization-accuracy atlas: parametric synthetic-Trojan placement
//! sweeps scored as localization error in µm (Sec. VI-D, extended from
//! five fixed sites to a floorplan-wide accuracy surface).
//!
//! ```text
//! localize_atlas [--jobs N] [--grid G] [--seeds K] [--bench-json [PATH]]
//! ```
//!
//! Sweeps a `G`×`G` grid of reference emitters (default 6×6) over the
//! die at three VDD/temperature corners × `K` seed replicas, each
//! placement a one-emitter tuple through the joint-localization
//! campaign (`psa_runtime::multiloc`), and prints a deterministic
//! grid-of-errors report: per-corner accuracy statistics, the nominal
//! corner's error grid, and the error-vs-distance-to-nearest-sensor
//! trend. Stdout is byte-identical
//! at any worker count — CI `cmp`s `--jobs 1` against `PSA_JOBS=2`;
//! timing/engine chatter goes to stderr, and `--bench-json` writes the
//! per-stage wall times (default path `BENCH_localize_atlas.json`).

use psa_bench::experiments;
use psa_bench::harness::{bench_json_path, engine_from_cli, positive_usize_arg, ArtifactTimer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = engine_from_cli(&args);
    let json_path = bench_json_path(&args, "BENCH_localize_atlas.json");
    let grid = positive_usize_arg(&args, "--grid", 6);
    let seeds = positive_usize_arg(&args, "--seeds", 1);
    let mut timer = ArtifactTimer::new();

    println!("== Localization-accuracy atlas: placement sweep (Sec. VI-D) ==");
    let chip = timer.time("build_chip", None, experiments::build_chip);
    let campaign = timer.time("atlas_baselines", None, || {
        experiments::multiloc_campaign(&chip, &engine, seeds)
    });
    let jobs = experiments::atlas_jobs(&chip, grid, campaign.corners());
    let outcomes = timer.time("atlas_placements", None, || {
        campaign
            .run(&jobs)
            .expect("every grid placement lies on the die")
    });
    print!(
        "{}",
        experiments::atlas_report(
            campaign.corners(),
            &jobs,
            &outcomes,
            campaign.localizer().sweep().sensor_centers(),
            grid
        )
    );

    eprintln!(
        "[psa-runtime] localize_atlas: {} worker(s), {} placement(s), total wall {:.2} s",
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

//! Detector bake-off: every scored backend (the three Table I methods
//! plus the reference-free statistics) swept over decision thresholds
//! into per-Trojan ROC curves with trapezoid AUC.
//!
//! ```text
//! bakeoff [--seeds N] [--jobs N] [--bench-json [PATH]]
//! ```
//!
//! Stdout carries only deterministic artifacts — the score-matrix
//! digest and the ROC/AUC table, byte-identical at any worker count, so
//! CI can `cmp` a serial run against `PSA_JOBS=2`. Rates go to stderr,
//! and `--bench-json` writes `psa-bench-json/1` rate stages (default
//! path `BENCH_bakeoff.json`) that `bench_check --rates` gates against
//! the committed seed. Set `PSA_BENCH_FAST=1` for a reduced smoke shape
//! (fewer seeds, reduced trace budgets).
//!
//! A "cell" is one `(detector, scenario, seed)` score; the ROC sweep
//! itself is microseconds — acquisition dominates, so cells/sec is the
//! tracked product metric.

use psa_bench::harness::{bench_json_path, digest, positive_usize_arg, ArtifactTimer};
use psa_core::detector::{
    BackscatterDetector, CrossDomainDetector, CrossScalePersistenceDetector, Detector,
    EuclideanDetector, SpectralKurtosisDetector, SpectralOutlierDetector,
};
use psa_runtime::{Bakeoff, Campaign};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = psa_bench::harness::engine_from_cli(&args);
    let json_path = bench_json_path(&args, "BENCH_bakeoff.json");
    let fast = std::env::var("PSA_BENCH_FAST").is_ok_and(|v| v != "0");
    let seeds = positive_usize_arg(&args, "--seeds", if fast { 2 } else { 4 });
    let mut timer = ArtifactTimer::new();

    println!("== detector bake-off: {seeds} seeds per scenario, thresholds swept to ROC/AUC ==");
    let chip = psa_bench::experiments::build_chip();

    // Stage 1: the shared cross-domain baseline (one job per sensor).
    let campaign = Campaign::new(&chip, engine);
    let baseline = timer.time(
        "bakeoff_baseline",
        Some(chip.sensor_bank().len() as u64),
        || campaign.learn_baseline(psa_bench::experiments::RUNTIME_BASELINE_SEED),
    );

    // The roster: Table I's three methods plus the reference-free
    // statistics, trace budgets reduced in fast mode (the ROC sweep is
    // budget-independent; only the score noise floor moves).
    let (euclid_traces, backscatter_traces, outlier_traces, persistence_traces) =
        if fast { (8, 10, 2, 1) } else { (24, 24, 3, 2) };
    let cross = CrossDomainDetector::with_baseline(baseline);
    let euclid = EuclideanDetector::single_coil(euclid_traces);
    let backscatter = BackscatterDetector::new(backscatter_traces);
    let outlier = SpectralOutlierDetector::new(outlier_traces);
    let persistence = CrossScalePersistenceDetector::new(persistence_traces);
    let kurtosis = SpectralKurtosisDetector::new(outlier_traces);
    let detectors: [&dyn Detector; 6] = [
        &cross,
        &euclid,
        &backscatter,
        &outlier,
        &persistence,
        &kurtosis,
    ];

    // Stage 2: the score fan-out — every (detector, scenario, seed)
    // cell one engine job.
    let bakeoff = Bakeoff::new(&chip, engine, seeds);
    let cell_count = (detectors.len() * 5 * seeds) as u64;
    let report = timer.time("bakeoff_cells", Some(cell_count), || {
        bakeoff.run(&detectors).expect("bake-off on built-in chip")
    });

    let scores: Vec<f64> = report.cells.iter().map(|c| c.score).collect();
    println!(
        "stage bakeoff_cells: {} cells, digest {}",
        report.cells.len(),
        digest(&scores)
    );
    print!("{}", report.table().render());

    let aucs: Vec<f64> = report.curves.iter().map(|c| c.auc).collect();
    println!("auc digest {}", digest(&aucs));

    eprintln!(
        "[psa-runtime] bakeoff: {} worker(s), {} detectors, total wall {:.2} s",
        engine.workers(),
        detectors.len(),
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

//! Runs every table/figure regeneration in sequence (the EXPERIMENTS.md
//! source of truth), on the parallel campaign engine.
//!
//! ```text
//! repro_all [--jobs N] [--bench-json [PATH]]
//! ```
//!
//! `--bench-json` writes per-artifact wall times as JSON (default path
//! `BENCH_repro_all.json`) — the seed for `BENCH_*.json` timing
//! trajectory tracking in CI. Timing/engine chatter goes to stderr so
//! stdout stays byte-comparable across worker counts.

use psa_bench::experiments;
use psa_bench::harness::{bench_json_path, ArtifactTimer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = psa_bench::harness::engine_from_cli(&args);
    let json_path = bench_json_path(&args, "BENCH_repro_all.json");
    let mut timer = ArtifactTimer::new();

    let chip = timer.time("build_chip", None, experiments::build_chip);
    // Learn the run-time baseline once and share it across
    // mttd/table1/monitor — the learning pass is identical in every
    // stage, so sharing it cannot change stdout.
    let baseline = timer.time("learn_shared", None, || {
        psa_runtime::Campaign::new(&chip, engine).learn_baseline(experiments::RUNTIME_BASELINE_SEED)
    });
    println!("== Table II: Trojan gates count and percentage ==");
    print!(
        "{}",
        timer.time("table2", None, experiments::table2).render()
    );
    println!("\n== SNR comparison (Sec. VI-B, Eq. 1) ==");
    print!(
        "{}",
        timer
            .time("snr_compare", None, || experiments::snr_table(
                &chip, &engine
            ))
            .render()
    );
    println!("\n== Fig 3: spectrum magnitude, PSA vs external EM probe ==");
    print!(
        "{}",
        timer.time("fig3", None, || experiments::fig3_report(&chip, &engine))
    );
    println!("\n== Fig 4: emergent sideband components, sensors 10 and 0 ==");
    print!(
        "{}",
        timer
            .time("fig4", None, || experiments::fig4_table(&chip, &engine))
            .render()
    );
    println!("\n== Fig 5: zero-span time-domain identification at 48 MHz ==");
    print!(
        "{}",
        timer.time("fig5", None, || experiments::fig5_report(&chip, &engine))
    );
    println!("\n== Sec. VI-C: sensor impedance across V/T corners ==");
    print!(
        "{}",
        timer.time("vt_sweep", None, experiments::vt_table).render()
    );
    println!("\n== Sec. VI-D: run-time MTTD ==");
    print!(
        "{}",
        timer
            .time("mttd", None, || {
                experiments::mttd_table_with(&chip, &engine, &baseline)
            })
            .render()
    );
    println!("\n== Table I: comparison of EM side-channel methods ==");
    print!(
        "{}",
        timer
            .time("table1", None, || {
                experiments::table1(&chip, 2, &engine, &baseline)
            })
            .render()
    );
    println!("\n== Streaming run-time monitor: event log (Sec. II-A) ==");
    print!(
        "{}",
        timer.time("monitor", None, || {
            experiments::monitor_event_log(&experiments::monitor_outcomes_with(
                &chip, &engine, 1, &baseline,
            ))
        })
    );

    eprintln!(
        "[psa-runtime] repro_all: {} worker(s), total wall {:.2} s",
        engine.workers(),
        timer.total_s()
    );
    for (name, secs, _) in timer.entries() {
        eprintln!("[psa-runtime]   {name:<12} {secs:>9.3} s");
    }
    if let Some(path) = json_path {
        timer
            .write_json(&path, engine.workers())
            .expect("bench-json path is writable");
        eprintln!("[psa-runtime] wrote {}", path.display());
    }
}

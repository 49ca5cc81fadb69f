//! Fleet-scale streaming monitor: thousands of seeded per-die chip
//! streams multiplexed through the engine, with sharded baselines and
//! chips/sec + records/sec as tracked product metrics.
//!
//! ```text
//! fleet [--chips N] [--records N] [--jobs N] [--bench-json [PATH]]
//! ```
//!
//! Stdout carries only deterministic artifacts — the [`FleetReport`]
//! and float digests byte-identical at any worker count, so CI can
//! `cmp` a serial run against `PSA_JOBS=2`. Rates go to stderr, and
//! `--bench-json` writes `psa-bench-json/1` rate stages (default path
//! `BENCH_fleet.json`) that `bench_check --rates` gates against the
//! committed seed. Set `PSA_BENCH_FAST=1` for a reduced smoke shape.
//!
//! A "record" is one full-resolution capture
//! (`calib::RECORD_CYCLES × calib::SAMPLES_PER_CYCLE` samples); the
//! `fleet_chips` stage re-expresses the same monitored pass in
//! chips/sec.

use psa_bench::harness::{bench_json_path, digest, positive_usize_arg, ArtifactTimer};
use psa_runtime::fleet::{Fleet, FleetConfig, FleetReport};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = psa_bench::harness::engine_from_cli(&args);
    let json_path = bench_json_path(&args, "BENCH_fleet.json");
    let fast = std::env::var("PSA_BENCH_FAST").is_ok_and(|v| v != "0");
    let default_config = FleetConfig::default();
    let (default_chips, default_records) = if fast {
        (32, 4)
    } else {
        (default_config.chips, default_config.records)
    };
    let chips = positive_usize_arg(&args, "--chips", default_chips);
    let records = positive_usize_arg(&args, "--records", default_records);
    let config = FleetConfig {
        chips,
        records,
        baseline_records: if fast {
            2
        } else {
            default_config.baseline_records
        },
        ..default_config
    };
    let mut timer = ArtifactTimer::new();

    println!(
        "== fleet streaming monitor: {} chips x {} records (Sec. II-A at fleet scale) ==",
        config.chips, config.records
    );
    let chip = psa_bench::experiments::build_chip();
    let fleet = Fleet::new(&chip, config).expect("validated fleet shape");
    let cfg = fleet.config();

    // Stage 1: sharded per-die baseline learning, merged in submission
    // order.
    let baseline_records = (cfg.chips * cfg.baseline_records) as u64;
    let baselines = timer.time("fleet_baselines", Some(baseline_records), || {
        fleet.learn_baselines(&engine).expect("fleet baselines")
    });
    let baseline_means: Vec<f64> = (0..baselines.chips())
        .map(|c| {
            let db = baselines.chip_db(c);
            db.iter().sum::<f64>() / db.len() as f64
        })
        .collect();
    println!(
        "stage fleet_baselines: {} records, digest {}",
        baseline_records,
        digest(&baseline_means)
    );

    // Stage 2: the multiplexed monitored pass — measured once, recorded
    // in two units (records/sec and chips/sec).
    let stream_records = (cfg.chips * cfg.records) as u64;
    // Sanctioned wall-clock read: feeds the throughput report only,
    // never a byte-compared artifact (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let outcomes = fleet.run(&engine, &baselines).expect("fleet streams");
    let stream_wall = t0.elapsed().as_secs_f64();
    timer.record("fleet_stream", stream_wall, Some(stream_records));
    timer.record("fleet_chips", stream_wall, Some(cfg.chips as u64));
    let detect_records: Vec<f64> = outcomes
        .iter()
        .map(|o| o.detect_record.map_or(-1.0, |r| r as f64))
        .collect();
    println!(
        "stage fleet_stream: {} records, digest {}",
        stream_records,
        digest(&detect_records)
    );

    let report = FleetReport::from_outcomes(&outcomes, cfg);
    print!("{report}");

    eprintln!(
        "[psa-runtime] fleet: {} worker(s), baseline store {} KB, total wall {:.2} s",
        engine.workers(),
        baselines.approx_bytes() / 1024,
        timer.total_s() - stream_wall
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

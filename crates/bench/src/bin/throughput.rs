//! Per-stage hot-path throughput in records/sec: acquisition, the chip
//! half of a record (warm-up, activity and currents), the front-end
//! noise sampler, the sensor-batched 16-sensor sweep, spectral
//! transforms (historical complex FFT vs the packed real-input FFT),
//! the production spectrum pipeline, monitor ticks, Trojan
//! identification (zero-span envelope, then envelope features), and an
//! engine-parallel campaign stage.
//!
//! ```text
//! throughput [--jobs N] [--bench-json [PATH]]
//! ```
//!
//! Stdout carries only deterministic artifacts — per-stage record
//! counts and float digests byte-identical at any worker count — so CI
//! can diff a serial run against `PSA_JOBS=2`. Rates go to stderr, and
//! `--bench-json` writes them as `psa-bench-json/1` with `records` and
//! `records_per_s` fields per stage (default path
//! `BENCH_throughput.json`), the document `bench_check` gates on
//! seconds per record. Set `PSA_BENCH_FAST=1` to cut record counts (CI smoke).
//!
//! A "record" is one full-resolution capture:
//! `calib::RECORD_CYCLES × calib::SAMPLES_PER_CYCLE` samples
//! (8192 × 8 = 65 536 at 264 MS/s). The `zero_span` and `identify`
//! stages count envelopes instead: one envelope is the identification
//! zero-span of six concatenated records.

use psa_bench::harness::{bench_json_path, digest, ArtifactTimer};
use psa_core::acquisition::{AcqContext, TraceSet};
use psa_core::chip::SensorSelect;
use psa_core::cross_domain::{AnalyzerConfig, Baseline};
use psa_core::identify::extract_features;
use psa_core::monitor::{ActivationSchedule, SlidingConfig, SlidingDetector, StreamSource};
use psa_core::scenario::Scenario;
use psa_dsp::window::Window;
use psa_dsp::zero_span::ZeroSpan;
use psa_field::noise::GaussianNoise;
use psa_gatesim::activity::ActivitySimulator;
use psa_gatesim::current::trace_to_currents_into;
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::Campaign;

/// The sensor every stage reads — the paper's best-coupled PSA coil.
const SENSOR: usize = 10;

/// Per-stage record counts: `(acquire, sensor-sweep records per
/// sensor, noise draws and transforms, monitor ticks, identification
/// envelopes, campaign jobs)`.
fn record_counts() -> (usize, usize, usize, usize, usize, usize) {
    let fast = std::env::var("PSA_BENCH_FAST").is_ok_and(|v| v != "0");
    if fast {
        (2, 1, 8, 4, 1, 2)
    } else {
        (32, 2, 256, 24, 8, 32)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = psa_bench::harness::engine_from_cli(&args);
    let json_path = bench_json_path(&args, "BENCH_throughput.json");
    let (n_acquire, n_sweep, n_transform, n_ticks, n_envelopes, n_jobs) = record_counts();
    let mut timer = ArtifactTimer::new();

    let chip = psa_bench::experiments::build_chip();
    let mut ctx = AcqContext::new(&chip);
    let scenario = Scenario::baseline().with_seed(0x7B);
    println!("== hot-path throughput (records of {} samples) ==", {
        psa_core::calib::RECORD_CYCLES * psa_core::calib::SAMPLES_PER_CYCLE
    });

    // Stage 1: full record acquisition (gatesim → currents → EMF →
    // analog front end), the pipeline ahead of any spectral work.
    let mut traces = TraceSet::default();
    timer.time("acquire", Some(n_acquire as u64), || {
        ctx.acquire_into(&scenario, SensorSelect::Psa(SENSOR), n_acquire, &mut traces)
            .expect("built-in sensor acquisition");
    });
    let acquire_rms: Vec<f64> = traces.records.iter().map(|r| rms(r)).collect();
    println!(
        "stage acquire: {n_acquire} records, digest {}",
        digest(&acquire_rms)
    );

    // Stage 1a: the chip half of a one-sensor record, as a monitor tick
    // pays it — a fresh simulator past its warm-up, one record of
    // activity, and every source's current synthesized.
    let mut currents = Vec::new();
    let mut charge_sums = Vec::with_capacity(n_acquire);
    timer.time("gatesim", Some(n_acquire as u64), || {
        for record in 0..n_acquire as u64 {
            let scenario = scenario.clone().with_seed(0x7B + record);
            let mut sim = ActivitySimulator::new(scenario.chip_config());
            let _ = sim.advance(scenario.warmup_cycles);
            let trace = sim.advance(psa_core::calib::RECORD_CYCLES);
            trace_to_currents_into(
                &trace,
                chip.charges_fc(),
                psa_core::calib::CLK_HZ,
                &mut currents,
            );
            charge_sums.push(currents.iter().flat_map(|(_, i)| i).sum::<f64>());
        }
    });
    println!(
        "stage gatesim: {n_acquire} records, digest {}",
        digest(&charge_sums)
    );

    // Stage 1b: the front end's unit-normal noise draw — one record's
    // Box–Muller stream filled in place, as each acquired record pays it.
    let record_len = psa_core::calib::RECORD_CYCLES * psa_core::calib::SAMPLES_PER_CYCLE;
    let mut unit = vec![0.0; record_len];
    let mut noise_sums = Vec::with_capacity(n_transform);
    timer.time("noise", Some(n_transform as u64), || {
        for record in 0..n_transform as u64 {
            GaussianNoise::new(1.0, 0x7B ^ record).fill(&mut unit);
            noise_sums.push(unit.iter().sum::<f64>());
        }
    });
    println!(
        "stage noise: {n_transform} records, digest {}",
        digest(&noise_sums)
    );

    // Stage 1c: one sensor-batched sweep of the whole array — one
    // activity pass per record feeding all 16 sensors' EMF, front end
    // and spectrum. Counted in sensor records (sweep records × sensors),
    // the unit of the one-sensor `acquire` stage.
    let n_sensors = chip.sensor_bank().len();
    let spectra = timer.time("sensor_sweep", Some((n_sweep * n_sensors) as u64), || {
        ctx.sensor_sweep_db(&scenario, n_sweep, psa_core::calib::RECORD_CYCLES, &[])
            .expect("built-in sensor sweep")
    });
    let sweep_peaks: Vec<f64> = spectra
        .iter()
        .map(|s| s.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)))
        .collect();
    println!(
        "stage sensor_sweep: {} records, digest {}",
        n_sweep * n_sensors,
        digest(&sweep_peaks)
    );

    // Stages 2–3: the transform the tentpole halved, old vs new on the
    // same windowed record — full complex spectrum via `fft::rfft`
    // (historical path) against the packed one-sided real-input FFT.
    let windowed = Window::Hann.applied(&traces.records[0]);
    let mut last_bin = Vec::new();
    timer.time("fft_complex", Some(n_transform as u64), || {
        for _ in 0..n_transform {
            let spec = psa_dsp::fft::rfft(&windowed).expect("pow2 record");
            last_bin.push(spec[spec.len() / 4].re);
        }
    });
    println!(
        "stage fft_complex: {n_transform} records, digest {}",
        digest(&last_bin)
    );
    last_bin.clear();
    timer.time("fft_real", Some(n_transform as u64), || {
        for _ in 0..n_transform {
            let spec = psa_dsp::rfft::rfft_one_sided(&windowed).expect("pow2 record");
            last_bin.push(spec[spec.len() / 4].re);
        }
    });
    println!(
        "stage fft_real: {n_transform} records, digest {}",
        digest(&last_bin)
    );

    // Stage 4: the production per-record spectrum pipeline (window +
    // packed FFT + amplitude scaling through cached scratch buffers).
    let mut peaks = Vec::new();
    timer.time("spectrum", Some(n_transform as u64), || {
        for i in 0..n_transform {
            let record = &traces.records[i % traces.records.len()];
            let amp = ctx
                .fullres_amplitude_row(record)
                .expect("record-length spectrum");
            peaks.push(amp.iter().fold(0.0, |a: f64, &b| a.max(b)));
        }
    });
    println!(
        "stage spectrum: {n_transform} records, digest {}",
        digest(&peaks)
    );

    // Stage 5: streaming monitor ticks — acquisition plus the sliding
    // cached-row spectrum update and threshold compare, per tick.
    let baseline = one_sensor_baseline(&mut ctx);
    let stream = StreamSource::new(
        ActivationSchedule::trojan_at(TrojanKind::T1, 3, n_ticks).with_seed(0x7B17),
    );
    let config = SlidingConfig {
        min_window_records: 2,
        ..SlidingConfig::default()
    };
    let mut detector =
        SlidingDetector::new(&baseline, &[SENSOR], config).expect("valid monitor config");
    let mut alarm_records = Vec::new();
    timer.time("monitor", Some(n_ticks as u64), || {
        for record in 0..stream.horizon() {
            let scenario = stream.schedule().scenario_at(record);
            let obs = detector
                .observe(&mut ctx, &stream, &scenario, 0)
                .expect("monitor tick");
            if obs.newly_alarmed {
                alarm_records.push(record as f64);
            }
        }
    });
    println!(
        "stage monitor: {n_ticks} records, digest {}",
        digest(&alarm_records)
    );

    // Stage 5b: the pre-sliding-window monitor spectrum path — pull a
    // record, then re-transform the whole K-record ring — kept
    // measurable so the cached-row win stays an observed number rather
    // than a claim.
    let mut ring = TraceSet::default();
    let mut fresh = TraceSet::default();
    let mut mid_bins = Vec::new();
    timer.time("monitor_fullring", Some(n_ticks as u64), || {
        for record in 0..stream.horizon() {
            let scenario = stream.schedule().scenario_at(record);
            ctx.acquire_into(&scenario, SensorSelect::Psa(SENSOR), 1, &mut fresh)
                .expect("monitor pull");
            ring.fs_hz = fresh.fs_hz;
            ring.sensor = fresh.sensor;
            ring.records.push(fresh.records[0].clone());
            if ring.records.len() > psa_core::calib::TRACES_PER_SPECTRUM {
                ring.records.remove(0);
            }
            let spec = ctx.fullres_spectrum_db(&ring).expect("ring spectrum");
            mid_bins.push(spec[spec.len() / 2]);
        }
    });
    println!(
        "stage monitor_fullring: {n_ticks} records, digest {}",
        digest(&mid_bins)
    );

    // Stages 6–7: Trojan identification on one T1 capture — the
    // zero-span envelope of the 48 MHz line (mixer + two decimating FIR
    // stages over six concatenated records), then its feature vector.
    // The acquisition is outside both timers.
    let t1 = Scenario::trojan_active(TrojanKind::T1).with_seed(0x1D);
    ctx.acquire_into(
        &t1,
        SensorSelect::Psa(SENSOR),
        psa_core::calib::IDENTIFY_RECORDS,
        &mut traces,
    )
    .expect("built-in sensor acquisition");
    let capture = traces.records.concat();
    let zs = ZeroSpan::with_rbw(48.0e6, traces.fs_hz, psa_core::calib::IDENTIFY_RBW_HZ)
        .expect("identification zero-span configuration");
    let mut envelope = Vec::new();
    timer.time("zero_span", Some(n_envelopes as u64), || {
        for _ in 0..n_envelopes {
            envelope = zs.envelope_trimmed(&capture).expect("six-record capture");
        }
    });
    println!(
        "stage zero_span: {n_envelopes} envelopes of {} samples, digest {}",
        envelope.len(),
        digest(&envelope)
    );
    let mut features = Vec::new();
    timer.time("identify", Some(n_envelopes as u64), || {
        for _ in 0..n_envelopes {
            features = extract_features(&envelope, zs.output_fs_hz())
                .expect("envelope long enough for features")
                .to_vec();
        }
    });
    println!(
        "stage identify: {n_envelopes} envelopes, digest {}",
        digest(&features)
    );

    // Stage 8: engine-parallel acquisition — one record per job across
    // distinct scenario seeds, reduced in submission order so stdout is
    // byte-identical at any worker count.
    let campaign = Campaign::new(&chip, engine);
    let seeds: Vec<u64> = (0..n_jobs as u64).map(|j| 0xC0DE + 131 * j).collect();
    let job_rms = timer.time("campaign", Some(n_jobs as u64), || {
        campaign.run(&seeds, |ctx, _, &seed| {
            let mut out = TraceSet::default();
            ctx.acquire_into(
                &Scenario::baseline().with_seed(seed),
                SensorSelect::Psa(SENSOR),
                1,
                &mut out,
            )
            .expect("built-in sensor acquisition");
            rms(&out.records[0])
        })
    });
    println!(
        "stage campaign: {n_jobs} records, digest {}",
        digest(&job_rms)
    );

    eprintln!(
        "[psa-runtime] throughput: {} worker(s), total wall {:.2} s",
        engine.workers(),
        timer.total_s()
    );
    for (name, secs, records) in timer.entries() {
        let records = records.unwrap_or_default();
        eprintln!(
            "[psa-runtime]   {name:<12} {records:>5} records {secs:>9.3} s  {:>10.2} rec/s",
            ArtifactTimer::rate(*secs, records)
        );
    }
    if let Some(path) = json_path {
        timer
            .write_json(&path, engine.workers())
            .expect("bench-json path is writable");
        eprintln!("[psa-runtime] wrote {}", path.display());
    }
}

/// Root-mean-square of one record — a cheap deterministic digest input.
fn rms(record: &[f64]) -> f64 {
    (record.iter().map(|x| x * x).sum::<f64>() / record.len() as f64).sqrt()
}

/// Baseline with only [`SENSOR`] learned (placeholder rows elsewhere) —
/// keeps setup off the 16-sensor learning cost; the monitor stage never
/// reads the other slots.
fn one_sensor_baseline(ctx: &mut AcqContext<'_>) -> Baseline {
    let config = AnalyzerConfig::default();
    let mut per_sensor_db = vec![Vec::new(); SENSOR];
    per_sensor_db.push(Baseline::sensor_db_with(&config, ctx, 0xBA5E, SENSOR));
    Baseline { per_sensor_db }
}

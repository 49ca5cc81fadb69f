//! Benches — one per paper table/figure, measuring the hot pipeline
//! behind each artifact (plus the substrate kernels they lean on).
//! Regeneration binaries print the artifacts themselves; these benches
//! track the cost of producing them.
//!
//! Criterion is unavailable offline, so these run on the std-only
//! [`psa_bench::harness::Harness`] (`harness = false` target).

use psa_bench::experiments;
use psa_bench::harness::Harness;
use psa_core::acquisition::AcqContext;
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::scenario::Scenario;
use psa_dsp::window::Window;
use psa_dsp::{fft, spectrum, zero_span::ZeroSpan, Complex};
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

/// Table II: floorplan construction + gate-count accounting.
fn bench_table2(h: &Harness) {
    h.bench("table2_gate_counts", || {
        let fp = psa_layout::floorplan::Floorplan::date24_test_chip();
        std::hint::black_box(fp.gate_count_table());
    });
}

/// SNR row (Sec. VI-B): one full signal+noise acquisition on sensor 10.
fn bench_snr(h: &Harness) {
    let chip = chip();
    h.bench("snr_sensor10", || {
        std::hint::black_box(
            psa_core::snr::measure_snr_with(
                &mut AcqContext::new(chip),
                SensorSelect::Psa(10),
                1,
                7,
            )
            .unwrap(),
        );
    });
}

/// Table I's core cost: one cross-domain detection decision (single
/// sensor watch, five traces) — the run-time monitor's inner loop, on a
/// fresh context per decision.
fn bench_table1(h: &Harness) {
    let chip = chip();
    let scenario = Scenario::trojan_active(psa_gatesim::trojan::TrojanKind::T4);
    h.bench("table1_detection_decision", || {
        let mut ctx = AcqContext::new(chip);
        let traces = ctx.acquire(&scenario, SensorSelect::Psa(10), 5).unwrap();
        std::hint::black_box(ctx.fullres_spectrum_db(&traces).unwrap());
    });
}

/// Fig 3: the averaged 2000-point display trace, on a fresh context.
fn bench_fig3(h: &Harness) {
    let chip = chip();
    let traces = AcqContext::new(chip)
        .acquire(&Scenario::baseline(), SensorSelect::Psa(10), 5)
        .unwrap();
    h.bench("fig3_display_trace", || {
        std::hint::black_box(AcqContext::new(chip).spectrum_db(&traces).unwrap());
    });
}

/// Fig 4: full-resolution spectrum of one acquired trace set, on a
/// fresh context.
fn bench_fig4(h: &Harness) {
    let chip = chip();
    let traces = AcqContext::new(chip)
        .acquire(&Scenario::baseline(), SensorSelect::Psa(10), 5)
        .unwrap();
    h.bench("fig4_fullres_spectrum", || {
        std::hint::black_box(AcqContext::new(chip).fullres_spectrum_db(&traces).unwrap());
    });
}

/// Fig 5: zero-span demodulation + feature extraction.
fn bench_fig5(h: &Harness) {
    let fs = 264.0e6;
    let zs = ZeroSpan::with_rbw(48.0e6, fs, 0.95e6).unwrap();
    let n = 65_536;
    let x: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            (1.0 + 0.5 * (2.0 * std::f64::consts::PI * 750.0e3 * t).sin())
                * (2.0 * std::f64::consts::PI * 48.0e6 * t).cos()
        })
        .collect();
    let env = zs.envelope_trimmed(&x).unwrap();
    h.bench("fig5_zero_span", || {
        std::hint::black_box(zs.envelope(&x).unwrap());
    });
    h.bench("fig5_feature_extraction", || {
        std::hint::black_box(
            psa_core::identify::extract_features(&env, 8.25e6).expect("envelope long enough"),
        );
    });
}

/// Sec. VI-C: the V/T impedance sweep.
fn bench_vt_sweep(h: &Harness) {
    h.bench("vt_sweep", || {
        std::hint::black_box(experiments::vt_sweep());
    });
}

/// Sec. VI-D: one MTTD monitor iteration (acquire one record + compare)
/// on a fresh context.
fn bench_mttd(h: &Harness) {
    let chip = chip();
    let scenario = Scenario::trojan_active(psa_gatesim::trojan::TrojanKind::T4);
    h.bench("mttd_monitor_iteration", || {
        let mut ctx = AcqContext::new(chip);
        let traces = ctx.acquire(&scenario, SensorSelect::Psa(10), 1).unwrap();
        std::hint::black_box(ctx.fullres_spectrum_db(&traces).unwrap());
    });
}

/// Substrate kernels the artifacts lean on: FFT and activity synthesis.
fn bench_substrates(h: &Harness) {
    let mut buf: Vec<Complex> = (0..65_536)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0))
        .collect();
    h.bench("fft_65536", || {
        fft::fft(&mut buf).unwrap();
        std::hint::black_box(&buf);
    });
    let x: Vec<f64> = (0..65_536).map(|i| (i as f64 * 0.11).sin()).collect();
    h.bench("amplitude_spectrum_65536", || {
        std::hint::black_box(spectrum::amplitude_spectrum(&x, Window::Hann));
    });
    let mut sim =
        psa_gatesim::activity::ActivitySimulator::new(psa_gatesim::activity::ChipConfig::default());
    h.bench("activity_8192_cycles", || {
        std::hint::black_box(sim.advance(8192));
    });
}

/// The batch (plan-once) spectrum path vs the one-shot path above, and
/// the reusable-context acquisition the campaign workers run on. These
/// guard the hot-path allocation work: the scratch variants must not
/// regress against their one-shot counterparts.
fn bench_batch_paths(h: &Harness) {
    use psa_dsp::batch::{FftPlan, SpectrumScratch};

    let x: Vec<f64> = (0..65_536).map(|i| (i as f64 * 0.11).sin()).collect();
    let mut scratch = SpectrumScratch::new(Window::Hann);
    scratch.amplitude_spectrum(&x).unwrap(); // warm the plan
    h.bench("amplitude_spectrum_scratch", || {
        std::hint::black_box(scratch.amplitude_spectrum(&x).unwrap().len());
    });

    let plan = FftPlan::new(65_536).unwrap();
    let mut buf: Vec<Complex> = (0..65_536)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0))
        .collect();
    h.bench("fft_65536_planned", || {
        plan.forward(&mut buf).unwrap();
        std::hint::black_box(&buf);
    });

    let mut ctx = AcqContext::new(chip());
    let scenario = Scenario::trojan_active(psa_gatesim::trojan::TrojanKind::T4);
    let mut traces = psa_core::acquisition::TraceSet::default();
    h.bench("table1_decision_ctx_reuse", || {
        ctx.acquire_into(&scenario, SensorSelect::Psa(10), 5, &mut traces)
            .unwrap();
        std::hint::black_box(ctx.fullres_spectrum_db(&traces).unwrap());
    });
}

/// Engine dispatch overhead: a fan-out of trivially cheap jobs.
fn bench_engine_dispatch(h: &Harness) {
    use psa_runtime::Engine;
    let jobs: Vec<u64> = (0..256).collect();
    let engine = Engine::from_env();
    h.bench("engine_dispatch_256_jobs", || {
        std::hint::black_box(engine.map(&jobs, |i, &x| x.wrapping_mul(i as u64 + 1)));
    });
}

fn main() {
    let h = Harness::from_env();
    bench_table2(&h);
    bench_snr(&h);
    bench_table1(&h);
    bench_fig3(&h);
    bench_fig4(&h);
    bench_fig5(&h);
    bench_vt_sweep(&h);
    bench_mttd(&h);
    bench_substrates(&h);
    bench_batch_paths(&h);
    bench_engine_dispatch(&h);
}

//! Pins Trojan identification's hot path bit for bit: the zero-span
//! envelope and every `EnvelopeFeatures` field of T1–T4 must equal a
//! test-local copy of the straightforward pipeline — full-rate FIR
//! filtering then `step_by` decimation, one-lag-at-a-time
//! autocorrelation computed once for the periodicity and once more for
//! the period, and a fresh sort per percentile.

use psa_core::acquisition::{AcqContext, TraceSet};
use psa_core::calib;
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::identify::{extract_features, EnvelopeFeatures};
use psa_core::scenario::Scenario;
use psa_dsp::filter::FirFilter;
use psa_dsp::window::Window;
use psa_dsp::{correlate, stats};
use psa_gatesim::trojan::TrojanKind;
use std::f64::consts::PI;

const SENSOR: usize = 10;
const LINE_HZ: f64 = 48.0e6;
const RECORDS: usize = 6;

/// `ZeroSpan::with_rbw(..).envelope_trimmed(..)` with each stage
/// filtered at its full input rate and then decimated.
fn reference_envelope(signal: &[f64], fs_hz: f64, center_hz: f64, rbw_hz: f64) -> Vec<f64> {
    let rbw = rbw_hz.min(fs_hz / 8.0);
    let decim1 = ((fs_hz / (10.0 * rbw)).floor() as usize).clamp(1, 16);
    let fs1 = fs_hz / decim1 as f64;
    let cutoff1 = (0.4 * fs1).min(0.45 * fs_hz);
    let stage1 = FirFilter::low_pass(cutoff1, fs_hz, 129, Window::Hamming).unwrap();
    let stage2 = FirFilter::low_pass(rbw, fs1, 301, Window::Hamming).unwrap();
    let decim2 = ((fs1 / (8.0 * rbw)).floor() as usize).max(1);

    let w = 2.0 * PI * center_hz / fs_hz;
    let i_mixed: Vec<f64> = signal
        .iter()
        .enumerate()
        .map(|(n, &x)| x * (w * n as f64).cos())
        .collect();
    let q_mixed: Vec<f64> = signal
        .iter()
        .enumerate()
        .map(|(n, &x)| -x * (w * n as f64).sin())
        .collect();
    let stage = |fir: &FirFilter, x: &[f64], decim: usize| -> Vec<f64> {
        full_rate_filter(fir.taps(), x)
            .into_iter()
            .step_by(decim)
            .collect()
    };
    let i1 = stage(&stage1, &i_mixed, decim1);
    let q1 = stage(&stage1, &q_mixed, decim1);
    let i2 = stage(&stage2, &i1, decim2);
    let q2 = stage(&stage2, &q1, decim2);
    let env: Vec<f64> = i2
        .iter()
        .zip(&q2)
        .map(|(&i, &q)| 2.0 * psa_dsp::Complex::new(i, q).abs())
        .collect();
    let trim1 = stage1.taps().len() / (decim1 * decim2);
    let trim2 = stage2.taps().len() / decim2;
    let trim = (trim1 + trim2).max(1);
    env[trim..env.len() - trim].to_vec()
}

/// "Same"-mode filtering at the full input rate by direct linear
/// convolution (zero samples skipped), delay-compensated for a
/// symmetric filter.
fn full_rate_filter(taps: &[f64], signal: &[f64]) -> Vec<f64> {
    let mut full = vec![0.0; (signal.len() + taps.len()).saturating_sub(1)];
    for (i, &x) in signal.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &t) in taps.iter().enumerate() {
            full[i + j] += x * t;
        }
    }
    let delay = (taps.len() - 1) / 2;
    full.into_iter().skip(delay).take(signal.len()).collect()
}

/// Biased autocorrelation, one lag at a time.
fn reference_autocorrelation(x: &[f64], max_lag: usize) -> Vec<f64> {
    let m = stats::mean(x);
    let centered: Vec<f64> = x.iter().map(|v| v - m).collect();
    let denom: f64 = centered.iter().map(|v| v * v).sum();
    let scale = x.iter().map(|v| v * v).sum::<f64>().max(f64::MIN_POSITIVE);
    if denom <= scale * 1e-24 {
        return vec![0.0; max_lag];
    }
    (0..max_lag)
        .map(|lag| {
            let mut acc = 0.0;
            for i in 0..x.len() - lag {
                acc += centered[i] * centered[i + lag];
            }
            acc / denom
        })
        .collect()
}

/// `extract_features` as it read with the autocorrelation computed
/// twice and a fresh sort behind every percentile.
fn reference_features(envelope: &[f64], fs_hz: f64) -> EnvelopeFeatures {
    let mean = stats::mean(envelope);
    let centered: Vec<f64> = envelope.iter().map(|v| v - mean).collect();
    let env_spec = psa_dsp::spectrum::amplitude_spectrum(&centered, Window::Hann);
    let df = fs_hz / envelope.len() as f64;
    let lo_bin = ((200.0e3 / df) as usize).max(1);
    let hi_bin = ((8.0e6 / df) as usize).min(env_spec.len().saturating_sub(1));
    let (mod_freq_mhz, mod_prominence_db) = if lo_bin < hi_bin {
        let band = &env_spec[lo_bin..hi_bin];
        let median = stats::median(band).max(1e-18);
        let (arg, peak) = band
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &v)| (i, v))
            .unwrap_or((0, 0.0));
        let prom_db = 20.0 * (peak / median).log10();
        if prom_db > 10.0 {
            (((lo_bin + arg) as f64 * df) / 1.0e6, prom_db)
        } else {
            (0.0, prom_db.max(0.0))
        }
    } else {
        (0.0, 0.0)
    };
    let lf_hi = ((1.0e6 / df) as usize).min(env_spec.len());
    let lf_lo = 2.min(lf_hi);
    let total_energy: f64 = env_spec[lf_lo..].iter().map(|v| v * v).sum();
    let lf_energy: f64 = env_spec[lf_lo..lf_hi].iter().map(|v| v * v).sum();
    let lowfreq_fraction = if total_energy > 0.0 {
        lf_energy / total_energy
    } else {
        0.0
    };

    let max_lag = (envelope.len() / 2).min(4096);
    let ac = reference_autocorrelation(envelope, max_lag);
    let period_samples =
        correlate::dominant_period_of(&reference_autocorrelation(envelope, max_lag));
    let (period_us, periodicity) = match period_samples {
        Some(lag) if lag > 0 => {
            let strength = ac.get(lag).copied().unwrap_or(0.0).max(0.0);
            (lag as f64 / fs_hz * 1.0e6, strength)
        }
        _ => (0.0, 0.0),
    };

    let p95 = stats::percentile(envelope, 95.0);
    let p5 = stats::percentile(envelope, 5.0);
    let depth = if p95 + p5 > 0.0 {
        ((p95 - p5) / (p95 + p5)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let kurtosis = stats::kurtosis_excess(envelope);
    let lo = stats::percentile(envelope, 25.0);
    let hi = stats::percentile(envelope, 75.0);
    let band = (hi - lo).max(1e-12) * 0.25;
    let near_levels = envelope
        .iter()
        .filter(|&&v| (v - lo).abs() < band || (v - hi).abs() < band)
        .count();
    let telegraph = near_levels as f64 / envelope.len() as f64;
    EnvelopeFeatures {
        mod_freq_mhz,
        mod_prominence_db,
        lowfreq_fraction,
        period_us,
        periodicity,
        depth,
        kurtosis,
        telegraph,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn identification_features_match_reference_pipeline_bitwise() {
    let chip = TestChip::date24();
    let mut ctx = AcqContext::new(&chip);
    let env_fs = psa_dsp::zero_span::ZeroSpan::with_rbw(
        LINE_HZ,
        calib::sample_rate_hz(),
        calib::IDENTIFY_RBW_HZ,
    )
    .unwrap()
    .output_fs_hz();
    let mut traces = TraceSet::default();
    for kind in TrojanKind::ALL {
        let scenario = Scenario::trojan_active(kind).with_seed(555 + kind.index() as u64);
        let (envelope, envelope_fs) = ctx
            .zero_span_rbw(
                &scenario,
                SensorSelect::Psa(SENSOR),
                LINE_HZ,
                calib::IDENTIFY_RBW_HZ,
                RECORDS,
            )
            .unwrap();
        assert_eq!(envelope_fs.to_bits(), env_fs.to_bits(), "{kind} rate");
        ctx.acquire_into(&scenario, SensorSelect::Psa(SENSOR), RECORDS, &mut traces)
            .unwrap();
        let concat = traces.records.concat();
        let reference = reference_envelope(&concat, traces.fs_hz, LINE_HZ, calib::IDENTIFY_RBW_HZ);
        assert_eq!(bits(&envelope), bits(&reference), "{kind} envelope");

        let fast = extract_features(&envelope, env_fs).unwrap();
        let slow = reference_features(&reference, env_fs);
        assert_eq!(
            bits(&fast.to_vec()),
            bits(&slow.to_vec()),
            "{kind}: {fast:?} vs {slow:?}"
        );
    }
}

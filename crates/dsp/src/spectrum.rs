//! Spectral estimation: amplitude spectra, trace averaging, resampling
//! and decibel conversions.
//!
//! These routines are the software model of the paper's spectrum-analyzer
//! measurements: Fig 3 (PSA vs external probe magnitude spectra) and
//! Fig 4 (per-sensor spectra with Trojans active/inactive) are regenerated
//! through [`amplitude_spectrum`] and trace averaging.

use crate::error::DspError;
use crate::fastmath;
use crate::rfft::SpectrumPlan;
use crate::window::Window;

/// Floor used when converting near-zero powers to dB so that silent traces
/// produce a deep-but-finite noise floor instead of `-inf`.
pub const DB_FLOOR: f64 = -300.0;

/// Converts an amplitude ratio to decibels: `20·log10(x)`, clamped at
/// [`DB_FLOOR`], through the in-tree [`fastmath::log10`] kernel for
/// positive normal `x`. The other inputs never reach the kernel (it sees
/// `1.0` instead): zero, negative, NaN and subnormal ratios (whose dB
/// value lies far below the floor) read [`DB_FLOOR`], and `+∞` reads
/// `+∞`. Every choice is a select on values already computed, so a loop
/// over spectrum bins vectorizes.
#[inline]
// `Range::contains` here compiles to branches that keep the bin loops
// scalar (measured: 2x slower over a 32 769-bin spectrum).
#[allow(clippy::manual_range_contains)]
pub fn amplitude_db(x: f64) -> f64 {
    let normal = x >= f64::MIN_POSITIVE && x < f64::INFINITY;
    let db = (20.0 * fastmath::log10(if normal { x } else { 1.0 })).max(DB_FLOOR);
    if normal {
        db
    } else if x == f64::INFINITY {
        x
    } else {
        DB_FLOOR
    }
}

/// Inverse of [`amplitude_db`].
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// One-sided amplitude spectrum of a real signal.
///
/// Returns `n/2 + 1` values scaled so a full-scale sine of amplitude `A`
/// reads `A` at its bin (single-sided convention, window coherent gain
/// compensated). The final signal length is used as the FFT length (any
/// length is accepted; non powers of two go through Bluestein).
///
/// # Panics
///
/// Panics if `signal` is empty; use [`try_amplitude_spectrum`] for a
/// fallible variant.
pub fn amplitude_spectrum(signal: &[f64], window: Window) -> Vec<f64> {
    try_amplitude_spectrum(signal, window).expect("signal must be non-empty")
}

/// Fallible variant of [`amplitude_spectrum`].
///
/// Runs the shared [`SpectrumPlan`] of `(signal.len(), window)`: the
/// packed real-input FFT for power-of-two lengths, Bluestein for the
/// rest. The batched [`crate::batch::SpectrumScratch`] runs the same
/// plan, so batched and one-shot spectra are bit-identical.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `signal` is empty.
pub fn try_amplitude_spectrum(signal: &[f64], window: Window) -> Result<Vec<f64>, DspError> {
    let plan = SpectrumPlan::shared(signal.len(), window)?;
    let (mut re, mut im, mut amp) = (Vec::new(), Vec::new(), Vec::new());
    plan.amplitude_into(signal, &mut re, &mut im, &mut amp)?;
    Ok(amp)
}

/// Averages several magnitude traces point-wise, as the paper does ("we
/// averaged five collected traces to derive the spectrum").
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `traces` is empty, or
/// [`DspError::InvalidLength`] if the traces have differing lengths.
pub fn average_traces(traces: &[Vec<f64>]) -> Result<Vec<f64>, DspError> {
    let first = traces.first().ok_or(DspError::EmptyInput)?;
    let n = first.len();
    for t in traces {
        if t.len() != n {
            return Err(DspError::InvalidLength {
                what: "trace length (all traces must match)",
                got: t.len(),
            });
        }
    }
    let mut out = vec![0.0; n];
    for t in traces {
        for (o, v) in out.iter_mut().zip(t) {
            *o += v;
        }
    }
    let k = traces.len() as f64;
    for o in &mut out {
        *o /= k;
    }
    Ok(out)
}

/// Resamples a spectrum (or any series) to exactly `target_len` points by
/// linear interpolation; used to present the paper's "2000 sample points"
/// traces regardless of internal FFT size.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty series or
/// [`DspError::InvalidLength`] when `target_len == 0`.
pub fn resample_linear(series: &[f64], target_len: usize) -> Result<Vec<f64>, DspError> {
    if series.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if target_len == 0 {
        return Err(DspError::InvalidLength {
            what: "resample target length",
            got: 0,
        });
    }
    if series.len() == 1 {
        return Ok(vec![series[0]; target_len]);
    }
    if target_len == 1 {
        return Ok(vec![series[0]]);
    }
    let n = series.len();
    let mut out = Vec::with_capacity(target_len);
    for i in 0..target_len {
        let pos = i as f64 * (n - 1) as f64 / (target_len - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f64;
        out.push(series[lo] * (1.0 - frac) + series[hi] * frac);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rfft;
    use std::f64::consts::PI;

    fn tone(n: usize, fs: f64, f0: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * f0 * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn db_conversions_roundtrip() {
        for &x in &[1e-6, 0.5, 1.0, 3.7, 1e4] {
            assert!((db_to_amplitude(amplitude_db(x)) - x).abs() / x < 1e-12);
        }
        assert_eq!(amplitude_db(0.0), DB_FLOOR);
    }

    #[test]
    fn db_edge_inputs_keep_their_libm_results() {
        let libm_amp = |x: f64| {
            if x <= 0.0 {
                DB_FLOOR
            } else {
                (20.0 * x.log10()).max(DB_FLOOR)
            }
        };
        let edges = [
            0.0,
            -0.0,
            -1.0,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            1e-300,
            1e-15,
            1e-30,
            f64::MAX,
            f64::INFINITY,
        ];
        for x in edges {
            assert_eq!(
                amplitude_db(x).to_bits(),
                libm_amp(x).to_bits(),
                "amplitude_db({x:e})"
            );
        }
    }

    #[test]
    fn db_values_stay_within_tolerance_of_libm() {
        // The policy bound on a dB value is 1e-12 dB.
        let mut worst: f64 = 0.0;
        for i in 0..100_000 {
            let x = 10f64.powf(-15.0 + 21.0 * i as f64 / 100_000.0);
            worst = worst.max((amplitude_db(x) - 20.0 * x.log10()).abs());
        }
        assert!(worst <= 1e-12, "max dB deviation {worst:e}");
    }

    #[test]
    fn amplitudes_stay_within_one_ulp_of_hypot() {
        let x: Vec<f64> = (0..4096)
            .map(|i| ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5)
            .collect();
        let spec = amplitude_spectrum(&x, Window::Hann);
        let windowed = Window::Hann.applied(&x);
        let z = rfft::rfft_one_sided(&windowed).unwrap();
        let scale = 2.0 / (x.len() as f64 * Window::Hann.coherent_gain(x.len()));
        for (k, (a, z)) in spec.iter().zip(&z).enumerate().skip(1).take(2046) {
            let reference = z.abs() * scale;
            assert!(
                (a - reference).abs() <= f64::EPSILON * reference,
                "bin {k}: {a:e} vs {reference:e}"
            );
        }
    }

    #[test]
    fn amplitude_spectrum_reads_tone_amplitude() {
        let fs = 1000.0;
        let n = 1024;
        let f0 = fs * 100.0 / n as f64; // exactly bin 100
        for window in [Window::Rectangular, Window::Hann, Window::FlatTop] {
            let x = tone(n, fs, f0, 0.75);
            let spec = amplitude_spectrum(&x, window);
            let peak = spec.iter().cloned().fold(0.0, f64::max);
            assert!(
                (peak - 0.75).abs() < 0.01,
                "{window}: peak {peak} expected 0.75"
            );
        }
    }

    #[test]
    fn amplitude_spectrum_dc_reads_mean() {
        let x = vec![0.42; 512];
        let spec = amplitude_spectrum(&x, Window::Rectangular);
        assert!((spec[0] - 0.42).abs() < 1e-12);
    }

    #[test]
    fn spectrum_length_is_one_sided() {
        let x = vec![0.0; 256];
        assert_eq!(amplitude_spectrum(&x, Window::Hann).len(), 129);
        let x = vec![0.0; 255];
        assert_eq!(amplitude_spectrum(&x, Window::Hann).len(), 128);
    }

    #[test]
    fn average_traces_averages() {
        let t1 = vec![1.0, 2.0, 3.0];
        let t2 = vec![3.0, 2.0, 1.0];
        let avg = average_traces(&[t1, t2]).unwrap();
        assert_eq!(avg, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn average_traces_rejects_mismatched() {
        assert!(average_traces(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(average_traces(&[]).is_err());
    }

    #[test]
    fn averaging_lowers_noise_but_keeps_signal() {
        // Tone + deterministic pseudo-noise: averaging 16 traces should
        // leave the tone bin alone and shrink the off-bin noise.
        let fs = 1000.0;
        let n = 512;
        let f0 = fs * 60.0 / n as f64;
        let mut traces = Vec::new();
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for _ in 0..16 {
            let x: Vec<f64> = (0..n)
                .map(|i| (2.0 * PI * f0 * i as f64 / fs).sin() + 0.5 * lcg())
                .collect();
            traces.push(amplitude_spectrum(&x, Window::Hann));
        }
        let avg = average_traces(&traces).unwrap();
        let peak_bin = 60;
        assert!((avg[peak_bin] - 1.0).abs() < 0.1);
        let off_bin_max = avg
            .iter()
            .enumerate()
            .filter(|(k, _)| (*k as i64 - peak_bin as i64).abs() > 4)
            .map(|(_, v)| *v)
            .fold(0.0, f64::max);
        assert!(off_bin_max < 0.2);
    }

    #[test]
    fn resample_preserves_endpoints_and_monotone_ramp() {
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let out = resample_linear(&ramp, 2000).unwrap();
        assert_eq!(out.len(), 2000);
        assert!((out[0] - 0.0).abs() < 1e-12);
        assert!((out[1999] - 99.0).abs() < 1e-12);
        assert!(out.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn resample_degenerate_cases() {
        assert!(resample_linear(&[], 10).is_err());
        assert!(resample_linear(&[1.0], 0).is_err());
        assert_eq!(resample_linear(&[5.0], 3).unwrap(), vec![5.0, 5.0, 5.0]);
        assert_eq!(resample_linear(&[1.0, 2.0], 1).unwrap(), vec![1.0]);
    }
}

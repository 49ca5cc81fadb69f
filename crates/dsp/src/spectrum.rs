//! Spectral estimation: amplitude spectra, periodograms, Welch averaging,
//! STFT, and decibel conversions.
//!
//! These routines are the software model of the paper's spectrum-analyzer
//! measurements: Fig 3 (PSA vs external probe magnitude spectra) and
//! Fig 4 (per-sensor spectra with Trojans active/inactive) are regenerated
//! through [`amplitude_spectrum_db`] and trace averaging.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fastmath;
use crate::fft;
use crate::rfft;
use crate::window::Window;

/// Floor used when converting near-zero powers to dB so that silent traces
/// produce a deep-but-finite noise floor instead of `-inf`.
pub const DB_FLOOR: f64 = -300.0;

/// Converts an amplitude ratio to decibels: `20·log10(x)`, clamped at
/// [`DB_FLOOR`].
#[inline]
pub fn amplitude_db(x: f64) -> f64 {
    decibels(20.0, x)
}

/// Converts a power ratio to decibels: `10·log10(x)`, clamped at
/// [`DB_FLOOR`].
#[inline]
pub fn power_db(x: f64) -> f64 {
    decibels(10.0, x)
}

/// `scale·log10(x)` clamped at [`DB_FLOOR`], through the in-tree
/// [`fastmath::log10`] kernel for positive normal `x`. The other inputs
/// never reach the kernel (it sees `1.0` instead): zero, negative, NaN
/// and subnormal ratios (whose dB value lies far below the floor) read
/// [`DB_FLOOR`], and `+∞` reads `+∞`. Every choice is a select on
/// values already computed, so a loop over spectrum bins vectorizes.
#[inline]
// `Range::contains` here compiles to branches that keep the bin loops
// scalar (measured: 2x slower over a 32 769-bin spectrum).
#[allow(clippy::manual_range_contains)]
fn decibels(scale: f64, x: f64) -> f64 {
    let normal = x >= f64::MIN_POSITIVE && x < f64::INFINITY;
    let db = (scale * fastmath::log10(if normal { x } else { 1.0 })).max(DB_FLOOR);
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

/// Inverse of [`power_db`].
#[inline]
pub fn db_to_power(db: f64) -> f64 {
    10f64.powf(db / 10.0)
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
/// Power-of-two lengths go through the packed real-input FFT
/// ([`crate::rfft`], about half the butterfly work of the complex
/// transform); other lengths fall back to the Bluestein path. The
/// batched [`crate::batch::SpectrumScratch`] runs the identical
/// transform, so batched and one-shot spectra stay bit-identical.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `signal` is empty.
pub fn try_amplitude_spectrum(signal: &[f64], window: Window) -> Result<Vec<f64>, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = signal.len();
    let windowed = window.applied(signal);
    let spec = rfft::rfft_one_sided(&windowed)?;
    let cg = window.coherent_gain(n);
    let scale = 2.0 / (n as f64 * cg);
    let half = fft::one_sided_len(n);
    let mut out = Vec::with_capacity(half);
    for (k, z) in spec.iter().take(half).enumerate() {
        // DC and Nyquist bins are not doubled in the one-sided convention.
        let s = if k == 0 || (n % 2 == 0 && k == half - 1) {
            scale / 2.0
        } else {
            scale
        };
        out.push(fastmath::hypot(z.re, z.im) * s);
    }
    Ok(out)
}

/// One-sided amplitude spectrum in dB (re 1.0).
pub fn amplitude_spectrum_db(signal: &[f64], window: Window) -> Vec<f64> {
    amplitude_spectrum(signal, window)
        .into_iter()
        .map(amplitude_db)
        .collect()
}

/// One-sided power spectral density estimate (periodogram), in units of
/// `V²/Hz` for a voltage input.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::NonPositive`] for a non-positive sample rate.
pub fn periodogram(signal: &[f64], fs_hz: f64, window: Window) -> Result<Vec<f64>, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if fs_hz <= 0.0 {
        return Err(DspError::NonPositive {
            what: "sample rate",
        });
    }
    let n = signal.len();
    let windowed = window.applied(signal);
    let spec = rfft::rfft_one_sided(&windowed)?;
    let ng = window.noise_gain(n);
    let scale = 1.0 / (fs_hz * n as f64 * ng);
    let half = fft::one_sided_len(n);
    let mut out = Vec::with_capacity(half);
    for (k, z) in spec.iter().take(half).enumerate() {
        let s = if k == 0 || (n % 2 == 0 && k == half - 1) {
            scale
        } else {
            2.0 * scale
        };
        out.push(z.norm_sqr() * s);
    }
    Ok(out)
}

/// Welch's method: averaged periodogram over overlapping segments.
///
/// `segment_len` is the FFT length per segment; `overlap` is the fraction
/// of each segment shared with the next, in `[0, 1)`.
///
/// # Errors
///
/// Returns an error for empty input, non-positive sample rate, a
/// `segment_len` of zero or longer than the signal, or an overlap outside
/// `[0, 1)`.
pub fn welch_psd(
    signal: &[f64],
    fs_hz: f64,
    segment_len: usize,
    overlap: f64,
    window: Window,
) -> Result<Vec<f64>, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if fs_hz <= 0.0 {
        return Err(DspError::NonPositive {
            what: "sample rate",
        });
    }
    if segment_len == 0 || segment_len > signal.len() {
        return Err(DspError::InvalidLength {
            what: "welch segment length",
            got: segment_len,
        });
    }
    if !(0.0..1.0).contains(&overlap) {
        return Err(DspError::NonPositive {
            what: "welch overlap (must be in [0,1))",
        });
    }
    let hop = ((segment_len as f64) * (1.0 - overlap)).max(1.0) as usize;
    let mut acc = vec![0.0; fft::one_sided_len(segment_len)];
    let mut count = 0usize;
    let mut start = 0usize;
    while start + segment_len <= signal.len() {
        let p = periodogram(&signal[start..start + segment_len], fs_hz, window)?;
        for (a, v) in acc.iter_mut().zip(p) {
            *a += v;
        }
        count += 1;
        start += hop;
    }
    for a in &mut acc {
        *a /= count as f64;
    }
    Ok(acc)
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

/// Short-time Fourier transform magnitude (spectrogram columns).
///
/// Returns one amplitude-spectrum vector per hop. Used by the run-time
/// monitor to watch spectra evolve as Trojans activate.
///
/// # Errors
///
/// Propagates the same errors as [`try_amplitude_spectrum`]; additionally
/// rejects `frame_len == 0` or `hop == 0`.
pub fn stft_magnitude(
    signal: &[f64],
    frame_len: usize,
    hop: usize,
    window: Window,
) -> Result<Vec<Vec<f64>>, DspError> {
    if frame_len == 0 {
        return Err(DspError::InvalidLength {
            what: "stft frame length",
            got: 0,
        });
    }
    if hop == 0 {
        return Err(DspError::InvalidLength {
            what: "stft hop",
            got: 0,
        });
    }
    let mut cols = Vec::new();
    let mut start = 0;
    while start + frame_len <= signal.len() {
        cols.push(try_amplitude_spectrum(
            &signal[start..start + frame_len],
            window,
        )?);
        start += hop;
    }
    Ok(cols)
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

/// Complex spectrum of a complex signal (convenience wrapper for chained
/// DSP like the zero-span path).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal.
pub fn complex_spectrum(signal: &[Complex]) -> Result<Vec<Complex>, DspError> {
    fft::fft_any(signal)
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert!((db_to_power(power_db(x)) - x).abs() / x < 1e-12);
        }
        assert_eq!(amplitude_db(0.0), DB_FLOOR);
        assert_eq!(power_db(-1.0), DB_FLOOR);
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
        let libm_pow = |x: f64| {
            if x <= 0.0 {
                DB_FLOOR
            } else {
                (10.0 * x.log10()).max(DB_FLOOR)
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
            assert_eq!(
                power_db(x).to_bits(),
                libm_pow(x).to_bits(),
                "power_db({x:e})"
            );
        }
    }

    #[test]
    fn db_values_stay_within_tolerance_of_libm() {
        // The policy bound on a dB value is 1e-12 dB.
        let mut worst: f64 = 0.0;
        for i in 0..100_000 {
            let x = 10f64.powf(-15.0 + 21.0 * i as f64 / 100_000.0);
            worst = worst
                .max((amplitude_db(x) - 20.0 * x.log10()).abs())
                .max((power_db(x) - 10.0 * x.log10()).abs());
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
    fn periodogram_integrates_to_variance() {
        // White-ish deterministic signal: total integrated PSD equals mean
        // square (Parseval).
        let x: Vec<f64> = (0..4096)
            .map(|i| ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5)
            .collect();
        let fs = 1.0e6;
        let psd = periodogram(&x, fs, Window::Rectangular).unwrap();
        let df = fs / x.len() as f64;
        let integrated: f64 = psd.iter().sum::<f64>() * df;
        let mean_sq: f64 = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        assert!((integrated - mean_sq).abs() / mean_sq < 1e-9);
    }

    #[test]
    fn welch_reduces_variance_of_estimate() {
        // Deterministic pseudo-noise; Welch with many segments should be
        // much smoother (lower variance across bins) than one periodogram.
        let x: Vec<f64> = (0..8192)
            .map(|i| ((i as f64 * 78.233).sin() * 12543.97).fract() - 0.5)
            .collect();
        let fs = 1.0;
        let single = periodogram(&x, fs, Window::Hann).unwrap();
        let welch = welch_psd(&x, fs, 512, 0.5, Window::Hann).unwrap();
        let var = |v: &[f64]| {
            let interior = &v[1..v.len() - 1];
            let m = interior.iter().sum::<f64>() / interior.len() as f64;
            interior.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
                / interior.len() as f64
                / (m * m)
        };
        assert!(var(&welch) < var(&single) / 4.0);
    }

    #[test]
    fn welch_validates_arguments() {
        let x = vec![0.0; 64];
        assert!(welch_psd(&x, 1.0, 0, 0.5, Window::Hann).is_err());
        assert!(welch_psd(&x, 1.0, 128, 0.5, Window::Hann).is_err());
        assert!(welch_psd(&x, 1.0, 32, 1.0, Window::Hann).is_err());
        assert!(welch_psd(&x, 0.0, 32, 0.5, Window::Hann).is_err());
        assert!(welch_psd(&[], 1.0, 32, 0.5, Window::Hann).is_err());
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
    fn stft_column_count() {
        let x = vec![0.0; 1000];
        let cols = stft_magnitude(&x, 256, 128, Window::Hann).unwrap();
        assert_eq!(cols.len(), (1000 - 256) / 128 + 1);
        assert_eq!(cols[0].len(), 129);
        assert!(stft_magnitude(&x, 0, 1, Window::Hann).is_err());
        assert!(stft_magnitude(&x, 16, 0, Window::Hann).is_err());
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

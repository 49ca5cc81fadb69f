//! Spectrum-analyzer model (paper Sec. VI-A, VI-D).
//!
//! The bench analyzer produces two artifacts the paper relies on:
//!
//! * swept **magnitude spectra** — "each trace spans a frequency band
//!   from DC to 120 MHz, populated with 2000 sample points", averaged
//!   over five captures (Fig 4);
//! * **zero-span** traces — the time-domain envelope of one tuned
//!   frequency component (Fig 5).

use crate::error::AnalogError;
use psa_dsp::batch::SpectrumScratch;
use psa_dsp::spectrum;
use psa_dsp::window::Window;
use psa_dsp::zero_span::ZeroSpan;

/// Spectrum-analyzer settings.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumAnalyzer {
    /// Displayed span upper edge, Hz (paper: 120 MHz).
    pub span_hz: f64,
    /// Trace points across the span (paper: 2000).
    pub trace_points: usize,
    /// Analysis window (the instrument's RBW filter shape).
    pub window: Window,
}

impl SpectrumAnalyzer {
    /// The paper's configuration: DC–120 MHz, 2000 points. Bench
    /// analyzers use a flat-top RBW shape for amplitude-accurate
    /// readings of off-bin tones, so that is the default window.
    pub fn date24() -> Self {
        SpectrumAnalyzer {
            span_hz: 120.0e6,
            trace_points: 2000,
            window: Window::FlatTop,
        }
    }

    /// A reusable spectrum scratch matched to this analyzer's window,
    /// for the `_with` trace methods.
    pub fn scratch(&self) -> SpectrumScratch {
        SpectrumScratch::new(self.window)
    }

    /// One magnitude trace in dB: windowed FFT of `record` (sampled at
    /// `fs_hz`), truncated to the span and resampled to
    /// [`trace_points`](Self::trace_points) points. The caller-owned
    /// [`SpectrumScratch`] lets repeated traces reuse the window
    /// coefficients, FFT twiddles, and work buffers.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::EmptyInput`] for an empty record,
    /// [`AnalogError::InvalidParameter`] when the span exceeds Nyquist or
    /// the scratch was built for a different window.
    pub fn trace_db_with(
        &self,
        scratch: &mut SpectrumScratch,
        record: &[f64],
        fs_hz: f64,
    ) -> Result<Vec<f64>, AnalogError> {
        if record.is_empty() {
            return Err(AnalogError::EmptyInput);
        }
        if self.span_hz > fs_hz / 2.0 {
            return Err(AnalogError::InvalidParameter {
                what: "span exceeds nyquist",
            });
        }
        if scratch.window() != self.window {
            return Err(AnalogError::InvalidParameter {
                what: "scratch window does not match analyzer window",
            });
        }
        let amp = scratch.amplitude_spectrum(record)?;
        let n_fft = record.len();
        let bins_in_span = ((self.span_hz * n_fft as f64 / fs_hz) as usize + 1).min(amp.len());
        let in_span = &amp[..bins_in_span];
        let resampled = peak_hold_resample(in_span, self.trace_points);
        Ok(resampled.into_iter().map(spectrum::amplitude_db).collect())
    }

    /// Averages several records into one displayed trace (the paper
    /// averages five), in dB. Averaging happens in linear amplitude, as
    /// the instrument's trace-average mode does; the per-record
    /// window/FFT work reuses the caller-owned [`SpectrumScratch`].
    ///
    /// # Errors
    ///
    /// Same as [`trace_db_with`](Self::trace_db_with); additionally
    /// [`AnalogError::EmptyInput`] when `records` is empty.
    pub fn averaged_trace_db_with(
        &self,
        scratch: &mut SpectrumScratch,
        records: &[Vec<f64>],
        fs_hz: f64,
    ) -> Result<Vec<f64>, AnalogError> {
        if records.is_empty() {
            return Err(AnalogError::EmptyInput);
        }
        // Same arithmetic as averaging the per-record linear traces with
        // `spectrum::average_traces`: sum in record order, divide once.
        let mut acc: Vec<f64> = Vec::new();
        for r in records {
            let db = self.trace_db_with(scratch, r, fs_hz)?;
            if acc.is_empty() {
                acc = db.iter().map(|&d| spectrum::db_to_amplitude(d)).collect();
            } else {
                if db.len() != acc.len() {
                    return Err(AnalogError::InvalidParameter {
                        what: "trace length (all traces must match)",
                    });
                }
                for (a, &d) in acc.iter_mut().zip(&db) {
                    *a += spectrum::db_to_amplitude(d);
                }
            }
        }
        let k = records.len() as f64;
        Ok(acc
            .into_iter()
            .map(|a| spectrum::amplitude_db(a / k))
            .collect())
    }

    /// Zero-span mode: the amplitude-vs-time trace of the component at
    /// `center_hz` (Fig 5), with an explicit resolution bandwidth so
    /// measurements can reject close-in neighbours (identification uses
    /// ~1 MHz). Returns the envelope at the decimated rate.
    ///
    /// # Errors
    ///
    /// Propagates zero-span configuration errors (centre out of range,
    /// invalid RBW) and empty-input errors.
    pub fn zero_span_trace_rbw(
        &self,
        record: &[f64],
        fs_hz: f64,
        center_hz: f64,
        rbw_hz: f64,
    ) -> Result<Vec<f64>, AnalogError> {
        let zs = ZeroSpan::with_rbw(center_hz, fs_hz, rbw_hz)?;
        Ok(zs.envelope_trimmed(record)?)
    }
}

impl Default for SpectrumAnalyzer {
    fn default() -> Self {
        SpectrumAnalyzer::date24()
    }
}

/// Peak-hold trace detector: each displayed point takes the maximum of
/// the FFT bins that map onto it (how bench analyzers avoid losing
/// narrow peaks when the display has fewer points than the FFT). When
/// the display has *more* points than bins, falls back to linear
/// interpolation.
fn peak_hold_resample(bins: &[f64], points: usize) -> Vec<f64> {
    if points == 0 || bins.is_empty() {
        return Vec::new();
    }
    if bins.len() <= points {
        return spectrum::resample_linear(bins, points).expect("inputs validated above");
    }
    let mut out = Vec::with_capacity(points);
    for p in 0..points {
        let lo = p * bins.len() / points;
        let hi = (((p + 1) * bins.len()) / points)
            .max(lo + 1)
            .min(bins.len());
        let peak = bins[lo..hi].iter().cloned().fold(f64::MIN, f64::max);
        out.push(peak);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const FS: f64 = 264.0e6;

    /// One trace through a fresh scratch.
    fn trace(sa: &SpectrumAnalyzer, record: &[f64], fs_hz: f64) -> Result<Vec<f64>, AnalogError> {
        sa.trace_db_with(&mut sa.scratch(), record, fs_hz)
    }

    /// One averaged trace through a fresh scratch.
    fn averaged(
        sa: &SpectrumAnalyzer,
        records: &[Vec<f64>],
        fs_hz: f64,
    ) -> Result<Vec<f64>, AnalogError> {
        sa.averaged_trace_db_with(&mut sa.scratch(), records, fs_hz)
    }

    fn tone(n: usize, f0: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * f0 * i as f64 / FS).sin())
            .collect()
    }

    #[test]
    fn trace_has_2000_points() {
        let sa = SpectrumAnalyzer::date24();
        let t = trace(&sa, &tone(8192, 48.0e6, 1.0), FS).unwrap();
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn tone_appears_at_correct_point() {
        let sa = SpectrumAnalyzer::date24();
        let t = trace(&sa, &tone(16384, 48.0e6, 0.5), FS).unwrap();
        let peak = t
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let expected = (48.0e6 / sa.span_hz * (sa.trace_points - 1) as f64).round() as usize;
        assert!(
            (peak as i64 - expected as i64).abs() <= 2,
            "peak at {peak}, expected {expected}"
        );
        // Amplitude ≈ 0.5 → −6 dB.
        assert!((t[peak] - (-6.0)).abs() < 1.0, "peak level {}", t[peak]);
    }

    #[test]
    fn averaging_reduces_trace_noise() {
        let sa = SpectrumAnalyzer::date24();
        let mut state = 1u64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut records = Vec::new();
        for _ in 0..8 {
            let r: Vec<f64> = (0..4096).map(|_| 1e-3 * lcg()).collect();
            records.push(r);
        }
        let avg = averaged(&sa, &records, FS).unwrap();
        let single = trace(&sa, &records[0], FS).unwrap();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&avg[10..]) < var(&single[10..]));
    }

    #[test]
    fn zero_span_recovers_am_envelope() {
        let sa = SpectrumAnalyzer::date24();
        let n = 65536;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / FS;
                (1.0 + 0.5 * (2.0 * PI * 750.0e3 * t).sin()) * (2.0 * PI * 48.0e6 * t).cos()
            })
            .collect();
        let env = sa
            .zero_span_trace_rbw(&x, FS, 48.0e6, ZeroSpan::DEFAULT_RBW_HZ)
            .unwrap();
        let max = env.iter().cloned().fold(0.0, f64::max);
        let min = env.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 1.5).abs() < 0.15, "max {max}");
        assert!((min - 0.5).abs() < 0.15, "min {min}");
    }

    #[test]
    fn validates_inputs() {
        let sa = SpectrumAnalyzer::date24();
        assert!(trace(&sa, &[], FS).is_err());
        assert!(trace(&sa, &[0.0; 64], 100.0e6).is_err()); // span > nyquist
        assert!(averaged(&sa, &[], FS).is_err());
        let mut wrong = SpectrumScratch::new(Window::Hann);
        assert!(sa.trace_db_with(&mut wrong, &[0.0; 64], FS).is_err());
    }

    #[test]
    fn scratch_history_does_not_change_traces() {
        let sa = SpectrumAnalyzer::date24();
        let records: Vec<Vec<f64>> = (0..3)
            .map(|k| tone(4096, 48.0e6, 0.5 + 0.1 * k as f64))
            .collect();
        let mut scratch = sa.scratch();
        // Warm the scratch on unrelated data first: results must not
        // depend on scratch history.
        let _ = sa.trace_db_with(&mut scratch, &records[1], FS).unwrap();
        for r in &records {
            let a = trace(&sa, r, FS).unwrap();
            let b = sa.trace_db_with(&mut scratch, r, FS).unwrap();
            assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        let a = averaged(&sa, &records, FS).unwrap();
        let b = sa
            .averaged_trace_db_with(&mut scratch, &records, FS)
            .unwrap();
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}

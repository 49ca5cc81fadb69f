//! Zero-span mode: recover the time-domain envelope of one frequency
//! component.
//!
//! The paper's key identification step (Sec. VI-D, Fig 5) tunes the
//! spectrum analyzer to a prominent frequency component (48 MHz) and uses
//! *zero-span* mode to observe that component's amplitude versus time —
//! different Trojans imprint different modulation envelopes on the same
//! sideband. Digitally this is a down-conversion: multiply by a complex
//! exponential at the tuned frequency, low-pass to the resolution
//! bandwidth, decimate, and take the magnitude.
//!
//! Selectivity matters here: neighbouring spectral lines sit only a few
//! megahertz away (the 51 MHz member of the same sideband family, the
//! AES block-rate lines at ±1.25 MHz), so the filter is implemented in
//! **two decimating stages** — a wide anti-alias low-pass at the input
//! rate, then a sharp low-pass at the decimated rate where narrow
//! transition bands are affordable.

use crate::complex::Complex;
use crate::error::DspError;
use crate::filter::FirFilter;
use crate::window::Window;
use std::f64::consts::PI;

/// Configuration of a zero-span measurement.
///
/// # Example
///
/// ```
/// use psa_dsp::zero_span::ZeroSpan;
///
/// // Tune 48 MHz at 264 MS/s with a 3 MHz resolution bandwidth.
/// let zs = ZeroSpan::with_rbw(48.0e6, 264.0e6, 3.0e6)?;
/// assert!(zs.output_fs_hz() > 2.0 * 3.0e6);
/// # Ok::<(), psa_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ZeroSpan {
    center_hz: f64,
    fs_hz: f64,
    stage1: FirFilter,
    decim1: usize,
    stage2: FirFilter,
    decim2: usize,
}

impl ZeroSpan {
    /// Creates a zero-span demodulator at `center_hz` for input sampled
    /// at `fs_hz`, with resolution bandwidth `rbw_hz` (the low-pass
    /// cutoff after mixing, clamped to `fs/8`).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::FrequencyOutOfRange`] when the centre
    /// frequency is outside `(0, fs/2)`, or [`DspError::NonPositive`]
    /// for a bad sample rate or `rbw_hz <= 0`.
    pub fn with_rbw(center_hz: f64, fs_hz: f64, rbw_hz: f64) -> Result<Self, DspError> {
        if fs_hz <= 0.0 {
            return Err(DspError::NonPositive {
                what: "sample rate",
            });
        }
        if center_hz <= 0.0 || center_hz >= fs_hz / 2.0 {
            return Err(DspError::FrequencyOutOfRange {
                freq_hz: center_hz,
                fs_hz,
            });
        }
        if rbw_hz <= 0.0 {
            return Err(DspError::NonPositive {
                what: "resolution bandwidth",
            });
        }
        let rbw = rbw_hz.min(fs_hz / 8.0);

        // Stage 1: anti-alias for the first decimation. Decimate as far
        // as the 129-tap transition allows while keeping the band of
        // interest clean.
        let decim1 = ((fs_hz / (10.0 * rbw)).floor() as usize).clamp(1, 16);
        let fs1 = fs_hz / decim1 as f64;
        let cutoff1 = (0.4 * fs1).min(0.45 * fs_hz);
        let stage1 = FirFilter::low_pass(cutoff1, fs_hz, 129, Window::Hamming)?;

        // Stage 2: the sharp RBW filter at the decimated rate, where
        // 301 taps give a transition band of a few percent of fs1.
        let stage2 = FirFilter::low_pass(rbw, fs1, 301, Window::Hamming)?;
        let decim2 = ((fs1 / (8.0 * rbw)).floor() as usize).max(1);

        Ok(ZeroSpan {
            center_hz,
            fs_hz,
            stage1,
            decim1,
            stage2,
            decim2,
        })
    }

    /// Output sample rate after both decimations.
    pub fn output_fs_hz(&self) -> f64 {
        self.fs_hz / (self.decim1 * self.decim2) as f64
    }

    /// Demodulates `signal`, returning the complex baseband at the
    /// decimated rate.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `signal` is empty.
    pub fn demodulate(&self, signal: &[f64]) -> Result<Vec<Complex>, DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let w = 2.0 * PI * self.center_hz / self.fs_hz;
        // Mix to baseband: x[n]·e^{-jωn}.
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
        // Stage 1 filter + decimate.
        let i1 = self.stage1.filter_decimated(&i_mixed, self.decim1)?;
        let q1 = self.stage1.filter_decimated(&q_mixed, self.decim1)?;
        // Stage 2 filter + decimate.
        let i2 = self.stage2.filter_decimated(&i1, self.decim2)?;
        let q2 = self.stage2.filter_decimated(&q1, self.decim2)?;
        Ok(i2
            .into_iter()
            .zip(q2)
            .map(|(i, q)| Complex::new(i, q))
            .collect())
    }

    /// Returns the amplitude envelope of the tuned component versus time —
    /// the zero-span "screen trace" (Fig 5). The scale matches tone
    /// amplitude: a pure tone of amplitude `A` at the centre frequency
    /// produces an envelope of `A`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `signal` is empty.
    pub fn envelope(&self, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        Ok(self
            .demodulate(signal)?
            .into_iter()
            .map(|z| 2.0 * z.abs())
            .collect())
    }

    /// Samples [`envelope_trimmed`](Self::envelope_trimmed) returns for
    /// an `n`-sample input (zero when the input is too short).
    pub fn trimmed_len(&self, n: usize) -> usize {
        let len = n.div_ceil(self.decim1).div_ceil(self.decim2);
        len.saturating_sub(2 * self.trim())
    }

    /// Envelope samples trimmed at each end: the two filters' edge
    /// transients at the output rate.
    fn trim(&self) -> usize {
        let trim1 = self.stage1.taps().len() / (self.decim1 * self.decim2);
        let trim2 = self.stage2.taps().len() / self.decim2;
        (trim1 + trim2).max(1)
    }

    /// Envelope with the filters' edge transients trimmed.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `signal` is empty, or
    /// [`DspError::InvalidLength`] when it is shorter than the combined
    /// transient.
    pub fn envelope_trimmed(&self, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        let env = self.envelope(signal)?;
        let trim = self.trim();
        if env.len() <= 2 * trim {
            return Err(DspError::InvalidLength {
                what: "signal too short for zero-span transient trim",
                got: env.len(),
            });
        }
        Ok(env[trim..env.len() - trim].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resolution bandwidth wide enough to follow megahertz-scale
    /// envelopes.
    const RBW_HZ: f64 = 3.0e6;

    #[test]
    fn tone_at_center_gives_flat_envelope_at_amplitude() {
        let fs = 264.0e6;
        let f0 = 48.0e6;
        let zs = ZeroSpan::with_rbw(f0, fs, RBW_HZ).unwrap();
        let n = 65536;
        let x: Vec<f64> = (0..n)
            .map(|i| 0.8 * (2.0 * PI * f0 * i as f64 / fs).sin())
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        assert!((mean - 0.8).abs() < 0.02, "mean {mean}");
        let max_dev = env.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
        assert!(max_dev < 0.05, "max deviation {max_dev}");
    }

    #[test]
    fn off_tune_tone_is_rejected() {
        let fs = 264.0e6;
        let zs = ZeroSpan::with_rbw(48.0e6, fs, RBW_HZ).unwrap();
        let n = 65536;
        // 33 MHz clock fundamental, 15 MHz away: far outside the RBW.
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 33.0e6 * i as f64 / fs).sin())
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        assert!(mean < 5e-3, "leakage {mean}");
    }

    #[test]
    fn narrow_rbw_rejects_3mhz_neighbour() {
        // The 51 MHz member of the sideband family is 3 MHz from the
        // 48 MHz line; a 1 MHz RBW must suppress it decisively.
        let fs = 264.0e6;
        let zs = ZeroSpan::with_rbw(48.0e6, fs, 0.95e6).unwrap();
        let n = 262_144;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                1.0 * (2.0 * PI * 51.0e6 * t).sin()
            })
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        assert!(mean < 0.02, "3 MHz neighbour leaks {mean}");
    }

    #[test]
    fn narrow_rbw_passes_750khz_am() {
        let fs = 264.0e6;
        let f0 = 48.0e6;
        let fm = 750.0e3;
        let zs = ZeroSpan::with_rbw(f0, fs, 0.95e6).unwrap();
        let n = 262_144;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (1.0 + 0.5 * (2.0 * PI * fm * t).sin()) * (2.0 * PI * f0 * t).cos()
            })
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        let crossings = env
            .windows(2)
            .filter(|w| (w[0] < mean) != (w[1] < mean))
            .count();
        let duration = env.len() as f64 / zs.output_fs_hz();
        let est = crossings as f64 / 2.0 / duration;
        assert!((est - fm).abs() / fm < 0.15, "envelope frequency {est}");
    }

    #[test]
    fn am_modulation_recovered() {
        let fs = 264.0e6;
        let f0 = 48.0e6;
        let fm = 750.0e3;
        let m = 0.5;
        let zs = ZeroSpan::with_rbw(f0, fs, RBW_HZ).unwrap();
        let n = 65536;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (1.0 + m * (2.0 * PI * fm * t).sin()) * (2.0 * PI * f0 * t).cos()
            })
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let max = env.iter().cloned().fold(0.0, f64::max);
        let min = env.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 1.5).abs() < 0.1, "max {max}");
        assert!((min - 0.5).abs() < 0.1, "min {min}");
    }

    #[test]
    fn validates_parameters() {
        assert!(ZeroSpan::with_rbw(0.0, 1e6, RBW_HZ).is_err());
        assert!(ZeroSpan::with_rbw(6e5, 1e6, RBW_HZ).is_err());
        assert!(ZeroSpan::with_rbw(1e3, 0.0, RBW_HZ).is_err());
        assert!(ZeroSpan::with_rbw(48e6, 264e6, 0.0).is_err());
        let zs = ZeroSpan::with_rbw(48e6, 264e6, RBW_HZ).unwrap();
        assert!(zs.envelope(&[]).is_err());
    }

    #[test]
    fn output_rate_covers_the_rbw_and_oversized_rbw_clamps() {
        let zs = ZeroSpan::with_rbw(10.0e6, 264.0e6, 2.0e6).unwrap();
        assert!(zs.output_fs_hz() > 2.0 * 2.0e6);
        // An oversized RBW clamps to fs/8, a cutoff the RBW filter can
        // realize, and so decimates by nothing.
        let wide = ZeroSpan::with_rbw(48.0e6, 264.0e6, 1.0e9).unwrap();
        assert_eq!(wide.output_fs_hz(), 264.0e6);
    }

    #[test]
    fn two_tone_selects_only_tuned_component() {
        let fs = 264.0e6;
        let zs = ZeroSpan::with_rbw(84.0e6, fs, 2.0e6).unwrap();
        let n = 65536;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                0.3 * (2.0 * PI * 84.0e6 * t).sin() + 1.0 * (2.0 * PI * 48.0e6 * t).sin()
            })
            .collect();
        let env = zs.envelope_trimmed(&x).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        assert!((mean - 0.3).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn short_signal_trim_error() {
        let zs = ZeroSpan::with_rbw(48.0e6, 264.0e6, RBW_HZ).unwrap();
        assert!(matches!(
            zs.envelope_trimmed(&vec![0.0; 64]),
            Err(DspError::InvalidLength { .. })
        ));
    }
}

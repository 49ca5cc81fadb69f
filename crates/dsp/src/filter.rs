//! FIR filter design and application.
//!
//! Windowed-sinc low-pass design plus linear convolution and
//! decimation. The zero-span path uses a low-pass from here as its
//! resolution-bandwidth filter, and the current-waveform synthesis uses
//! convolution for pulse shaping.

use crate::error::DspError;
use crate::window::Window;
use std::f64::consts::PI;

/// A finite-impulse-response filter (its tap coefficients).
///
/// # Example
///
/// ```
/// use psa_dsp::filter::FirFilter;
/// use psa_dsp::window::Window;
///
/// // 1 MHz low-pass at 10 MS/s, 63 taps.
/// let lp = FirFilter::low_pass(1.0e6, 10.0e6, 63, Window::Hamming)?;
/// assert_eq!(lp.taps().len(), 63);
/// // DC gain is unity.
/// assert!((lp.taps().iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// # Ok::<(), psa_dsp::DspError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    taps: Vec<f64>,
}

impl FirFilter {
    /// Windowed-sinc low-pass with cutoff `cutoff_hz` at sample rate
    /// `fs_hz`, `num_taps` taps (forced odd for a symmetric, linear-phase
    /// type-I filter), normalized to unity DC gain.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::FrequencyOutOfRange`] if `cutoff_hz` is not in
    /// `(0, fs/2)`, [`DspError::NonPositive`] for a bad sample rate, or
    /// [`DspError::InvalidLength`] when `num_taps == 0`.
    pub fn low_pass(
        cutoff_hz: f64,
        fs_hz: f64,
        num_taps: usize,
        window: Window,
    ) -> Result<Self, DspError> {
        if fs_hz <= 0.0 {
            return Err(DspError::NonPositive {
                what: "sample rate",
            });
        }
        if cutoff_hz <= 0.0 || cutoff_hz >= fs_hz / 2.0 {
            return Err(DspError::FrequencyOutOfRange {
                freq_hz: cutoff_hz,
                fs_hz,
            });
        }
        if num_taps == 0 {
            return Err(DspError::InvalidLength {
                what: "fir tap count",
                got: 0,
            });
        }
        let n = if num_taps % 2 == 0 {
            num_taps + 1
        } else {
            num_taps
        };
        let fc = cutoff_hz / fs_hz; // normalized (cycles/sample)
        let mid = (n / 2) as isize;
        let mut taps: Vec<f64> = (0..n)
            .map(|i| {
                let k = i as isize - mid;
                if k == 0 {
                    2.0 * fc
                } else {
                    (2.0 * PI * fc * k as f64).sin() / (PI * k as f64)
                }
            })
            .collect();
        // FIR design needs the symmetric window convention so the taps are
        // exactly mirror-symmetric (linear phase).
        let w = window.coefficients_symmetric(n);
        for (t, wi) in taps.iter_mut().zip(&w) {
            *t *= wi;
        }
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Ok(FirFilter { taps })
    }

    /// The filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Filters `signal`, returning a same-length output ("same" mode,
    /// delay-compensated for symmetric filters).
    pub fn filter(&self, signal: &[f64]) -> Vec<f64> {
        let full = convolve(signal, &self.taps);
        let delay = (self.taps.len() - 1) / 2;
        full.into_iter().skip(delay).take(signal.len()).collect()
    }

    /// [`filter`](Self::filter) followed by keeping every `factor`-th
    /// output, computing only the kept outputs.
    ///
    /// Each kept output sums the same products in the same ascending
    /// signal order as [`convolve`] (zero samples skipped as there), so
    /// the result equals `filter(signal).into_iter().step_by(factor)`
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::NonPositive`] when `factor == 0`.
    pub fn filter_decimated(&self, signal: &[f64], factor: usize) -> Result<Vec<f64>, DspError> {
        if factor == 0 {
            return Err(DspError::NonPositive {
                what: "decimation factor",
            });
        }
        let n = signal.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let m = self.taps.len();
        let delay = (m - 1) / 2;
        // Output k is full-convolution sample j = k + delay, which sums
        // signal[i]·taps[j − i] over i in j+1−m ..= j clipped to the
        // signal. Away from the edges all m taps apply, in reverse order.
        let edge = |k: usize| {
            let j = k + delay;
            let lo = j.saturating_sub(m - 1);
            let mut acc = 0.0;
            for (i, &x) in (lo..).zip(&signal[lo..=j.min(n - 1)]) {
                mac(&mut acc, x, self.taps[j - i]);
            }
            acc
        };
        let reversed: Vec<f64> = self.taps.iter().rev().copied().collect();
        let n_out = n.div_ceil(factor);
        // Outputs q·factor with delay + q·factor in m−1 ..= n−1.
        let first = (m - 1 - delay).div_ceil(factor).min(n_out);
        let end = if n > delay {
            ((n - 1 - delay) / factor + 1).min(n_out).max(first)
        } else {
            first
        };
        let mut out = Vec::with_capacity(n_out);
        out.extend((0..first).map(|q| edge(q * factor)));
        // Four interior outputs per pass over the taps, one accumulator
        // each, so four independent add chains.
        let mut q = first;
        while q + 4 <= end {
            let start = |r: usize| (q + r) * factor + delay + 1 - m;
            let (w0, w1) = (&signal[start(0)..][..m], &signal[start(1)..][..m]);
            let (w2, w3) = (&signal[start(2)..][..m], &signal[start(3)..][..m]);
            let mut acc = [0.0f64; 4];
            for (t, &tap) in reversed.iter().enumerate() {
                mac(&mut acc[0], w0[t], tap);
                mac(&mut acc[1], w1[t], tap);
                mac(&mut acc[2], w2[t], tap);
                mac(&mut acc[3], w3[t], tap);
            }
            out.extend_from_slice(&acc);
            q += 4;
        }
        out.extend((q..n_out).map(|q| edge(q * factor)));
        Ok(out)
    }
}

/// One multiply-accumulate step of [`convolve`], zero-sample skip
/// included.
#[inline(always)]
fn mac(acc: &mut f64, x: f64, tap: f64) {
    if x != 0.0 {
        *acc += x * tap;
    }
}

/// Full linear convolution; output length `a.len() + b.len() - 1`.
///
/// Empty inputs yield an empty output.
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0.0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] += ai * bj;
        }
    }
    out
}

/// Keeps every `factor`-th sample.
///
/// # Errors
///
/// Returns [`DspError::NonPositive`] when `factor == 0`.
pub fn decimate(signal: &[f64], factor: usize) -> Result<Vec<f64>, DspError> {
    if factor == 0 {
        return Err(DspError::NonPositive {
            what: "decimation factor",
        });
    }
    Ok(signal.iter().step_by(factor).copied().collect())
}

/// Sliding median of a series: each element replaced by the median over
/// a ±`half_window` neighbourhood (truncated at the edges).
///
/// Applied to a dB spectrum this estimates the spectrum's own smooth
/// floor — the reference-free analogue of a learned baseline: narrow
/// spectral lines (clock harmonics, Trojan sidebands) stand out of the
/// residual `x - sliding_median(x)` while broadband tilt cancels.
///
/// `half_window == 0` returns the input unchanged.
pub fn sliding_median(x: &[f64], half_window: usize) -> Vec<f64> {
    if half_window == 0 {
        return x.to_vec();
    }
    let n = x.len();
    let mut scratch: Vec<f64> = Vec::with_capacity(2 * half_window + 1);
    (0..n)
        .map(|k| {
            let lo = k.saturating_sub(half_window);
            let hi = (k + half_window + 1).min(n);
            scratch.clear();
            scratch.extend_from_slice(&x[lo..hi]);
            crate::stats::median(&scratch)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn sliding_median_flattens_isolated_spike() {
        let mut x = vec![1.0; 32];
        x[16] = 100.0;
        let floor = sliding_median(&x, 4);
        assert_eq!(floor[16], 1.0, "median ignores the single outlier");
        assert_eq!(floor[0], 1.0);
    }

    #[test]
    fn sliding_median_zero_window_is_identity() {
        let x = vec![3.0, 1.0, 2.0];
        assert_eq!(sliding_median(&x, 0), x);
    }

    #[test]
    fn sliding_median_follows_trend() {
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let floor = sliding_median(&x, 3);
        // Interior medians track the ramp exactly.
        assert_eq!(floor[10], 10.0);
        assert_eq!(floor[50], 50.0);
    }

    #[test]
    fn convolve_identity() {
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(convolve(&x, &[1.0]), x);
    }

    #[test]
    fn convolve_known_result() {
        // [1,2] * [3,4] = [3, 10, 8]
        assert_eq!(convolve(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 10.0, 8.0]);
    }

    #[test]
    fn convolve_commutes() {
        let a = vec![1.0, -2.0, 0.5, 3.0];
        let b = vec![0.2, 0.7, -1.1];
        assert_eq!(convolve(&a, &b), convolve(&b, &a));
    }

    #[test]
    fn convolve_empty() {
        assert!(convolve(&[], &[1.0]).is_empty());
        assert!(convolve(&[1.0], &[]).is_empty());
    }

    #[test]
    fn low_pass_attenuates_high_tone_in_time_domain() {
        let fs = 1.0e6;
        let lp = FirFilter::low_pass(50e3, fs, 101, Window::Hamming).unwrap();
        let n = 4096;
        let low: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 10e3 * i as f64 / fs).sin())
            .collect();
        let high: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 300e3 * i as f64 / fs).sin())
            .collect();
        let rms = |v: &[f64]| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
        // Skip the transient at both ends.
        let y_low = lp.filter(&low);
        let y_high = lp.filter(&high);
        assert!(rms(&y_low[200..n - 200]) > 0.65);
        assert!(rms(&y_high[200..n - 200]) < 0.01);
    }

    #[test]
    fn design_validation() {
        assert!(FirFilter::low_pass(0.0, 1e6, 11, Window::Hann).is_err());
        assert!(FirFilter::low_pass(6e5, 1e6, 11, Window::Hann).is_err());
        assert!(FirFilter::low_pass(1e3, 0.0, 11, Window::Hann).is_err());
        assert!(FirFilter::low_pass(1e3, 1e6, 0, Window::Hann).is_err());
    }

    #[test]
    fn even_tap_request_is_made_odd() {
        let lp = FirFilter::low_pass(1e3, 1e6, 10, Window::Hann).unwrap();
        assert_eq!(lp.taps().len() % 2, 1);
    }

    #[test]
    fn filter_output_length_matches_input() {
        let lp = FirFilter::low_pass(1e3, 1e6, 21, Window::Hann).unwrap();
        let x = vec![1.0; 100];
        assert_eq!(lp.filter(&x).len(), 100);
    }

    #[test]
    fn filter_dc_gain_unity() {
        let lp = FirFilter::low_pass(1e3, 1e6, 31, Window::Blackman).unwrap();
        let x = vec![2.5; 400];
        let y = lp.filter(&x);
        // Steady-state (after the transient) equals the input level.
        assert!((y[200] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn decimated_filter_matches_filter_then_step_bitwise() {
        let mut state = 0xF1D0_0DEAu64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n_taps in [1usize, 2, 3, 129, 301] {
            let taps: Vec<f64> = (0..n_taps).map(|_| lcg()).collect();
            let fir = FirFilter { taps };
            for len in [0usize, 1, 2, 5, 64, 150, 300, 301, 302, 1000] {
                // Exact zeros of both signs among the samples.
                let signal: Vec<f64> = (0..len)
                    .map(|i| match i % 7 {
                        3 => 0.0,
                        5 => -0.0,
                        _ => lcg(),
                    })
                    .collect();
                for factor in [1usize, 2, 3, 16, 17] {
                    let fast: Vec<u64> = fir
                        .filter_decimated(&signal, factor)
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    let slow: Vec<u64> = fir
                        .filter(&signal)
                        .into_iter()
                        .step_by(factor)
                        .map(f64::to_bits)
                        .collect();
                    assert_eq!(fast, slow, "taps {n_taps}, len {len}, factor {factor}");
                }
            }
        }
        let fir = FirFilter { taps: vec![1.0] };
        assert!(fir.filter_decimated(&[1.0], 0).is_err());
    }

    #[test]
    fn decimate_keeps_every_kth() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(decimate(&x, 3).unwrap(), vec![0.0, 3.0, 6.0, 9.0]);
        assert!(decimate(&x, 0).is_err());
        assert_eq!(decimate(&x, 1).unwrap(), x);
    }

    #[test]
    fn taps_are_symmetric() {
        let lp = FirFilter::low_pass(20e3, 1e6, 41, Window::Blackman).unwrap();
        let t = lp.taps();
        for i in 0..t.len() / 2 {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-12);
        }
    }
}

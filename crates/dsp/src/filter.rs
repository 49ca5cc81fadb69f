//! FIR filter design and application.
//!
//! Windowed-sinc low-pass design and decimating application. The
//! zero-span path uses a low-pass from here as its
//! resolution-bandwidth filter.

use crate::error::DspError;
use crate::window::Window;
use std::f64::consts::PI;
use std::ops::Range;

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
    /// `(0, fs/2)` (NaN included), [`DspError::NonPositive`] for a
    /// sample rate that is not finite and positive, or
    /// [`DspError::InvalidLength`] when `num_taps == 0`.
    pub fn low_pass(
        cutoff_hz: f64,
        fs_hz: f64,
        num_taps: usize,
        window: Window,
    ) -> Result<Self, DspError> {
        if !(fs_hz.is_finite() && fs_hz > 0.0) {
            return Err(DspError::NonPositive {
                what: "sample rate",
            });
        }
        if !(cutoff_hz > 0.0 && cutoff_hz < fs_hz / 2.0) {
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

    /// Filters `signal` ("same" mode, delay-compensated for symmetric
    /// filters) and keeps every `factor`-th output, computing only the
    /// kept outputs.
    ///
    /// Each kept output sums the products `signal[i]·taps[j − i]` of a
    /// full linear convolution in ascending signal order, zero samples
    /// skipped, so the result equals full-rate filtering followed by
    /// `step_by(factor)` bit for bit.
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
        let n_out = n.div_ceil(factor);
        let mut out = Vec::with_capacity(n_out);
        Decimator::new(self, factor).run(signal, 0, n, 0..n_out, &mut out);
        Ok(out)
    }
}

/// Decimating "same"-mode filtering of an `n`-sample signal that may
/// arrive in pieces: output `q` is full-convolution sample
/// `j = q·factor + delay`, which sums `x[i]·taps[j − i]` over `i` in
/// `j+1−m ..= j` clipped to the signal, in ascending `i`, zero samples
/// skipped. Each output reads only its own window of inputs, so any
/// split of the outputs into runs yields the same bits.
/// [`FirFilter::filter_decimated`] runs every output over the whole
/// signal; the zero-span stream runs them block by block.
#[derive(Debug, Clone)]
pub(crate) struct Decimator {
    /// The taps, last first: `reversed[t]` weighs the `t`-th sample of
    /// an output's window.
    reversed: Vec<f64>,
    factor: usize,
}

impl Decimator {
    /// Decimation of `fir`'s output by `factor` (at least 1).
    pub(crate) fn new(fir: &FirFilter, factor: usize) -> Self {
        Decimator {
            reversed: fir.taps.iter().rev().copied().collect(),
            factor,
        }
    }

    /// The full-convolution index of output `q`.
    fn centre(&self, q: usize) -> usize {
        q * self.factor + (self.reversed.len() - 1) / 2
    }

    /// The first input sample output `q` reads.
    pub(crate) fn first_input(&self, q: usize) -> usize {
        self.centre(q).saturating_sub(self.reversed.len() - 1)
    }

    /// Outputs of an `n`-sample signal whose inputs all lie below
    /// `avail`.
    pub(crate) fn ready(&self, avail: usize, n: usize) -> usize {
        let n_out = n.div_ceil(self.factor);
        if avail >= n {
            return n_out;
        }
        let delay = self.centre(0);
        if avail > delay {
            ((avail - 1 - delay) / self.factor + 1).min(n_out)
        } else {
            0
        }
    }

    /// Appends outputs `qs` of an `n`-sample signal to `out`, reading
    /// input sample `i` at `window[i − start]`; `window` holds every
    /// input those outputs read.
    pub(crate) fn run(
        &self,
        window: &[f64],
        start: usize,
        n: usize,
        qs: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        let taps = &self.reversed[..];
        let m = taps.len();
        let edge = |q: usize| {
            let j = self.centre(q);
            let lo = j.saturating_sub(m - 1);
            let mut acc = 0.0;
            for (i, &x) in (lo..).zip(&window[lo - start..=j.min(n - 1) - start]) {
                mac(&mut acc, x, taps[i + m - 1 - j]);
            }
            acc
        };
        // Away from the signal's edges (j in m−1 ..= n−1) all m taps
        // apply.
        let delay = self.centre(0);
        let first = (m - 1 - delay)
            .div_ceil(self.factor)
            .clamp(qs.start, qs.end);
        let end = if n > delay {
            (n - 1 - delay) / self.factor + 1
        } else {
            0
        }
        .clamp(first, qs.end);
        out.extend((qs.start..first).map(edge));
        // Four interior outputs per pass over the taps, one accumulator
        // each, so four independent add chains.
        let mut q = first;
        while q + 4 <= end {
            let at = |r: usize| &window[self.centre(q + r) + 1 - m - start..][..m];
            let (w0, w1, w2, w3) = (at(0), at(1), at(2), at(3));
            let mut acc = [0.0f64; 4];
            for (t, &tap) in taps.iter().enumerate() {
                mac(&mut acc[0], w0[t], tap);
                mac(&mut acc[1], w1[t], tap);
                mac(&mut acc[2], w2[t], tap);
                mac(&mut acc[3], w3[t], tap);
            }
            out.extend_from_slice(&acc);
            q += 4;
        }
        out.extend((q..qs.end).map(edge));
    }
}

/// One multiply-accumulate step, zero-sample skip included.
#[inline(always)]
fn mac(acc: &mut f64, x: f64, tap: f64) {
    if x != 0.0 {
        *acc += x * tap;
    }
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
///
/// One window is kept sorted by `f64::total_cmp` as it slides: each
/// step removes the sample leaving and inserts the one entering by
/// binary search. `total_cmp` orders by bit pattern, so the kept window
/// is exactly the sorted copy of the neighbourhood and each output is
/// bit-identical to [`crate::stats::median`] of it.
pub fn sliding_median(x: &[f64], half_window: usize) -> Vec<f64> {
    if half_window == 0 {
        return x.to_vec();
    }
    let n = x.len();
    let mut sorted: Vec<f64> = Vec::with_capacity(2 * half_window + 1);
    let insert = |sorted: &mut Vec<f64>, v: f64| {
        let at = sorted.partition_point(|s| s.total_cmp(&v).is_lt());
        sorted.insert(at, v);
    };
    for &v in &x[..half_window.min(n)] {
        insert(&mut sorted, v);
    }
    (0..n)
        .map(|k| {
            if let Some(&entering) = x.get(k + half_window) {
                insert(&mut sorted, entering);
            }
            if k > half_window {
                let leaving = x[k - half_window - 1];
                let at = sorted.partition_point(|s| s.total_cmp(&leaving).is_lt());
                sorted.remove(at);
            }
            crate::stats::percentile_sorted(&sorted, 50.0)
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

    /// The copy-and-sort sliding median this function replaced.
    fn sliding_median_by_sorting(x: &[f64], half_window: usize) -> Vec<f64> {
        if half_window == 0 {
            return x.to_vec();
        }
        let n = x.len();
        (0..n)
            .map(|k| {
                let lo = k.saturating_sub(half_window);
                let hi = (k + half_window + 1).min(n);
                crate::stats::median(&x[lo..hi])
            })
            .collect()
    }

    #[test]
    fn sliding_median_is_bit_identical_to_sorting_each_window() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(24);
        // Few distinct values, so windows hold many duplicates.
        let palette = [
            -0.0,
            0.0,
            1.0,
            -1.5,
            2.25,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-310,
        ];
        for trial in 0..200 {
            let n = (rng.next_u64() % 80) as usize;
            let x: Vec<f64> = (0..n)
                .map(|_| {
                    if trial % 2 == 0 {
                        palette[(rng.next_u64() % palette.len() as u64) as usize]
                    } else {
                        (rng.next_u64() % 7) as f64 - 3.0 + (rng.next_u64() % 3) as f64 * 0.5
                    }
                })
                .collect();
            // Windows narrower than, equal to and wider than the series.
            for half_window in [0, 1, 2, 5, 24, n.saturating_sub(1), n, n + 3] {
                let got = sliding_median(&x, half_window);
                let want = sliding_median_by_sorting(&x, half_window);
                assert_eq!(got.len(), want.len());
                for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "trial {trial} n={n} half_window={half_window} k={k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliding_median_follows_trend() {
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let floor = sliding_median(&x, 3);
        // Interior medians track the ramp exactly.
        assert_eq!(floor[10], 10.0);
        assert_eq!(floor[50], 50.0);
    }

    /// Full-rate "same"-mode filtering by direct full linear
    /// convolution, zero samples skipped: the reference the decimating
    /// path must reproduce.
    fn filter(fir: &FirFilter, signal: &[f64]) -> Vec<f64> {
        let taps = fir.taps();
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

    #[test]
    fn reference_filter_convolves() {
        // [1,2] * [3,4] = [3, 10, 8]; a 2-tap filter has no delay.
        let fir = FirFilter {
            taps: vec![3.0, 4.0],
        };
        assert_eq!(filter(&fir, &[1.0, 2.0]), vec![3.0, 10.0]);
        assert!(filter(&fir, &[]).is_empty());
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
        let y_low = lp.filter_decimated(&low, 1).unwrap();
        let y_high = lp.filter_decimated(&high, 1).unwrap();
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
    fn low_pass_rejects_non_finite_cutoff() {
        for cutoff in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    FirFilter::low_pass(cutoff, 1e6, 11, Window::Hann),
                    Err(DspError::FrequencyOutOfRange { .. })
                ),
                "cutoff {cutoff}"
            );
        }
    }

    #[test]
    fn low_pass_rejects_non_finite_sample_rate() {
        for fs in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    FirFilter::low_pass(1e3, fs, 11, Window::Hann),
                    Err(DspError::NonPositive { .. })
                ),
                "fs {fs}"
            );
        }
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
        assert_eq!(lp.filter_decimated(&x, 1).unwrap().len(), 100);
    }

    #[test]
    fn filter_dc_gain_unity() {
        let lp = FirFilter::low_pass(1e3, 1e6, 31, Window::Blackman).unwrap();
        let x = vec![2.5; 400];
        let y = lp.filter_decimated(&x, 1).unwrap();
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
                    let slow: Vec<u64> = filter(&fir, &signal)
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
    fn taps_are_symmetric() {
        let lp = FirFilter::low_pass(20e3, 1e6, 41, Window::Blackman).unwrap();
        let t = lp.taps();
        for i in 0..t.len() / 2 {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-12);
        }
    }
}

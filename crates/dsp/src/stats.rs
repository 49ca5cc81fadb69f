//! Batch and running statistics.
//!
//! The SNR procedure (paper Eq. 1) is an RMS ratio; the envelope
//! classification extracts moments (variance, kurtosis) and
//! robust statistics (median, MAD, percentiles) as features. Everything
//! here is allocation-light and deterministic.

use crate::error::DspError;

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance (divides by `n`). Returns 0 for slices with < 2
/// elements.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square value; the quantity in the paper's SNR equation.
///
/// # Example
///
/// ```
/// use psa_dsp::stats::rms;
/// // RMS of a unit sine is 1/sqrt(2).
/// let x: Vec<f64> = (0..10000)
///     .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 100.0).sin())
///     .collect();
/// assert!((rms(&x) - 1.0 / 2f64.sqrt()).abs() < 1e-3);
/// ```
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// SNR in dB per the paper's Equation (1):
/// `SNR = 20·log10(Vrms_signal / Vrms_noise)`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either slice is empty, or
/// [`DspError::NonPositive`] if the noise RMS is zero.
pub fn snr_db(signal: &[f64], noise: &[f64]) -> Result<f64, DspError> {
    if signal.is_empty() || noise.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let vn = rms(noise);
    if vn <= 0.0 {
        return Err(DspError::NonPositive { what: "noise rms" });
    }
    Ok(20.0 * (rms(signal) / vn).log10())
}

/// Median (by sorting a copy). Returns 0 for an empty slice.
pub fn median(x: &[f64]) -> f64 {
    percentile(x, 50.0)
}

/// Percentile in `[0, 100]` with linear interpolation between order
/// statistics. Returns 0 for an empty slice; clamps `p` into range.
pub fn percentile(x: &[f64], p: f64) -> f64 {
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] of a slice already sorted ascending (by
/// `f64::total_cmp`), so several percentiles share one sort.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median absolute deviation (robust spread). Returns 0 for an empty
/// slice.
pub fn mad(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let med = median(x);
    let devs: Vec<f64> = x.iter().map(|v| (v - med).abs()).collect();
    median(&devs)
}

/// Excess kurtosis (fourth standardized moment minus 3). Returns 0 when
/// the variance vanishes or fewer than 4 samples are given.
pub fn kurtosis_excess(x: &[f64]) -> f64 {
    if x.len() < 4 {
        return 0.0;
    }
    let m = mean(x);
    let s = std_dev(x);
    if s == 0.0 {
        return 0.0;
    }
    x.iter().map(|v| ((v - m) / s).powi(4)).sum::<f64>() / x.len() as f64 - 3.0
}

/// One-pass running statistics (Welford's algorithm): numerically stable
/// mean/variance over streams, used by the run-time monitor's baseline
/// learner.
///
/// # Example
///
/// ```
/// use psa_dsp::stats::Running;
///
/// let mut r = Running::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     r.push(v);
/// }
/// assert_eq!(r.count(), 4);
/// assert!((r.mean() - 2.5).abs() < 1e-12);
/// assert!((r.variance() - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Running population variance (0 with < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Running population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-12);
        assert!((variance(&x) - 4.0).abs() < 1e-12);
        assert!((std_dev(&x) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[]), 0.0);
        assert_eq!(kurtosis_excess(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn rms_of_constant() {
        assert!((rms(&[3.0; 100]) - 3.0).abs() < 1e-12);
        assert!((rms(&[-3.0; 100]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn snr_db_known_ratio() {
        let signal = vec![10.0; 64];
        let noise = vec![1.0; 64];
        assert!((snr_db(&signal, &noise).unwrap() - 20.0).abs() < 1e-12);
        // 100x amplitude ratio = 40 dB.
        let signal = vec![100.0; 64];
        assert!((snr_db(&signal, &noise).unwrap() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn snr_db_validates() {
        assert!(snr_db(&[], &[1.0]).is_err());
        assert!(snr_db(&[1.0], &[]).is_err());
        assert!(snr_db(&[1.0], &[0.0]).is_err());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let x = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&x, 0.0), 10.0);
        assert_eq!(percentile(&x, 100.0), 40.0);
        assert!((percentile(&x, 50.0) - 25.0).abs() < 1e-12);
        // Out-of-range p is clamped.
        assert_eq!(percentile(&x, -5.0), 10.0);
        assert_eq!(percentile(&x, 150.0), 40.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(
            percentile_sorted(&x, 25.0),
            percentile(&[40.0, 10.0, 30.0, 20.0], 25.0)
        );
    }

    #[test]
    fn mad_is_robust_to_outlier() {
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let spiked = [1.0, 2.0, 3.0, 4.0, 1000.0];
        assert!((mad(&clean) - mad(&spiked)).abs() < 1.01);
        assert!(std_dev(&spiked) > 100.0 * std_dev(&clean));
    }

    #[test]
    fn kurtosis_of_two_level_signal_is_minus_two() {
        // A ±1 square wave has kurtosis 1, excess -2.
        let sq: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!((kurtosis_excess(&sq) + 2.0).abs() < 1e-9);
    }

    #[test]
    fn running_matches_batch() {
        let x: Vec<f64> = (0..500).map(|i| ((i * i) % 97) as f64 * 0.37).collect();
        let mut r = Running::new();
        for &v in &x {
            r.push(v);
        }
        assert_eq!(r.count(), 500);
        assert!((r.mean() - mean(&x)).abs() < 1e-9);
        assert!((r.variance() - variance(&x)).abs() < 1e-9);
    }
}

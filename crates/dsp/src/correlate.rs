//! Autocorrelation and envelope periodicity.
//!
//! The Trojan identification stage extracts a zero-span envelope's
//! dominant period and its strength from the autocorrelation; those
//! become two of the scale-free features that k-NN matches against the
//! reference templates, so all four Trojans can be told apart without
//! supervision (paper Fig 5).

use crate::error::DspError;
use crate::stats;

/// Biased autocorrelation for lags `0..max_lag`, normalized so lag 0
/// equals 1 (unless the signal has zero variance, in which case all lags
/// are 0).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal or
/// [`DspError::InvalidLength`] when `max_lag` exceeds the signal length.
pub fn autocorrelation(x: &[f64], max_lag: usize) -> Result<Vec<f64>, DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if max_lag > x.len() {
        return Err(DspError::InvalidLength {
            what: "autocorrelation max lag",
            got: max_lag,
        });
    }
    let m = stats::mean(x);
    let centered: Vec<f64> = x.iter().map(|v| v - m).collect();
    let denom: f64 = centered.iter().map(|v| v * v).sum();
    // Guard against effectively-constant signals: the mean subtraction
    // leaves rounding residue, so compare against the signal's own scale.
    let scale = x.iter().map(|v| v * v).sum::<f64>().max(f64::MIN_POSITIVE);
    if denom <= scale * 1e-24 {
        return Ok(vec![0.0; max_lag]);
    }
    let n = x.len();
    let mut out = Vec::with_capacity(max_lag);
    // Lags in blocks of LAG_BLOCK, one accumulator per lag: every lag
    // still sums `i = 0..n-lag` in ascending order (bit-identical to one
    // lag at a time), but the block's add chains are independent.
    let mut lag0 = 0;
    while lag0 + LAG_BLOCK <= max_lag {
        let mut acc = [0.0f64; LAG_BLOCK];
        // Every lag of the block covers `i < common`; lag0 + k then
        // finishes its own last LAG_BLOCK - 1 - k terms.
        let common = n - (lag0 + LAG_BLOCK - 1);
        let shifted = &centered[lag0..];
        for (i, &ci) in centered[..common].iter().enumerate() {
            let window = &shifted[i..i + LAG_BLOCK];
            for (a, &cj) in acc.iter_mut().zip(window) {
                *a += ci * cj;
            }
        }
        for (k, a) in acc.iter_mut().enumerate() {
            let lag = lag0 + k;
            for i in common..n - lag {
                *a += centered[i] * centered[i + lag];
            }
            out.push(*a / denom);
        }
        lag0 += LAG_BLOCK;
    }
    for lag in lag0..max_lag {
        let mut acc = 0.0;
        for i in 0..n - lag {
            acc += centered[i] * centered[i + lag];
        }
        out.push(acc / denom);
    }
    Ok(out)
}

/// Lags computed per pass of [`autocorrelation`] over the signal.
const LAG_BLOCK: usize = 16;

/// The dominant period, in samples, of the signal behind an
/// autocorrelation (as returned by [`autocorrelation`], lag 0 first): the
/// lag of the highest local maximum past the lag-0 main lobe, or `None`
/// when there is no such peak.
pub fn dominant_period_of(ac: &[f64]) -> Option<usize> {
    if ac.len() < 3 {
        return None;
    }
    // Skip the lag-0 main lobe: wait until the autocorrelation first drops
    // below 0.5, then find the highest subsequent local maximum.
    let start = ac.iter().position(|&v| v < 0.5)?;
    let mut best: Option<(usize, f64)> = None;
    for lag in start.max(1)..ac.len() - 1 {
        if ac[lag] > ac[lag - 1] && ac[lag] >= ac[lag + 1] && ac[lag] > 0.2 {
            match best {
                Some((_, v)) if v >= ac[lag] => {}
                _ => best = Some((lag, ac[lag])),
            }
        }
    }
    best.map(|(lag, _)| lag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn autocorrelation_lag0_is_one() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let ac = autocorrelation(&x, 10).unwrap();
        assert!((ac[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_periodic_signal_peaks_at_period() {
        let period = 25;
        let x: Vec<f64> = (0..500)
            .map(|i| (2.0 * PI * i as f64 / period as f64).sin())
            .collect();
        let ac = autocorrelation(&x, 100).unwrap();
        assert!(ac[period] > 0.9);
        assert!(ac[period / 2] < -0.8);
    }

    #[test]
    fn autocorrelation_validates() {
        assert!(autocorrelation(&[], 5).is_err());
        assert!(autocorrelation(&[1.0, 2.0], 5).is_err());
    }

    /// The one-lag-at-a-time loop the lag-blocked kernel replaced.
    fn autocorrelation_reference(x: &[f64], max_lag: usize) -> Vec<f64> {
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

    #[test]
    fn blocked_autocorrelation_matches_one_lag_at_a_time_bitwise() {
        let mut state = 0x5EED_AC0Fu64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for len in 1..=40usize {
            let noisy: Vec<f64> = (0..len).map(|_| lcg()).collect();
            // Integer ramp symmetric about 0: exact zeros after centring.
            let ramp: Vec<f64> = (0..len).map(|i| i as f64 - (len / 2) as f64).collect();
            // Mostly-zero signal with sparse spikes: exact-zero products.
            let sparse: Vec<f64> = (0..len)
                .map(|i| if i % 5 == 2 { 1.0 + lcg() } else { 0.0 })
                .collect();
            let constant = vec![0.37; len];
            for x in [&noisy, &ramp, &sparse, &constant] {
                for max_lag in 0..=len {
                    let fast: Vec<u64> = autocorrelation(x, max_lag)
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    let slow: Vec<u64> = autocorrelation_reference(x, max_lag)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(fast, slow, "len {len}, max_lag {max_lag}, x {x:?}");
                }
            }
        }
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        let ac = autocorrelation(&[4.2; 50], 10).unwrap();
        assert!(ac.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dominant_period_of_sine() {
        let period = 40;
        let x: Vec<f64> = (0..800)
            .map(|i| (2.0 * PI * i as f64 / period as f64).sin())
            .collect();
        let p = dominant_period_of(&autocorrelation(&x, 200).unwrap()).unwrap();
        assert!((p as i64 - period as i64).abs() <= 1, "period {p}");
    }

    #[test]
    fn dominant_period_absent_for_constant() {
        let ac = autocorrelation(&[1.0; 100], 50).unwrap();
        assert_eq!(dominant_period_of(&ac), None);
        assert_eq!(dominant_period_of(&ac[..2]), None);
    }
}

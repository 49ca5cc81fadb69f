//! Spectral peak detection.
//!
//! The cross-domain analysis must find *emergent* frequency components —
//! the 48 MHz / 84 MHz Trojan sidebands of Fig 4 — in a spectrum that also
//! contains large legitimate clock harmonics. This module provides the
//! excess-over-baseline detector and the local-max envelope it compares
//! against.

/// Bins where `test` exceeds `baseline` by at least `threshold_db`
/// (both inputs in dB). Returns `(bin, excess_db)` pairs sorted by
/// descending excess.
///
/// This is the golden-model-free comparison at the heart of the paper's
/// run-time detection: the baseline is learned from the same chip while
/// the Trojan is dormant, not from a separate golden device.
pub fn excess_over_baseline_db(
    test_db: &[f64],
    baseline_db: &[f64],
    threshold_db: f64,
) -> Vec<(usize, f64)> {
    let n = test_db.len().min(baseline_db.len());
    let mut out: Vec<(usize, f64)> = (0..n)
        .filter_map(|k| {
            let excess = test_db[k] - baseline_db[k];
            (excess >= threshold_db).then_some((k, excess))
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// Upper envelope of a series: each element replaced by the maximum over
/// a ±`half_window` neighbourhood. Applied to learned baseline spectra
/// so a test bin must beat the local *worst case* of the quiet chip,
/// not one particular noise draw.
pub fn local_max_envelope(series: &[f64], half_window: usize) -> Vec<f64> {
    let n = series.len();
    (0..n)
        .map(|k| {
            let lo = k.saturating_sub(half_window);
            let hi = (k + half_window + 1).min(n);
            series[lo..hi].iter().cloned().fold(f64::MIN, f64::max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excess_over_baseline_finds_emergent_bins() {
        let baseline = vec![-80.0; 10];
        let mut test = baseline.clone();
        test[3] = -50.0; // 30 dB excess
        test[7] = -72.0; // 8 dB excess
        let hits = excess_over_baseline_db(&test, &baseline, 10.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 3);
        assert!((hits[0].1 - 30.0).abs() < 1e-12);
        let hits = excess_over_baseline_db(&test, &baseline, 5.0);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 3); // sorted by excess
        assert_eq!(hits[1].0, 7);
    }

    #[test]
    fn excess_handles_length_mismatch() {
        let hits = excess_over_baseline_db(&[0.0, 10.0, 20.0], &[0.0, 0.0], 5.0);
        assert_eq!(hits, vec![(1, 10.0)]);
    }

    #[test]
    fn local_max_envelope_bounds_input() {
        let x = vec![0.0, 5.0, 1.0, -3.0, 2.0];
        let env = local_max_envelope(&x, 1);
        assert_eq!(env, vec![5.0, 5.0, 5.0, 2.0, 2.0]);
        for (e, v) in env.iter().zip(&x) {
            assert!(e >= v);
        }
        assert_eq!(local_max_envelope(&x, 0), x);
        assert!(local_max_envelope(&[], 3).is_empty());
    }
}

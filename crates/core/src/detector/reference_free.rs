//! Reference-free detection statistics: no Trojan-dormant acquisition.
//!
//! The cross-domain detector is golden-model free but still *learns* a
//! same-chip baseline while the Trojans are dormant. A stricter setting
//! from the golden-model-free literature (Tahghigh & Salmani's
//! reference-free EM analysis) drops even that: the statistic must be
//! computed from the test measurement alone, exploiting only structural
//! knowledge of what a legitimate spectrum looks like:
//!
//! * legitimate emissions concentrate at clock harmonics
//!   (multiples of [`calib::CLK_HZ`]) plus a smooth broadband floor;
//! * Trojan switching adds *narrow* components at non-harmonic
//!   frequencies (the sequential payloads here emit at 48 / 84 MHz);
//! * noise spikes are narrow too, but they do not *persist*: a physical
//!   tone reappears at the same frequency at every spectral resolution,
//!   a noise excursion does not.
//!
//! Three statistics over that structure, each a [`Detector`]:
//!
//! * [`SpectralOutlierDetector`] — the fraction of non-harmonic band
//!   power carried by bins that are robust-z outliers above a
//!   sliding-median spectral floor;
//! * [`CrossScalePersistenceDetector`] — the strongest outlier z that
//!   *persists* (min across record lengths) at one frequency;
//! * [`SpectralKurtosisDetector`] — the excess kurtosis of the
//!   floor-removed non-harmonic residual (tones ⇒ heavy upper tail).
//!
//! All three scan every PSA sensor and score the worst case, so a
//! Trojan only needs to light up one sensor. Scores follow the module
//! convention: higher = more Trojan-like, decision by strict
//! `score > threshold`.

use super::{Capabilities, Detector};
use crate::acquisition::AcqContext;
use crate::calib;
use crate::error::CoreError;
use crate::scenario::Scenario;
use psa_dsp::filter::sliding_median;
use psa_dsp::stats;

/// Capabilities shared by the reference-free statistics: run-time
/// capable (on-chip PSA sensing, few traces), verdict-only output.
const REFERENCE_FREE: Capabilities = Capabilities {
    localizes: false,
    runtime: true,
};

/// Half-window of the sliding-median spectral floor, bins.
const FLOOR_HALF_WINDOW: usize = 24;

/// Guard band masked around DC and each clock harmonic, bins.
const HARMONIC_GUARD_BINS: usize = 4;

/// Record length in clock cycles of the outlier and kurtosis sweeps
/// (shorter than the cross-domain detector's full records — the
/// statistics need resolution, not the full 4 kHz RBW).
const SWEEP_RECORD_CYCLES: usize = 2048;

/// Marks the bins a reference-free statistic must ignore: the DC region
/// and ±[`HARMONIC_GUARD_BINS`] around every clock-harmonic bin
/// (legitimate emissions live there, so excess at those frequencies
/// carries no Trojan evidence without a reference).
fn harmonic_mask(n_samples: usize, spec_len: usize) -> Vec<bool> {
    let fs = calib::sample_rate_hz();
    let mut mask = vec![false; spec_len];
    for b in mask
        .iter_mut()
        .take((HARMONIC_GUARD_BINS + 1).min(spec_len))
    {
        *b = true;
    }
    let mut m = 1;
    loop {
        let f = m as f64 * calib::CLK_HZ;
        if f > fs / 2.0 {
            break;
        }
        let k = psa_dsp::fft::freq_bin(f, n_samples, fs);
        let lo = k.saturating_sub(HARMONIC_GUARD_BINS);
        let hi = (k + HARMONIC_GUARD_BINS + 1).min(spec_len);
        for b in mask.iter_mut().take(hi).skip(lo) {
            *b = true;
        }
        m += 1;
    }
    mask
}

/// Floor-removed residual: the spectrum (dB) minus its sliding-median
/// floor — flat around zero for broadband content, positive spikes at
/// narrow components.
fn floor_residual(spec_db: &[f64]) -> Vec<f64> {
    let floor = sliding_median(spec_db, FLOOR_HALF_WINDOW);
    spec_db.iter().zip(&floor).map(|(s, f)| s - f).collect()
}

/// Robust z-scores of the residual computed over the *unmasked* bins
/// only (masked bins would otherwise drag the median/MAD). Masked bins
/// get `-∞` so they can never be outliers. Returns `None` when the
/// unmasked MAD is zero (degenerate spectrum — no scale to judge
/// outliers against).
fn masked_zscores(residual: &[f64], mask: &[bool]) -> Option<Vec<f64>> {
    let unmasked: Vec<f64> = residual
        .iter()
        .zip(mask)
        .filter(|(_, &m)| !m)
        .map(|(&r, _)| r)
        .collect();
    if unmasked.is_empty() {
        return None;
    }
    let med = stats::median(&unmasked);
    let mad = stats::mad(&unmasked);
    if mad == 0.0 {
        return None;
    }
    let denom = 1.4826 * mad;
    Some(
        residual
            .iter()
            .zip(mask)
            .map(|(&r, &m)| {
                if m {
                    f64::NEG_INFINITY
                } else {
                    (r - med) / denom
                }
            })
            .collect(),
    )
}

/// Reference-free spectral-outlier energy ratio.
///
/// Per sensor: average a spectrum, remove the sliding-median floor,
/// flag non-harmonic bins whose residual robust-z exceeds 6, and score
/// the fraction of unmasked band *power* those outlier bins carry. The score is the worst (largest)
/// ratio over the sensor bank — `0.0` when no bin is outlying anywhere.
#[derive(Debug, Clone)]
pub struct SpectralOutlierDetector {
    /// Traces averaged per sensor spectrum.
    traces_per_sensor: usize,
}

impl Default for SpectralOutlierDetector {
    fn default() -> Self {
        SpectralOutlierDetector::new(calib::TRACES_PER_SPECTRUM)
    }
}

impl SpectralOutlierDetector {
    /// Robust-z cut above which a bin counts as a spectral outlier.
    const Z_CUT: f64 = 6.0;

    /// Decision threshold on the outlier energy ratio (fraction of
    /// unmasked band power in outlier bins).
    pub const ENERGY_RATIO_THRESHOLD: f64 = 1e-4;

    /// An instance averaging `traces_per_sensor` traces per sensor
    /// spectrum.
    pub fn new(traces_per_sensor: usize) -> Self {
        SpectralOutlierDetector { traces_per_sensor }
    }
}

impl Detector for SpectralOutlierDetector {
    fn name(&self) -> &'static str {
        "spectral-outlier energy ratio (reference-free)"
    }

    fn capabilities(&self) -> Capabilities {
        REFERENCE_FREE
    }

    fn threshold(&self) -> f64 {
        Self::ENERGY_RATIO_THRESHOLD
    }

    /// Per monitored sensor (the full scan multiplies by the bank
    /// size, as with the cross-domain detector).
    fn traces_per_score(&self) -> usize {
        self.traces_per_sensor
    }

    fn score_with(&self, ctx: &mut AcqContext<'_>, scenario: &Scenario) -> Result<f64, CoreError> {
        let n_samples = SWEEP_RECORD_CYCLES * calib::SAMPLES_PER_CYCLE;
        let spectra =
            ctx.sensor_sweep_db(scenario, self.traces_per_sensor, SWEEP_RECORD_CYCLES, &[])?;
        let mut worst = 0.0f64;
        for spec in &spectra {
            let mask = harmonic_mask(n_samples, spec.len());
            let residual = floor_residual(spec);
            let Some(z) = masked_zscores(&residual, &mask) else {
                continue;
            };
            let mut outlier_power = 0.0;
            let mut band_power = 0.0;
            for ((&db, &zv), &m) in spec.iter().zip(&z).zip(&mask) {
                if m {
                    continue;
                }
                let p = psa_dsp::spectrum::db_to_amplitude(db).powi(2);
                band_power += p;
                if zv > Self::Z_CUT {
                    outlier_power += p;
                }
            }
            if band_power > 0.0 {
                worst = worst.max(outlier_power / band_power);
            }
        }
        Ok(worst)
    }
}

/// Reference-free cross-scale persistence of spectral outliers.
///
/// A real Trojan emission is a steady tone: whatever the record length,
/// its spectrum shows an outlier at the same frequency. A noise
/// excursion decorrelates between independent acquisitions at different
/// record lengths. Per sensor, the statistic computes floor-removed
/// robust-z spectra at several record lengths and scores each coarse
/// bin by the *minimum* z across scales at the aligned frequency —
/// outliers must survive every scale to count. The score is the largest
/// persistent z over bins and sensors.
#[derive(Debug, Clone)]
pub struct CrossScalePersistenceDetector {
    /// Traces averaged per sensor spectrum at each scale.
    traces_per_scale: usize,
}

impl Default for CrossScalePersistenceDetector {
    fn default() -> Self {
        CrossScalePersistenceDetector::new(2)
    }
}

impl CrossScalePersistenceDetector {
    /// Record lengths (clock cycles) scanned, coarsest first: powers of
    /// two, so bins align exactly across scales.
    const SCALES: [usize; 3] = [1024, 2048, 4096];

    /// Decision threshold on the persistent robust-z.
    pub const Z_THRESHOLD: f64 = 5.0;

    /// An instance averaging `traces_per_scale` traces per sensor
    /// spectrum at each scale.
    pub fn new(traces_per_scale: usize) -> Self {
        CrossScalePersistenceDetector { traces_per_scale }
    }
}

impl Detector for CrossScalePersistenceDetector {
    fn name(&self) -> &'static str {
        "cross-scale persistence (reference-free)"
    }

    fn capabilities(&self) -> Capabilities {
        REFERENCE_FREE
    }

    fn threshold(&self) -> f64 {
        Self::Z_THRESHOLD
    }

    /// Per monitored sensor: one spectrum per scale.
    fn traces_per_score(&self) -> usize {
        self.traces_per_scale * Self::SCALES.len()
    }

    fn score_with(&self, ctx: &mut AcqContext<'_>, scenario: &Scenario) -> Result<f64, CoreError> {
        let scales = Self::SCALES;
        let coarsest = scales[0];
        let n_sensors = ctx.chip().sensor_bank().len();
        // Per-sensor, per-scale robust-z spectra, one sweep of the array
        // per scale. Each scale acquires its own records (decorrelated
        // noise), seed-offset so scales never share a noise stream even
        // at equal record counts. `None` marks a sensor with a
        // degenerate scale: it cannot confirm persistence at any
        // frequency, so it contributes no score.
        let mut sensor_zs: Vec<Option<Vec<Vec<f64>>>> =
            vec![Some(Vec::with_capacity(scales.len())); n_sensors];
        let ratios: Vec<usize> = scales.iter().map(|&c| c / coarsest).collect();
        for (si, &cycles) in scales.iter().enumerate() {
            let scen = scenario
                .clone()
                .with_seed(scenario.seed ^ (0x5CA1E + si as u64).wrapping_mul(0x9E37_79B9));
            let spectra = ctx.sensor_sweep_db(&scen, self.traces_per_scale, cycles, &[])?;
            let n_samples = cycles * calib::SAMPLES_PER_CYCLE;
            for (zs, spec) in sensor_zs.iter_mut().zip(&spectra) {
                let Some(list) = zs else { continue };
                let mask = harmonic_mask(n_samples, spec.len());
                let residual = floor_residual(spec);
                match masked_zscores(&residual, &mask) {
                    Some(z) => list.push(z),
                    None => *zs = None,
                }
            }
        }
        let mut score = f64::NEG_INFINITY;
        for zs in sensor_zs.iter().flatten() {
            let base_len = zs[0].len();
            for k in 0..base_len {
                // Persistence: the outlier must show at the aligned bin
                // (±1 for windowing leakage) at *every* scale.
                let mut persistent = f64::INFINITY;
                for (z, &r) in zs.iter().zip(&ratios) {
                    let centre = k * r;
                    let lo = centre.saturating_sub(1);
                    let hi = (centre + 2).min(z.len());
                    let local = z[lo..hi].iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    persistent = persistent.min(local);
                }
                score = score.max(persistent);
            }
        }
        Ok(score)
    }
}

/// Reference-free spectral kurtosis.
///
/// With only broadband content, the floor-removed non-harmonic residual
/// is noise-like and its excess kurtosis sits near zero; narrow Trojan
/// tones put probability mass far into the upper tail and drive the
/// kurtosis up. The score is the largest excess kurtosis over the
/// sensor bank. The crudest of the three statistics — kept as the
/// sanity floor the structured ones must beat in the bake-off.
#[derive(Debug, Clone)]
pub struct SpectralKurtosisDetector {
    /// Traces averaged per sensor spectrum.
    traces_per_sensor: usize,
}

impl Default for SpectralKurtosisDetector {
    fn default() -> Self {
        SpectralKurtosisDetector::new(calib::TRACES_PER_SPECTRUM)
    }
}

impl SpectralKurtosisDetector {
    /// Decision threshold on the excess kurtosis.
    pub const KURTOSIS_THRESHOLD: f64 = 3.0;

    /// An instance averaging `traces_per_sensor` traces per sensor
    /// spectrum.
    pub fn new(traces_per_sensor: usize) -> Self {
        SpectralKurtosisDetector { traces_per_sensor }
    }
}

impl Detector for SpectralKurtosisDetector {
    fn name(&self) -> &'static str {
        "spectral kurtosis (reference-free)"
    }

    fn capabilities(&self) -> Capabilities {
        REFERENCE_FREE
    }

    fn threshold(&self) -> f64 {
        Self::KURTOSIS_THRESHOLD
    }

    /// Per monitored sensor.
    fn traces_per_score(&self) -> usize {
        self.traces_per_sensor
    }

    fn score_with(&self, ctx: &mut AcqContext<'_>, scenario: &Scenario) -> Result<f64, CoreError> {
        let n_samples = SWEEP_RECORD_CYCLES * calib::SAMPLES_PER_CYCLE;
        let spectra =
            ctx.sensor_sweep_db(scenario, self.traces_per_sensor, SWEEP_RECORD_CYCLES, &[])?;
        let mut score = f64::NEG_INFINITY;
        for spec in &spectra {
            let mask = harmonic_mask(n_samples, spec.len());
            let residual = floor_residual(spec);
            let unmasked: Vec<f64> = residual
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| !m)
                .map(|(&r, _)| r)
                .collect();
            if unmasked.len() > 3 {
                score = score.max(stats::kurtosis_excess(&unmasked));
            }
        }
        Ok(score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_covers_dc_and_harmonics() {
        // 2048 cycles × 8 samples = 16384 samples at 264 MS/s:
        // 33 MHz falls on bin 33e6 / (264e6/16384) = 2048.
        let n = 16384;
        let mask = harmonic_mask(n, n / 2 + 1);
        assert!(mask[0], "DC masked");
        assert!(mask[2048], "first clock harmonic masked");
        assert!(mask[2052] && mask[2044], "guard band masked");
        assert!(!mask[2053] && !mask[2043], "guard band is tight");
        // 48 MHz (a Trojan sideband) must stay observable.
        let sideband = psa_dsp::fft::freq_bin(48.0e6, n, calib::sample_rate_hz());
        assert!(!mask[sideband], "non-harmonic sideband left unmasked");
    }

    #[test]
    fn floor_residual_isolates_spikes() {
        let mut spec = vec![-80.0; 101];
        spec[50] = -40.0;
        let r = floor_residual(&spec);
        assert!((r[50] - 40.0).abs() < 1e-9);
        assert!(r[10].abs() < 1e-9);
    }

    #[test]
    fn masked_zscores_flag_only_unmasked_outliers() {
        let mut residual = vec![0.0; 100];
        for (i, r) in residual.iter_mut().enumerate() {
            *r = (i % 7) as f64 * 0.1; // non-degenerate spread
        }
        residual[30] = 50.0;
        residual[60] = 50.0;
        let mut mask = vec![false; 100];
        mask[60] = true;
        let z = masked_zscores(&residual, &mask).expect("MAD > 0");
        assert!(z[30] > 10.0, "unmasked spike is an outlier");
        assert_eq!(z[60], f64::NEG_INFINITY, "masked spike is ignored");
    }

    #[test]
    fn masked_zscores_degenerate_spread_is_none() {
        let residual = vec![1.0; 50];
        let mask = vec![false; 50];
        assert!(masked_zscores(&residual, &mask).is_none());
    }

    #[test]
    fn metadata_is_reference_free() {
        let dets: [&dyn Detector; 3] = [
            &SpectralOutlierDetector::default(),
            &CrossScalePersistenceDetector::default(),
            &SpectralKurtosisDetector::default(),
        ];
        for d in dets {
            assert!(d.capabilities().runtime, "{}", d.name());
            assert!(!d.capabilities().localizes, "{}", d.name());
        }
        assert_eq!(
            SpectralOutlierDetector::default().traces_per_score(),
            calib::TRACES_PER_SPECTRUM
        );
        assert_eq!(
            CrossScalePersistenceDetector::default().traces_per_score(),
            6
        );
    }
}

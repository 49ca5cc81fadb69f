//! Trojan identification from zero-span envelopes (paper Fig 5).
//!
//! Different Trojans imprint different modulation envelopes on the same
//! 48 MHz sideband: T1 a 750 kHz AM sine, T2 key-schedule bursts locked
//! to the 12-cycle block, T3 PN-code telegraph chipping, T4 a
//! near-constant level. This module extracts scale-free features from an
//! envelope and matches them against a template library built from
//! *reference simulations* (archetype models, not a golden chip — the
//! paper's "without full supervision"), with unsupervised clustering as
//! a cross-check.

use crate::acquisition::AcqContext;
use crate::chip::{SensorSelect, TestChip};
use crate::error::CoreError;
use crate::scenario::Scenario;
use psa_dsp::{correlate, stats};
use psa_gatesim::trojan::TrojanKind;
use psa_ml::knn::Knn;
use psa_ml::scaler::StandardScaler;

/// Scale-free features of a zero-span envelope.
///
/// The discriminative core is the *envelope spectrum*: a coherent
/// modulation (T1's 750 kHz AM, T2's 2.75 MHz block-rate bursts)
/// concentrates into a line that survives additive in-band noise,
/// while T3's PN chipping fills the low-frequency region without a line
/// and T4's constant-on payload leaves the envelope spectrum empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeFeatures {
    /// Frequency of the strongest envelope-spectrum line, MHz
    /// (0 when no line is prominent).
    pub mod_freq_mhz: f64,
    /// Prominence of that line over the median envelope-spectrum level,
    /// dB (0 when no line).
    pub mod_prominence_db: f64,
    /// Fraction of AC envelope energy below 1 MHz (broad low-frequency
    /// mass: high for T3's chipping, low for tonal or flat envelopes).
    pub lowfreq_fraction: f64,
    /// Dominant envelope periodicity, µs (0 when aperiodic).
    pub period_us: f64,
    /// Strength of that periodicity (autocorrelation peak, 0–1).
    pub periodicity: f64,
    /// Modulation depth: (p95 − p5) / (p95 + p5).
    pub depth: f64,
    /// Excess kurtosis of the envelope.
    pub kurtosis: f64,
    /// Two-level ("telegraph") score: fraction of samples within 10 % of
    /// either the low or high quartile level.
    pub telegraph: f64,
}

impl EnvelopeFeatures {
    /// The features as a vector for distance computations.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.mod_freq_mhz,
            self.mod_prominence_db,
            self.lowfreq_fraction,
            self.period_us,
            self.periodicity,
            self.depth,
            self.kurtosis,
            self.telegraph,
        ]
    }
}

/// Extracts features from an envelope sampled at `fs_hz`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for an envelope shorter than
/// 64 samples, and propagates DSP errors.
pub fn extract_features(envelope: &[f64], fs_hz: f64) -> Result<EnvelopeFeatures, CoreError> {
    if envelope.len() < 64 {
        return Err(CoreError::InvalidParameter {
            what: "envelope too short for feature extraction",
        });
    }
    let mean = stats::mean(envelope);
    let centered: Vec<f64> = envelope.iter().map(|v| v - mean).collect();

    // Envelope spectrum (of the AC part).
    let env_spec = psa_dsp::spectrum::amplitude_spectrum(&centered, psa_dsp::window::Window::Hann);
    let df = fs_hz / envelope.len() as f64;
    // Search for a modulation line between 200 kHz and 8 MHz.
    let lo_bin = ((200.0e3 / df) as usize).max(1);
    let hi_bin = ((8.0e6 / df) as usize).min(env_spec.len().saturating_sub(1));
    let (mod_freq_mhz, mod_prominence_db) = if lo_bin < hi_bin {
        let band = &env_spec[lo_bin..hi_bin];
        let median = stats::median(band).max(1e-18);
        let (arg, peak) = band
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &v)| (i, v))
            .unwrap_or((0, 0.0));
        let prom_db = 20.0 * (peak / median).log10();
        if prom_db > 10.0 {
            (((lo_bin + arg) as f64 * df) / 1.0e6, prom_db)
        } else {
            (0.0, prom_db.max(0.0))
        }
    } else {
        (0.0, 0.0)
    };

    // Low-frequency AC energy fraction (below 1 MHz, above DC leakage).
    let lf_hi = ((1.0e6 / df) as usize).min(env_spec.len());
    let lf_lo = 2.min(lf_hi);
    let total_energy: f64 = env_spec[lf_lo..].iter().map(|v| v * v).sum();
    let lf_energy: f64 = env_spec[lf_lo..lf_hi].iter().map(|v| v * v).sum();
    let lowfreq_fraction = if total_energy > 0.0 {
        lf_energy / total_energy
    } else {
        0.0
    };

    let max_lag = (envelope.len() / 2).min(4096);
    let ac = correlate::autocorrelation(envelope, max_lag)?;
    let period_samples = correlate::dominant_period_of(&ac);
    let (period_us, periodicity) = match period_samples {
        Some(lag) if lag > 0 => {
            let strength = ac.get(lag).copied().unwrap_or(0.0).max(0.0);
            (lag as f64 / fs_hz * 1.0e6, strength)
        }
        _ => (0.0, 0.0),
    };

    let mut sorted = envelope.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let p95 = stats::percentile_sorted(&sorted, 95.0);
    let p5 = stats::percentile_sorted(&sorted, 5.0);
    let depth = if p95 + p5 > 0.0 {
        ((p95 - p5) / (p95 + p5)).clamp(0.0, 1.0)
    } else {
        0.0
    };

    let kurtosis = stats::kurtosis_excess(envelope);

    // Telegraph score: closeness to a two-level distribution.
    let lo = stats::percentile_sorted(&sorted, 25.0);
    let hi = stats::percentile_sorted(&sorted, 75.0);
    let band = (hi - lo).max(1e-12) * 0.25;
    let near_levels = envelope
        .iter()
        .filter(|&&v| (v - lo).abs() < band || (v - hi).abs() < band)
        .count();
    let telegraph = near_levels as f64 / envelope.len() as f64;

    Ok(EnvelopeFeatures {
        mod_freq_mhz,
        mod_prominence_db,
        lowfreq_fraction,
        period_us,
        periodicity,
        depth,
        kurtosis,
        telegraph,
    })
}

/// A complete Trojan signature: zero-span envelope features plus the
/// *spectral context* of the emergent line — the paper's cross-domain
/// idea taken both ways.
///
/// The context features live in the high-SNR frequency domain:
/// * `satellite_offset_mhz` — distance to the nearest secondary emergent
///   line around the main one (T1's AM puts satellites at ±0.75 MHz,
///   T2's block-rate bursts at ±2.75 MHz);
/// * `pedestal_width_mhz` — width of the contiguous excess region around
///   the line (T3's PN spreading broadens it to megahertz; tonal
///   payloads stay bin-narrow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrojanSignature {
    /// Time-domain (zero-span) envelope features.
    pub env: EnvelopeFeatures,
    /// Offset of the nearest satellite line, MHz (0 when none).
    pub satellite_offset_mhz: f64,
    /// Contiguous excess width around the main line, MHz.
    pub pedestal_width_mhz: f64,
}

impl TrojanSignature {
    /// The signature as a feature vector.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut v = self.env.to_vec();
        v.push(self.satellite_offset_mhz);
        v.push(self.pedestal_width_mhz);
        v
    }
}

/// Measures the spectral context of an emergent line at `line_bin`:
/// `(satellite_offset_mhz, pedestal_width_mhz)`. `excess_db[k]` must be
/// `spectrum − baseline_envelope` in dB; `df_hz` the bin spacing.
pub fn spectral_context(excess_db: &[f64], line_bin: usize, df_hz: f64) -> (f64, f64) {
    let n = excess_db.len();
    if n == 0 || line_bin >= n {
        return (0.0, 0.0);
    }
    // Pedestal: contiguous run around the line where excess > 6 dB.
    let mut lo = line_bin;
    while lo > 0 && excess_db[lo - 1] > 6.0 {
        lo -= 1;
    }
    let mut hi = line_bin;
    while hi + 1 < n && excess_db[hi + 1] > 6.0 {
        hi += 1;
    }
    let pedestal_width_mhz = (hi - lo + 1) as f64 * df_hz / 1.0e6;

    // Satellite: strongest excess peak 0.2–2.9 MHz away from the line,
    // outside the pedestal. The 2.9 MHz bound keeps the 51 MHz member of
    // the same sideband family (3 MHz away) from masquerading as a
    // modulation satellite.
    let min_off = ((0.2e6 / df_hz) as usize).max(hi - line_bin + 2);
    let max_off = (2.9e6 / df_hz) as usize;
    let mut best: Option<(usize, f64)> = None;
    for off in min_off..=max_off {
        for &k in &[line_bin.checked_sub(off), Some(line_bin + off)] {
            let Some(k) = k else { continue };
            if k >= n {
                continue;
            }
            if excess_db[k] > 10.0 {
                match best {
                    Some((_, e)) if e >= excess_db[k] => {}
                    _ => best = Some((off, excess_db[k])),
                }
            }
        }
    }
    let satellite_offset_mhz = best.map_or(0.0, |(off, _)| off as f64 * df_hz / 1.0e6);
    (satellite_offset_mhz, pedestal_width_mhz)
}

/// A labelled template library for nearest-template identification.
#[derive(Debug, Clone)]
pub struct TemplateLibrary {
    knn: Knn,
    scaler: StandardScaler,
}

impl TemplateLibrary {
    /// Builds the library from reference simulations of each Trojan
    /// archetype on `chip`, using keys and seeds *different* from any
    /// test scenario (identification must generalize across keys). All
    /// eight signatures are acquired on one context.
    ///
    /// # Errors
    ///
    /// Propagates acquisition errors from the reference simulations and
    /// fitting errors from [`from_samples`](Self::from_samples).
    pub fn reference(chip: &TestChip) -> Result<Self, CoreError> {
        // The envelope spectrum's plan lives for the process (a Bluestein
        // plan: the envelope length is not a power of two). Planning it
        // before the context's record buffers exist keeps it below them
        // in the heap, so the allocator can return their space at the
        // end of the call.
        let records = crate::calib::IDENTIFY_RECORDS * crate::calib::RECORD_CYCLES;
        let envelope_len = psa_dsp::zero_span::ZeroSpan::with_rbw(
            48.0e6,
            crate::calib::sample_rate_hz(),
            crate::calib::IDENTIFY_RBW_HZ,
        )?
        .trimmed_len(records * crate::calib::SAMPLES_PER_CYCLE);
        psa_dsp::rfft::SpectrumPlan::shared(envelope_len.max(1), psa_dsp::window::Window::Hann)?;
        let mut ctx = AcqContext::new(chip);
        let mut samples = Vec::new();
        let mut kinds = Vec::new();
        // Two reference keys per Trojan for template robustness.
        let ref_keys: [[u8; 16]; 2] = [[0x81; 16], {
            let mut k = [0u8; 16];
            for (i, b) in k.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(37).wrapping_add(11);
            }
            k
        }];
        for kind in TrojanKind::ALL {
            for (ki, key) in ref_keys.iter().enumerate() {
                let scenario = Scenario::trojan_active(kind)
                    .with_key(*key)
                    .with_seed(0xBEEF + ki as u64);
                let baseline = Scenario::baseline()
                    .with_key(*key)
                    .with_seed(0xBEEF + ki as u64);
                let sig = acquire_signature(&mut ctx, &scenario, &baseline, 10, 48.0e6)?;
                samples.push(sig.to_vec());
                kinds.push(kind);
            }
        }
        Self::from_samples(samples, kinds)
    }

    /// Fits a library from already-extracted signature vectors and their
    /// labels — the fallible core of [`reference`](Self::reference),
    /// exposed so callers with their own reference sets (or tests with
    /// degenerate ones) hit a [`CoreError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for an empty reference set or
    ///   mismatched sample/label counts;
    /// * [`CoreError::Ml`] when the scaler or classifier rejects the
    ///   samples (e.g. ragged feature dimensions).
    pub fn from_samples(samples: Vec<Vec<f64>>, kinds: Vec<TrojanKind>) -> Result<Self, CoreError> {
        if samples.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "template library needs at least one reference signature",
            });
        }
        if samples.len() != kinds.len() {
            return Err(CoreError::InvalidParameter {
                what: "template samples and labels must pair up",
            });
        }
        let labels: Vec<usize> = kinds.iter().map(|k| k.index()).collect();
        let scaler = StandardScaler::fit(&samples)?;
        let scaled = scaler.transform(&samples)?;
        let knn = Knn::fit(scaled, labels, 1)?;
        Ok(TemplateLibrary { knn, scaler })
    }

    /// Classifies a signature; returns the matched Trojan and the
    /// feature-space distance to the nearest template.
    ///
    /// # Errors
    ///
    /// Propagates dimensionality errors from the scaler/classifier.
    pub fn classify(&self, signature: &TrojanSignature) -> Result<(TrojanKind, f64), CoreError> {
        let scaled = self.scaler.transform_one(&signature.to_vec())?;
        let (label, dist) = self.knn.predict_with_distance(&scaled)?;
        let kind = TrojanKind::ALL[label.min(3)];
        Ok((kind, dist))
    }
}

/// Acquires a full [`TrojanSignature`] for `scenario` on one sensor:
/// averaged spectra for the spectral context plus a zero-span envelope
/// at `line_freq_hz` (the 48 MHz family line).
///
/// # Errors
///
/// Propagates acquisition/DSP errors.
pub fn acquire_signature(
    ctx: &mut AcqContext<'_>,
    scenario: &Scenario,
    baseline_scenario: &Scenario,
    sensor: usize,
    line_freq_hz: f64,
) -> Result<TrojanSignature, CoreError> {
    let n_records = crate::calib::TRACES_PER_SPECTRUM;
    let spec = ctx.acquire_fullres_spectrum_db(scenario, SensorSelect::Psa(sensor), n_records)?;
    let base =
        ctx.acquire_fullres_spectrum_db(baseline_scenario, SensorSelect::Psa(sensor), n_records)?;
    let base_env = psa_dsp::peak::local_max_envelope(&base, crate::calib::ENVELOPE_HALF_WINDOW);
    signature_from_parts_with(ctx, scenario, sensor, line_freq_hz, &spec, &base_env)
        .map(|(signature, _)| signature)
}

/// Builds a signature when the spectrum and baseline envelope are
/// already available (the cross-domain detector's path — avoids
/// re-acquiring). Returns the zero-span envelope the signature was
/// extracted from alongside it.
///
/// # Errors
///
/// Propagates acquisition/DSP errors.
pub fn signature_from_parts_with(
    ctx: &mut AcqContext<'_>,
    scenario: &Scenario,
    sensor: usize,
    line_freq_hz: f64,
    spec_db: &[f64],
    baseline_env_db: &[f64],
) -> Result<(TrojanSignature, Vec<f64>), CoreError> {
    let n = spec_db.len().min(baseline_env_db.len());
    let excess: Vec<f64> = (0..n).map(|k| spec_db[k] - baseline_env_db[k]).collect();
    let line_bin = ctx.fullres_freq_bin(line_freq_hz);
    let fft_len = crate::calib::RECORD_CYCLES * crate::calib::SAMPLES_PER_CYCLE;
    let df = crate::calib::sample_rate_hz() / fft_len as f64;
    let (satellite_offset_mhz, pedestal_width_mhz) =
        spectral_context(&excess, line_bin.min(n.saturating_sub(1)), df);

    let (envelope, env_fs) = ctx.zero_span_rbw(
        scenario,
        SensorSelect::Psa(sensor),
        line_freq_hz,
        crate::calib::IDENTIFY_RBW_HZ,
        crate::calib::IDENTIFY_RECORDS,
    )?;
    let env = extract_features(&envelope, env_fs)?;
    let signature = TrojanSignature {
        env,
        satellite_offset_mhz,
        pedestal_width_mhz,
    };
    Ok((signature, envelope))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const FS: f64 = 33.0e6;

    #[test]
    fn sine_envelope_features() {
        let n = 8192;
        let f0 = 750.0e3;
        let env: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.5 * (2.0 * PI * f0 * i as f64 / FS).sin())
            .collect();
        let f = extract_features(&env, FS).unwrap();
        // Period 1/750 kHz = 1.33 µs.
        assert!((f.period_us - 1.333).abs() < 0.15, "period {}", f.period_us);
        assert!(f.periodicity > 0.7, "periodicity {}", f.periodicity);
        assert!(f.depth > 0.3, "depth {}", f.depth);
    }

    #[test]
    fn constant_envelope_features() {
        let mut state = 0xABCDEFu64;
        let env: Vec<f64> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                1.0 + 1e-4 * ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            })
            .collect();
        let f = extract_features(&env, FS).unwrap();
        assert!(f.depth < 0.01, "depth {}", f.depth);
        assert!(f.periodicity < 0.6, "periodicity {}", f.periodicity);
    }

    #[test]
    fn telegraph_envelope_features() {
        // Two-level pseudo-random chipping.
        let mut state = 0x12345u64;
        let env: Vec<f64> = (0..4096)
            .map(|i| {
                if i % 8 == 0 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                if (state >> 40) & 1 == 1 {
                    1.0
                } else {
                    0.45
                }
            })
            .collect();
        let f = extract_features(&env, FS).unwrap();
        assert!(f.telegraph > 0.9, "telegraph {}", f.telegraph);
        assert!(f.kurtosis < 0.0, "kurtosis {}", f.kurtosis); // bimodal
                                                              // A sine has a much lower telegraph score.
        let sine: Vec<f64> = (0..4096)
            .map(|i| 1.0 + 0.5 * (2.0 * PI * 750.0e3 * i as f64 / FS).sin())
            .collect();
        let fs_ = extract_features(&sine, FS).unwrap();
        assert!(f.telegraph > fs_.telegraph + 0.1);
    }

    #[test]
    fn spectral_context_measures_satellites() {
        // A line at bin 1000 with satellites at ±187 bins (0.75 MHz at
        // 4 kHz/bin).
        let df = 4.0e3;
        let mut excess = vec![0.0; 4096];
        excess[1000] = 30.0;
        excess[1000 - 187] = 15.0;
        excess[1000 + 187] = 14.0;
        let (sat, ped) = spectral_context(&excess, 1000, df);
        assert!((sat - 0.748).abs() < 0.01, "satellite {sat} MHz");
        assert!(ped < 0.02, "pedestal {ped} MHz");
    }

    #[test]
    fn spectral_context_measures_pedestal() {
        // A 500-bin-wide pedestal (2 MHz) like T3's PN spreading.
        let df = 4.0e3;
        let mut excess = vec![0.0; 4096];
        for e in &mut excess[750..1250] {
            *e = 8.0;
        }
        excess[1000] = 25.0;
        let (sat, ped) = spectral_context(&excess, 1000, df);
        assert!((ped - 2.0).abs() < 0.1, "pedestal {ped} MHz");
        assert_eq!(sat, 0.0, "no satellite outside the pedestal");
    }

    #[test]
    fn spectral_context_ignores_family_line_at_3mhz() {
        // The 51 MHz family member is 3 MHz (750 bins) away — outside
        // the 2.9 MHz satellite search.
        let df = 4.0e3;
        let mut excess = vec![0.0; 4096];
        excess[1000] = 30.0;
        excess[1750] = 28.0;
        let (sat, _) = spectral_context(&excess, 1000, df);
        assert_eq!(sat, 0.0, "family line misread as satellite: {sat}");
    }

    #[test]
    fn spectral_context_degenerate_inputs() {
        assert_eq!(spectral_context(&[], 0, 4.0e3), (0.0, 0.0));
        assert_eq!(spectral_context(&[1.0; 8], 100, 4.0e3), (0.0, 0.0));
    }

    #[test]
    fn feature_vector_has_fixed_dimension() {
        let env: Vec<f64> = (0..256)
            .map(|i| 1.0 + 0.01 * (i as f64 * 0.3).sin())
            .collect();
        let f = extract_features(&env, FS).unwrap();
        assert_eq!(f.to_vec().len(), 8);
    }

    #[test]
    fn short_envelope_rejected() {
        assert!(extract_features(&[1.0; 32], FS).is_err());
    }

    #[test]
    fn modulation_line_detected_in_noise() {
        // A 750 kHz modulation buried in noise of equal RMS still
        // produces a prominent envelope-spectrum line — the key to
        // identification at low envelope SNR.
        let mut state = 0x1234_5678u64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let n = 32768;
        let env: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / FS;
                1.0 + 0.3 * (2.0 * PI * 750.0e3 * t).sin() + 0.3 * 2.0 * lcg()
            })
            .collect();
        let f = extract_features(&env, FS).unwrap();
        assert!(
            (f.mod_freq_mhz - 0.75).abs() < 0.05,
            "line at {} MHz",
            f.mod_freq_mhz
        );
        assert!(
            f.mod_prominence_db > 15.0,
            "prominence {}",
            f.mod_prominence_db
        );
    }

    #[test]
    fn empty_reference_set_is_an_error_not_a_panic() {
        // Regression: StandardScaler::fit / Knn::fit used to be reached
        // through `expect`, aborting the process on an empty or
        // malformed reference set.
        let e = TemplateLibrary::from_samples(Vec::new(), Vec::new());
        assert!(matches!(
            e,
            Err(CoreError::InvalidParameter { what }) if what.contains("reference")
        ));
        // Mismatched sample/label counts are rejected up front.
        assert!(TemplateLibrary::from_samples(
            vec![vec![1.0, 2.0]],
            vec![TrojanKind::T1, TrojanKind::T2],
        )
        .is_err());
        // Ragged feature dimensions surface the ML error, not a panic.
        assert!(TemplateLibrary::from_samples(
            vec![vec![1.0, 2.0], vec![1.0]],
            vec![TrojanKind::T1, TrojanKind::T2],
        )
        .is_err());
        // A well-formed single-class set still fits.
        assert!(TemplateLibrary::from_samples(
            vec![vec![0.75, 25.0], vec![0.74, 24.0]],
            vec![TrojanKind::T1, TrojanKind::T1],
        )
        .is_ok());
    }
}

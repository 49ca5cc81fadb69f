//! The paper's run-time **cross-domain analysis** (Sec. VI-D).
//!
//! Golden-model free: the reference is the *same chip* measured while
//! its Trojans are dormant (run-time baseline learning), not a separate
//! golden device. The pipeline is:
//!
//! 1. **Frequency domain** — average ≤ 5 traces per sensor, compare
//!    against the learned baseline spectrum, and flag *emergent*
//!    components (the 48 MHz / 84 MHz sidebands of Fig 4) that exceed a
//!    threshold.
//! 2. **Localization** — rank the 16 sensors by anomaly energy; the
//!    top sensor's footprint localizes the Trojan (sensor 10 in the
//!    paper; sensor 0 stays silent).
//! 3. **Time domain** — switch to zero-span at the most prominent
//!    emergent frequency and classify the recovered envelope to
//!    *identify* which Trojan is active (Fig 5).

use crate::acquisition::AcqContext;
use crate::calib;
use crate::chip::{SensorSelect, TestChip};
use crate::error::CoreError;
use crate::identify::{self, TemplateLibrary};
use crate::localize;
use crate::scenario::Scenario;
use psa_dsp::peak;
use psa_gatesim::trojan::TrojanKind;
use psa_layout::Rect;

/// A learned run-time baseline: one averaged spectrum per PSA sensor,
/// collected from the same chip while no Trojan is active.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Per-sensor full-FFT-resolution spectra in dB (the detector's
    /// working resolution).
    pub per_sensor_db: Vec<Vec<f64>>,
}

impl Baseline {
    /// Learns the run-time baseline with `config`'s trace budget — the
    /// template-free path: callers that only need baseline spectra (the
    /// campaign engine, detector construction) never pay for the
    /// analyzer's identification template library.
    ///
    /// One sensor sweep ([`AcqContext::sensor_sweep_db`]) learns all 16
    /// sensors, bit-identical to [`sensor_db_with`](Self::sensor_db_with)
    /// per sensor.
    ///
    /// # Panics
    ///
    /// When `config.traces_per_sensor` is zero; built-in sensor indices
    /// are in range by construction.
    pub fn learn_with(config: &AnalyzerConfig, ctx: &mut AcqContext<'_>, seed: u64) -> Baseline {
        let per_sensor_db = ctx
            .sensor_sweep_db(
                &Scenario::baseline().with_seed(seed),
                config.traces_per_sensor,
                calib::RECORD_CYCLES,
                &[],
            )
            .expect("built-in sensors are valid");
        Baseline { per_sensor_db }
    }

    /// Every sensor's local-max envelope (half-width 8 bins): the
    /// reference the detection threshold compares a sweep against, so
    /// per-bin noise flicker between the learning and test windows
    /// cannot false-alarm. Callers that decide many times against one
    /// baseline compute this once.
    pub(crate) fn envelopes(&self) -> Vec<Vec<f64>> {
        self.per_sensor_db
            .iter()
            .map(|base| peak::local_max_envelope(base, 8))
            .collect()
    }

    /// One sensor's learned-baseline spectrum (the per-job unit of the
    /// parallel baseline learning). Depends only on `(seed, sensor)` and
    /// the trace budget, so engine workers can fan the 16 sensors out
    /// and reassemble an identical [`Baseline`].
    ///
    /// # Panics
    ///
    /// Never on built-in sensor indices (`sensor < 16`).
    pub fn sensor_db_with(
        config: &AnalyzerConfig,
        ctx: &mut AcqContext<'_>,
        seed: u64,
        sensor: usize,
    ) -> Vec<f64> {
        let scenario = Scenario::baseline().with_seed(seed);
        ctx.acquire_fullres_spectrum_db(
            &scenario,
            SensorSelect::Psa(sensor),
            config.traces_per_sensor,
        )
        .expect("built-in sensors are valid")
    }
}

/// Per-sensor anomaly measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorAnomaly {
    /// Sensor index 0–15.
    pub sensor: usize,
    /// Total anomaly energy: sum of dB excesses over threshold
    /// (reported for Fig-4-style contrast).
    pub energy_db: f64,
    /// Absolute emergent amplitude: sum of linear amplitude excesses
    /// over the hit bins, volts. Localization ranks by this — the
    /// sensor with the strongest *absolute* coupling to the Trojan is
    /// the closest one, regardless of how quiet its own floor is.
    pub amplitude_v: f64,
    /// Emergent components as `(freq_hz, excess_db)`, strongest first.
    pub components: Vec<(f64, f64)>,
}

/// The analyzer's verdict for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether any sensor saw an emergent component over threshold.
    pub detected: bool,
    /// Sensors ranked by descending anomaly energy.
    pub ranking: Vec<SensorAnomaly>,
    /// The localized sensor (top of the ranking) when detected.
    pub localized_sensor: Option<usize>,
    /// The localized die region (the top sensor's footprint).
    pub localized_region: Option<Rect>,
    /// The most prominent emergent frequency, Hz.
    pub prominent_freq_hz: Option<f64>,
    /// The identified Trojan (time-domain stage), when detected.
    pub identified: Option<TrojanKind>,
    /// Distance of the envelope features to the matched template
    /// (smaller = more confident).
    pub identification_distance: Option<f64>,
    /// Traces consumed by the detection stage (per sensor).
    pub traces_per_sensor: usize,
    /// The continuous decision statistic behind `detected`: the largest
    /// per-bin excess of any sensor's spectrum over its baseline
    /// local-max envelope, in dB — computed *before* thresholding, so
    /// it is meaningful on quiet runs too (where it sits below the
    /// configured threshold).
    pub peak_excess_db: f64,
}

/// Configuration of the cross-domain analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzerConfig {
    /// Traces averaged per sensor per decision (paper: ≤ 5, fewer than
    /// ten in total).
    pub traces_per_sensor: usize,
    /// Emergent-component threshold in dB over baseline.
    pub threshold_db: f64,
    /// Records used for the zero-span identification stage.
    pub zero_span_records: usize,
    /// Minimum number of emergent bins for a detection (guards against
    /// single-bin noise flickers).
    pub min_components: usize,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            traces_per_sensor: calib::TRACES_PER_SPECTRUM,
            threshold_db: calib::DETECTION_THRESHOLD_DB,
            zero_span_records: 6,
            min_components: 1,
        }
    }
}

/// The cross-domain analyzer: a configuration plus the identification
/// template library. It measures whatever chip the caller's
/// [`AcqContext`] is bound to.
#[derive(Debug)]
pub struct CrossDomainAnalyzer {
    config: AnalyzerConfig,
    templates: TemplateLibrary,
}

impl CrossDomainAnalyzer {
    /// Creates an analyzer with default configuration and the built-in
    /// envelope template library of `chip`.
    ///
    /// # Errors
    ///
    /// Propagates reference-library failures
    /// ([`TemplateLibrary::reference`]) instead of aborting — callers
    /// that only need baseline spectra can use the infallible
    /// [`Baseline::learn_with`] and skip the library entirely.
    pub fn new(chip: &TestChip) -> Result<Self, CoreError> {
        Self::with_config(chip, AnalyzerConfig::default())
    }

    /// Creates an analyzer with a custom configuration.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn with_config(chip: &TestChip, config: AnalyzerConfig) -> Result<Self, CoreError> {
        Ok(Self::with_templates(
            config,
            TemplateLibrary::reference(chip)?,
        ))
    }

    /// Creates an analyzer around an already-built template library —
    /// infallible, and the way callers that detect repeatedly (e.g.
    /// [`CrossDomainDetector`](crate::detector::CrossDomainDetector))
    /// avoid re-acquiring the reference set per analysis.
    pub fn with_templates(config: AnalyzerConfig, templates: TemplateLibrary) -> Self {
        CrossDomainAnalyzer { config, templates }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Runs the full cross-domain pipeline on a scenario, on the chip
    /// `ctx` is bound to.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `baseline` is missing
    /// sensors or holds rows of another record length; acquisition/DSP
    /// errors otherwise.
    pub fn analyze_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
        baseline: &Baseline,
    ) -> Result<Verdict, CoreError> {
        self.analyze_against(ctx, scenario, baseline, &baseline.envelopes())
    }

    /// [`analyze_with`](Self::analyze_with) against `baseline`'s
    /// precomputed [`envelopes`](Baseline::envelopes).
    pub(crate) fn analyze_against(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
        baseline: &Baseline,
        base_envs: &[Vec<f64>],
    ) -> Result<Verdict, CoreError> {
        // Stage 1+2: frequency-domain sweep over all sensors, at full
        // FFT resolution (the detector's RBW), compared against the
        // baseline's local-max envelopes.
        let spectra = sweep_with_baseline(ctx, scenario, self.config.traces_per_sensor, baseline)?;
        let mut ranking = Vec::with_capacity(spectra.len());
        let mut peak_excess_db = f64::NEG_INFINITY;
        for (i, (spec, base_env)) in spectra.iter().zip(base_envs).enumerate() {
            peak_excess_db = peak_excess_over(spec, base_env, peak_excess_db);
            let hits = peak::excess_over_baseline_db(spec, base_env, self.config.threshold_db);
            let merged = merge_adjacent_bins(&hits);
            let energy: f64 = merged.iter().map(|(_, e)| e).sum();
            let components: Vec<(f64, f64)> = merged
                .iter()
                .map(|&(bin, excess)| (ctx.fullres_bin_hz(bin), excess))
                .collect();
            ranking.push(SensorAnomaly {
                sensor: i,
                energy_db: energy,
                amplitude_v: 0.0, // filled in once the common line is known
                components,
            });
        }

        let detected = ranking
            .iter()
            .any(|a| a.components.len() >= self.config.min_components);
        if !detected {
            ranking.sort_by(|a, b| b.energy_db.total_cmp(&a.energy_db));
            return Ok(Verdict {
                detected: false,
                ranking,
                localized_sensor: None,
                localized_region: None,
                prominent_freq_hz: None,
                identified: None,
                identification_distance: None,
                traces_per_sensor: self.config.traces_per_sensor,
                peak_excess_db,
            });
        }

        // The sideband family's canonical component: among all detected
        // components prefer the one nearest 48 MHz (the line the paper
        // zero-spans in Fig 5); fall back to the globally strongest.
        let all_components: Vec<(f64, f64)> = ranking
            .iter()
            .flat_map(|a| a.components.iter().copied())
            .collect();
        let prominent = localize::pick_common_line(&all_components, |t| t.0, |t| t.1)
            .expect("detected implies at least one component")
            .0;
        let line_bin = ctx.fullres_freq_bin(prominent);

        // Localization: rank sensors by the *absolute* emergent
        // amplitude at the common line — the sensor with the strongest
        // coupling to the Trojan is the closest, regardless of how quiet
        // its own floor is. The subtraction uses the *raw* baseline (an
        // unbiased floor estimate); the max-envelope is only for the
        // detection threshold.
        for (i, anomaly) in ranking.iter_mut().enumerate() {
            anomaly.amplitude_v = localize::amplitude_excess_at_line(
                &spectra[i],
                &baseline.per_sensor_db[i],
                line_bin,
            );
        }
        ranking.sort_by(|a, b| b.amplitude_v.total_cmp(&a.amplitude_v));
        let top_sensor = ranking[0].sensor;

        let localized_region = ctx
            .chip()
            .sensor_bank()
            .sensor(top_sensor)
            .map(|s| s.footprint())
            .ok();

        // Stage 3: cross-domain identification on the localized sensor —
        // spectral context of the line plus its zero-span envelope.
        let signature = identify::signature_from_parts_with(
            ctx,
            scenario,
            top_sensor,
            prominent,
            &spectra[top_sensor],
            &base_envs[top_sensor],
        )?;
        let (identified, dist) = self.templates.classify(&signature)?;
        let localized_sensor = top_sensor;

        Ok(Verdict {
            detected: true,
            ranking,
            localized_sensor: Some(localized_sensor),
            localized_region,
            prominent_freq_hz: Some(prominent),
            identified: Some(identified),
            identification_distance: Some(dist),
            traces_per_sensor: self.config.traces_per_sensor,
            peak_excess_db,
        })
    }

    /// The template library used for identification.
    pub fn templates(&self) -> &TemplateLibrary {
        &self.templates
    }
}

/// The full-resolution 16-sensor sweep of one decision, after checking
/// that `baseline` covers every sensor at full resolution.
pub(crate) fn sweep_with_baseline(
    ctx: &mut AcqContext<'_>,
    scenario: &Scenario,
    traces_per_sensor: usize,
    baseline: &Baseline,
) -> Result<Vec<Vec<f64>>, CoreError> {
    check_sensor_rows(ctx.chip(), calib::RECORD_CYCLES, &baseline.per_sensor_db)?;
    ctx.sensor_sweep_db(scenario, traces_per_sensor, calib::RECORD_CYCLES, &[])
}

/// Rejects per-sensor rows (baseline spectra or their envelopes) that
/// miss a sensor of `chip` or were learned at another record length
/// than `record_cycles`: bin `k` of two record lengths is two different
/// frequencies.
pub(crate) fn check_sensor_rows(
    chip: &TestChip,
    record_cycles: usize,
    rows: &[Vec<f64>],
) -> Result<(), CoreError> {
    let bins = psa_dsp::fft::one_sided_len(record_cycles * calib::SAMPLES_PER_CYCLE);
    if rows.len() < chip.sensor_bank().len() || rows.iter().any(|r| r.len() != bins) {
        return Err(CoreError::InvalidParameter {
            what: "baseline is missing sensors or has another record length",
        });
    }
    Ok(())
}

/// Folds the largest per-bin excess of `spec` over `base_env` into
/// `peak` — the detection statistic, before thresholding.
pub(crate) fn peak_excess_over(spec: &[f64], base_env: &[f64], peak: f64) -> f64 {
    spec.iter()
        .zip(base_env)
        .map(|(s, b)| s - b)
        .fold(peak, f64::max)
}

/// Collapses runs of adjacent excess bins into their strongest member,
/// so one spectral line is one component (shared with the placement
/// sweep in [`crate::atlas`]).
pub(crate) fn merge_adjacent_bins(hits: &[(usize, f64)]) -> Vec<(usize, f64)> {
    if hits.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<(usize, f64)> = hits.to_vec();
    sorted.sort_by_key(|&(bin, _)| bin);
    let mut merged: Vec<(usize, f64)> = Vec::new();
    let mut current_best = sorted[0];
    let mut last_bin = sorted[0].0;
    for &(bin, excess) in &sorted[1..] {
        if bin <= last_bin + 3 {
            if excess > current_best.1 {
                current_best = (bin, excess);
            }
        } else {
            merged.push(current_best);
            current_best = (bin, excess);
        }
        last_bin = bin;
    }
    merged.push(current_best);
    merged.sort_by(|a, b| b.1.total_cmp(&a.1));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_collapses_runs() {
        let hits = vec![(100, 12.0), (101, 15.0), (102, 11.0), (500, 20.0)];
        let merged = merge_adjacent_bins(&hits);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], (500, 20.0));
        assert_eq!(merged[1], (101, 15.0));
    }

    #[test]
    fn merge_empty() {
        assert!(merge_adjacent_bins(&[]).is_empty());
    }

    #[test]
    fn merge_keeps_isolated_bins() {
        let hits = vec![(10, 11.0), (50, 12.0), (90, 13.0)];
        assert_eq!(merge_adjacent_bins(&hits).len(), 3);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = AnalyzerConfig::default();
        assert_eq!(c.traces_per_sensor, 5);
        assert_eq!(c.threshold_db, 10.0);
    }

    // Full-pipeline behaviour is covered by the workspace integration
    // tests (tests/cross_domain.rs) since it needs the expensive chip
    // build.
}

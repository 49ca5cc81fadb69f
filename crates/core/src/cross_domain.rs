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
//!
//! [`CrossDomainDetector`] runs the whole pipeline
//! ([`analyze_with`](CrossDomainDetector::analyze_with)) and is also
//! the paper's Table I backend in [`crate::detector`].

use crate::acquisition::AcqContext;
use crate::calib;
use crate::chip::{SensorSelect, TestChip};
use crate::detector::{Capabilities, DetectionOutcome, Detector};
use crate::error::CoreError;
use crate::identify::{self, TemplateLibrary};
use crate::localize;
use crate::scenario::Scenario;
use psa_dsp::peak;
use psa_gatesim::trojan::TrojanKind;
use psa_layout::Rect;
use std::sync::{Mutex, OnceLock, PoisonError};

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
    /// detector's identification template library.
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

    /// Every sensor's local-max envelope
    /// ([`calib::ENVELOPE_HALF_WINDOW`] bins each side): the
    /// reference the detection threshold compares a sweep against, so
    /// per-bin noise flicker between the learning and test windows
    /// cannot false-alarm. Callers that decide many times against one
    /// baseline compute this once.
    pub fn envelopes(&self) -> Vec<Vec<f64>> {
        self.per_sensor_db
            .iter()
            .map(|base| peak::local_max_envelope(base, calib::ENVELOPE_HALF_WINDOW))
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

/// The cross-domain verdict for one scenario.
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
    /// The zero-span envelope the identification classified (the
    /// localized sensor at the prominent line, identification RBW).
    pub identification_envelope: Option<Vec<f64>>,
    /// Traces consumed by the detection stage (per sensor).
    pub traces_per_sensor: usize,
    /// The continuous decision statistic behind `detected`: the largest
    /// per-bin excess of any sensor's spectrum over its baseline
    /// local-max envelope, in dB — computed *before* thresholding, so
    /// it is meaningful on quiet runs too (where it sits below the
    /// configured threshold).
    pub peak_excess_db: f64,
}

/// Configuration of the cross-domain pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzerConfig {
    /// Traces averaged per sensor per decision (paper: ≤ 5, fewer than
    /// ten in total).
    pub traces_per_sensor: usize,
    /// Emergent-component threshold in dB over baseline.
    pub threshold_db: f64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            traces_per_sensor: calib::TRACES_PER_SPECTRUM,
            threshold_db: calib::DETECTION_THRESHOLD_DB,
        }
    }
}

/// The paper's cross-domain PSA detector: a learned baseline plus the
/// identification template library. It measures whatever chip the
/// caller's [`AcqContext`] is bound to; the baseline and the library
/// are both chip-specific, so a detector must not be reused across
/// chips.
#[derive(Debug)]
pub struct CrossDomainDetector {
    baseline: Baseline,
    config: AnalyzerConfig,
    /// The identification template library, built once on first
    /// identification and shared across workers thereafter.
    templates: OnceLock<TemplateLibrary>,
    /// Held while [`templates`](Self::templates) builds the library.
    template_build: Mutex<()>,
    /// The baseline's local-max envelopes, computed on first use and
    /// compared against every decision's sweep thereafter.
    envelopes: OnceLock<Vec<Vec<f64>>>,
}

impl CrossDomainDetector {
    /// Wraps an already-learned baseline (e.g. one the campaign engine
    /// learned in parallel across sensors). The identification library
    /// is built lazily on first identification and cached.
    pub fn with_baseline(baseline: Baseline) -> Self {
        CrossDomainDetector {
            baseline,
            config: AnalyzerConfig::default(),
            templates: OnceLock::new(),
            template_build: Mutex::new(()),
            envelopes: OnceLock::new(),
        }
    }

    /// Wraps an already-learned baseline *and* an already-built template
    /// library, skipping the lazy build entirely — the memoized path for
    /// drivers that run several pipelines against the same chip (the
    /// library is a pure function of the chip, so sharing one build is
    /// result-identical to rebuilding).
    pub fn with_baseline_and_templates(baseline: Baseline, templates: TemplateLibrary) -> Self {
        let detector = Self::with_baseline(baseline);
        let _ = detector.templates.set(templates);
        detector
    }

    /// The baseline's local-max envelopes, computed once per detector.
    fn envelopes(&self) -> &[Vec<f64>] {
        self.envelopes.get_or_init(|| self.baseline.envelopes())
    }

    /// The identification template library of `chip`. The reference
    /// library costs 8 signature acquisitions plus scaler/k-NN fits —
    /// far too much to repeat per decision — so it is built once, under
    /// a lock: workers that reach their first identification together
    /// wait for one build instead of each running their own. A failed
    /// build caches nothing, so the next caller retries it.
    fn templates(&self, chip: &TestChip) -> Result<&TemplateLibrary, CoreError> {
        let _build = self
            .template_build
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(templates) = self.templates.get() {
            return Ok(templates);
        }
        let built = TemplateLibrary::reference(chip)?;
        Ok(self.templates.get_or_init(|| built))
    }

    /// Runs the full cross-domain pipeline on a scenario, on the chip
    /// `ctx` is bound to: the frequency-domain sweep, localization, and
    /// zero-span identification.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the baseline is missing
    /// sensors or holds rows of another record length (checked before
    /// anything is acquired); acquisition/DSP and reference-library
    /// errors otherwise.
    pub fn analyze_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
    ) -> Result<Verdict, CoreError> {
        // Stage 1+2: frequency-domain sweep over all sensors, at full
        // FFT resolution (the detector's RBW), compared against the
        // baseline's local-max envelopes.
        let spectra = self.sweep(ctx, scenario)?;
        let base_envs = self.envelopes();
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

        let detected = ranking.iter().any(|a| !a.components.is_empty());
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
                identification_envelope: None,
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
                &self.baseline.per_sensor_db[i],
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
        let (signature, envelope) = identify::signature_from_parts_with(
            ctx,
            scenario,
            top_sensor,
            prominent,
            &spectra[top_sensor],
            &base_envs[top_sensor],
        )?;
        let (identified, dist) = self.templates(ctx.chip())?.classify(&signature)?;

        Ok(Verdict {
            detected: true,
            ranking,
            localized_sensor: Some(top_sensor),
            localized_region,
            prominent_freq_hz: Some(prominent),
            identified: Some(identified),
            identification_distance: Some(dist),
            identification_envelope: Some(envelope),
            traces_per_sensor: self.config.traces_per_sensor,
            peak_excess_db,
        })
    }

    /// The full-resolution 16-sensor sweep of one decision, after
    /// checking that the baseline covers every sensor at full
    /// resolution.
    fn sweep(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        check_sensor_rows(
            ctx.chip(),
            calib::RECORD_CYCLES,
            &self.baseline.per_sensor_db,
        )?;
        ctx.sensor_sweep_db(
            scenario,
            self.config.traces_per_sensor,
            calib::RECORD_CYCLES,
            &[],
        )
    }
}

impl Detector for CrossDomainDetector {
    fn name(&self) -> &'static str {
        "PSA cross-domain (this work)"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            localizes: true,
            runtime: true,
        }
    }

    fn threshold(&self) -> f64 {
        self.config.threshold_db
    }

    fn traces_per_score(&self) -> usize {
        self.config.traces_per_sensor
    }

    /// The peak per-bin excess (dB) of any sensor's spectrum over its
    /// baseline local-max envelope — the statistic
    /// [`analyze_with`](CrossDomainDetector::analyze_with) thresholds at
    /// [`AnalyzerConfig::threshold_db`]. This is the detection-only
    /// path: no localization ranking, no zero-span identification, no
    /// template library, which makes it the cheap per-job unit of the
    /// bake-off and of Table I.
    fn score_with(&self, ctx: &mut AcqContext<'_>, scenario: &Scenario) -> Result<f64, CoreError> {
        let spectra = self.sweep(ctx, scenario)?;
        Ok(spectra
            .iter()
            .zip(self.envelopes())
            .fold(f64::NEG_INFINITY, |peak, (spec, base_env)| {
                peak_excess_over(spec, base_env, peak)
            }))
    }

    /// [`analyze_with`](CrossDomainDetector::analyze_with), reduced to
    /// an outcome with the localized sensor and the identified Trojan.
    /// The verdict keeps the pipeline's decision (some sensor has a bin
    /// at `excess >= threshold`), which differs from
    /// [`decide`](crate::detector::decide) on the score only at an exact
    /// tie; its continuous statistic ([`Verdict::peak_excess_db`]) is
    /// bit-identical to [`score_with`](Detector::score_with) on the same
    /// scenario.
    fn detect_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
    ) -> Result<DetectionOutcome, CoreError> {
        let verdict = self.analyze_with(ctx, scenario)?;
        Ok(DetectionOutcome {
            detected: verdict.detected,
            score: verdict.peak_excess_db,
            threshold: self.config.threshold_db,
            // Detection itself needs only the monitored sensor's traces
            // (< 10); the full verdict scans all sensors for
            // localization.
            traces_used: verdict.traces_per_sensor,
            localized_sensor: verdict.localized_sensor,
            identified: verdict.identified,
        })
    }
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
fn peak_excess_over(spec: &[f64], base_env: &[f64], peak: f64) -> f64 {
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

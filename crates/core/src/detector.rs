//! Pluggable Trojan detectors: continuous decision statistics behind a
//! common scored API.
//!
//! Every backend implements [`ScoredDetector`]: it exposes the *raw*
//! decision statistic ([`score_with`](ScoredDetector::score_with),
//! higher = more Trojan-like), its default decision threshold, and a
//! [`Capabilities`] descriptor. The yes/no surface ([`Detector`] with
//! [`detect_with`](Detector::detect_with)) is a thin adapter: score
//! once, then apply the shared strict `score > threshold` rule
//! ([`ScoredDetector::decide`]). Keeping the statistic continuous is
//! what lets the bake-off campaign (`psa_runtime::bakeoff`) sweep the
//! threshold over the observed score distribution and emit full ROC/AUC
//! curves instead of the single operating point Table I reports.
//!
//! Backends compared in Table I:
//!
//! * [`CrossDomainDetector`] — the paper's PSA pipeline (this work);
//! * [`EuclideanDetector`] — the statistical trace-distance approach of
//!   He et al. (TVLSI'17, external probe) and He et al. (DAC'20,
//!   single on-chip coil): collect many traces, compare the Euclidean
//!   distance between reference and test mean spectra against the
//!   reference spread;
//! * [`BackscatterDetector`] — Nguyen et al. (HOST'20): cluster
//!   injected-carrier spectra with PCA + K-means and call a detection
//!   when the clusters separate.
//!
//! Reference-free backends (no Trojan-dormant acquisition at all) from
//! the golden-model-free literature live in [`reference_free`].
//!
//! # Trait contract
//!
//! * **Determinism** — scores are pure functions of the scenario (seed
//!   included), never of context history; the parallel campaign
//!   equivalence guarantee relies on it.
//! * **Orientation** — higher scores mean "more Trojan-like". A
//!   backend whose natural statistic points the other way must negate
//!   it before returning.
//! * **Decision rule** — [`decide`](ScoredDetector::decide) is the
//!   strict comparison `score > threshold` for every backend; do not
//!   override it, or threshold sweeps stop corresponding to the
//!   backend's own verdicts.

pub mod reference_free;

use crate::acquisition::{AcqContext, TraceSet};
use crate::chip::{SensorSelect, TestChip};
use crate::cross_domain::{
    peak_excess_over, sweep_with_baseline, AnalyzerConfig, Baseline, CrossDomainAnalyzer,
};
use crate::error::CoreError;
use crate::identify::TemplateLibrary;
use crate::scenario::Scenario;
use psa_dsp::spectrum;
use psa_gatesim::trojan::TrojanKind;
use psa_ml::distance::euclidean;
use psa_ml::kmeans::KMeans;
use psa_ml::metrics::silhouette_score;
use psa_ml::pca::Pca;
use std::sync::OnceLock;

pub use reference_free::{
    CrossScalePersistenceDetector, PersistenceConfig, SpectralKurtosisDetector,
    SpectralOutlierConfig, SpectralOutlierDetector,
};

/// What a detection method can report beyond its yes/no verdict —
/// the structured replacement for the old `can_localize()` bool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Reports *where* the Trojan is (fills
    /// [`DetectionOutcome::localized_sensor`]).
    pub localizes: bool,
    /// Reports *which* Trojan is active (fills
    /// [`DetectionOutcome::identified`]).
    pub identifies: bool,
    /// Feasible as an always-on run-time monitor (on-chip sensing, few
    /// traces) rather than a lab-bench flow.
    pub runtime: bool,
    /// Needs no Trojan-dormant reference acquisition: the statistic is
    /// computed from the test measurement alone.
    pub reference_free: bool,
}

impl Capabilities {
    /// A method that only produces a yes/no verdict from a reference
    /// comparison (no localization, identification, run-time use, or
    /// reference freedom).
    pub const DETECT_ONLY: Capabilities = Capabilities {
        localizes: false,
        identifies: false,
        runtime: false,
        reference_free: false,
    };
}

/// Outcome of one detection attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionOutcome {
    /// Whether the detector called a Trojan present
    /// (`decide(score, threshold)`).
    pub detected: bool,
    /// The continuous decision statistic the verdict was derived from
    /// (higher = more Trojan-like), in the backend's own units.
    pub score: f64,
    /// The threshold applied to `score`.
    pub threshold: f64,
    /// Total traces consumed (the Table I "Measurement #" row).
    pub traces_used: usize,
    /// Localized sensor index, when the method can localize.
    pub localized_sensor: Option<usize>,
    /// Identified Trojan, when the method can identify.
    pub identified: Option<TrojanKind>,
}

/// A Trojan detection *statistic* operating on the simulated chip.
///
/// Detectors are `Send + Sync` (plain configuration plus learned
/// baselines) so the campaign engine can share one instance across its
/// worker threads; each worker passes its own [`AcqContext`] to
/// [`score_with`](Self::score_with).
pub trait ScoredDetector: Send + Sync {
    /// Human-readable method name (Table I column header).
    fn name(&self) -> &'static str;

    /// What the method can report beyond the verdict.
    fn capabilities(&self) -> Capabilities;

    /// The default decision threshold [`Detector::detect_with`]
    /// applies, in the same units as the score.
    /// Backends surface it from their public config structs so callers
    /// can sweep it.
    fn threshold(&self) -> f64;

    /// Traces one [`score_with`](Self::score_with) call consumes (the
    /// Table I "Measurement #" row).
    fn traces_per_score(&self) -> usize;

    /// Computes the continuous decision statistic for `scenario` on a
    /// reusable per-worker context. Must be deterministic in `scenario`
    /// alone (never in context history) — the parallel campaign
    /// equivalence guarantee relies on it.
    ///
    /// # Errors
    ///
    /// Propagates acquisition/analysis errors ([`CoreError`]).
    fn score_with(&self, ctx: &mut AcqContext<'_>, scenario: &Scenario) -> Result<f64, CoreError>;

    /// The shared decision rule: a Trojan is called iff
    /// `score > threshold` (strict). Do **not** override — the bake-off
    /// threshold sweep and every `detect_with` adapter assume this exact
    /// comparison.
    fn decide(&self, score: f64, threshold: f64) -> bool {
        score > threshold
    }
}

/// The yes/no detection surface: thin adapters over
/// [`ScoredDetector`]'s continuous statistic.
///
/// Implemented as `impl Detector for X {}` once `X: ScoredDetector`;
/// backends with extra per-detection outputs (localization,
/// identification) override [`detect_with`](Self::detect_with) while
/// keeping `detected == decide(score, threshold())`.
pub trait Detector: ScoredDetector {
    /// Runs one detection attempt on a reusable per-worker context:
    /// score once, decide at the default threshold.
    ///
    /// # Errors
    ///
    /// Propagates acquisition/analysis errors ([`CoreError`]).
    fn detect_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
    ) -> Result<DetectionOutcome, CoreError> {
        let threshold = self.threshold();
        let score = self.score_with(ctx, scenario)?;
        Ok(DetectionOutcome {
            detected: self.decide(score, threshold),
            score,
            threshold,
            traces_used: self.traces_per_score(),
            localized_sensor: None,
            identified: None,
        })
    }
}

/// The paper's cross-domain PSA detector.
#[derive(Debug)]
pub struct CrossDomainDetector {
    baseline: Baseline,
    config: AnalyzerConfig,
    /// The identification template library, built once on first
    /// detection and shared across workers thereafter — like the
    /// baseline, it is chip-specific, so a detector (whose baseline
    /// already binds it to one chip) must not be reused across chips.
    templates: OnceLock<TemplateLibrary>,
    /// The baseline's local-max envelopes, computed on first use and
    /// compared against every decision's sweep thereafter.
    envelopes: OnceLock<Vec<Vec<f64>>>,
}

impl CrossDomainDetector {
    /// Wraps an already-learned baseline (e.g. one the campaign engine
    /// learned in parallel across sensors). The identification library
    /// is built lazily on first detection and cached.
    pub fn with_baseline(baseline: Baseline) -> Self {
        CrossDomainDetector {
            baseline,
            config: AnalyzerConfig::default(),
            templates: OnceLock::new(),
            envelopes: OnceLock::new(),
        }
    }

    /// Wraps an already-learned baseline *and* an already-built template
    /// library, skipping the lazy first-detection build entirely — the
    /// memoized path for drivers that run several pipelines against the
    /// same chip (the library is a pure function of the chip, so sharing
    /// one build is result-identical to rebuilding).
    pub fn with_baseline_and_templates(baseline: Baseline, templates: TemplateLibrary) -> Self {
        let detector = Self::with_baseline(baseline);
        let _ = detector.templates.set(templates);
        detector
    }

    /// Overrides the analyzer configuration (trace budget, emergent
    /// threshold).
    pub fn with_config(mut self, config: AnalyzerConfig) -> Self {
        self.config = config;
        self
    }

    /// Access to the learned baseline.
    pub fn baseline(&self) -> &Baseline {
        &self.baseline
    }

    /// The analyzer configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// The baseline's local-max envelopes, computed once per detector.
    fn envelopes(&self) -> &[Vec<f64>] {
        self.envelopes.get_or_init(|| self.baseline.envelopes())
    }
}

impl ScoredDetector for CrossDomainDetector {
    fn name(&self) -> &'static str {
        "PSA cross-domain (this work)"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            localizes: true,
            identifies: true,
            runtime: true,
            reference_free: false,
        }
    }

    fn threshold(&self) -> f64 {
        self.config.threshold_db
    }

    fn traces_per_score(&self) -> usize {
        self.config.traces_per_sensor
    }

    /// The peak per-bin excess (dB) of any sensor's spectrum over its
    /// baseline local-max envelope — the statistic the analyzer
    /// thresholds at [`AnalyzerConfig::threshold_db`]. This is the
    /// detection-only path: no localization ranking, no zero-span
    /// identification, no template library, which makes it the cheap
    /// per-cell unit of the bake-off.
    fn score_with(&self, ctx: &mut AcqContext<'_>, scenario: &Scenario) -> Result<f64, CoreError> {
        let spectra =
            sweep_with_baseline(ctx, scenario, self.config.traces_per_sensor, &self.baseline)?;
        Ok(spectra
            .iter()
            .zip(self.envelopes())
            .fold(f64::NEG_INFINITY, |peak, (spec, base_env)| {
                peak_excess_over(spec, base_env, peak)
            }))
    }
}

impl Detector for CrossDomainDetector {
    /// The full pipeline: the analyzer's frequency-domain sweep plus
    /// localization and zero-span identification. The verdict keeps the
    /// analyzer's historical decision (≥ `min_components` emergent
    /// components); its continuous statistic
    /// ([`Verdict::peak_excess_db`](crate::cross_domain::Verdict)) is
    /// bit-identical to [`score_with`](ScoredDetector::score_with) on
    /// the same scenario.
    fn detect_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
    ) -> Result<DetectionOutcome, CoreError> {
        // The reference library costs 8 signature acquisitions plus
        // scaler/k-NN fits — far too much to repeat per detection.
        // Build it once (first detection wins the race; the library is
        // a pure function of the chip, so every build is identical).
        let templates = match self.templates.get() {
            Some(t) => t,
            None => {
                let built = TemplateLibrary::reference(ctx.chip())?;
                self.templates.get_or_init(|| built)
            }
        };
        let analyzer = CrossDomainAnalyzer::with_templates(self.config.clone(), templates.clone());
        let verdict = analyzer.analyze_against(ctx, scenario, &self.baseline, self.envelopes())?;
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

/// Configuration of the Euclidean-distance statistical baseline, with
/// the decision threshold lifted out of the detector body.
#[derive(Debug, Clone, PartialEq)]
pub struct EuclideanConfig {
    /// Traces per side (reference and test). The literature setups
    /// spend 60+ per side — per-trace discriminability, not statistics,
    /// is their binding constraint.
    pub traces_per_side: usize,
    /// Detection threshold in reference-spread multiples: detect when
    /// the studentized distance shift exceeds `k_sigma`. Default `3.0`
    /// (the classical 3-sigma rule).
    pub k_sigma: f64,
    /// Record length in clock cycles. The original setups captured
    /// short oscilloscope records (coarse RBW) — a key reason they miss
    /// small Trojans. Default
    /// [`EuclideanDetector::BASELINE_RECORD_CYCLES`].
    pub record_cycles: usize,
}

impl Default for EuclideanConfig {
    fn default() -> Self {
        EuclideanConfig {
            traces_per_side: 60,
            k_sigma: 3.0,
            record_cycles: EuclideanDetector::BASELINE_RECORD_CYCLES,
        }
    }
}

/// The Euclidean-distance statistical baseline (He et al.).
#[derive(Debug, Clone)]
pub struct EuclideanDetector {
    /// The probe this instance models (external probe or single coil).
    pub sensor: SensorSelect,
    /// Trace budget and decision threshold.
    pub config: EuclideanConfig,
}

impl EuclideanDetector {
    /// Record length of the literature setups: 512 cycles (4096 samples,
    /// ≈64 kHz RBW).
    pub const BASELINE_RECORD_CYCLES: usize = 512;

    /// He TVLSI'17: external probe, many traces.
    pub fn external_probe(traces_per_side: usize) -> Self {
        Self::with_config(
            SensorSelect::LangerLf1,
            EuclideanConfig {
                traces_per_side,
                ..EuclideanConfig::default()
            },
        )
    }

    /// He DAC'20: whole-die single coil, many traces.
    pub fn single_coil(traces_per_side: usize) -> Self {
        Self::with_config(
            SensorSelect::SingleCoil,
            EuclideanConfig {
                traces_per_side,
                ..EuclideanConfig::default()
            },
        )
    }

    /// An instance on an arbitrary sensing selection with an explicit
    /// configuration.
    pub fn with_config(sensor: SensorSelect, config: EuclideanConfig) -> Self {
        EuclideanDetector { sensor, config }
    }
}

impl ScoredDetector for EuclideanDetector {
    fn name(&self) -> &'static str {
        match self.sensor {
            SensorSelect::LangerLf1 | SensorSelect::IcrHh100 => {
                "external probe + Euclidean statistics"
            }
            _ => "single on-chip coil + Euclidean statistics",
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            // On-chip selections can run in mission mode; the external
            // probes are bench-only.
            runtime: !matches!(
                self.sensor,
                SensorSelect::LangerLf1 | SensorSelect::IcrHh100
            ),
            ..Capabilities::DETECT_ONLY
        }
    }

    fn threshold(&self) -> f64 {
        self.config.k_sigma
    }

    fn traces_per_score(&self) -> usize {
        2 * self.config.traces_per_side
    }

    /// The studentized distance shift `(test_mu - ref_mu) / ref_sigma`:
    /// how many reference spreads the test distribution's mean distance
    /// sits above the reference's. `-∞` when the reference spread is
    /// zero (no spread estimate — the historical "never detect" guard).
    fn score_with(&self, ctx: &mut AcqContext<'_>, scenario: &Scenario) -> Result<f64, CoreError> {
        // Reference: same chip with Trojans dormant (their golden-model
        // assumption translated to our run-time setting).
        let reference = Scenario {
            trojan: None,
            extra_trojans: Vec::new(),
            ..scenario.clone()
        }
        .with_seed(scenario.seed ^ 0xA5A5);

        let mut ref_spectra = Vec::with_capacity(self.config.traces_per_side);
        let mut test_spectra = Vec::with_capacity(self.config.traces_per_side);
        // Spectra per single trace: the original methods "compare the
        // Euclidean distance between traces or explore the Euclidean
        // distance distributions" — per-trace distributions, which is why
        // they need so many traces at low SNR.
        let mut traces = TraceSet::default();
        for i in 0..self.config.traces_per_side {
            ctx.acquire_len_into(
                &reference.clone().with_seed(reference.seed + i as u64),
                self.sensor,
                1,
                self.config.record_cycles,
                &mut traces,
            )?;
            ref_spectra.push(linear_spectrum(ctx, &traces)?);
            ctx.acquire_len_into(
                &scenario.clone().with_seed(scenario.seed + i as u64),
                self.sensor,
                1,
                self.config.record_cycles,
                &mut traces,
            )?;
            test_spectra.push(linear_spectrum(ctx, &traces)?);
        }
        let ref_mean = spectrum::average_traces(&ref_spectra)?;

        // Distance distributions around the reference mean: detection
        // when the test distribution shifts beyond the reference spread
        // (no √N averaging gain — per-trace discriminability governs,
        // matching the originals' behaviour at low SNR).
        let ref_dists: Vec<f64> = ref_spectra
            .iter()
            .map(|s| euclidean(s, &ref_mean))
            .collect();
        let test_dists: Vec<f64> = test_spectra
            .iter()
            .map(|s| euclidean(s, &ref_mean))
            .collect();
        let ref_mu = psa_dsp::stats::mean(&ref_dists);
        let ref_sigma = psa_dsp::stats::std_dev(&ref_dists);
        let test_mu = psa_dsp::stats::mean(&test_dists);
        if ref_sigma > 0.0 {
            Ok((test_mu - ref_mu) / ref_sigma)
        } else {
            Ok(f64::NEG_INFINITY)
        }
    }
}

impl Detector for EuclideanDetector {}

fn linear_spectrum(ctx: &mut AcqContext<'_>, traces: &TraceSet) -> Result<Vec<f64>, CoreError> {
    let db = ctx.spectrum_db(traces)?;
    Ok(db.into_iter().map(spectrum::db_to_amplitude).collect())
}

/// Configuration of the backscattering clustering baseline, with the
/// decision threshold lifted out of the detector body.
#[derive(Debug, Clone, PartialEq)]
pub struct BackscatterConfig {
    /// Traces per side (the paper's method used ~100 total). Default
    /// `50`.
    pub traces_per_side: usize,
    /// Carrier frequency, Hz (kept inside the 120 MHz band). Default
    /// `100 MHz`.
    pub carrier_hz: f64,
    /// Silhouette threshold for calling a separation. Default `0.4`.
    pub silhouette_threshold: f64,
}

impl Default for BackscatterConfig {
    fn default() -> Self {
        BackscatterConfig {
            traces_per_side: 50,
            carrier_hz: 100.0e6,
            silhouette_threshold: 0.4,
        }
    }
}

/// The backscattering clustering baseline (Nguyen et al., HOST'20).
///
/// A carrier is injected and its reflection, amplitude-modulated by the
/// chip's impedance (itself modulated by total switching activity), is
/// captured. Spectra of reference and test captures are projected with
/// PCA and clustered with K-means; well-separated clusters mean a
/// Trojan.
#[derive(Debug, Clone, Default)]
pub struct BackscatterDetector {
    /// Trace budget, carrier, and decision threshold.
    pub config: BackscatterConfig,
}

impl BackscatterDetector {
    /// An instance with an explicit configuration.
    pub fn with_config(config: BackscatterConfig) -> Self {
        BackscatterDetector { config }
    }

    /// Synthesizes one backscatter capture: the carrier AM-modulated by
    /// the chip's total switching activity (impedance modulation), plus
    /// measurement noise; returns its spectrum feature vector.
    ///
    /// `scratch` carries the Hann window, real-input FFT plan, and work
    /// buffers across the detection's 100 captures (its outputs are
    /// bit-identical to the one-shot spectrum path).
    fn capture_features(
        &self,
        chip: &TestChip,
        scenario: &Scenario,
        record_index: u64,
        scratch: &mut psa_dsp::batch::SpectrumScratch,
    ) -> Result<Vec<f64>, CoreError> {
        let fs = crate::calib::sample_rate_hz();
        let mut sim = crate::acquisition::start_activity(&Scenario {
            seed: scenario.seed + record_index,
            ..scenario.clone()
        });
        let trace = sim.advance(crate::calib::RECORD_CYCLES);
        // Total activity per cycle across all sources → impedance
        // modulation index.
        let n_cycles = trace.cycles();
        let mut total = vec![0.0; n_cycles];
        for wave in trace.per_source.values() {
            for (t, &v) in total.iter_mut().zip(wave) {
                *t += v;
            }
        }
        let spc = crate::calib::SAMPLES_PER_CYCLE;
        let mut rx = Vec::with_capacity(n_cycles * spc);
        let mut noise = psa_field::noise::GaussianNoise::new(
            1.0e-3,
            scenario.seed ^ record_index.wrapping_mul(0x2545F4914F6CDD1D),
        );
        // Backscatter senses chip impedance directly against a *fixed*
        // nominal activity scale (normalizing per capture would cancel
        // the Trojan's own contribution) — the method's sensitivity to
        // even small extra currents is its advantage in the original
        // paper.
        const NOMINAL_TOTAL_TOGGLES: f64 = 10_000.0;
        for (c, &act) in total.iter().enumerate() {
            let depth = 0.5 * act / NOMINAL_TOTAL_TOGGLES;
            for s in 0..spc {
                let i = (c * spc + s) as f64;
                let t = i / fs;
                let carrier = (2.0 * std::f64::consts::PI * self.config.carrier_hz * t).cos();
                rx.push((1.0 + depth) * carrier * 1.0e-2 + noise.next());
            }
        }
        // Feature vector: amplitude spectrum around the carrier.
        let spec = scratch.amplitude_spectrum(&rx)?;
        let bin = psa_dsp::fft::freq_bin(self.config.carrier_hz, rx.len(), fs);
        let lo = bin.saturating_sub(64);
        let hi = (bin + 64).min(spec.len());
        let _ = chip; // geometry-independent: backscatter senses global impedance
        Ok(spec[lo..hi].to_vec())
    }
}

impl ScoredDetector for BackscatterDetector {
    fn name(&self) -> &'static str {
        "backscattering + PCA/K-means (HOST'20)"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::DETECT_ONLY
    }

    fn threshold(&self) -> f64 {
        self.config.silhouette_threshold
    }

    fn traces_per_score(&self) -> usize {
        2 * self.config.traces_per_side
    }

    /// The silhouette score of the 2-means clustering when the clusters
    /// actually split the reference/test halves; `-1.0` (the silhouette
    /// floor) when they split along noise instead — a split-less
    /// clustering carries no Trojan evidence at any threshold.
    fn score_with(&self, ctx: &mut AcqContext<'_>, scenario: &Scenario) -> Result<f64, CoreError> {
        let chip = ctx.chip();
        let reference = Scenario {
            trojan: None,
            extra_trojans: Vec::new(),
            ..scenario.clone()
        };
        let mut scratch = psa_dsp::batch::SpectrumScratch::new(psa_dsp::window::Window::Hann);
        let mut features = Vec::with_capacity(2 * self.config.traces_per_side);
        for i in 0..self.config.traces_per_side {
            features.push(self.capture_features(
                chip,
                &reference,
                10_000 + i as u64,
                &mut scratch,
            )?);
        }
        for i in 0..self.config.traces_per_side {
            features.push(self.capture_features(
                chip,
                scenario,
                20_000 + i as u64,
                &mut scratch,
            )?);
        }
        let pca = Pca::fit(&features, 2.min(features[0].len()))?;
        let projected = pca.transform(&features)?;
        let fit = KMeans::new(2).with_seed(scenario.seed).fit(&projected)?;
        let silhouette = silhouette_score(&projected, fit.assignments());
        // Separation only counts when it actually splits the
        // reference/test halves rather than noise.
        let half = self.config.traces_per_side;
        let ref_majority = majority(&fit.assignments()[..half]);
        let test_majority = majority(&fit.assignments()[half..]);
        if ref_majority != test_majority {
            Ok(silhouette)
        } else {
            Ok(-1.0)
        }
    }
}

impl Detector for BackscatterDetector {}

fn majority(assignments: &[usize]) -> usize {
    let ones = assignments.iter().filter(|&&a| a == 1).count();
    usize::from(ones * 2 > assignments.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_votes() {
        assert_eq!(majority(&[0, 0, 1]), 0);
        assert_eq!(majority(&[1, 1, 0]), 1);
        assert_eq!(majority(&[]), 0);
    }

    #[test]
    fn detector_metadata() {
        let e = EuclideanDetector::external_probe(10);
        assert!(!e.capabilities().localizes);
        assert!(!e.capabilities().runtime);
        assert!(e.name().contains("external"));
        let s = EuclideanDetector::single_coil(10);
        assert!(s.name().contains("single"));
        assert!(s.capabilities().runtime);
        let b = BackscatterDetector::default();
        assert!(!b.capabilities().localizes);
        assert!(b.name().contains("backscatter"));
    }

    #[test]
    fn config_defaults_match_historical_thresholds() {
        // The thresholds were hard-coded in the detector bodies before
        // the scored redesign; the lifted configs must default to the
        // same values or Table I changes.
        assert_eq!(EuclideanConfig::default().k_sigma, 3.0);
        assert_eq!(EuclideanConfig::default().record_cycles, 512);
        assert_eq!(BackscatterConfig::default().silhouette_threshold, 0.4);
        assert_eq!(BackscatterConfig::default().traces_per_side, 50);
        assert_eq!(EuclideanDetector::external_probe(60).threshold(), 3.0);
        assert_eq!(BackscatterDetector::default().threshold(), 0.4);
    }

    #[test]
    fn decide_is_the_strict_comparison() {
        let det = BackscatterDetector::default();
        assert!(det.decide(0.5, 0.4));
        assert!(!det.decide(0.4, 0.4), "ties are not detections");
        assert!(!det.decide(0.3, 0.4));
        assert!(!det.decide(f64::NEG_INFINITY, 0.4));
        assert!(det.decide(0.5, f64::NEG_INFINITY), "always-alarm policy");
    }

    // End-to-end detector behaviour (detection rates, trace counts,
    // old-vs-new decision equality) is exercised by the workspace
    // integration tests and the Table I regeneration binary.
}

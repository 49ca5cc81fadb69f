//! Hypothesis-based **joint localization** of multiple concurrent
//! emitters — the multi-source generalization of the placement atlas.
//!
//! The paper's run-time threat model does not promise a single Trojan:
//! colluding payloads, decoy emitters, or one source masking another
//! all put **K concurrent sources** on the die at once. Everything the
//! single-source pipeline measures still holds per sensor — emergent
//! components over the baseline envelope, a common line in the 48 MHz
//! sideband family, absolute amplitude excess — but the per-sensor
//! amplitude vector is now (to first order) a *superposition* of the
//! sources' coupling rows. [`MultiLocalizer`] inverts that
//! superposition by greedy **successive cancellation**, the approach of
//! Localection's multi-intruder localizer (caitaozhan/Localection,
//! MobiCom'19 lineage):
//!
//! 1. sense the array once with all emitters superposed
//!    ([`PlacementSweep::sense_emitters_with`]), pick the common line,
//!    and form the measured per-sensor amplitude-excess vector;
//! 2. match the residual vector against a hypothesis grid of candidate
//!    sites — each candidate's signature is its on-demand
//!    `emitter_coupling_row`, derived from geometry alone (no golden
//!    model, no training set);
//! 3. accept the best-correlated candidate as a source: its matched
//!    amplitude sets the estimated **drive power** (through a one-time
//!    per-corner calibration), its subtracted per-sensor contribution
//!    yields an attributed **amplitude-weighted centroid refinement**,
//!    and every candidate within
//!    [`MultiLocConfig::min_separation_um`] of it is retired — the
//!    injected tuple is validated to that separation, so two reported
//!    sources closer than it cannot both be real (the localizer's
//!    resolution limit *is* its separation contract);
//! 4. subtract the predicted contribution from the residual (clamped at
//!    zero — spectra are magnitudes) and repeat until no sensor's
//!    residual clears a **baseline-envelope-derived floor**, the
//!    matched amplitude falls below
//!    [`MultiLocConfig::min_source_fraction`] of the strongest
//!    source's (the ghost gate), or
//!    [`MultiLocConfig::max_sources`] is reached.
//!
//! The number of iterations *is* the estimated source count; a quiet
//! tuple (zero drive) produces no emergent components and therefore
//! zero sources — no false alarms by construction. With a one-element
//! emitter set, stage 1 is bit-identical to the atlas evaluation and
//! the first iteration's anchor sensor, measured amplitude vector, and
//! array centroid reproduce [`PlacementSweep`]'s single-source outcome
//! bit for bit (pinned by the workspace seam tests).
//!
//! Predicted and true source sets are scored Localection-style by
//! [`score_sources`]: greedy distance matching into per-source error,
//! misses, false alarms, and drive-power error.

use crate::acquisition::AcqContext;
use crate::atlas::{PlacementSweep, PlacementSweepConfig, SensedArray, SyntheticEmitter};
use crate::cross_domain::Baseline;
use crate::error::CoreError;
use crate::localize;
use crate::scenario::Scenario;
use psa_layout::emitter::{sweep_grid, validate_separation, EmitterSite};
use psa_layout::Point;

/// Configuration of the joint localizer.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLocConfig {
    /// The sensing configuration shared with the single-source atlas.
    pub sweep: PlacementSweepConfig,
    /// Hypothesis candidate sites per die side (`H` → `H × H` grid).
    pub hypothesis_grid: usize,
    /// Margin of the hypothesis grid from the die edge, µm.
    pub hypothesis_margin_um: f64,
    /// Footprint extent of hypothesis sites, µm (matches the atlas
    /// reference emitter so candidate rows share the true rows' shape).
    pub hypothesis_extent_um: f64,
    /// Cancellation iteration cap — the most sources the localizer will
    /// ever report.
    pub max_sources: usize,
    /// Minimum centre-to-centre separation accepted between injected
    /// emitters, µm (overlapping footprints are always rejected).
    pub min_separation_um: f64,
    /// Ghost rejection: a candidate is only accepted while its matched
    /// amplitude is at least this fraction of the strongest extracted
    /// source's. Coherent co-frequency sources superpose as *signed*
    /// amplitudes but the array measures magnitudes, so cancellation
    /// leaves a nonnegative mismatch residual that always correlates
    /// positively with some candidate row — without this gate the loop
    /// would keep promoting that scatter to phantom sources. Measured
    /// ghosts sit more than an order of magnitude below the strongest
    /// source; genuinely weak co-sources land well above a 0.1 cut.
    pub min_source_fraction: f64,
}

impl Default for MultiLocConfig {
    fn default() -> Self {
        MultiLocConfig {
            sweep: PlacementSweepConfig::default(),
            hypothesis_grid: 12,
            hypothesis_margin_um: 60.0,
            hypothesis_extent_um: 40.0,
            max_sources: 5,
            min_separation_um: 120.0,
            min_source_fraction: 0.1,
        }
    }
}

/// Per-corner amplitude-to-drive calibration: the instrument constant
/// κ in `amplitude ≈ κ · drive_cells · coupling`, measured once by
/// injecting a reference emitter of known drive and reading it back
/// through the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Volts of common-line amplitude per (cell × coupling-row unit).
    pub kappa: f64,
    /// Drive of the reference emitter used, equivalent cells.
    pub reference_drive_cells: f64,
}

/// One recovered source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceEstimate {
    /// Estimated position, µm — the matched hypothesis site's centre.
    pub x_um: f64,
    /// Estimated position, µm.
    pub y_um: f64,
    /// Amplitude-weighted centroid of this source's *attributed*
    /// per-sensor amplitudes, µm — the sub-grid refinement diagnostic.
    pub refined_x_um: f64,
    /// See [`refined_x_um`](Self::refined_x_um).
    pub refined_y_um: f64,
    /// Anchor sensor: the strongest residual sensor at extraction time
    /// (for a single source this is the atlas's predicted sensor).
    pub sensor: usize,
    /// Matched amplitude along the candidate's unit signature, V.
    pub amplitude_v: f64,
    /// Estimated drive power, equivalent cells (`None` without a
    /// [`Calibration`]).
    pub drive_cells: Option<f64>,
}

/// The joint localizer's verdict on one acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct JointOutcome {
    /// Whether any sensor flagged an emergent component.
    pub detected: bool,
    /// The common emergent line used for ranking, Hz.
    pub prominent_freq_hz: Option<f64>,
    /// Recovered sources, strongest first (extraction order).
    pub sources: Vec<SourceEstimate>,
    /// Amplitude-weighted centroid of the *measured* per-sensor
    /// amplitude vector, µm — for a single source this is exactly the
    /// atlas's centroid refinement.
    pub centroid_um: Option<(f64, f64)>,
    /// Strongest emergent excess over baseline across the array, dB.
    pub top_excess_db: f64,
    /// Largest per-sensor residual amplitude left after cancellation, V.
    pub residual_v: f64,
}

/// The joint localizer bound to a chip: the shared sensing engine plus
/// the hypothesis grid with its precomputed coupling signatures.
#[derive(Debug)]
pub struct MultiLocalizer<'c> {
    sweep: PlacementSweep<'c>,
    config: MultiLocConfig,
    candidates: Vec<EmitterSite>,
    /// Per-candidate |coupling| rows (magnitudes — measured spectra are
    /// magnitudes, so signatures must be too).
    rows: Vec<Vec<f64>>,
    norms: Vec<f64>,
}

impl<'c> MultiLocalizer<'c> {
    /// Binds the localizer to a chip, deriving the hypothesis grid's
    /// coupling signatures once.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a degenerate sweep or
    /// hypothesis configuration; layout/field errors for bad geometry.
    pub fn new(chip: &'c crate::chip::TestChip, config: MultiLocConfig) -> Result<Self, CoreError> {
        if config.hypothesis_grid == 0 {
            return Err(CoreError::InvalidParameter {
                what: "hypothesis grid must have at least one site per side",
            });
        }
        if config.max_sources == 0 {
            return Err(CoreError::InvalidParameter {
                what: "joint localizer must be allowed at least one source",
            });
        }
        let sweep = PlacementSweep::new(chip, config.sweep.clone())?;
        let candidates = sweep_grid(
            chip.floorplan().die(),
            config.hypothesis_grid,
            config.hypothesis_grid,
            config.hypothesis_margin_um,
            config.hypothesis_extent_um,
        );
        let mut rows = Vec::with_capacity(candidates.len());
        let mut norms = Vec::with_capacity(candidates.len());
        for site in &candidates {
            let row: Vec<f64> = sweep.coupling_row(site)?.iter().map(|k| k.abs()).collect();
            let norm = row.iter().map(|k| k * k).sum::<f64>().sqrt();
            if norm <= 0.0 {
                return Err(CoreError::InvalidParameter {
                    what: "hypothesis site couples into no sensor",
                });
            }
            rows.push(row);
            norms.push(norm);
        }
        Ok(MultiLocalizer {
            sweep,
            config,
            candidates,
            rows,
            norms,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &MultiLocConfig {
        &self.config
    }

    /// The shared sensing engine (baseline learning, envelopes, coupling
    /// rows) — the same object the single-source atlas drives.
    pub fn sweep(&self) -> &PlacementSweep<'c> {
        &self.sweep
    }

    /// The hypothesis candidate sites, row-major across the die.
    pub fn candidates(&self) -> &[EmitterSite] {
        &self.candidates
    }

    /// Measures the instrument constant κ by injecting a reference
    /// emitter of known drive at the die centre and reading its matched
    /// amplitude back through the full sensing pipeline. A pure function
    /// of the scenario seed, so campaigns calibrate once per corner.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the reference emitter goes
    /// undetected or couples with non-positive matched amplitude (a
    /// mis-set threshold or broken baseline); acquisition errors
    /// otherwise.
    pub fn calibrate_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
        baseline: &Baseline,
        envelopes: &[Vec<f64>],
    ) -> Result<Calibration, CoreError> {
        let die = self.sweep.chip().floorplan().die();
        let outline = die.outline();
        let center = Point::new(
            (outline.min().x + outline.max().x) / 2.0,
            (outline.min().y + outline.max().y) / 2.0,
        );
        let reference = SyntheticEmitter::reference_at(EmitterSite::new(
            center,
            self.config.hypothesis_extent_um,
        ));
        let sensed = self.sweep.sense_emitters_with(
            ctx,
            scenario,
            std::slice::from_ref(&reference),
            envelopes,
        )?;
        let (line_bin, _) =
            common_line(&self.sweep, &sensed).ok_or(CoreError::InvalidParameter {
                what: "calibration emitter went undetected",
            })?;
        let amplitudes = measured_amplitudes(&sensed, baseline, line_bin);
        let row: Vec<f64> = self
            .sweep
            .coupling_row(&reference.site)?
            .iter()
            .map(|k| k.abs())
            .collect();
        let norm = row.iter().map(|k| k * k).sum::<f64>().sqrt();
        let alpha = dot(&amplitudes, &row) / norm;
        let kappa = alpha / (reference.trojan.drive_cells * norm);
        if !kappa.is_finite() || kappa <= 0.0 {
            return Err(CoreError::InvalidParameter {
                what: "calibration produced a non-positive instrument constant",
            });
        }
        Ok(Calibration {
            kappa,
            reference_drive_cells: reference.trojan.drive_cells,
        })
    }

    /// Jointly localizes a set of superposed emitters: sense once, then
    /// successively cancel matched hypothesis sources out of the
    /// per-sensor residual until it drops below the detection floor.
    ///
    /// # Errors
    ///
    /// [`CoreError::Layout`] when a site is off-die or the tuple
    /// violates the configured minimum separation;
    /// [`CoreError::InvalidParameter`] when `baseline`/`envelopes` are
    /// missing sensors; acquisition/DSP errors otherwise. Quiet
    /// emitters (zero drive) are *not* an error — they report
    /// `detected: false` with zero sources.
    pub fn localize_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
        emitters: &[SyntheticEmitter],
        baseline: &Baseline,
        envelopes: &[Vec<f64>],
        calibration: Option<&Calibration>,
    ) -> Result<JointOutcome, CoreError> {
        let n_sensors = self.sweep.chip().sensor_bank().len();
        if baseline.per_sensor_db.len() < n_sensors || envelopes.len() < n_sensors {
            return Err(CoreError::InvalidParameter {
                what: "joint localizer baseline is missing sensors",
            });
        }
        let sites: Vec<EmitterSite> = emitters.iter().map(|e| e.site).collect();
        validate_separation(&sites, self.config.min_separation_um)?;

        let sensed = self
            .sweep
            .sense_emitters_with(ctx, scenario, emitters, envelopes)?;
        let top_excess_db = sensed
            .components
            .iter()
            .flatten()
            .map(|&(_, e)| e)
            .fold(0.0f64, f64::max);
        let Some((line_bin, _)) = common_line(&self.sweep, &sensed) else {
            return Ok(JointOutcome {
                detected: false,
                prominent_freq_hz: None,
                sources: Vec::new(),
                centroid_um: None,
                top_excess_db,
                residual_v: 0.0,
            });
        };

        let amplitudes = measured_amplitudes(&sensed, baseline, line_bin);
        let centroid_um = localize::amplitude_centroid(&amplitudes, self.sweep.sensor_centers())
            .map(|c| (c.x, c.y));
        // The floor a residual must clear to still be an emergent
        // component: the envelope-plus-threshold detection criterion at
        // the line, converted to the same linear-amplitude-excess units
        // as the residual. The most sensitive bin in the line window
        // sets the floor (conservative: cancellation keeps going while
        // any sensor could still trip detection anywhere in the window).
        let floors: Vec<f64> = (0..n_sensors)
            .map(|i| {
                detection_floor_at_line(
                    &envelopes[i],
                    &baseline.per_sensor_db[i],
                    self.config.sweep.threshold_db,
                    line_bin,
                )
            })
            .collect();

        let mut residual = amplitudes;
        let mut used = vec![false; self.candidates.len()];
        let mut sources: Vec<SourceEstimate> = Vec::new();
        while sources.len() < self.config.max_sources {
            if !residual.iter().zip(&floors).any(|(r, f)| r > f) {
                break;
            }
            let anchor = residual
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("sensor bank is non-empty");
            // Matched filter: the unused candidate whose unit signature
            // best explains the residual. First maximal candidate wins
            // ties (strict `>`), deterministically.
            let mut best: Option<(usize, f64)> = None;
            for (c, row) in self.rows.iter().enumerate() {
                if used[c] {
                    continue;
                }
                let alpha = dot(&residual, row) / self.norms[c];
                if best.is_none_or(|(_, b)| alpha > b) {
                    best = Some((c, alpha));
                }
            }
            let Some((c, alpha)) = best else { break };
            if alpha <= 0.0 {
                break;
            }
            // Ghost gate: sources extract strongest-first, so the first
            // source's amplitude anchors the relative cut.
            if let Some(first) = sources.first() {
                if alpha < self.config.min_source_fraction * first.amplitude_v {
                    break;
                }
            }
            // Exclude the accepted candidate's neighborhood: injected
            // tuples are validated to `min_separation_um`, so two
            // reported sources closer than that cannot both be real —
            // an off-grid emitter otherwise splits its energy across
            // adjacent grid cells and re-reports itself.
            for (j, site) in self.candidates.iter().enumerate() {
                if site.center.distance_to(self.candidates[c].center)
                    < self.config.min_separation_um
                {
                    used[j] = true;
                }
            }
            // Subtract the predicted contribution, clamped at zero
            // (magnitude spectra cannot go negative); the clamped
            // amounts are this source's attributed amplitudes.
            let mut attributed = vec![0.0; n_sensors];
            for (i, r) in residual.iter_mut().enumerate() {
                let predicted = alpha * self.rows[c][i] / self.norms[c];
                let taken = predicted.min(*r).max(0.0);
                attributed[i] = taken;
                *r -= taken;
            }
            let site = self.candidates[c].center;
            let refined = localize::amplitude_centroid(&attributed, self.sweep.sensor_centers())
                .unwrap_or(site);
            sources.push(SourceEstimate {
                x_um: site.x,
                y_um: site.y,
                refined_x_um: refined.x,
                refined_y_um: refined.y,
                sensor: anchor,
                amplitude_v: alpha,
                drive_cells: calibration.map(|cal| alpha / (cal.kappa * self.norms[c])),
            });
        }

        let residual_v = residual.iter().fold(0.0f64, |a, &b| a.max(b));
        Ok(JointOutcome {
            detected: true,
            prominent_freq_hz: Some(self.sweep.bin_hz(line_bin)),
            sources,
            centroid_um,
            top_excess_db,
            residual_v,
        })
    }
}

/// The common emergent line of a sensed array, `(bin, excess_db)` —
/// `None` when no sensor flagged a component.
fn common_line(sweep: &PlacementSweep<'_>, sensed: &SensedArray) -> Option<(usize, f64)> {
    let all: Vec<(usize, f64)> = sensed.components.iter().flatten().copied().collect();
    localize::pick_common_line(&all, |t| sweep.bin_hz(t.0), |t| t.1).copied()
}

/// Per-sensor measured amplitude-excess vector at the common line —
/// identical arithmetic (and bits) to the atlas's stage-3 ranking.
fn measured_amplitudes(sensed: &SensedArray, baseline: &Baseline, line_bin: usize) -> Vec<f64> {
    sensed
        .spectra
        .iter()
        .zip(&baseline.per_sensor_db)
        .map(|(spec, base)| localize::amplitude_excess_at_line(spec, base, line_bin))
        .collect()
}

/// The linear-amplitude excess a line component needs before the
/// envelope-plus-threshold detector would flag it — evaluated at the
/// most sensitive bin of the line window.
fn detection_floor_at_line(env: &[f64], base: &[f64], threshold_db: f64, line_bin: usize) -> f64 {
    let lo = line_bin.saturating_sub(localize::LINE_WINDOW_BINS);
    let hi = (line_bin + localize::LINE_WINDOW_BINS + 1)
        .min(env.len())
        .min(base.len());
    (lo..hi)
        .map(|k| {
            psa_dsp::spectrum::db_to_amplitude(env[k] + threshold_db)
                - psa_dsp::spectrum::db_to_amplitude(base[k])
        })
        .fold(f64::INFINITY, f64::min)
        .max(0.0)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One matched predicted↔true pair in a [`MatchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceMatch {
    /// Index into the predicted source list.
    pub predicted: usize,
    /// Index into the true emitter list.
    pub truth: usize,
    /// Distance between the predicted position and the true site
    /// centre, µm.
    pub error_um: f64,
    /// Drive-power error, dB (`10·log10(estimated/true)`); `None` when
    /// either side has no positive drive estimate.
    pub power_error_db: Option<f64>,
}

/// Localection-style score of a predicted source set against the truth.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchReport {
    /// Greedily matched pairs, in match order (closest first).
    pub pairs: Vec<SourceMatch>,
    /// True sources left unmatched.
    pub miss: usize,
    /// Predicted sources left unmatched.
    pub false_alarm: usize,
}

impl MatchReport {
    /// Mean matched localization error, µm (`None` with no pairs).
    pub fn mean_error_um(&self) -> Option<f64> {
        if self.pairs.is_empty() {
            return None;
        }
        Some(self.pairs.iter().map(|p| p.error_um).sum::<f64>() / self.pairs.len() as f64)
    }
}

/// Scores predicted sources against the true emitter set the way
/// Localection's `compute_error` does: greedily match the globally
/// closest predicted↔true pair, remove both, repeat; unmatched truths
/// are **misses**, unmatched predictions **false alarms**, and each
/// matched pair contributes a per-source localization error (µm) and a
/// drive-power error (dB).
pub fn score_sources(truth: &[SyntheticEmitter], predicted: &[SourceEstimate]) -> MatchReport {
    let mut truth_open: Vec<bool> = vec![true; truth.len()];
    let mut pred_open: Vec<bool> = vec![true; predicted.len()];
    let mut pairs = Vec::with_capacity(truth.len().min(predicted.len()));
    for _ in 0..truth.len().min(predicted.len()) {
        let mut best: Option<(usize, usize, f64)> = None;
        for (p, est) in predicted.iter().enumerate() {
            if !pred_open[p] {
                continue;
            }
            for (t, e) in truth.iter().enumerate() {
                if !truth_open[t] {
                    continue;
                }
                let d = Point::new(est.x_um, est.y_um).distance_to(e.site.center);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((p, t, d));
                }
            }
        }
        let Some((p, t, error_um)) = best else { break };
        pred_open[p] = false;
        truth_open[t] = false;
        let power_error_db = match predicted[p].drive_cells {
            Some(est) if est > 0.0 && truth[t].trojan.drive_cells > 0.0 => {
                Some(10.0 * (est / truth[t].trojan.drive_cells).log10())
            }
            _ => None,
        };
        pairs.push(SourceMatch {
            predicted: p,
            truth: t,
            error_um,
            power_error_db,
        });
    }
    MatchReport {
        miss: truth_open.iter().filter(|&&open| open).count(),
        false_alarm: pred_open.iter().filter(|&&open| open).count(),
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_gatesim::synth::SyntheticTrojan;

    fn estimate_at(x: f64, y: f64, drive: Option<f64>) -> SourceEstimate {
        SourceEstimate {
            x_um: x,
            y_um: y,
            refined_x_um: x,
            refined_y_um: y,
            sensor: 0,
            amplitude_v: 1.0e-4,
            drive_cells: drive,
        }
    }

    fn truth_at(x: f64, y: f64, drive: f64) -> SyntheticEmitter {
        SyntheticEmitter {
            site: EmitterSite::new(Point::new(x, y), 40.0),
            trojan: SyntheticTrojan::am_reference(drive),
            charge_fc: 2.0,
        }
    }

    #[test]
    fn default_config_is_sane() {
        let c = MultiLocConfig::default();
        assert!(c.hypothesis_grid >= 2);
        assert!(c.max_sources >= 1);
        assert!(c.min_separation_um > c.hypothesis_extent_um);
    }

    #[test]
    fn greedy_matching_pairs_closest_first() {
        let truth = [truth_at(100.0, 100.0, 800.0), truth_at(900.0, 900.0, 400.0)];
        let pred = [
            estimate_at(880.0, 910.0, Some(800.0)),
            estimate_at(130.0, 90.0, Some(400.0)),
        ];
        let report = score_sources(&truth, &pred);
        assert_eq!(report.miss, 0);
        assert_eq!(report.false_alarm, 0);
        assert_eq!(report.pairs.len(), 2);
        // Closest pair matches first: prediction 0 ↔ truth 1.
        assert_eq!(report.pairs[0].predicted, 0);
        assert_eq!(report.pairs[0].truth, 1);
        assert_eq!(report.pairs[1].predicted, 1);
        assert_eq!(report.pairs[1].truth, 0);
        assert!(report.mean_error_um().unwrap() < 40.0);
        // Power errors: 10·log10(800/400) ≈ 3.01 dB and its mirror.
        let p0 = report.pairs[0].power_error_db.unwrap();
        assert!((p0 - 3.010).abs() < 0.01, "{p0}");
    }

    #[test]
    fn misses_and_false_alarms_counted() {
        let truth = [truth_at(100.0, 100.0, 800.0), truth_at(900.0, 900.0, 800.0)];
        // One prediction only → one miss, no false alarm.
        let report = score_sources(&truth, &[estimate_at(120.0, 100.0, None)]);
        assert_eq!(
            (report.pairs.len(), report.miss, report.false_alarm),
            (1, 1, 0)
        );
        assert!(report.pairs[0].power_error_db.is_none());
        // Three predictions → one false alarm.
        let report = score_sources(
            &truth,
            &[
                estimate_at(120.0, 100.0, Some(700.0)),
                estimate_at(880.0, 900.0, Some(900.0)),
                estimate_at(500.0, 500.0, Some(100.0)),
            ],
        );
        assert_eq!(
            (report.pairs.len(), report.miss, report.false_alarm),
            (2, 0, 1)
        );
        // Empty prediction set: all truths missed, nothing else.
        let report = score_sources(&truth, &[]);
        assert_eq!(
            (report.pairs.len(), report.miss, report.false_alarm),
            (0, 2, 0)
        );
        assert!(report.mean_error_um().is_none());
    }

    #[test]
    fn detection_floor_is_positive_and_window_clamped() {
        let base: Vec<f64> = (0..32).map(|k| -100.0 + (k % 5) as f64).collect();
        let env = psa_dsp::peak::local_max_envelope(&base, 4);
        for bin in [0usize, 3, 16, 31] {
            let floor = detection_floor_at_line(&env, &base, 8.0, bin);
            assert!(floor > 0.0, "floor at bin {bin}");
        }
        // An out-of-range window has no bin to trip: the floor is
        // unreachable (infinite), never a panic.
        assert!(detection_floor_at_line(&env, &base, 8.0, 100).is_infinite());
    }

    // Chip-bound behaviour (K=1 bit-agreement with the atlas, zero
    // drive, K ∈ {2,3} recovery, worker invariance) is covered by the
    // workspace integration tests, which share the expensive chip build.
}

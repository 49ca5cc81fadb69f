//! Joint-localization campaigns: fan multi-emitter placement tuples
//! (K × tuples × VDD/temp corners × seeds) across the engine.
//!
//! A [`MultilocJob`] is one **tuple** of concurrently active synthetic
//! emitters evaluated at one operating corner ([`AtlasCorner`]); the
//! localization atlas is the campaign on one-element tuples. The
//! campaign first learns each corner's 16-sensor baseline *at that
//! corner* (run-time baseline learning happens in-situ, so a drifted
//! supply drifts the baseline with it), one engine job per corner,
//! precomputes the detection envelopes, and measures each corner's
//! amplitude-to-drive [`Calibration`] by injecting a known reference
//! emitter — then fans the tuple evaluations. Every job is a pure
//! function of its description (the scenario seed folds
//! [`placement_seed`] over the tuple's sites), and results collect in
//! submission order: the campaign's output is **byte-identical at any
//! worker count**, which the `multi_localize` and `localize_atlas`
//! binaries' CI determinism gates `cmp` directly.

use crate::atlas::AtlasCorner;
use crate::campaign::Campaign;
use crate::engine::Engine;
use psa_core::atlas::{placement_seed, SyntheticEmitter};
use psa_core::chip::TestChip;
use psa_core::cross_domain::Baseline;
use psa_core::error::CoreError;
use psa_core::multiloc::{
    score_sources, Calibration, JointOutcome, MatchReport, MultiLocConfig, MultiLocalizer,
};
use psa_layout::emitter::EmitterSite;

/// The seed a corner's calibration acquisition runs under — derived
/// from, but never equal to, the corner's base seed, so calibration
/// does not replay the baseline's noise realization.
pub fn calibration_seed(base_seed: u64) -> u64 {
    psa_dsp::rng::splitmix64(base_seed ^ 0xCA11_B7A7_0000_0001)
}

/// The evaluation seed of a placement tuple: the corner's base seed
/// folded through [`placement_seed`] over the tuple's sites in order,
/// so a one-element tuple runs under that site's placement seed.
pub fn tuple_seed(base_seed: u64, emitters: &[SyntheticEmitter]) -> u64 {
    emitters
        .iter()
        .fold(base_seed, |seed, e| placement_seed(seed, &e.site))
}

/// One joint-localization evaluation: the concurrently active emitter
/// tuple and the corner index it runs at.
#[derive(Debug, Clone, PartialEq)]
pub struct MultilocJob {
    /// Index into the campaign's corner list.
    pub corner: usize,
    /// The tuple of concurrently active emitters; sites carry the
    /// ground truth the outcome is scored against.
    pub emitters: Vec<SyntheticEmitter>,
}

impl MultilocJob {
    /// A reference-emitter tuple at `sites` under corner `corner`.
    pub fn reference(sites: &[EmitterSite], corner: usize) -> Self {
        MultilocJob {
            corner,
            emitters: sites
                .iter()
                .map(|&s| SyntheticEmitter::reference_at(s))
                .collect(),
        }
    }
}

/// One finished tuple: the corner, the joint verdict, and its
/// Localection-style score against the tuple's ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct MultilocOutcome {
    /// Index into the campaign's corner list.
    pub corner: usize,
    /// Number of truly active (positive-drive) emitters in the tuple.
    pub true_count: usize,
    /// The joint localizer's verdict.
    pub outcome: JointOutcome,
    /// Greedy predicted↔true matching: per-source error, misses, false
    /// alarms, power error.
    pub score: MatchReport,
}

/// An engine-backed joint-localization campaign: one shared chip,
/// per-corner baselines + calibrations, tuples fanned across workers.
#[derive(Debug)]
pub struct MultilocCampaign<'c> {
    campaign: Campaign<'c>,
    localizer: MultiLocalizer<'c>,
    corners: Vec<AtlasCorner>,
    baselines: Vec<Baseline>,
    /// Per-corner local-max envelopes of the baselines, computed once
    /// instead of once per tuple.
    envelopes: Vec<Vec<Vec<f64>>>,
    calibrations: Vec<Calibration>,
}

impl<'c> MultilocCampaign<'c> {
    /// Builds the localizer, learns every corner's baseline in parallel
    /// and calibrates every corner's instrument constant (one engine job
    /// per corner for each). A baseline job runs one 16-sensor sweep
    /// ([`PlacementSweep::learn_baseline_with`]), so the chip half of a
    /// record is simulated once per corner instead of once per sensor.
    ///
    /// [`PlacementSweep::learn_baseline_with`]: psa_core::atlas::PlacementSweep::learn_baseline_with
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an empty corner list, an
    /// invalid localizer configuration, or a failed calibration;
    /// acquisition errors from the baseline learning.
    pub fn new(
        chip: &'c TestChip,
        engine: Engine,
        config: MultiLocConfig,
        corners: Vec<AtlasCorner>,
    ) -> Result<Self, CoreError> {
        if corners.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "joint-localization campaign needs at least one corner",
            });
        }
        let campaign = Campaign::new(chip, engine);
        let localizer = MultiLocalizer::new(chip, config)?;
        let sweep = localizer.sweep();
        let corner_idx: Vec<usize> = (0..corners.len()).collect();
        let baselines = campaign
            .run(&corner_idx, |ctx, _, &c| {
                sweep.learn_baseline_with(ctx, &corners[c].scenario())
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let envelopes: Vec<_> = baselines.iter().map(Baseline::envelopes).collect();
        let calibrations = campaign
            .run(&corner_idx, |ctx, _, &c| {
                let scenario = corners[c]
                    .scenario()
                    .with_seed(calibration_seed(corners[c].seed));
                localizer.calibrate_with(ctx, &scenario, &baselines[c], &envelopes[c])
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultilocCampaign {
            campaign,
            localizer,
            corners,
            baselines,
            envelopes,
            calibrations,
        })
    }

    /// The corner list, in baseline order.
    pub fn corners(&self) -> &[AtlasCorner] {
        &self.corners
    }

    /// The joint localizer (for geometry/config queries in reports).
    pub fn localizer(&self) -> &MultiLocalizer<'c> {
        &self.localizer
    }

    /// A corner's learned baseline.
    pub fn baseline(&self, corner: usize) -> Option<&Baseline> {
        self.baselines.get(corner)
    }

    /// Evaluates every tuple job, collecting outcomes in submission
    /// order. Each tuple runs under an independent noise/activity
    /// realization ([`tuple_seed`]), and each outcome is scored against
    /// its own ground truth before collection — the scored report is as
    /// worker-count-invariant as the raw verdicts.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when a job names an unknown
    /// corner; [`CoreError::Layout`] when a tuple violates the
    /// configured minimum separation or leaves the die; otherwise the
    /// first failing evaluation's error.
    pub fn run(&self, jobs: &[MultilocJob]) -> Result<Vec<MultilocOutcome>, CoreError> {
        if jobs.iter().any(|j| j.corner >= self.corners.len()) {
            return Err(CoreError::InvalidParameter {
                what: "joint-localization job names a corner outside the campaign's corner list",
            });
        }
        self.campaign
            .run(jobs, |ctx, _, job| {
                let corner = &self.corners[job.corner];
                let scenario = corner
                    .scenario()
                    .with_seed(tuple_seed(corner.seed, &job.emitters));
                self.localizer
                    .localize_with(
                        ctx,
                        &scenario,
                        &job.emitters,
                        &self.baselines[job.corner],
                        &self.envelopes[job.corner],
                        Some(&self.calibrations[job.corner]),
                    )
                    .map(|outcome| {
                        let active: Vec<SyntheticEmitter> = job
                            .emitters
                            .iter()
                            .filter(|e| e.trojan.drive_cells > 0.0)
                            .cloned()
                            .collect();
                        let score = score_sources(&active, &outcome.sources);
                        MultilocOutcome {
                            corner: job.corner,
                            true_count: active.len(),
                            outcome,
                            score,
                        }
                    })
            })
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_layout::Point;

    #[test]
    fn tuple_seed_folds_placement_seeds() {
        let a = EmitterSite::new(Point::new(100.0, 200.0), 40.0);
        let b = EmitterSite::new(Point::new(700.0, 600.0), 40.0);
        let single = MultilocJob::reference(&[a], 0);
        assert_eq!(tuple_seed(7, &single.emitters), placement_seed(7, &a));
        let pair = MultilocJob::reference(&[a, b], 0);
        // Folding is order-sensitive and site-sensitive.
        assert_eq!(
            tuple_seed(7, &pair.emitters),
            placement_seed(placement_seed(7, &a), &b)
        );
        let swapped = MultilocJob::reference(&[b, a], 0);
        assert_ne!(
            tuple_seed(7, &pair.emitters),
            tuple_seed(7, &swapped.emitters)
        );
        // Calibration never replays the corner's baseline seed.
        assert_ne!(calibration_seed(7), 7);
        assert_eq!(calibration_seed(7), calibration_seed(7));
    }

    #[test]
    fn reference_job_carries_sites_in_order() {
        let sites = [
            EmitterSite::new(Point::new(250.0, 750.0), 40.0),
            EmitterSite::new(Point::new(750.0, 250.0), 40.0),
        ];
        let job = MultilocJob::reference(&sites, 1);
        assert_eq!(job.corner, 1);
        assert_eq!(job.emitters.len(), 2);
        assert_eq!(job.emitters[0].site, sites[0]);
        assert_eq!(job.emitters[1].site, sites[1]);
    }

    // Chip-bound campaign behaviour (baseline + calibration learning,
    // worker-count invariance, corner and tuple validation) is covered
    // by the workspace integration tests.
}

//! Atlas campaigns: fan placement-sweep jobs (placements × VDD/temp
//! corners × seeds) across the engine.
//!
//! An [`AtlasJob`] is one synthetic-Trojan placement evaluated at one
//! operating corner. The campaign first learns each corner's 16-sensor
//! baseline *at that corner* (run-time baseline learning happens
//! in-situ, so a drifted supply drifts the baseline with it), one
//! engine job per corner (`CornerBaselines`), then fans the placement
//! evaluations. Every job is a pure function of its
//! description, so the collected grid of localization errors is
//! **byte-identical at any worker count** — the `localize_atlas`
//! binary's CI determinism gate `cmp`s exactly this.

use crate::campaign::Campaign;
use crate::engine::Engine;
use psa_core::atlas::{
    placement_seed, PlacementOutcome, PlacementSweep, PlacementSweepConfig, SyntheticEmitter,
};
use psa_core::chip::TestChip;
use psa_core::cross_domain::Baseline;
use psa_core::error::CoreError;
use psa_core::scenario::Scenario;
use psa_layout::emitter::EmitterSite;

/// One operating corner of the atlas: supply, temperature, and the
/// per-corner seed the baseline and every placement at this corner
/// derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasCorner {
    /// Corner label reproduced in reports.
    pub label: String,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Ambient temperature, °C.
    pub temp_c: f64,
    /// Base seed for this corner's scenarios.
    pub seed: u64,
}

impl AtlasCorner {
    /// A corner.
    pub fn new(label: impl Into<String>, vdd: f64, temp_c: f64, seed: u64) -> Self {
        AtlasCorner {
            label: label.into(),
            vdd,
            temp_c,
            seed,
        }
    }

    /// The quiet-chip scenario of this corner (what the baseline is
    /// learned from and what the emitter is superposed on).
    pub fn scenario(&self) -> Scenario {
        Scenario::baseline()
            .with_seed(self.seed)
            .with_vdd(self.vdd)
            .with_temp_c(self.temp_c)
    }
}

/// One placement evaluation: the placed emitter (which carries its
/// site) and the corner index it runs at.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasJob {
    /// Index into the campaign's corner list.
    pub corner: usize,
    /// The placed emitter; `emitter.site` is the single source of truth
    /// for the placement (seed salting and scoring both read it).
    pub emitter: SyntheticEmitter,
}

impl AtlasJob {
    /// A reference-emitter job at `site` under corner `corner`.
    pub fn reference(site: EmitterSite, corner: usize) -> Self {
        AtlasJob {
            corner,
            emitter: SyntheticEmitter::reference_at(site),
        }
    }
}

/// One finished placement: the corner it ran at plus the scored outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasOutcome {
    /// Index into the campaign's corner list.
    pub corner: usize,
    /// The placement's scored outcome.
    pub outcome: PlacementOutcome,
}

/// Each corner's learned 16-sensor baseline and its local-max
/// envelopes — the shared first stage of the atlas and joint-
/// localization campaigns.
#[derive(Debug)]
pub(crate) struct CornerBaselines {
    /// Per-corner baselines, in corner order.
    pub(crate) baselines: Vec<Baseline>,
    /// Per-corner precomputed local-max envelopes (pure functions of
    /// the baselines; computed once instead of once per placement).
    pub(crate) envelopes: Vec<Vec<Vec<f64>>>,
}

impl CornerBaselines {
    /// Learns every corner's baseline, one engine job per corner: each
    /// job runs one 16-sensor sweep
    /// ([`PlacementSweep::learn_baseline_with`]), bit-identical per
    /// sensor to acquiring that sensor alone, so the chip half of a
    /// record is simulated once per corner instead of once per sensor.
    ///
    /// # Errors
    ///
    /// The first failing corner's acquisition error.
    pub(crate) fn learn(
        campaign: &Campaign<'_>,
        sweep: &PlacementSweep<'_>,
        corners: &[AtlasCorner],
    ) -> Result<Self, CoreError> {
        let corner_idx: Vec<usize> = (0..corners.len()).collect();
        let baselines = campaign
            .run(&corner_idx, |ctx, _, &c| {
                sweep.learn_baseline_with(ctx, &corners[c].scenario())
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let envelopes = baselines
            .iter()
            .map(|b| sweep.baseline_envelopes(b))
            .collect();
        Ok(CornerBaselines {
            baselines,
            envelopes,
        })
    }
}

/// An engine-backed atlas campaign: one shared chip, per-corner learned
/// baselines, placements fanned across workers.
#[derive(Debug)]
pub struct AtlasCampaign<'c> {
    campaign: Campaign<'c>,
    sweep: PlacementSweep<'c>,
    corners: Vec<AtlasCorner>,
    learned: CornerBaselines,
}

impl<'c> AtlasCampaign<'c> {
    /// Builds the sweep and learns every corner's 16-sensor baseline in
    /// parallel (one engine job per corner).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an empty corner list or an
    /// invalid sweep configuration; acquisition errors from the
    /// baseline learning.
    pub fn new(
        chip: &'c TestChip,
        engine: Engine,
        config: PlacementSweepConfig,
        corners: Vec<AtlasCorner>,
    ) -> Result<Self, CoreError> {
        if corners.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "atlas campaign needs at least one corner",
            });
        }
        let campaign = Campaign::new(chip, engine);
        let sweep = PlacementSweep::new(chip, config)?;
        let learned = CornerBaselines::learn(&campaign, &sweep, &corners)?;
        Ok(AtlasCampaign {
            campaign,
            sweep,
            corners,
            learned,
        })
    }

    /// The corner list, in baseline order.
    pub fn corners(&self) -> &[AtlasCorner] {
        &self.corners
    }

    /// The sweep engine (for bin/geometry queries in reports).
    pub fn sweep(&self) -> &PlacementSweep<'c> {
        &self.sweep
    }

    /// A corner's learned atlas baseline.
    pub fn baseline(&self, corner: usize) -> Option<&Baseline> {
        self.learned.baselines.get(corner)
    }

    /// Evaluates every placement job, collecting outcomes in submission
    /// order. Each placement runs under an independent noise/activity
    /// realization ([`placement_seed`]: the corner seed salted with the
    /// site coordinates) — the baseline was learned under the corner's
    /// own seed, so detection is measured against genuine baseline-vs-
    /// test variance, not a replay of the identical RNG stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when a job names an unknown
    /// corner; otherwise the first failing placement's error (all jobs
    /// are still attempted).
    pub fn run(&self, jobs: &[AtlasJob]) -> Result<Vec<AtlasOutcome>, CoreError> {
        if jobs.iter().any(|j| j.corner >= self.corners.len()) {
            return Err(CoreError::InvalidParameter {
                what: "atlas job names a corner outside the campaign's corner list",
            });
        }
        self.campaign
            .run(jobs, |ctx, _, job| {
                let corner = &self.corners[job.corner];
                let scenario = corner
                    .scenario()
                    .with_seed(placement_seed(corner.seed, &job.emitter.site));
                self.sweep
                    .evaluate_enveloped_with(
                        ctx,
                        &scenario,
                        &job.emitter,
                        &self.learned.baselines[job.corner],
                        &self.learned.envelopes[job.corner],
                    )
                    .map(|outcome| AtlasOutcome {
                        corner: job.corner,
                        outcome,
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
    fn corner_scenario_applies_operating_point() {
        let c = AtlasCorner::new("hot", 1.1, 85.0, 42);
        let s = c.scenario();
        assert_eq!(s.vdd, 1.1);
        assert_eq!(s.temp_c, 85.0);
        assert_eq!(s.seed, 42);
        assert_eq!(s.trojan, None, "corner scenarios are Trojan-quiet");
    }

    #[test]
    fn reference_job_carries_its_site() {
        let site = EmitterSite::new(Point::new(250.0, 750.0), 40.0);
        let job = AtlasJob::reference(site, 2);
        assert_eq!(job.emitter.site, site);
        assert_eq!(job.corner, 2);
    }

    // Chip-bound campaign behaviour (baseline learning, worker-count
    // invariance) is covered by the workspace integration tests.
}

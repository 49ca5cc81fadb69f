//! Detector bake-off campaigns: scenario-suite × detector × seed score
//! fan-out with threshold sweeps into ROC curves.
//!
//! Table I compares detectors at their *default* operating points — one
//! threshold each, chosen by their original authors. That conflates the
//! quality of a decision statistic with the luck of its threshold. The
//! bake-off separates them: every [`Detector`] is scored (not
//! thresholded) over a suite of Trojan-active and Trojan-free
//! scenarios, and the threshold is swept over the observed score
//! distribution ([`psa_ml::roc`]) into a full ROC curve with trapezoid
//! AUC per `(detector, Trojan)` — plus a pooled all-Trojans row and the
//! TPR/FPR the default threshold actually lands at.
//!
//! Every `(detector, scenario, seed)` cell is one engine job; scores
//! are pure functions of the job description (the [`Detector`]
//! contract), so the collected score matrix — and everything derived
//! from it — is **byte-identical at any worker count**.

use crate::campaign::Campaign;
use crate::engine::Engine;
use psa_core::chip::TestChip;
use psa_core::detector::{decide, Detector};
use psa_core::error::CoreError;
use psa_core::report::Table;
use psa_core::scenario::Scenario;
use psa_gatesim::trojan::TrojanKind;
use psa_ml::roc::{roc_auc, RocPoint};

/// Base seed the per-cell seeds are derived from.
const BASE_SEED: u64 = 0xB0FF;

/// The seed of cell `(scenario_index, seed_index)` — spread so no two
/// cells (and no cell and the Table I campaign) share a noise stream.
fn cell_seed(scenario_idx: usize, seed_idx: usize) -> u64 {
    BASE_SEED
        .wrapping_add(scenario_idx as u64 * 100_000)
        .wrapping_add(seed_idx as u64 * 31)
}

/// One scored cell of the campaign matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BakeoffCell {
    /// Index into the detector roster passed to [`Bakeoff::run`].
    pub detector: usize,
    /// The active Trojan, `None` for the Trojan-free negative scenario.
    pub trojan: Option<TrojanKind>,
    /// The seed the scenario ran at.
    pub seed: u64,
    /// The detector's continuous decision statistic.
    pub score: f64,
}

/// One swept ROC curve: a detector against one Trojan (or the pooled
/// suite), with the default operating point located on it.
#[derive(Debug, Clone, PartialEq)]
pub struct RocSummary {
    /// Detector name.
    pub detector: String,
    /// Trojan label (`T1`..`T4`) or `all` for the pooled positives.
    pub trojan: String,
    /// Trapezoid area under the swept curve.
    pub auc: f64,
    /// The swept operating points, `(0,0)` to `(1,1)`.
    pub points: Vec<RocPoint>,
    /// The detector's default threshold ([`Detector::threshold`]).
    pub default_threshold: f64,
    /// True-positive rate at the default threshold.
    pub tpr_at_default: f64,
    /// False-positive rate at the default threshold.
    pub fpr_at_default: f64,
}

/// The full bake-off result: the raw score matrix and the per-cell ROC
/// summaries derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct BakeoffReport {
    /// Detector names, roster order.
    pub detectors: Vec<String>,
    /// Every scored cell, submission order.
    pub cells: Vec<BakeoffCell>,
    /// ROC summaries: for each detector, one row per Trojan plus the
    /// pooled `all` row, roster-then-Trojan order.
    pub curves: Vec<RocSummary>,
}

impl BakeoffReport {
    /// Renders the deterministic summary table (AUC and the default
    /// operating point per detector × Trojan).
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "detector".into(),
            "trojan".into(),
            "AUC".into(),
            "TPR@default".into(),
            "FPR@default".into(),
            "ROC pts".into(),
        ]);
        for c in &self.curves {
            t.row(vec![
                c.detector.clone(),
                c.trojan.clone(),
                format!("{:.3}", c.auc),
                format!("{:.2}", c.tpr_at_default),
                format!("{:.2}", c.fpr_at_default),
                c.points.len().to_string(),
            ]);
        }
        t
    }
}

/// A bake-off campaign bound to one shared chip and engine.
#[derive(Debug, Clone)]
pub struct Bakeoff<'c> {
    campaign: Campaign<'c>,
    seeds_per_scenario: usize,
}

impl<'c> Bakeoff<'c> {
    /// Binds the campaign to a shared chip, scoring
    /// `seeds_per_scenario` independent seeds per `(detector, scenario)`
    /// cell.
    pub fn new(chip: &'c TestChip, engine: Engine, seeds_per_scenario: usize) -> Self {
        Bakeoff {
            campaign: Campaign::new(chip, engine),
            seeds_per_scenario,
        }
    }

    /// Scores every `(detector, scenario, seed)` cell and sweeps the
    /// ROC curves. The scenario suite is the Trojan-free baseline plus
    /// each of the four Trojans active alone (the paper's one-at-a-time
    /// evaluation).
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's [`CoreError`] (cells are still
    /// attempted independently).
    pub fn run(&self, detectors: &[&dyn Detector]) -> Result<BakeoffReport, CoreError> {
        let scenarios: Vec<Option<TrojanKind>> = std::iter::once(None)
            .chain(TrojanKind::ALL.into_iter().map(Some))
            .collect();

        let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
        for d in 0..detectors.len() {
            for si in 0..scenarios.len() {
                for s in 0..self.seeds_per_scenario {
                    jobs.push((d, si, s));
                }
            }
        }

        let scores = self.campaign.run(&jobs, |ctx, _, &(d, si, s)| {
            let seed = cell_seed(si, s);
            let scenario = match scenarios[si] {
                Some(kind) => Scenario::trojan_active(kind),
                None => Scenario::baseline(),
            }
            .with_seed(seed);
            detectors[d].score_with(ctx, &scenario)
        });

        let mut cells = Vec::with_capacity(jobs.len());
        for (&(d, si, s), score) in jobs.iter().zip(scores) {
            cells.push(BakeoffCell {
                detector: d,
                trojan: scenarios[si],
                seed: cell_seed(si, s),
                score: score?,
            });
        }

        let curves = sweep_curves(detectors, &cells);
        Ok(BakeoffReport {
            detectors: detectors.iter().map(|d| d.name().to_string()).collect(),
            cells,
            curves,
        })
    }
}

/// Sweeps one ROC summary per `(detector, Trojan)` plus the pooled
/// `all` row, from an already-collected score matrix.
fn sweep_curves(detectors: &[&dyn Detector], cells: &[BakeoffCell]) -> Vec<RocSummary> {
    let mut curves = Vec::new();
    for (d, det) in detectors.iter().enumerate() {
        let negatives: Vec<f64> = cells
            .iter()
            .filter(|c| c.detector == d && c.trojan.is_none())
            .map(|c| c.score)
            .collect();
        let positive_sets: Vec<(String, Vec<f64>)> = TrojanKind::ALL
            .into_iter()
            .map(|kind| {
                (
                    format!("{kind:?}"),
                    cells
                        .iter()
                        .filter(|c| c.detector == d && c.trojan == Some(kind))
                        .map(|c| c.score)
                        .collect(),
                )
            })
            .chain(std::iter::once((
                "all".to_string(),
                cells
                    .iter()
                    .filter(|c| c.detector == d && c.trojan.is_some())
                    .map(|c| c.score)
                    .collect(),
            )))
            .collect();
        for (label, positives) in positive_sets {
            let (points, auc) = roc_auc(&positives, &negatives);
            let t0 = det.threshold();
            let rate = |scores: &[f64]| {
                if scores.is_empty() {
                    0.0
                } else {
                    scores.iter().filter(|&&s| decide(s, t0)).count() as f64 / scores.len() as f64
                }
            };
            curves.push(RocSummary {
                detector: det.name().to_string(),
                trojan: label,
                auc,
                points,
                default_threshold: t0,
                tpr_at_default: rate(&positives),
                fpr_at_default: rate(&negatives),
            });
        }
    }
    curves
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_are_distinct_across_the_suite() {
        let mut seen = std::collections::BTreeSet::new();
        for si in 0..5 {
            for s in 0..4 {
                assert!(seen.insert(cell_seed(si, s)));
            }
        }
    }

    #[test]
    fn sweep_groups_by_detector_and_trojan() {
        struct Fixed;
        impl Detector for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn capabilities(&self) -> psa_core::detector::Capabilities {
                psa_core::detector::Capabilities::DETECT_ONLY
            }
            fn threshold(&self) -> f64 {
                0.5
            }
            fn traces_per_score(&self) -> usize {
                1
            }
            fn score_with(
                &self,
                _: &mut psa_core::acquisition::AcqContext<'_>,
                scenario: &Scenario,
            ) -> Result<f64, CoreError> {
                Ok(if scenario.trojan.is_some() { 1.0 } else { 0.0 })
            }
        }
        let det = Fixed;
        let dets: [&dyn Detector; 1] = [&det];
        let mut cells = Vec::new();
        for (si, trojan) in std::iter::once(None)
            .chain(TrojanKind::ALL.into_iter().map(Some))
            .enumerate()
        {
            cells.push(BakeoffCell {
                detector: 0,
                trojan,
                seed: si as u64,
                score: if trojan.is_some() { 1.0 } else { 0.0 },
            });
        }
        let curves = sweep_curves(&dets, &cells);
        // Four Trojans plus the pooled row, all perfectly separated.
        assert_eq!(curves.len(), 5);
        assert!(curves.iter().all(|c| c.auc == 1.0));
        assert!(curves.iter().all(|c| c.tpr_at_default == 1.0));
        assert!(curves.iter().all(|c| c.fpr_at_default == 0.0));
        assert_eq!(curves.last().unwrap().trojan, "all");
    }
}

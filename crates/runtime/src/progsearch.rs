//! Programming-search campaigns: a deterministic beam search over
//! switch-matrix node-rectangles, fanned across the engine.
//!
//! The search starts from the 16 preset programmings, expands each
//! beam survivor's neighbourhood ([`psa_core::progsearch::neighbors`]:
//! edge nudges, translations, grow/shrink, turn changes), and measures
//! every fresh candidate's detection SNR in parallel. Three properties
//! make the result **byte-identical at any worker count**:
//!
//! 1. candidates are generated and submitted in canonical
//!    [`Ord`] order (a `BTreeSet` walk), so the job list never depends
//!    on evaluation timing;
//! 2. each candidate's evaluation seed is a pure function of
//!    `(base_seed, program)` ([`program_eval_seed`]), so its measured
//!    score is independent of which worker runs it or in which round it
//!    first appears;
//! 3. scores are collected in submission order and ranked by
//!    [`cmp_scores`], a total order (program identity breaks SNR ties).
//!
//! [`program_eval_seed`]: psa_core::progsearch::program_eval_seed
//! [`cmp_scores`]: psa_core::progsearch::cmp_scores

use crate::campaign::Campaign;
use crate::engine::Engine;
use psa_array::program::CoilProgram;
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::error::CoreError;
use psa_core::progsearch::{
    cmp_scores, detection_snr_with, eval_scenario_pair, neighbors, probe_scenario_pair,
    score_program_with, DetectionSnr, ProgramScore, ProgramSearchConfig,
};
use psa_gatesim::trojan::TrojanKind;
use std::collections::BTreeSet;

/// One search round's summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    /// Round number (1-based; round 0 is the preset seeding).
    pub round: usize,
    /// Fresh (never-before-seen) candidates measured this round.
    pub evaluated: usize,
    /// Best score after this round.
    pub best: ProgramScore,
}

/// The finished search: every preset's score, the per-round trajectory,
/// and the winning programming.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// The Trojan the search optimized against.
    pub kind: TrojanKind,
    /// Base evaluation seed.
    pub base_seed: u64,
    /// All 16 preset programmings' scores, in `PSA_sel` order.
    pub presets: Vec<ProgramScore>,
    /// Per-round trajectory (empty when `max_rounds = 0`).
    pub rounds: Vec<RoundSummary>,
    /// The best programming found (may be a preset when no custom
    /// candidate beats them).
    pub best: ProgramScore,
    /// Distinct programmings measured in total.
    pub evaluated: usize,
}

impl SearchReport {
    /// The best-scoring preset (the bar a custom programming must
    /// clear), under the ordering the search ranked by.
    pub fn best_preset(&self) -> ProgramScore {
        let mut best = self.presets[0];
        for s in &self.presets[1..] {
            if cmp_scores(s, &best).is_lt() {
                best = *s;
            }
        }
        best
    }

    /// dB gained by the searched programming over the best preset
    /// (negative when no custom candidate won).
    pub fn improvement_db(&self) -> f64 {
        self.best.snr.snr_db - self.best_preset().snr.snr_db
    }
}

/// An engine-backed programming search bound to one chip.
#[derive(Debug)]
pub struct ProgramSearch<'c> {
    campaign: Campaign<'c>,
    config: ProgramSearchConfig,
}

impl<'c> ProgramSearch<'c> {
    /// Creates a search campaign.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations
    /// ([`ProgramSearchConfig::validate`]).
    pub fn new(
        chip: &'c TestChip,
        engine: Engine,
        config: ProgramSearchConfig,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(ProgramSearch {
            campaign: Campaign::new(chip, engine),
            config,
        })
    }

    /// Measures a list of programmings in parallel (submission order).
    ///
    /// # Errors
    ///
    /// The first failing evaluation's error (synthesis of an off-lattice
    /// program, acquisition, DSP).
    pub fn evaluate(
        &self,
        kind: TrojanKind,
        base_seed: u64,
        programs: &[CoilProgram],
    ) -> Result<Vec<ProgramScore>, CoreError> {
        self.campaign
            .run(programs, |ctx, _, p| {
                let (quiet, active) = eval_scenario_pair(kind, base_seed, p);
                score_program_with(ctx, &quiet, &active, *p, &self.config)
            })
            .into_iter()
            .collect()
    }

    /// Measures the fixed-selection baselines (whole-die single coil and
    /// the commercial probes) under the identical detection-SNR
    /// statistic, in parallel.
    ///
    /// # Errors
    ///
    /// The first failing acquisition's error.
    pub fn probe_baselines(
        &self,
        kind: TrojanKind,
        base_seed: u64,
    ) -> Result<Vec<(SensorSelect, DetectionSnr)>, CoreError> {
        let selects = [
            SensorSelect::SingleCoil,
            SensorSelect::IcrHh100,
            SensorSelect::LangerLf1,
        ];
        self.campaign
            .run(&selects, |ctx, _, &select| {
                let (quiet, active) = probe_scenario_pair(kind, base_seed);
                detection_snr_with(ctx, &quiet, &active, select, &self.config)
                    .map(|snr| (select, snr))
            })
            .into_iter()
            .collect()
    }

    /// Runs the full beam search against `kind`: seed with the 16
    /// presets, then `max_rounds` rounds of neighbourhood expansion,
    /// each fresh candidate measured once under its program-derived
    /// seed. Deterministic at any worker count.
    ///
    /// # Errors
    ///
    /// The first failing evaluation's error.
    pub fn search(&self, kind: TrojanKind, base_seed: u64) -> Result<SearchReport, CoreError> {
        let lattice = self.campaign.chip().sensor_bank().lattice();
        let (rows, cols) = (lattice.rows(), lattice.cols());

        let presets: Vec<CoilProgram> =
            (0..16).map(CoilProgram::preset).collect::<Result<_, _>>()?;
        let preset_scores = self.evaluate(kind, base_seed, &presets)?;

        let mut seen: BTreeSet<CoilProgram> = presets.iter().copied().collect();
        let mut scored: Vec<ProgramScore> = preset_scores.clone();
        scored.sort_by(cmp_scores);

        let mut rounds = Vec::new();
        for round in 1..=self.config.max_rounds {
            // Expand the beam's neighbourhoods; BTreeSet gives the
            // fresh candidates in canonical order regardless of which
            // beam member contributed them.
            let beam = &scored[..self.config.beam_width.min(scored.len())];
            let mut fresh: BTreeSet<CoilProgram> = BTreeSet::new();
            for s in beam {
                for q in neighbors(&s.program, rows, cols, &self.config) {
                    if !seen.contains(&q) {
                        fresh.insert(q);
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            let fresh: Vec<CoilProgram> = fresh.into_iter().collect();
            let fresh_scores = self.evaluate(kind, base_seed, &fresh)?;
            seen.extend(fresh.iter().copied());
            scored.extend(fresh_scores);
            scored.sort_by(cmp_scores);
            rounds.push(RoundSummary {
                round,
                evaluated: fresh.len(),
                best: scored[0],
            });
        }

        Ok(SearchReport {
            kind,
            base_seed,
            presets: preset_scores,
            rounds,
            best: scored[0],
            evaluated: seen.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_rejects_invalid_config() {
        // Construction must not need a chip build to reject a bad
        // config — validate runs first. (Chip-bound search behaviour is
        // covered by the workspace integration tests.)
        let bad = ProgramSearchConfig {
            beam_width: 0,
            ..ProgramSearchConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(ProgramSearchConfig::default().validate().is_ok());
    }

    #[test]
    fn report_ranks_presets_by_snr() {
        let p = |sel: u8| CoilProgram::preset(sel).unwrap();
        let score = |sel: u8, snr: f64, k: Option<usize>| ProgramScore {
            program: p(sel),
            snr: DetectionSnr {
                snr_db: snr,
                records_to_detect: k,
            },
        };
        let report = SearchReport {
            kind: TrojanKind::T3,
            base_seed: 1,
            presets: vec![
                score(0, 3.0, None),
                score(10, 21.0, Some(2)),
                score(5, 11.0, Some(1)),
            ],
            rounds: Vec::new(),
            best: score(10, 25.5, Some(1)),
            evaluated: 3,
        };
        assert_eq!(report.best_preset().program, p(10));
        assert!((report.improvement_db() - 4.5).abs() < 1e-12);
    }
}

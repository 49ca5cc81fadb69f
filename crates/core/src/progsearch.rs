//! SNR-driven programming search over the switch-matrix lattice.
//!
//! The paper's headline claim is *programmability*: the lattice can
//! realize arbitrary coil geometries, not just the 16 presets behind
//! `PSA_sel`. This module makes that capability searchable: given a
//! Trojan region, it scores candidate
//! [`CoilProgram`]s by their measured
//! **detection SNR** — the dB excess of the Trojan's emergent sideband
//! over the candidate's own quiet-chip baseline envelope, the exact
//! statistic the cross-domain detector thresholds — and provides the
//! deterministic primitives (neighbourhood generation, per-program
//! evaluation seeds, score ordering) the beam search in
//! `psa_runtime::progsearch` fans across the campaign engine.
//!
//! Everything here is a pure function of its arguments: evaluation
//! seeds derive from the program bits ([`program_eval_seed`]), candidate
//! neighbourhoods are generated in canonical [`Ord`] order, and score
//! comparisons break ties through the programs' derived ordering — so a
//! search's outcome is byte-identical at any worker count.

use crate::acquisition::{AcqContext, TraceSet};
use crate::calib;
use crate::chip::SensorSelect;
use crate::error::CoreError;
use crate::scenario::Scenario;
use psa_array::program::CoilProgram;
use psa_dsp::peak;
use psa_gatesim::trojan::TrojanKind;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Configuration of the programming search. Candidates keep
/// [`TURNS_MIN`]..=[`TURNS_MAX`] turns and are scored by their
/// detection SNR in the 48 MHz sideband band, at
/// [`calib::DETECTION_THRESHOLD_DB`] over the quiet baseline's
/// [`calib::ENVELOPE_HALF_WINDOW`] envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSearchConfig {
    /// Records acquired per side (quiet baseline and Trojan-active) per
    /// candidate evaluation.
    pub records_per_eval: usize,
    /// Record length in clock cycles (search default 2048, like the
    /// atlas: coarse enough to keep hundreds of evaluations tractable,
    /// fine enough that the sidebands clear the floor).
    pub record_cycles: usize,
    /// Node step for neighbourhood moves (edge nudges and translations).
    pub step: usize,
    /// Beam width: survivors kept per round.
    pub beam_width: usize,
    /// Maximum search rounds (each round expands the beam's
    /// neighbourhoods).
    pub max_rounds: usize,
}

impl Default for ProgramSearchConfig {
    fn default() -> Self {
        ProgramSearchConfig {
            records_per_eval: 2,
            record_cycles: 2048,
            step: 2,
            beam_width: 4,
            max_rounds: 4,
        }
    }
}

/// Smallest turn count candidates may use.
pub const TURNS_MIN: usize = 2;

/// Largest turn count candidates may use.
pub const TURNS_MAX: usize = 8;

/// Centre of the scored emergent-line band, Hz (the 48 MHz sideband
/// family).
const LINE_HZ: f64 = 48.0e6;

/// Half-width of the scored band, Hz.
const BAND_HALF_HZ: f64 = 5.0e6;

impl ProgramSearchConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for zero counts.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.records_per_eval == 0 {
            return Err(CoreError::InvalidParameter {
                what: "program search needs at least one record per evaluation",
            });
        }
        if self.record_cycles == 0 {
            return Err(CoreError::InvalidParameter {
                what: "program search record length must be at least one cycle",
            });
        }
        if self.step == 0 {
            return Err(CoreError::InvalidParameter {
                what: "program search step must be at least one node",
            });
        }
        if self.beam_width == 0 {
            return Err(CoreError::InvalidParameter {
                what: "program search beam must keep at least one candidate",
            });
        }
        Ok(())
    }

    /// `(lo, hi)` inclusive full-resolution bin range of the scored band
    /// for this configuration's record length.
    pub fn band_bins(&self) -> (usize, usize) {
        let n = self.record_cycles * calib::SAMPLES_PER_CYCLE;
        let fs = calib::sample_rate_hz();
        let lo = psa_dsp::fft::freq_bin((LINE_HZ - BAND_HALF_HZ).max(0.0), n, fs);
        let hi = psa_dsp::fft::freq_bin(LINE_HZ + BAND_HALF_HZ, n, fs);
        (lo.min(hi), lo.max(hi))
    }
}

/// The measured detection statistic of one sensing selection against
/// one Trojan scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionSnr {
    /// Peak excess of the active spectrum over the quiet baseline
    /// envelope within the scored band, dB — the quantity the
    /// cross-domain detector thresholds.
    pub snr_db: f64,
    /// Fewest averaged records whose spectrum crosses the threshold
    /// (`None` when even the full evaluation budget stays below it).
    pub records_to_detect: Option<usize>,
}

/// Measures the detection SNR of any sensing selection: quiet-chip
/// baseline envelope vs Trojan-active spectrum, scored over the
/// configured sideband band. This is the search's objective function,
/// and — because it takes a plain [`SensorSelect`] — also how the bench
/// compares searched programmings against the commercial-probe
/// baselines under the identical metric.
///
/// # Errors
///
/// Propagates acquisition/DSP errors; invalid configurations are
/// rejected up front.
pub fn detection_snr_with(
    ctx: &mut AcqContext<'_>,
    quiet: &Scenario,
    active: &Scenario,
    select: SensorSelect,
    config: &ProgramSearchConfig,
) -> Result<DetectionSnr, CoreError> {
    config.validate()?;
    let mut traces = TraceSet::default();
    ctx.acquire_len_into(
        quiet,
        select,
        config.records_per_eval,
        config.record_cycles,
        &mut traces,
    )?;
    let quiet_spec = ctx.fullres_spectrum_db(&traces)?;
    let envelope = peak::local_max_envelope(&quiet_spec, calib::ENVELOPE_HALF_WINDOW);

    ctx.acquire_len_into(
        active,
        select,
        config.records_per_eval,
        config.record_cycles,
        &mut traces,
    )?;
    let (lo, hi) = config.band_bins();
    let band_excess = |spec: &[f64]| {
        let hi = hi
            .min(spec.len().saturating_sub(1))
            .min(envelope.len().saturating_sub(1));
        (lo..=hi)
            .map(|k| spec[k] - envelope[k])
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let spec = ctx.fullres_spectrum_db(&traces)?;
    let snr_db = band_excess(&spec);

    // MTTD proxy: the fewest leading records whose averaged spectrum
    // already crosses the threshold (record order is acquisition order,
    // so this is the streaming monitor's warm-fill trajectory).
    let mut records_to_detect = None;
    let mut prefix = TraceSet {
        records: Vec::new(),
        fs_hz: traces.fs_hz,
        sensor: traces.sensor,
    };
    for k in 1..=traces.records.len() {
        let excess = if k == traces.records.len() {
            snr_db
        } else {
            prefix.records.push(traces.records[k - 1].clone());
            band_excess(&ctx.fullres_spectrum_db(&prefix)?)
        };
        if excess >= calib::DETECTION_THRESHOLD_DB {
            records_to_detect = Some(k);
            break;
        }
    }
    Ok(DetectionSnr {
        snr_db,
        records_to_detect,
    })
}

/// One scored candidate programming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramScore {
    /// The candidate.
    pub program: CoilProgram,
    /// Its measured [`DetectionSnr`].
    pub snr: DetectionSnr,
}

/// Scores one candidate programming: [`detection_snr_with`] on
/// `SensorSelect::Custom(program)`.
///
/// # Errors
///
/// Propagates synthesis errors for off-lattice programs and
/// acquisition/DSP errors.
pub fn score_program_with(
    ctx: &mut AcqContext<'_>,
    quiet: &Scenario,
    active: &Scenario,
    program: CoilProgram,
    config: &ProgramSearchConfig,
) -> Result<ProgramScore, CoreError> {
    let snr = detection_snr_with(ctx, quiet, active, SensorSelect::Custom(program), config)?;
    Ok(ProgramScore { program, snr })
}

/// Canonical score ordering: `Less` means `a` ranks **better** than
/// `b` — higher detection SNR first. Ties always break through the
/// programs' derived [`Ord`], so a full sort is deterministic regardless
/// of evaluation order.
pub fn cmp_scores(a: &ProgramScore, b: &ProgramScore) -> Ordering {
    b.snr
        .snr_db
        .total_cmp(&a.snr.snr_db)
        .then(a.program.cmp(&b.program))
}

/// The per-program evaluation seed: `base` mixed with the program's
/// geometry through SplitMix64. Pure in `(base, program)`, so every
/// candidate is measured under its own independent noise/activity
/// realization regardless of which worker evaluates it or in which
/// round it first appears — the determinism the byte-compare CI gate
/// checks.
pub fn program_eval_seed(base: u64, program: &CoilProgram) -> u64 {
    let (r0, c0, r1, c1) = program.node_rect();
    let geom = (r0 as u64)
        | (c0 as u64) << 8
        | (r1 as u64) << 16
        | (c1 as u64) << 24
        | (program.turns() as u64) << 32;
    psa_dsp::rng::splitmix64(base ^ geom.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The `(quiet, active)` scenario pair a candidate is evaluated under:
/// the Trojan dormant vs active, both seeded purely from
/// `(kind, base_seed, program)`. The quiet side uses a distinct derived
/// seed so the baseline envelope is never a replay of the active run's
/// RNG stream — detection SNR is measured, not manufactured.
pub fn eval_scenario_pair(
    kind: TrojanKind,
    base_seed: u64,
    program: &CoilProgram,
) -> (Scenario, Scenario) {
    pair_from_seed(
        kind,
        program_eval_seed(base_seed ^ (kind.index() as u64) << 56, program),
    )
}

/// The `(quiet, active)` pair for a *fixed* (non-programmable) sensing
/// selection — how the probe baselines (single coil, commercial probes)
/// are measured under the identical statistic as searched programmings.
/// Pure in `(kind, base_seed)`, with the same quiet/active seed
/// separation as [`eval_scenario_pair`].
pub fn probe_scenario_pair(kind: TrojanKind, base_seed: u64) -> (Scenario, Scenario) {
    pair_from_seed(
        kind,
        psa_dsp::rng::splitmix64(base_seed ^ (kind.index() as u64) << 56 ^ 0xB10B),
    )
}

fn pair_from_seed(kind: TrojanKind, seed: u64) -> (Scenario, Scenario) {
    let quiet = Scenario::baseline().with_seed(psa_dsp::rng::splitmix64(seed ^ 0x5157_1E55));
    let active = Scenario::trojan_active(kind).with_seed(seed);
    (quiet, active)
}

/// The candidate neighbourhood of a programming: single-edge nudges,
/// whole-rectangle translations, symmetric grow/shrink, and turn-count
/// changes, each by `config.step` nodes (turns by one), filtered to the
/// `rows × cols` lattice and the [`TURNS_MIN`]..=[`TURNS_MAX`] range. Returned
/// deduplicated in canonical [`Ord`] order and never containing
/// `program` itself — the deterministic expansion step of the beam
/// search.
pub fn neighbors(
    program: &CoilProgram,
    rows: usize,
    cols: usize,
    config: &ProgramSearchConfig,
) -> Vec<CoilProgram> {
    let (r0, c0, r1, c1) = program.node_rect();
    let turns = program.turns();
    let s = config.step as i64;
    let (r0, c0, r1, c1) = (r0 as i64, c0 as i64, r1 as i64, c1 as i64);
    let mut moves: Vec<(i64, i64, i64, i64, i64)> = Vec::new();
    let t = turns as i64;
    for d in [-s, s] {
        // Single-edge nudges.
        moves.push((r0 + d, c0, r1, c1, t));
        moves.push((r0, c0 + d, r1, c1, t));
        moves.push((r0, c0, r1 + d, c1, t));
        moves.push((r0, c0, r1, c1 + d, t));
        // Whole-rectangle translations.
        moves.push((r0 + d, c0, r1 + d, c1, t));
        moves.push((r0, c0 + d, r1, c1 + d, t));
        // Symmetric grow/shrink.
        moves.push((r0 - d, c0 - d, r1 + d, c1 + d, t));
    }
    for dt in [-1i64, 1] {
        moves.push((r0, c0, r1, c1, t + dt));
    }

    let mut out = BTreeSet::new();
    for (nr0, nc0, nr1, nc1, nt) in moves {
        if nt < TURNS_MIN as i64 || nt > TURNS_MAX as i64 {
            continue;
        }
        // Bound every corner coordinate, not just the nominal maxima:
        // a step larger than the rectangle's extent can push a corner
        // *past* its opposite, and CoilProgram::new would normalize
        // the swap — so an unchecked nr0/nc0 could become the
        // off-lattice maximum after normalization.
        let on_lattice = |r: i64, c: i64| r >= 0 && c >= 0 && r < rows as i64 && c < cols as i64;
        if !on_lattice(nr0, nc0) || !on_lattice(nr1, nc1) {
            continue;
        }
        if let Ok(p) = CoilProgram::new(
            nr0 as usize,
            nc0 as usize,
            nr1 as usize,
            nc1 as usize,
            nt as usize,
        ) {
            if &p != program {
                out.insert(p);
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = ProgramSearchConfig::default();
        c.validate().unwrap();
        assert!(c.record_cycles.is_power_of_two());
        let (lo, hi) = c.band_bins();
        assert!(lo < hi);
    }

    #[test]
    fn config_validation_rejects_degenerates() {
        let base = ProgramSearchConfig::default();
        for bad in [
            ProgramSearchConfig {
                records_per_eval: 0,
                ..base.clone()
            },
            ProgramSearchConfig {
                record_cycles: 0,
                ..base.clone()
            },
            ProgramSearchConfig {
                step: 0,
                ..base.clone()
            },
            ProgramSearchConfig {
                beam_width: 0,
                ..base.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn eval_seed_is_pure_and_program_sensitive() {
        let a = CoilProgram::new(0, 0, 12, 12, 6).unwrap();
        let b = CoilProgram::new(0, 0, 12, 12, 5).unwrap();
        let c = CoilProgram::new(0, 1, 12, 13, 6).unwrap();
        assert_eq!(program_eval_seed(7, &a), program_eval_seed(7, &a));
        assert_ne!(program_eval_seed(7, &a), program_eval_seed(7, &b));
        assert_ne!(program_eval_seed(7, &a), program_eval_seed(7, &c));
        assert_ne!(program_eval_seed(7, &a), program_eval_seed(8, &a));
    }

    #[test]
    fn scenario_pair_separates_quiet_and_active() {
        let p = CoilProgram::new(8, 8, 20, 20, 4).unwrap();
        let (quiet, active) = eval_scenario_pair(TrojanKind::T3, 42, &p);
        assert!(quiet.trojan.is_none());
        assert_eq!(active.trojan, Some(TrojanKind::T3));
        // Independent realizations — the baseline must not replay the
        // active run's stream.
        assert_ne!(quiet.seed, active.seed);
        // Different Trojans get different evaluation streams.
        let (_, active_t1) = eval_scenario_pair(TrojanKind::T1, 42, &p);
        assert_ne!(active.seed, active_t1.seed);
    }

    #[test]
    fn neighbors_are_valid_deduped_and_sorted() {
        let cfg = ProgramSearchConfig::default();
        // Extent 16 leaves slack for the +1-turn move (7 turns need 14).
        let p = CoilProgram::new(8, 8, 24, 24, 6).unwrap();
        let n = neighbors(&p, 36, 36, &cfg);
        assert!(!n.is_empty());
        assert!(!n.contains(&p), "a program is not its own neighbour");
        for (w, q) in n.iter().zip(n.iter().skip(1)) {
            assert!(w < q, "sorted and deduplicated");
        }
        for q in &n {
            let (r0, c0, r1, c1) = q.node_rect();
            assert!(r1 < 36 && c1 < 36, "{q}");
            assert!(r0 < r1 && c0 < c1);
            assert!((TURNS_MIN..=TURNS_MAX).contains(&q.turns()));
        }
        // Both turn moves present around an interior turn count.
        assert!(n.iter().any(|q| q.turns() == 5));
        assert!(n.iter().any(|q| q.turns() == 7));
    }

    #[test]
    fn neighbors_respect_lattice_and_turn_bounds() {
        let cfg = ProgramSearchConfig::default();
        // A corner-hugging program: no move may escape the lattice.
        let p = CoilProgram::new(0, 0, 4, 4, 2).unwrap();
        for q in neighbors(&p, 36, 36, &cfg) {
            let (_, _, r1, c1) = q.node_rect();
            assert!(r1 < 36 && c1 < 36);
            assert!(q.turns() >= TURNS_MIN);
        }
        // At the minimum turn count, no neighbour goes below it.
        let small = CoilProgram::new(0, 0, 8, 8, 2).unwrap();
        assert!(neighbors(&small, 36, 36, &cfg)
            .iter()
            .all(|q| q.turns() >= 2));
    }

    #[test]
    fn neighbors_survive_corner_overshoot_normalization() {
        // Regression: a step larger than the rectangle's extent pushes
        // a nudged corner past its opposite; CoilProgram::new swaps
        // them back, so an unchecked low corner could become an
        // off-lattice maximum after normalization — and abort the
        // whole search at synthesis. Every survivor must stay on the
        // lattice.
        let cfg = ProgramSearchConfig {
            step: 10,
            ..ProgramSearchConfig::default()
        };
        let p = CoilProgram::new(30, 0, 34, 6, 2).unwrap();
        let n = neighbors(&p, 36, 36, &cfg);
        for q in &n {
            let (r0, c0, r1, c1) = q.node_rect();
            assert!(r0 < 36 && c0 < 36 && r1 < 36 && c1 < 36, "{q}");
        }
    }

    #[test]
    fn score_ordering_is_deterministic() {
        let pa = CoilProgram::new(0, 0, 12, 12, 6).unwrap();
        let pb = CoilProgram::new(0, 8, 12, 20, 6).unwrap();
        let s = |p, snr, k| ProgramScore {
            program: p,
            snr: DetectionSnr {
                snr_db: snr,
                records_to_detect: k,
            },
        };
        // Higher SNR first, even over fewer records to detect.
        assert_eq!(
            cmp_scores(&s(pa, 20.0, Some(2)), &s(pb, 10.0, Some(1))),
            Ordering::Less
        );
        // Equal SNR: canonical program order breaks the tie.
        assert_eq!(
            cmp_scores(&s(pa, 15.0, None), &s(pb, 15.0, None)),
            Ordering::Less
        );
    }

    // Chip-bound scoring (detection_snr_with, score_program_with) is
    // covered by the workspace integration tests, which share the
    // expensive chip build.
}

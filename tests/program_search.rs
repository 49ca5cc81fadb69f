//! Integration: the SNR-driven programming search — chip-bound
//! detection-SNR scoring of custom programmings, the Custom ≡ Psa
//! score equivalence, and the engine-level invariants: a search's
//! report is identical at any worker count and its winner clears the
//! preset bar.

use psa_repro::array::program::CoilProgram;
use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::calib;
use psa_repro::core::chip::{SensorSelect, TestChip};
use psa_repro::core::progsearch::{
    detection_snr_with, eval_scenario_pair, probe_scenario_pair, score_program_with,
    ProgramSearchConfig,
};
use psa_repro::gatesim::trojan::TrojanKind;
use psa_repro::runtime::{Engine, ProgramSearch};
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

/// A reduced evaluation budget: one record per side and short records
/// keep each candidate cheap while the sidebands stay far above the
/// baseline envelope.
fn fast_config() -> ProgramSearchConfig {
    ProgramSearchConfig {
        records_per_eval: 1,
        record_cycles: 1024,
        max_rounds: 1,
        beam_width: 2,
        ..ProgramSearchConfig::default()
    }
}

#[test]
fn detection_snr_separates_covering_from_far_sensor() {
    // The search objective must be physically meaningful: the preset
    // covering the Trojan quarter scores far above the opposite-corner
    // preset, and an active Trojan scores above threshold on the
    // covering sensor.
    let config = fast_config();
    let covering = CoilProgram::preset(10).unwrap();
    let (quiet, active) = eval_scenario_pair(TrojanKind::T1, 7, &covering);
    let mut ctx = AcqContext::new(chip());
    let near = detection_snr_with(
        &mut ctx,
        &quiet,
        &active,
        SensorSelect::Custom(covering),
        &config,
    )
    .expect("covering evaluation runs");
    assert!(
        near.snr_db > calib::DETECTION_THRESHOLD_DB,
        "near snr {}",
        near.snr_db
    );
    assert_eq!(near.records_to_detect, Some(1));

    let far = CoilProgram::preset(3).unwrap();
    let (quiet, active) = eval_scenario_pair(TrojanKind::T1, 7, &far);
    let far_snr = detection_snr_with(
        &mut ctx,
        &quiet,
        &active,
        SensorSelect::Custom(far),
        &config,
    )
    .expect("far evaluation runs");
    assert!(
        near.snr_db > far_snr.snr_db + 6.0,
        "covering {} vs far {}",
        near.snr_db,
        far_snr.snr_db
    );
}

#[test]
fn custom_preset_scores_bitwise_like_psa_selection() {
    // The chip-level Custom(preset-shaped) ≡ Psa(i) equivalence must
    // survive the whole scoring pipeline: same scenarios, same traces,
    // same measured statistic to the bit.
    let config = fast_config();
    let program = CoilProgram::preset(10).unwrap();
    let (quiet, active) = eval_scenario_pair(TrojanKind::T3, 11, &program);
    let mut ctx = AcqContext::new(chip());
    let via_custom = score_program_with(&mut ctx, &quiet, &active, program, &config)
        .expect("custom evaluation runs");
    let via_psa = detection_snr_with(&mut ctx, &quiet, &active, SensorSelect::Psa(10), &config)
        .expect("preset evaluation runs");
    assert_eq!(via_custom.snr.snr_db.to_bits(), via_psa.snr_db.to_bits());
    assert_eq!(via_custom.snr.records_to_detect, via_psa.records_to_detect);
}

#[test]
fn invalid_custom_programming_errors_cleanly() {
    let config = fast_config();
    let off = CoilProgram::new(30, 30, 40, 40, 2).unwrap();
    let (quiet, active) = eval_scenario_pair(TrojanKind::T1, 3, &off);
    let mut ctx = AcqContext::new(chip());
    assert!(score_program_with(&mut ctx, &quiet, &active, off, &config).is_err());
}

#[test]
fn search_is_worker_count_invariant_and_beats_presets() {
    // The headline invariants in one (expensive) pass: the full search
    // report — preset scores, round trajectory, winner — is identical
    // at 1 and 2 workers, and the searched winner is at least as good
    // as every preset under the objective.
    let config = fast_config();
    let serial = ProgramSearch::new(chip(), Engine::new(1), config.clone())
        .expect("search builds")
        .search(TrojanKind::T3, 0x5EA6)
        .expect("serial search runs");
    let parallel = ProgramSearch::new(chip(), Engine::new(2), config.clone())
        .expect("search builds")
        .search(TrojanKind::T3, 0x5EA6)
        .expect("parallel search runs");
    assert_eq!(serial, parallel);

    assert_eq!(serial.presets.len(), 16);
    let best_preset = serial.best_preset();
    assert!(
        serial.best.snr.snr_db >= best_preset.snr.snr_db,
        "winner {} vs preset {}",
        serial.best.snr.snr_db,
        best_preset.snr.snr_db
    );
    assert!(serial.improvement_db() >= 0.0);
    // The search actually explored beyond the 16 seeds.
    assert!(serial.evaluated > 16);
    assert_eq!(serial.rounds.len(), 1);
}

#[test]
fn probe_baselines_score_under_the_same_statistic() {
    let config = fast_config();
    let search = ProgramSearch::new(chip(), Engine::new(2), config.clone()).expect("search builds");
    let probes = search
        .probe_baselines(TrojanKind::T1, 0x5EA6)
        .expect("probe baselines run");
    assert_eq!(probes.len(), 3);
    assert_eq!(probes[0].0, SensorSelect::SingleCoil);
    // The probe pair is independent of any programming but still uses
    // the quiet/active seed separation.
    let (quiet, active) = probe_scenario_pair(TrojanKind::T1, 0x5EA6);
    assert!(quiet.trojan.is_none());
    assert_eq!(active.trojan, Some(TrojanKind::T1));
    assert_ne!(quiet.seed, active.seed);
    // Same inputs, same statistic: re-measuring one probe serially
    // reproduces the campaign's value bit for bit.
    let mut ctx = AcqContext::new(chip());
    let again = detection_snr_with(&mut ctx, &quiet, &active, SensorSelect::SingleCoil, &config)
        .expect("probe evaluation runs");
    assert_eq!(again.snr_db.to_bits(), probes[0].1.snr_db.to_bits());
}

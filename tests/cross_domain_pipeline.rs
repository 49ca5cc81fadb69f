//! End-to-end integration: the full cross-domain pipeline on the
//! assembled chip — detection, localization, identification, and the
//! no-Trojan control, spanning every workspace crate.

use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::calib;
use psa_repro::core::chip::TestChip;
use psa_repro::core::cross_domain::{AnalyzerConfig, Baseline, CrossDomainAnalyzer, Verdict};
use psa_repro::core::detector::{CrossDomainDetector, Detector, ScoredDetector};
use psa_repro::core::identify::TemplateLibrary;
use psa_repro::core::scenario::Scenario;
use psa_repro::core::CoreError;
use psa_repro::gatesim::trojan::TrojanKind;
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

/// One analyzer for every test: its template library costs eight
/// signature acquisitions.
fn analyzer() -> &'static CrossDomainAnalyzer {
    static ANALYZER: OnceLock<CrossDomainAnalyzer> = OnceLock::new();
    ANALYZER.get_or_init(|| CrossDomainAnalyzer::new(chip()).unwrap())
}

fn baseline() -> &'static Baseline {
    static BASE: OnceLock<Baseline> = OnceLock::new();
    BASE.get_or_init(|| Baseline::learn_with(analyzer().config(), &mut AcqContext::new(chip()), 42))
}

/// The full pipeline on `scenario` against the shared baseline, on a
/// fresh context.
fn analyze(scenario: &Scenario) -> Verdict {
    analyzer()
        .analyze_with(&mut AcqContext::new(chip()), scenario, baseline())
        .expect("analysis runs")
}

#[test]
fn control_run_stays_quiet() {
    let verdict = analyze(&Scenario::baseline().with_seed(777));
    assert!(!verdict.detected, "false positive on the control run");
    assert_eq!(verdict.localized_sensor, None);
    assert_eq!(verdict.identified, None);
}

#[test]
fn t4_detected_localized_identified() {
    let verdict = analyze(&Scenario::trojan_active(TrojanKind::T4).with_seed(104));
    assert!(verdict.detected);
    assert_eq!(verdict.localized_sensor, Some(10), "paper: sensor 10");
    assert_eq!(verdict.identified, Some(TrojanKind::T4));
    // The prominent component is the 48 MHz sideband family line.
    let f = verdict.prominent_freq_hz.expect("component found");
    assert!((f - 48.0e6).abs() < 1.0e6, "prominent at {f} Hz");
    // Detection cost matches the paper: fewer than ten traces per sensor.
    assert!(verdict.traces_per_sensor < 10);
}

#[test]
fn small_trojan_t3_detected_and_localized() {
    // T3 is 1.14 % of the chip — the Trojan the baselines miss.
    let verdict = analyze(&Scenario::trojan_active(TrojanKind::T3).with_seed(103));
    assert!(verdict.detected, "PSA must catch the small Trojan");
    assert_eq!(verdict.localized_sensor, Some(10));
    assert_eq!(verdict.identified, Some(TrojanKind::T3));
}

#[test]
fn t1_and_t2_verdicts() {
    for (kind, seed) in [(TrojanKind::T1, 101u64), (TrojanKind::T2, 102)] {
        let verdict = analyze(&Scenario::trojan_active(kind).with_seed(seed));
        assert!(verdict.detected, "{kind} not detected");
        assert_eq!(verdict.localized_sensor, Some(10), "{kind} mislocalized");
        assert_eq!(verdict.identified, Some(kind), "{kind} misidentified");
    }
}

#[test]
fn localized_region_contains_the_trojan() {
    let verdict = analyze(&Scenario::trojan_active(TrojanKind::T4).with_seed(200));
    let region = verdict.localized_region.expect("region reported");
    let t4 = chip()
        .floorplan()
        .module(psa_repro::layout::floorplan::ModuleKind::TrojanT4)
        .expect("T4 placed");
    assert!(
        region.intersects(&t4.region),
        "localized region {region} misses T4 at {}",
        t4.region
    );
}

#[test]
fn concurrent_trojans_still_detected_and_localized() {
    // Extension beyond the paper's one-at-a-time evaluation: T1 and T4
    // active together. Both sit under sensor 10; the monitor must still
    // detect and localize (identification may report either culprit).
    let scenario = Scenario {
        extra_trojans: vec![TrojanKind::T4],
        ..Scenario::trojan_active(TrojanKind::T1)
    }
    .with_seed(400);
    let verdict = analyze(&scenario);
    assert!(verdict.detected);
    assert_eq!(verdict.localized_sensor, Some(10));
    let f = verdict.prominent_freq_hz.expect("component found");
    assert!((f - 48.0e6).abs() < 1.0e6);
    assert!(verdict.identified.is_some());
}

#[test]
fn ranking_contrast_sensor10_vs_sensor0() {
    // The Fig 4 contrast, end to end: sensor 10's anomaly amplitude beats
    // the empty corner's by a wide margin.
    let verdict = analyze(&Scenario::trojan_active(TrojanKind::T1).with_seed(300));
    let amp_of = |sensor: usize| {
        verdict
            .ranking
            .iter()
            .find(|a| a.sensor == sensor)
            .map(|a| a.amplitude_v)
            .expect("sensor in ranking")
    };
    assert!(amp_of(10) > 3.0 * amp_of(0), "insufficient contrast");
}

#[test]
fn baselines_of_another_record_length_are_rejected() {
    // A baseline swept at 2048 cycles holds 8 193 bins per sensor, not
    // the 32 769 of a full-resolution sweep: bin k of the two is two
    // different frequencies. Every decision path must refuse it before
    // acquiring a record. The baseline and the templates are built
    // directly, so nothing is acquired.
    let bins = psa_repro::dsp::fft::one_sided_len(2048 * calib::SAMPLES_PER_CYCLE);
    let short = Baseline {
        per_sensor_db: vec![vec![-120.0; bins]; chip().sensor_bank().len()],
    };
    let templates = TemplateLibrary::from_samples(
        vec![vec![0.75, 25.0], vec![0.74, 24.0]],
        vec![TrojanKind::T1, TrojanKind::T1],
    )
    .unwrap();
    let detector =
        CrossDomainDetector::with_baseline_and_templates(short.clone(), templates.clone());
    let analyzer = CrossDomainAnalyzer::with_templates(AnalyzerConfig::default(), templates);
    let scenario = Scenario::baseline().with_seed(777);
    let mut ctx = AcqContext::new(chip());
    assert!(matches!(
        detector.score_with(&mut ctx, &scenario),
        Err(CoreError::InvalidParameter { .. })
    ));
    assert!(matches!(
        detector.detect_with(&mut ctx, &scenario),
        Err(CoreError::InvalidParameter { .. })
    ));
    assert!(matches!(
        analyzer.analyze_with(&mut ctx, &scenario, &short),
        Err(CoreError::InvalidParameter { .. })
    ));
}

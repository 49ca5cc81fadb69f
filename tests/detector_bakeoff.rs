//! Detector API and bake-off campaign integration: the score/decide
//! split must reproduce the historical verdicts bit for bit, and the
//! swept ROC report must be byte-identical at any worker count.

use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::chip::TestChip;
use psa_repro::core::detector::{
    decide, BackscatterDetector, CrossDomainDetector, Detector, EuclideanDetector,
    SpectralKurtosisDetector,
};
use psa_repro::core::error::CoreError;
use psa_repro::core::scenario::Scenario;
use psa_repro::gatesim::trojan::TrojanKind;
use psa_repro::runtime::{Bakeoff, Engine};
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

/// A cheap roster for campaign-shape tests (full budgets are the bench
/// binary's job).
fn cheap_roster() -> (EuclideanDetector, BackscatterDetector) {
    (
        EuclideanDetector::single_coil(3),
        BackscatterDetector::new(4),
    )
}

/// The decide/score split must pin the historical decision rule: for
/// every backend, `detect_with` returns exactly
/// `decide(score, threshold)` with the score and threshold it reports.
#[test]
fn outcomes_carry_their_own_evidence() {
    let (euclid, backscatter) = cheap_roster();
    let kurtosis = SpectralKurtosisDetector::new(1);
    let dets: [&dyn Detector; 3] = [&euclid, &backscatter, &kurtosis];
    let mut ctx = AcqContext::new(chip());
    for det in dets {
        for scenario in [
            Scenario::baseline().with_seed(4100),
            Scenario::trojan_active(TrojanKind::T4).with_seed(4200),
        ] {
            let out = det.detect_with(&mut ctx, &scenario).expect("detector runs");
            assert_eq!(
                out.detected,
                decide(out.score, out.threshold),
                "{}: detected must equal decide(score, threshold)",
                det.name()
            );
            assert_eq!(
                out.threshold.to_bits(),
                det.threshold().to_bits(),
                "{}: outcome must carry the default threshold",
                det.name()
            );
            assert_eq!(out.traces_used, det.traces_per_score(), "{}", det.name());
        }
    }
}

/// A zero trace budget is rejected before anything is acquired (the
/// PCA fit would otherwise index an empty feature set).
#[test]
fn backscatter_rejects_a_zero_trace_budget() {
    let mut ctx = AcqContext::new(chip());
    let result = BackscatterDetector::new(0).score_with(&mut ctx, &Scenario::baseline());
    assert!(matches!(result, Err(CoreError::InvalidParameter { .. })));
}

/// The Euclidean studentized-shift score must reproduce the historical
/// `test_mu > ref_mu + k·sigma` decision at the default config — the
/// old-vs-new regression pin for the threshold lift (the Table I
/// byte-compare in CI covers the cross-domain and backscatter rows at
/// full budgets).
#[test]
fn euclidean_score_reproduces_historical_decisions() {
    let det = EuclideanDetector::single_coil(4);
    let mut ctx = AcqContext::new(chip());
    for (kind, seed) in [
        (None, 5001u64),
        (Some(TrojanKind::T1), 5002),
        (Some(TrojanKind::T4), 5003),
    ] {
        let scenario = match kind {
            Some(k) => Scenario::trojan_active(k),
            None => Scenario::baseline(),
        }
        .with_seed(seed);
        let score = det.score_with(&mut ctx, &scenario).expect("score runs");
        let out = det.detect_with(&mut ctx, &scenario).expect("detector runs");
        // Pure in the scenario: scoring twice is bit-identical.
        assert_eq!(score.to_bits(), out.score.to_bits());
        // The historical rule, restated over the score.
        assert_eq!(out.detected, score > EuclideanDetector::K_SIGMA);
    }
}

/// The cross-domain full verdict and the detection-only scoring path
/// must agree bit for bit — `Verdict::peak_excess_db` is the same
/// statistic `score_with` computes without templates or zero-span.
#[test]
fn cross_domain_score_paths_agree() {
    let campaign = psa_repro::runtime::Campaign::new(chip(), Engine::serial());
    let det = CrossDomainDetector::with_baseline(campaign.learn_baseline(0xBA5E));
    let mut ctx = AcqContext::new(chip());
    let scenario = Scenario::trojan_active(TrojanKind::T4).with_seed(104);
    let score = det.score_with(&mut ctx, &scenario).expect("score runs");
    let out = det.detect_with(&mut ctx, &scenario).expect("detector runs");
    assert_eq!(
        score.to_bits(),
        out.score.to_bits(),
        "cheap scoring path diverged from the full verdict statistic"
    );
    assert!(out.detected, "T4 is the easy Trojan");
    assert!(score > out.threshold);
    assert_eq!(out.localized_sensor, Some(10), "paper: sensor 10");
}

/// The bake-off report — scores, curves, AUCs — must be bit-identical
/// between the serial engine and a two-worker pool.
#[test]
fn bakeoff_report_is_worker_count_invariant() {
    let (euclid, backscatter) = cheap_roster();
    let dets: [&dyn Detector; 2] = [&euclid, &backscatter];
    let serial = Bakeoff::new(chip(), Engine::serial(), 1)
        .run(&dets)
        .expect("serial bake-off");
    let parallel = Bakeoff::new(chip(), Engine::new(2), 1)
        .run(&dets)
        .expect("parallel bake-off");
    assert_eq!(serial.detectors, parallel.detectors);
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.detector, p.detector);
        assert_eq!(s.trojan, p.trojan);
        assert_eq!(s.seed, p.seed);
        assert_eq!(
            s.score.to_bits(),
            p.score.to_bits(),
            "score diverged for {:?} seed {}",
            s.trojan,
            s.seed
        );
    }
    assert_eq!(serial.curves.len(), parallel.curves.len());
    for (s, p) in serial.curves.iter().zip(&parallel.curves) {
        assert_eq!(s.auc.to_bits(), p.auc.to_bits());
        assert_eq!(s.points, p.points);
    }
    // Shape: per detector, one curve per Trojan plus the pooled row.
    assert_eq!(serial.curves.len(), dets.len() * 5);
    assert!(serial.curves.iter().all(|c| (0.0..=1.0).contains(&c.auc)));
}

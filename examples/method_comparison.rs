//! Compares the PSA cross-domain detector against the literature
//! baselines of Table I on the same Trojan scenarios.
//!
//! ```text
//! cargo run --release --example method_comparison
//! ```
//!
//! Runs each detector (PSA cross-domain, Euclidean statistics on the
//! external probe and the single on-chip coil, PCA+K-means on
//! backscatter captures) against every Trojan and prints who detected
//! what and at what trace cost.

use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::chip::TestChip;
use psa_repro::core::cross_domain::{AnalyzerConfig, Baseline};
use psa_repro::core::detector::{
    BackscatterDetector, CrossDomainDetector, Detector, EuclideanDetector,
};
use psa_repro::core::scenario::Scenario;
use psa_repro::gatesim::trojan::TrojanKind;

fn main() {
    println!("building chip...");
    let chip = TestChip::date24();
    // One shared context for the baseline and all 16 attempts.
    let mut ctx = AcqContext::new(&chip);
    println!("learning PSA baseline...");
    let cross = CrossDomainDetector::with_baseline(Baseline::learn_with(
        &AnalyzerConfig::default(),
        &mut ctx,
        0xBA5E,
    ));
    let probe = EuclideanDetector::external_probe(40);
    let coil = EuclideanDetector::single_coil(40);
    let backscatter = BackscatterDetector::default();
    let detectors: [&dyn Detector; 4] = [&cross, &probe, &coil, &backscatter];

    println!();
    for det in detectors {
        println!("{}:", det.name());
        for kind in TrojanKind::ALL {
            let scenario = Scenario::trojan_active(kind).with_seed(1234);
            let out = det.detect_with(&mut ctx, &scenario).expect("detector runs");
            let localized = out
                .localized_sensor
                .map(|s| format!("sensor {s}"))
                .unwrap_or_else(|| "-".to_string());
            let identified = out
                .identified
                .map(|k| k.to_string())
                .unwrap_or_else(|| "-".to_string());
            println!(
                "  {kind}: detected={:<5} traces={:<4} localized={localized:<9} identified={identified}",
                out.detected, out.traces_used
            );
        }
    }
    println!("\n(paper Table I: PSA detects all four with <10 traces and localizes;");
    println!(" prior methods need 100 to >10,000 traces and cannot localize)");
}

//! Quickstart: detect, localize, and identify a hardware Trojan at
//! run time, golden-model free.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the simulated DATE'24 test chip, learns the run-time baseline
//! from the same chip while its Trojans are dormant, then activates the
//! *small* CDMA Trojan T3 (329 cells, 1.14 % of the chip — the one
//! external probes and single-coil sensors miss) and runs the paper's
//! cross-domain analysis.

use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::chip::TestChip;
use psa_repro::core::cross_domain::{Baseline, CrossDomainAnalyzer};
use psa_repro::core::scenario::Scenario;
use psa_repro::gatesim::trojan::TrojanKind;

fn main() {
    println!("building the simulated AES-128 test chip (placement + EM couplings)...");
    let chip = TestChip::date24();
    let mut ctx = AcqContext::new(&chip);
    let analyzer = CrossDomainAnalyzer::new(&chip).expect("reference template library");

    println!("learning the run-time baseline (Trojans dormant, same chip)...");
    let baseline = Baseline::learn_with(analyzer.config(), &mut ctx, 42);

    println!("activating T3 (CDMA key-leak Trojan, 1.14 % of cells) and analyzing...");
    let verdict = analyzer
        .analyze_with(
            &mut ctx,
            &Scenario::trojan_active(TrojanKind::T3).with_seed(7),
            &baseline,
        )
        .expect("analysis succeeds on the built-in chip");

    println!();
    println!("detected:            {}", verdict.detected);
    if let Some(sensor) = verdict.localized_sensor {
        println!("localized to sensor: {sensor} (paper: sensor 10)");
    }
    if let Some(region) = verdict.localized_region {
        println!("die region:          {region}");
    }
    if let Some(freq) = verdict.prominent_freq_hz {
        println!(
            "prominent component: {:.1} MHz (paper: 48 MHz sideband)",
            freq / 1.0e6
        );
    }
    if let Some(kind) = verdict.identified {
        println!(
            "identified as:       {kind} (distance {:.2})",
            verdict.identification_distance.unwrap_or(f64::NAN)
        );
    }
    println!(
        "traces per sensor:   {} (paper: fewer than ten)",
        verdict.traces_per_sensor
    );
}

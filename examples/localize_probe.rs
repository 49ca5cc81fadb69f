//! Full-pipeline probe: verdicts for every trojan.
use psa_core::acquisition::AcqContext;
use psa_core::chip::TestChip;
use psa_core::cross_domain::{Baseline, CrossDomainAnalyzer};
use psa_core::scenario::Scenario;
use psa_gatesim::trojan::TrojanKind;

fn main() {
    let chip = TestChip::date24();
    let mut ctx = AcqContext::new(&chip);
    let analyzer = CrossDomainAnalyzer::new(&chip).expect("reference template library");
    let baseline = Baseline::learn_with(analyzer.config(), &mut ctx, 42);
    // No-trojan control.
    let v = analyzer
        .analyze_with(&mut ctx, &Scenario::baseline().with_seed(77), &baseline)
        .unwrap();
    println!(
        "control: detected={} top-energy={:.1}",
        v.detected, v.ranking[0].energy_db
    );
    for kind in TrojanKind::ALL {
        let v = analyzer
            .analyze_with(
                &mut ctx,
                &Scenario::trojan_active(kind).with_seed(101 + kind.index() as u64),
                &baseline,
            )
            .unwrap();
        println!(
            "{kind}: detected={} localized={:?} freq={:?} identified={:?} dist={:?} top3={:?}",
            v.detected,
            v.localized_sensor,
            v.prominent_freq_hz.map(|f| (f / 1e6 * 10.0).round() / 10.0),
            v.identified,
            v.identification_distance
                .map(|d| (d * 100.0).round() / 100.0),
            v.ranking
                .iter()
                .take(3)
                .map(|r| (r.sensor, r.energy_db.round()))
                .collect::<Vec<_>>()
        );
    }
}

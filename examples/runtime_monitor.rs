//! Run-time monitoring scenario: a Trojan activates mid-operation and
//! the monitor must flag it within the paper's 10 ms budget.
//!
//! ```text
//! cargo run --release --example runtime_monitor
//! ```
//!
//! Models the deployed configuration of Sec. II-A: the PSA watches
//! sensor 10 while the chip encrypts; T1's 21-bit counter trigger fires
//! and the monitor's acquire-compare loop measures the time from
//! activation to detection (MTTD) for each Trojan, one ten-record
//! monitor session per Trojan.

use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::calib;
use psa_repro::core::chip::TestChip;
use psa_repro::core::cross_domain::Baseline;
use psa_repro::core::monitor::{
    ActivationSchedule, Monitor, SlidingConfig, SlidingDetector, StreamSource,
};
use psa_repro::core::scenario::Scenario;
use psa_repro::gatesim::trojan::TrojanKind;

fn main() {
    println!("building chip and learning baseline...");
    let chip = TestChip::date24();
    let mut ctx = AcqContext::new(&chip);
    let baseline = Baseline::learn_with(&mut ctx, 0xBA5E);

    println!(
        "monitor loop: {:.0} us acquisition + {:.0} us processing per trace\n",
        calib::RECORD_ACQUISITION_S * 1e6,
        calib::RECORD_PROCESSING_S * 1e6
    );
    println!("trojan  detected  MTTD        traces   (paper: <10 ms, <10 traces)");
    println!("------------------------------------------------------------------");
    for kind in TrojanKind::ALL {
        let scenario = Scenario::trojan_active(kind).with_seed(991 + kind.index() as u64);
        let detector = SlidingDetector::new(&baseline, &[10], SlidingConfig::default())
            .expect("baseline covers sensor 10");
        let stream = StreamSource::new(ActivationSchedule::constant(scenario, 10));
        let mut monitor = Monitor::new(stream, detector);
        monitor.run_to_end(&mut ctx).expect("session runs");
        let report = monitor.report(None);
        let mttd_s = report.mttd_s.unwrap_or(f64::INFINITY);
        println!(
            "{:<7} {:<9} {:>7.2} ms  {:>6}",
            kind.to_string(),
            report.detected,
            mttd_s * 1e3,
            report.traces_to_detect.unwrap_or(0)
        );
        assert!(report.detected, "{kind} must be detected at run time");
        assert!(mttd_s < 10.0e-3, "{kind} exceeded the 10 ms budget");
    }
    println!("\nall four Trojans detected within the paper's 10 ms MTTD budget");
}

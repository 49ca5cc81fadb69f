//! Integration: the SNR procedure (Sec. VI-B) and the MTTD run-time
//! loop (Sec. VI-D) against the paper's headline numbers — plus the
//! streaming-monitor equivalences: the batch `mttd_trial_with` must be
//! bit-identical to the streaming path it now adapts, and monitor
//! campaigns must be invariant under the worker count.

use psa_repro::core::acquisition::{AcqContext, TraceSet};
use psa_repro::core::calib;
use psa_repro::core::chip::{SensorSelect, TestChip};
use psa_repro::core::cross_domain::{AnalyzerConfig, Baseline};
use psa_repro::core::monitor::{
    ActivationSchedule, Monitor, ScheduleChange, SlidingConfig, SlidingDetector, StreamSource,
};
use psa_repro::core::mttd::{mttd_trial_with, MonitorTiming};
use psa_repro::core::scenario::Scenario;
use psa_repro::core::snr;
use psa_repro::dsp::peak;
use psa_repro::gatesim::trojan::TrojanKind;
use psa_repro::runtime::{Engine, MonitorCampaign, MonitorJob};
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        Baseline::learn_with(
            &AnalyzerConfig::default(),
            &mut AcqContext::new(chip()),
            0xBA5E,
        )
    })
}

#[test]
fn snr_values_land_in_paper_regime() {
    // Paper: PSA 41.0, single coil 30.5, ICR ~34, LF1 14.3 (dB).
    let rows = snr::snr_comparison(chip(), 3).expect("snr comparison");
    let get = |s: SensorSelect| {
        rows.iter()
            .find(|m| m.sensor == s)
            .map(|m| m.snr_db)
            .unwrap()
    };
    let psa = get(SensorSelect::Psa(10));
    let single = get(SensorSelect::SingleCoil);
    let icr = get(SensorSelect::IcrHh100);
    let lf1 = get(SensorSelect::LangerLf1);
    assert!((37.0..46.0).contains(&psa), "PSA {psa}");
    assert!((26.0..35.0).contains(&single), "single coil {single}");
    assert!((29.0..39.0).contains(&icr), "ICR {icr}");
    assert!((8.0..19.0).contains(&lf1), "LF1 {lf1}");
    // Paper ordering.
    assert!(psa > icr && icr > single && single > lf1);
}

#[test]
fn mttd_under_10ms_with_under_10_traces() {
    let timing = MonitorTiming::default();
    for kind in [TrojanKind::T4, TrojanKind::T3] {
        let scenario = Scenario::trojan_active(kind).with_seed(900);
        let r = mttd_trial_with(
            &mut AcqContext::new(chip()),
            &scenario,
            baseline(),
            10,
            &timing,
            64,
        )
        .expect("trial runs");
        assert!(r.detected, "{kind} undetected");
        assert!(
            r.time_to_detect_s < 10.0e-3,
            "{kind} MTTD {} ms",
            r.time_to_detect_s * 1e3
        );
        assert!(r.traces_used < 10, "{kind} used {} traces", r.traces_used);
    }
}

#[test]
fn no_trojan_monitor_does_not_false_alarm() {
    let timing = MonitorTiming::default();
    let r = mttd_trial_with(
        &mut AcqContext::new(chip()),
        &Scenario::baseline().with_seed(901),
        baseline(),
        10,
        &timing,
        12,
    )
    .expect("trial runs");
    assert!(!r.detected, "false alarm on quiet chip");
    assert_eq!(r.traces_used, 12);
}

/// The historical batch MTTD replay, reimplemented verbatim: acquire
/// one re-seeded record at a time, roll a 5-record window, render the
/// full-resolution spectrum, and compare against the baseline's
/// local-max envelope. The streaming path must reproduce this
/// **bit for bit** on coinciding (constant, active-from-record-0)
/// schedules.
fn batch_replay_reference(
    scenario: &Scenario,
    base: &[f64],
    sensor: usize,
    timing: &MonitorTiming,
    max_traces: usize,
) -> (bool, f64, usize) {
    let mut ctx = AcqContext::new(chip());
    let base_env = peak::local_max_envelope(base, 8);
    let mut fresh = TraceSet::default();
    let mut window = TraceSet::default();
    let mut elapsed = 0.0;
    for trace_idx in 0..max_traces {
        ctx.acquire_into(
            &scenario.clone().with_seed(scenario.seed + trace_idx as u64),
            SensorSelect::Psa(sensor),
            1,
            &mut fresh,
        )
        .expect("acquisition");
        elapsed += timing.acquisition_s;
        window.fs_hz = fresh.fs_hz;
        window.sensor = fresh.sensor;
        window.records.push(std::mem::take(&mut fresh.records[0]));
        if window.records.len() > calib::TRACES_PER_SPECTRUM {
            let evicted = window.records.remove(0);
            fresh.records[0] = evicted;
        }
        let spec = ctx.fullres_spectrum_db(&window).expect("spectrum");
        elapsed += timing.processing_s;
        let hits = peak::excess_over_baseline_db(&spec, &base_env, calib::DETECTION_THRESHOLD_DB);
        if !hits.is_empty() {
            return (true, elapsed, trace_idx + 1);
        }
    }
    (false, elapsed, max_traces)
}

#[test]
fn streaming_mttd_is_bit_identical_to_batch_replay() {
    let timing = MonitorTiming::default();
    // A detecting trial (T4) and a non-detecting one (T1 watched from
    // the silent corner sensor 0 would still detect; use a quiet
    // baseline stream instead).
    let cases = [
        (Scenario::trojan_active(TrojanKind::T4).with_seed(910), 6),
        (Scenario::baseline().with_seed(911), 4),
    ];
    for (scenario, max_traces) in cases {
        let r = mttd_trial_with(
            &mut AcqContext::new(chip()),
            &scenario,
            baseline(),
            10,
            &timing,
            max_traces,
        )
        .expect("streaming trial");
        let (detected, elapsed, traces) = batch_replay_reference(
            &scenario,
            &baseline().per_sensor_db[10],
            10,
            &timing,
            max_traces,
        );
        assert_eq!(r.detected, detected, "{scenario:?}");
        assert_eq!(
            r.time_to_detect_s.to_bits(),
            elapsed.to_bits(),
            "MTTD bits differ: streaming {} vs batch {}",
            r.time_to_detect_s,
            elapsed
        );
        assert_eq!(r.traces_used, traces);
        assert_eq!(r.sensor, 10);
    }
}

#[test]
fn scheduled_trial_counts_mttd_from_activation() {
    let timing = MonitorTiming::default();
    let schedule = ActivationSchedule::trojan_at(TrojanKind::T4, 3, 12).with_seed(920);
    let detector = SlidingDetector::new(baseline(), &[10], SlidingConfig::default())
        .expect("baseline covers sensor 10");
    let mut monitor = Monitor::new(StreamSource::new(schedule), detector, timing);
    monitor
        .run_to_end(&mut AcqContext::new(chip()))
        .expect("scheduled session");
    let r = monitor.report(None);
    assert!(r.detected, "activation missed");
    // The clock starts at activation (record 3), not stream start.
    let traces = r.traces_to_detect.expect("detected");
    assert!(traces < 10, "used {traces}");
    let mttd_s = r.mttd_s.expect("detected");
    assert!(mttd_s < 10.0e-3, "MTTD {} ms", mttd_s * 1e3);
    assert!(mttd_s > 0.0);
}

#[test]
fn monitor_campaign_is_invariant_under_worker_count() {
    let jobs = vec![
        MonitorJob::new(
            "t4-activates",
            ActivationSchedule::trojan_at(TrojanKind::T4, 1, 5),
        )
        .with_sensors(&[0, 10])
        .with_config(SlidingConfig {
            min_window_records: 2,
            ..SlidingConfig::default()
        })
        .expecting(10)
        .with_seed(930),
        MonitorJob::new(
            "drift",
            ActivationSchedule::constant(Scenario::baseline(), 4).step(
                1,
                ScheduleChange::RampVdd {
                    to: 1.1,
                    over_records: 2,
                },
            ),
        )
        .with_config(SlidingConfig {
            recalibrate_after: Some(2),
            ..SlidingConfig::default()
        })
        .with_seed(931),
        MonitorJob::new(
            "key-rotation",
            ActivationSchedule::constant(Scenario::baseline(), 4)
                .step(2, ScheduleChange::SetKey([0x55; 16])),
        )
        .with_seed(932),
    ];
    let serial = MonitorCampaign::with_baseline(chip(), Engine::serial(), baseline().clone())
        .run(&jobs)
        .expect("serial campaign");
    let parallel = MonitorCampaign::with_baseline(chip(), Engine::new(3), baseline().clone())
        .run(&jobs)
        .expect("parallel campaign");
    // Full structural equality: identical events (bit-identical floats
    // compare equal), identical reports, identical order.
    assert_eq!(serial, parallel);

    // And the sessions behave as scripted: T4 detected and localized to
    // sensor 10; the legitimate drift and key-rotation streams stay
    // alarm-free.
    assert!(serial[0].report.detected);
    assert_eq!(serial[0].report.localized_sensor, Some(10));
    assert_eq!(serial[0].report.localization_correct, Some(true));
    assert_eq!(serial[1].report.alarms, 0, "drift false-alarmed");
    assert!(
        serial[1].report.recalibrations > 0,
        "drift never recalibrated"
    );
    assert_eq!(serial[2].report.alarms, 0, "key rotation false-alarmed");
}

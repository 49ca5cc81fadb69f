//! Regression: the cached-row sliding spectrum must leave monitor
//! sessions byte-identical to the historical full-ring recompute, and a
//! lane's alarm must rise on a hit and clear on the first quiet
//! comparison.

use psa_core::acquisition::{AcqContext, TraceSet};
use psa_core::calib;
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::cross_domain::{AnalyzerConfig, Baseline};
use psa_core::monitor::{
    ActivationSchedule, ScheduleChange, SlidingConfig, SlidingDetector, StreamSource,
};
use psa_gatesim::trojan::TrojanKind;

const SENSOR: usize = 10;

/// Baseline with only the watched sensor actually learned (the other
/// slots are placeholders the detector never touches) — keeps the test
/// off the 16-sensor learning cost.
fn one_sensor_baseline(ctx: &mut AcqContext<'_>) -> Baseline {
    let config = AnalyzerConfig::default();
    let mut per_sensor_db = vec![Vec::new(); SENSOR];
    per_sensor_db.push(Baseline::sensor_db_with(&config, ctx, 0xBA5E, SENSOR));
    Baseline { per_sensor_db }
}

/// A session with an activation, a deactivation (alarm + clear), and
/// quiet tail long enough to trigger a rolling-baseline recalibration.
fn schedule() -> ActivationSchedule {
    ActivationSchedule::trojan_at(TrojanKind::T1, 2, 12)
        .step(6, ScheduleChange::TrojanOff(TrojanKind::T1))
        .with_seed(4242)
}

fn config() -> SlidingConfig {
    SlidingConfig {
        min_window_records: 2,
        recalibrate_after: Some(2),
    }
}

/// The spectrum regression at the root of log equality: every tick's
/// detector spectrum — across warm fill, alarm, clear, and
/// recalibration ticks — is bit-identical to the historical
/// full-window recompute (`fullres_spectrum_db` over the rolled ring).
/// Events are a pure function of these spectra through unchanged code,
/// so this pins the event log bit-for-bit.
///
/// Every tick also pins the alarm timing: a hit raises the alarm only
/// when none stands, and a quiet tick clears a standing alarm at once.
#[test]
fn cached_rows_match_full_window_recompute_bitwise() {
    let chip = TestChip::date24();
    let mut ctx = AcqContext::new(&chip);
    let baseline = one_sensor_baseline(&mut ctx);
    let stream = StreamSource::new(schedule());
    let mut detector = SlidingDetector::new(&baseline, &[SENSOR], config()).unwrap();

    // Mirror of the pre-swap pipeline: an independently pulled window,
    // recomputed in full every tick.
    let mut mirror_ctx = AcqContext::new(&chip);
    let mut mirror_fresh = TraceSet::default();
    let mut mirror_window = TraceSet::default();

    let mut saw_alarm = false;
    let mut saw_clear = false;
    let mut saw_recalib = false;
    for record in 0..stream.horizon() {
        let scenario = stream.schedule().scenario_at(record);
        let was_alarmed = detector.any_alarmed();
        let obs = detector.observe(&mut ctx, &stream, &scenario, 0).unwrap();
        assert_eq!(
            obs.newly_alarmed,
            obs.hit && !was_alarmed,
            "record {record}: alarm timing"
        );
        assert_eq!(
            obs.cleared,
            !obs.hit && was_alarmed,
            "record {record}: clear timing"
        );
        saw_alarm |= obs.newly_alarmed;
        saw_clear |= obs.cleared;
        saw_recalib |= obs.recalibrated;

        mirror_ctx
            .acquire_into(&scenario, SensorSelect::Psa(SENSOR), 1, &mut mirror_fresh)
            .unwrap();
        mirror_window.fs_hz = mirror_fresh.fs_hz;
        mirror_window.sensor = mirror_fresh.sensor;
        mirror_window.records.push(mirror_fresh.records[0].clone());
        if mirror_window.records.len() > calib::TRACES_PER_SPECTRUM {
            mirror_window.records.remove(0);
        }
        if obs.spec.is_empty() {
            // Warm fill: the detector compared nothing this tick.
            continue;
        }
        let fresh = mirror_ctx.fullres_spectrum_db(&mirror_window).unwrap();
        assert_eq!(obs.spec.len(), fresh.len());
        for (k, (a, b)) in obs.spec.iter().zip(&fresh).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "record {record} bin {k}: cached {a} vs recompute {b}"
            );
        }
    }
    // The session must actually exercise the state machine for the
    // equivalence to mean anything.
    assert!(saw_alarm, "session never alarmed");
    assert!(saw_clear, "session never cleared");
    assert!(saw_recalib, "session never recalibrated");
}

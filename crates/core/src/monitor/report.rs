//! Session-level aggregation of the streaming monitor's events.

use crate::calib;
use crate::monitor::event::{MonitorEvent, MonitorEventKind};
use crate::monitor::schedule::ActivationSchedule;
use std::fmt;

/// What one monitor session amounted to: the run-time MTTD, the
/// false-alarm count, and the localization verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// Stream length, records.
    pub records: usize,
    /// Sensors watched per record.
    pub lanes: usize,
    /// First record with an active Trojan (`None`: Trojan-free stream).
    pub activation_record: Option<usize>,
    /// Whether an alarm fired at or after activation.
    pub detected: bool,
    /// Time from Trojan activation to the detecting alarm, seconds.
    pub mttd_s: Option<f64>,
    /// Stream records consumed from activation to the detecting alarm.
    pub traces_to_detect: Option<usize>,
    /// Total alarm events.
    pub alarms: usize,
    /// Alarm events fired while no Trojan was active.
    pub false_alarms: usize,
    /// Clear events.
    pub clears: usize,
    /// Rolling-baseline refreshes.
    pub recalibrations: usize,
    /// The sensor named by the first localization event.
    pub localized_sensor: Option<usize>,
    /// Whether the localized sensor matches the expected one (when an
    /// expectation was given and a localization happened).
    pub localization_correct: Option<bool>,
}

impl MonitorReport {
    /// Builds the report for one session from its event log.
    ///
    /// `expected_sensor` is the ground-truth closest sensor (sensor 10
    /// for the paper's chip), used to score localization accuracy.
    pub fn from_events(
        events: &[MonitorEvent],
        schedule: &ActivationSchedule,
        lanes: usize,
        expected_sensor: Option<usize>,
    ) -> Self {
        let activation_record = schedule.first_activation_record();
        let mut alarms = 0usize;
        let mut false_alarms = 0usize;
        let mut clears = 0usize;
        let mut recalibrations = 0usize;
        let mut localized_sensor = None;
        let mut detection: Option<&MonitorEvent> = None;
        for e in events {
            match e.kind {
                MonitorEventKind::Alarm { .. } => {
                    alarms += 1;
                    if schedule.trojan_active_at(e.record) {
                        if detection.is_none() {
                            detection = Some(e);
                        }
                    } else {
                        false_alarms += 1;
                    }
                }
                MonitorEventKind::Clear => clears += 1,
                MonitorEventKind::Localized => {
                    if localized_sensor.is_none() {
                        localized_sensor = Some(e.sensor);
                    }
                }
                MonitorEventKind::DriftRecalibrated => recalibrations += 1,
            }
        }

        // A lane can already be in alarm when the Trojan activates (a
        // false alarm whose flag never dropped). The detector emits
        // Alarm only on the quiet→alarmed transition, so that episode
        // produces no post-activation Alarm event — but the monitor IS
        // flagging: count it as an immediate detection (one trace, one
        // tick). Replay the pre-activation events to recover the state.
        let standing_at_activation = activation_record.is_some_and(|a| {
            let mut alarmed = std::collections::BTreeMap::new();
            for e in events.iter().filter(|e| e.record < a) {
                match e.kind {
                    MonitorEventKind::Alarm { .. } => alarmed.insert(e.sensor, true),
                    MonitorEventKind::Clear => alarmed.insert(e.sensor, false),
                    _ => continue,
                };
            }
            alarmed.values().any(|&s| s)
        });

        // The MTTD clock starts when the Trojan activates, i.e. at the
        // beginning of the activation record's monitor iteration.
        let per_tick_s = lanes as f64 * (calib::RECORD_ACQUISITION_S + calib::RECORD_PROCESSING_S);
        let (mttd_s, traces_to_detect) = match (detection, activation_record) {
            _ if standing_at_activation => (Some(per_tick_s), Some(1)),
            (Some(e), Some(a)) => (
                Some(e.elapsed_s - a as f64 * per_tick_s),
                Some(e.record - a + 1),
            ),
            _ => (None, None),
        };
        MonitorReport {
            records: schedule.horizon(),
            lanes,
            activation_record,
            detected: standing_at_activation || detection.is_some(),
            mttd_s,
            traces_to_detect,
            alarms,
            false_alarms,
            clears,
            recalibrations,
            localized_sensor,
            localization_correct: expected_sensor
                .and_then(|want| localized_sensor.map(|got| got == want)),
        }
    }
}

impl fmt::Display for MonitorReport {
    /// One deterministic summary line per session.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "report: detected={} mttd={} traces={} alarms={} false={} clears={} recalib={} localized={} ok={}",
            if self.detected { "yes" } else { "no" },
            self.mttd_s
                .map(|s| format!("{:.3} ms", s * 1e3))
                .unwrap_or_else(|| "-".into()),
            self.traces_to_detect
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            self.alarms,
            self.false_alarms,
            self.clears,
            self.recalibrations,
            self.localized_sensor
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            self.localization_correct
                .map(|c| if c { "yes" } else { "no" }.to_string())
                .unwrap_or_else(|| "-".into()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::schedule::ScheduleChange;
    use crate::scenario::Scenario;
    use psa_gatesim::trojan::TrojanKind;

    fn event(record: usize, sensor: usize, kind: MonitorEventKind) -> MonitorEvent {
        MonitorEvent {
            record,
            cycle: ((record + 1) * crate::calib::RECORD_CYCLES) as u64,
            elapsed_s: (record + 1) as f64 * 650.0e-6,
            sensor,
            kind,
        }
    }

    #[test]
    fn report_scores_detection_and_localization() {
        let schedule = ActivationSchedule::trojan_at(TrojanKind::T1, 2, 8);
        let events = vec![
            event(
                3,
                10,
                MonitorEventKind::Alarm {
                    excess_db: 15.0,
                    freq_hz: 48.0e6,
                },
            ),
            event(3, 10, MonitorEventKind::Localized),
            event(6, 10, MonitorEventKind::Clear),
        ];
        let r = MonitorReport::from_events(&events, &schedule, 1, Some(10));
        assert!(r.detected);
        assert_eq!(r.activation_record, Some(2));
        assert_eq!(r.traces_to_detect, Some(2));
        assert_eq!(r.alarms, 1);
        assert_eq!(r.false_alarms, 0);
        assert_eq!(r.clears, 1);
        assert_eq!(r.localized_sensor, Some(10));
        assert_eq!(r.localization_correct, Some(true));
        // MTTD: elapsed at the alarm minus two pre-activation ticks.
        let per_tick = calib::RECORD_ACQUISITION_S + calib::RECORD_PROCESSING_S;
        let want = 4.0 * 650.0e-6 - 2.0 * per_tick;
        assert!((r.mttd_s.unwrap() - want).abs() < 1e-12);
        let line = r.to_string();
        assert!(line.contains("detected=yes"));
        assert!(line.contains("localized=10"));
    }

    #[test]
    fn standing_pre_activation_alarm_counts_as_immediate_detection() {
        // The flag went up before activation (false alarm) and never
        // cleared: no post-activation Alarm event exists, but the
        // monitor is flagging when the Trojan activates — one trace,
        // one tick.
        let schedule = ActivationSchedule::trojan_at(TrojanKind::T4, 4, 10);
        let events = vec![event(
            1,
            10,
            MonitorEventKind::Alarm {
                excess_db: 12.0,
                freq_hz: 66.0e6,
            },
        )];
        let r = MonitorReport::from_events(&events, &schedule, 1, None);
        assert!(r.detected);
        assert_eq!(r.traces_to_detect, Some(1));
        let per_tick = calib::RECORD_ACQUISITION_S + calib::RECORD_PROCESSING_S;
        assert_eq!(r.mttd_s, Some(per_tick));
        assert_eq!(r.false_alarms, 1, "the pre-activation alarm stays false");

        // A Clear before activation drops the flag: no detection.
        let cleared = vec![events[0].clone(), event(2, 10, MonitorEventKind::Clear)];
        let r = MonitorReport::from_events(&cleared, &schedule, 1, None);
        assert!(!r.detected);
        assert_eq!(r.mttd_s, None);
    }

    #[test]
    fn pre_activation_alarms_are_false_alarms() {
        // The flicker clears before activation, so it neither detects
        // (no standing flag) nor suppresses later scoring.
        let schedule = ActivationSchedule::trojan_at(TrojanKind::T2, 4, 8);
        let events = vec![
            event(
                1,
                0,
                MonitorEventKind::Alarm {
                    excess_db: 11.0,
                    freq_hz: 33.0e6,
                },
            ),
            event(2, 0, MonitorEventKind::Clear),
        ];
        let r = MonitorReport::from_events(&events, &schedule, 2, Some(10));
        assert!(!r.detected);
        assert_eq!(r.false_alarms, 1);
        assert_eq!(r.mttd_s, None);
        assert_eq!(r.localization_correct, None);
        assert!(r.to_string().contains("mttd=-"));
    }

    #[test]
    fn trojan_free_stream_counts_everything_as_false() {
        let schedule = ActivationSchedule::constant(Scenario::baseline(), 6).step(
            1,
            ScheduleChange::RampVdd {
                to: 1.1,
                over_records: 3,
            },
        );
        let events = vec![
            event(2, 5, MonitorEventKind::DriftRecalibrated),
            event(
                4,
                5,
                MonitorEventKind::Alarm {
                    excess_db: 12.0,
                    freq_hz: 66.0e6,
                },
            ),
        ];
        let r = MonitorReport::from_events(&events, &schedule, 1, None);
        assert_eq!(r.activation_record, None);
        assert!(!r.detected);
        assert_eq!(r.false_alarms, 1);
        assert_eq!(r.recalibrations, 1);
    }
}

//! Monitor-session campaigns: fan whole streaming sessions across the
//! engine.
//!
//! A [`MonitorJob`] describes one complete session — an activation
//! schedule, the watched sensors, the detector configuration, a
//! per-session seed. Each job runs start-to-finish on one worker with a
//! private [`AcqContext`](psa_core::acquisition::AcqContext); because a
//! session's event log is a pure function of its job description, the
//! collected logs are **byte-identical at any worker count** (the
//! `monitor` binary's CI determinism gate `cmp`s exactly this).

use crate::campaign::Campaign;
use crate::engine::Engine;
use psa_core::chip::TestChip;
use psa_core::cross_domain::Baseline;
use psa_core::error::CoreError;
use psa_core::monitor::{
    ActivationSchedule, Monitor, MonitorEvent, MonitorReport, SlidingConfig, SlidingDetector,
    StreamSource,
};
use psa_core::mttd::MonitorTiming;

/// One streaming monitor session to run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorJob {
    /// Label reproduced in the event log (scenario name).
    pub label: String,
    /// What happens to the chip, on the record clock.
    pub schedule: ActivationSchedule,
    /// PSA sensors watched each record.
    pub sensors: Vec<usize>,
    /// Detector configuration.
    pub config: SlidingConfig,
    /// Monitor-loop timing model.
    pub timing: MonitorTiming,
    /// Ground-truth closest sensor, for localization scoring.
    pub expected_sensor: Option<usize>,
}

impl MonitorJob {
    /// A job watching sensor 10 with default detector configuration.
    pub fn new(label: impl Into<String>, schedule: ActivationSchedule) -> Self {
        MonitorJob {
            label: label.into(),
            schedule,
            sensors: vec![10],
            config: SlidingConfig::default(),
            timing: MonitorTiming::default(),
            expected_sensor: None,
        }
    }

    /// Sets the watched sensors (lane order is log order).
    pub fn with_sensors(mut self, sensors: &[usize]) -> Self {
        self.sensors = sensors.to_vec();
        self
    }

    /// Sets the detector configuration.
    pub fn with_config(mut self, config: SlidingConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the expected localization sensor.
    pub fn expecting(mut self, sensor: usize) -> Self {
        self.expected_sensor = Some(sensor);
        self
    }

    /// Re-seeds the session (rebases the schedule's per-record seeds).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.schedule = self.schedule.with_seed(seed);
        self
    }
}

/// One finished session: its label, seed, full event log, and report.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorOutcome {
    /// The job's label.
    pub label: String,
    /// The session seed (the schedule's base seed).
    pub seed: u64,
    /// Every event, in emission order.
    pub events: Vec<MonitorEvent>,
    /// The session's aggregate report.
    pub report: MonitorReport,
}

/// Campaign-level aggregation over many sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSummary {
    /// Sessions run.
    pub sessions: usize,
    /// Sessions with an active Trojan in their schedule.
    pub trojan_sessions: usize,
    /// Sessions that detected at or after activation.
    pub detected: usize,
    /// Mean MTTD over detecting sessions, seconds.
    pub mean_mttd_s: f64,
    /// Mean traces-to-detect over detecting sessions.
    pub mean_traces: f64,
    /// Total false alarms across all sessions.
    pub false_alarms: usize,
    /// Total records streamed across all sessions.
    pub records: usize,
    /// Sessions whose localization matched the expectation.
    pub localization_correct: usize,
    /// Sessions with a localization expectation and a verdict.
    pub localization_scored: usize,
}

impl MonitorSummary {
    /// Aggregates session outcomes.
    pub fn from_outcomes(outcomes: &[MonitorOutcome]) -> Self {
        let mut s = MonitorSummary {
            sessions: outcomes.len(),
            trojan_sessions: 0,
            detected: 0,
            mean_mttd_s: 0.0,
            mean_traces: 0.0,
            false_alarms: 0,
            records: 0,
            localization_correct: 0,
            localization_scored: 0,
        };
        for o in outcomes {
            let r = &o.report;
            s.records += r.records;
            s.false_alarms += r.false_alarms;
            if r.activation_record.is_some() {
                s.trojan_sessions += 1;
            }
            if r.detected {
                s.detected += 1;
                s.mean_mttd_s += r.mttd_s.unwrap_or(0.0);
                s.mean_traces += r.traces_to_detect.unwrap_or(0) as f64;
            }
            if let Some(correct) = r.localization_correct {
                s.localization_scored += 1;
                if correct {
                    s.localization_correct += 1;
                }
            }
        }
        if s.detected > 0 {
            s.mean_mttd_s /= s.detected as f64;
            s.mean_traces /= s.detected as f64;
        }
        s
    }
}

/// An engine-backed monitor campaign: one shared chip and learned
/// baseline, sessions fanned across workers.
#[derive(Debug)]
pub struct MonitorCampaign<'c> {
    campaign: Campaign<'c>,
    baseline: Baseline,
}

impl<'c> MonitorCampaign<'c> {
    /// Binds a pre-learned baseline.
    pub fn with_baseline(chip: &'c TestChip, engine: Engine, baseline: Baseline) -> Self {
        MonitorCampaign {
            campaign: Campaign::new(chip, engine),
            baseline,
        }
    }

    /// Runs every session, one engine job per [`MonitorJob`], collecting
    /// outcomes in submission order.
    ///
    /// # Errors
    ///
    /// Returns the first failing session's error (sessions are still
    /// attempted independently).
    pub fn run(&self, jobs: &[MonitorJob]) -> Result<Vec<MonitorOutcome>, CoreError> {
        self.campaign
            .run(jobs, |ctx, _, job| {
                let detector =
                    SlidingDetector::new(&self.baseline, &job.sensors, job.config.clone())?;
                let mut monitor = Monitor::new(
                    StreamSource::new(job.schedule.clone()),
                    detector,
                    job.timing,
                );
                monitor.run_to_end(ctx)?;
                let report = monitor.report(job.expected_sensor);
                Ok(MonitorOutcome {
                    label: job.label.clone(),
                    seed: job.schedule.base().seed,
                    events: monitor.into_events(),
                    report,
                })
            })
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_core::monitor::MonitorEventKind;

    fn outcome(detected: bool, false_alarms: usize, correct: Option<bool>) -> MonitorOutcome {
        MonitorOutcome {
            label: "t".into(),
            seed: 1,
            events: Vec::new(),
            report: MonitorReport {
                records: 8,
                lanes: 2,
                activation_record: Some(2),
                detected,
                mttd_s: detected.then_some(4.0e-3),
                traces_to_detect: detected.then_some(2),
                alarms: usize::from(detected),
                false_alarms,
                clears: 0,
                recalibrations: 0,
                localized_sensor: correct.map(|c| if c { 10 } else { 0 }),
                localization_correct: correct,
            },
        }
    }

    #[test]
    fn summary_aggregates_sessions() {
        let outcomes = vec![
            outcome(true, 0, Some(true)),
            outcome(true, 1, Some(false)),
            outcome(false, 0, None),
        ];
        let s = MonitorSummary::from_outcomes(&outcomes);
        assert_eq!(s.sessions, 3);
        assert_eq!(s.trojan_sessions, 3);
        assert_eq!(s.detected, 2);
        assert!((s.mean_mttd_s - 4.0e-3).abs() < 1e-12);
        assert!((s.mean_traces - 2.0).abs() < 1e-12);
        assert_eq!(s.false_alarms, 1);
        assert_eq!(s.records, 24);
        assert_eq!(s.localization_scored, 2);
        assert_eq!(s.localization_correct, 1);
    }

    #[test]
    fn summary_of_empty_campaign_is_benign() {
        let s = MonitorSummary::from_outcomes(&[]);
        assert_eq!(s.sessions, 0);
        // No detection to average over: the means stay 0, not NaN.
        assert_eq!(s.mean_mttd_s, 0.0);
        assert_eq!(s.mean_traces, 0.0);
    }

    #[test]
    fn job_builder_chains() {
        let schedule = ActivationSchedule::constant(psa_core::scenario::Scenario::baseline(), 4);
        let job = MonitorJob::new("drift", schedule)
            .with_sensors(&[0, 10])
            .expecting(10)
            .with_seed(77);
        assert_eq!(job.label, "drift");
        assert_eq!(job.sensors, vec![0, 10]);
        assert_eq!(job.expected_sensor, Some(10));
        assert_eq!(job.schedule.base().seed, 77);
        // Event kinds are re-exported through the facade path used here.
        let _ = MonitorEventKind::Clear;
    }
}

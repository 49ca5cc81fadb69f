//! Mean-time-to-detect simulation (paper Sec. II-A, VI-D).
//!
//! In the run-time threat model the clock starts when the Trojan
//! *activates*; MTTD is the delay until the monitor flags it. The
//! monitor loop alternates acquisition (record time at 264 MS/s) and
//! processing (FFT + comparison on the RASC-class companion), watching
//! one sensor per iteration. The paper reports detection with fewer
//! than ten traces in under 10 ms; baseline methods need 100–10 000
//! traces and correspondingly longer.

use crate::acquisition::AcqContext;
use crate::cross_domain::Baseline;
use crate::error::CoreError;
use crate::monitor::{ActivationSchedule, Monitor, SlidingConfig, SlidingDetector, StreamSource};
use crate::scenario::Scenario;

/// Result of one MTTD trial.
#[derive(Debug, Clone, PartialEq)]
pub struct MttdResult {
    /// Whether the Trojan was detected within the trial budget.
    pub detected: bool,
    /// Time from Trojan activation to detection, seconds.
    pub time_to_detect_s: f64,
    /// Traces consumed until detection.
    pub traces_used: usize,
    /// The sensor that fired.
    pub sensor: usize,
}

/// Runs one MTTD trial: the Trojan activates at t = 0 and the monitor
/// polls `sensor` with single traces, comparing each new averaged window
/// against the baseline.
///
/// `max_traces` bounds the trial (a non-detection returns
/// `detected = false` with the full budget spent).
///
/// The trial is a **thin batch adapter over the streaming monitor**: a
/// one-sensor [`Monitor`] session under a constant
/// [`ActivationSchedule`] (Trojan active from record 0) with the
/// batch-compatible [`SlidingConfig`] defaults — same per-record
/// seeding, same rolling window, same envelope comparison, same
/// f64-accumulation order, so results are bit-identical to the
/// historical replay loop (asserted by the workspace tests).
///
/// # Errors
///
/// Propagates acquisition errors.
pub fn mttd_trial_with(
    ctx: &mut AcqContext<'_>,
    scenario: &Scenario,
    baseline: &Baseline,
    sensor: usize,
    max_traces: usize,
) -> Result<MttdResult, CoreError> {
    // A constant schedule is Trojan-active from record 0 or never, so
    // an alarm's record and elapsed time already count from activation,
    // and a Trojan-free stream has no alarm that could detect anything.
    let armed = !scenario.active_trojans().is_empty();
    let detector = SlidingDetector::new(baseline, &[sensor], SlidingConfig::default())?;
    let stream = StreamSource::new(ActivationSchedule::constant(scenario.clone(), max_traces));
    let mut monitor = Monitor::new(stream, detector);
    while !monitor.finished() {
        let events = monitor.step(ctx)?;
        if let Some(alarm) = events.iter().find(|e| armed && e.is_alarm()) {
            return Ok(MttdResult {
                detected: true,
                time_to_detect_s: alarm.elapsed_s,
                traces_used: alarm.record + 1,
                sensor,
            });
        }
    }
    Ok(MttdResult {
        detected: false,
        time_to_detect_s: monitor.elapsed_s(),
        traces_used: max_traces,
        sensor,
    })
}

/// Equivalent detection latency for a baseline method that needs
/// `traces_needed` traces at `per_trace_s` seconds each (the Table I
/// comparison: 100 – >10 000 traces).
pub fn baseline_latency_s(traces_needed: usize, per_trace_s: f64) -> f64 {
    traces_needed as f64 * per_trace_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_latency_scales() {
        // A >10 000-trace method at 1 ms/trace takes >= 10 s — three
        // orders of magnitude beyond the PSA's 10 ms budget.
        assert!(baseline_latency_s(10_001, 1.0e-3) > 10.0);
        assert_eq!(baseline_latency_s(0, 1.0), 0.0);
    }

    // Full MTTD trials run in the workspace integration tests and the
    // `mttd` bench binary (they need the expensive chip build).
}

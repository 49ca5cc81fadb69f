//! Typed, cycle-stamped events emitted by the streaming monitor.

use std::fmt;

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorEventKind {
    /// A sensor's rolling spectrum exceeded its baseline envelope: the
    /// monitor raises the Trojan flag.
    Alarm {
        /// Strongest excess over the baseline envelope, dB.
        excess_db: f64,
        /// Frequency of the strongest emergent bin, Hz.
        freq_hz: f64,
    },
    /// A previously alarming sensor compared quiet: the flag drops.
    Clear,
    /// Start of an alarm episode: the sensor whose emergent amplitude
    /// is strongest — its footprint localizes the Trojan.
    Localized,
    /// The sensor's rolling baseline was refreshed from recent quiet
    /// windows (operating-condition drift absorbed, not alarmed).
    DriftRecalibrated,
}

/// One monitor event, stamped with the stream position at which it
/// fired.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorEvent {
    /// Stream record index (0-based) the event fired on.
    pub record: usize,
    /// Chip cycles observed by the stream when the event fired
    /// (`(record + 1) ×` record length; warm-up excluded).
    pub cycle: u64,
    /// Monitor-loop wall time since stream start, seconds (acquisition
    /// plus processing, per [`calib::RECORD_ACQUISITION_S`] and
    /// [`calib::RECORD_PROCESSING_S`]).
    ///
    /// [`calib::RECORD_ACQUISITION_S`]: crate::calib::RECORD_ACQUISITION_S
    /// [`calib::RECORD_PROCESSING_S`]: crate::calib::RECORD_PROCESSING_S
    pub elapsed_s: f64,
    /// The sensor concerned.
    pub sensor: usize,
    /// What happened.
    pub kind: MonitorEventKind,
}

impl fmt::Display for MonitorEvent {
    /// Renders one deterministic event-log line (the `monitor` binary's
    /// stdout unit; byte-identical at any worker count).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rec {:>3}  cycle {:>8}  t {:>9.3} ms  sensor {:>2}  ",
            self.record,
            self.cycle,
            self.elapsed_s * 1e3,
            self.sensor
        )?;
        match &self.kind {
            MonitorEventKind::Alarm { excess_db, freq_hz } => {
                write!(
                    f,
                    "ALARM         +{:.1} dB @ {:.3} MHz",
                    excess_db,
                    freq_hz / 1e6
                )
            }
            MonitorEventKind::Clear => write!(f, "CLEAR"),
            MonitorEventKind::Localized => write!(f, "LOCALIZED"),
            MonitorEventKind::DriftRecalibrated => write!(f, "RECALIBRATED"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_lines_are_stable() {
        let e = MonitorEvent {
            record: 3,
            cycle: 32_768,
            elapsed_s: 5.2e-3,
            sensor: 10,
            kind: MonitorEventKind::Alarm {
                excess_db: 18.25,
                freq_hz: 48.0e6,
            },
        };
        assert_eq!(
            e.to_string(),
            "rec   3  cycle    32768  t     5.200 ms  sensor 10  ALARM         +18.2 dB @ 48.000 MHz"
        );
        let c = MonitorEvent {
            kind: MonitorEventKind::Clear,
            ..e.clone()
        };
        assert!(c.to_string().ends_with("CLEAR"));
        let l = MonitorEvent {
            kind: MonitorEventKind::Localized,
            ..e.clone()
        };
        assert!(l.to_string().ends_with("LOCALIZED"));
        let d = MonitorEvent {
            kind: MonitorEventKind::DriftRecalibrated,
            ..e
        };
        assert!(d.to_string().ends_with("RECALIBRATED"));
    }
}

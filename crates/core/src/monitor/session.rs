//! The monitor session: a stream, a sliding detector, and the event
//! log that ties them together on the monitor-loop clock.

use crate::acquisition::AcqContext;
use crate::calib;
use crate::error::CoreError;
use crate::monitor::event::{MonitorEvent, MonitorEventKind};
use crate::monitor::report::MonitorReport;
use crate::monitor::sliding::SlidingDetector;
use crate::monitor::stream::StreamSource;

/// A running monitor session.
///
/// Each [`step`](Self::step) processes one stream record across every
/// watched sensor: acquire, roll the window, render the spectrum,
/// compare, and emit cycle-stamped [`MonitorEvent`]s. The session holds
/// no acquisition scratch of its own — the caller threads a reusable
/// [`AcqContext`] through, so a whole session is one job on the
/// campaign engine with zero hot-path allocations.
#[derive(Debug)]
pub struct Monitor {
    stream: StreamSource,
    detector: SlidingDetector,
    events: Vec<MonitorEvent>,
    next_record: usize,
    elapsed_s: f64,
}

impl Monitor {
    /// Ties a stream to a detector on the monitor-loop clock
    /// ([`calib::RECORD_ACQUISITION_S`] plus
    /// [`calib::RECORD_PROCESSING_S`] per watched sensor and record).
    pub fn new(stream: StreamSource, detector: SlidingDetector) -> Self {
        Monitor {
            stream,
            detector,
            events: Vec::new(),
            next_record: 0,
            elapsed_s: 0.0,
        }
    }

    /// Monitor-loop wall time accumulated so far, seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// `true` once the stream's horizon is exhausted.
    pub fn finished(&self) -> bool {
        self.next_record >= self.stream.horizon()
    }

    /// Consumes the session, returning its event log.
    pub fn into_events(self) -> Vec<MonitorEvent> {
        self.events
    }

    /// Processes one stream record across all lanes; returns the events
    /// emitted by this tick (possibly empty).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the stream is exhausted;
    /// otherwise propagates acquisition/DSP errors.
    pub fn step(&mut self, ctx: &mut AcqContext<'_>) -> Result<&[MonitorEvent], CoreError> {
        if self.finished() {
            return Err(CoreError::InvalidParameter {
                what: "stream horizon exhausted",
            });
        }
        let record = self.next_record;
        let scenario = self.stream.schedule().scenario_at(record);
        let cycle = ((record + 1) * calib::RECORD_CYCLES) as u64;
        let before = self.events.len();
        let episode_open = self.detector.any_alarmed();

        let mut new_alarm = false;
        let mut tick = Vec::with_capacity(self.detector.lanes());
        for lane in 0..self.detector.lanes() {
            let obs = self.detector.observe(ctx, &self.stream, &scenario, lane)?;
            self.elapsed_s += calib::RECORD_ACQUISITION_S;
            self.elapsed_s += calib::RECORD_PROCESSING_S;
            if obs.newly_alarmed {
                new_alarm = true;
                let bin = obs.top_bin.expect("newly alarmed lane has a top bin");
                self.events.push(MonitorEvent {
                    record,
                    cycle,
                    elapsed_s: self.elapsed_s,
                    sensor: obs.sensor,
                    kind: MonitorEventKind::Alarm {
                        excess_db: obs.top_excess_db,
                        freq_hz: ctx.fullres_bin_hz(bin),
                    },
                });
            }
            if obs.cleared {
                self.events.push(MonitorEvent {
                    record,
                    cycle,
                    elapsed_s: self.elapsed_s,
                    sensor: obs.sensor,
                    kind: MonitorEventKind::Clear,
                });
            }
            if obs.recalibrated {
                self.events.push(MonitorEvent {
                    record,
                    cycle,
                    elapsed_s: self.elapsed_s,
                    sensor: obs.sensor,
                    kind: MonitorEventKind::DriftRecalibrated,
                });
            }
            tick.push(obs);
        }
        if !episode_open && new_alarm {
            let sensor = self.localize(ctx, &tick);
            self.events.push(MonitorEvent {
                record,
                cycle,
                elapsed_s: self.elapsed_s,
                sensor,
                kind: MonitorEventKind::Localized,
            });
        }
        self.next_record += 1;
        Ok(&self.events[before..])
    }

    /// Localizes an alarm episode the way the batch analyzer does:
    /// choose the common emergent line — the hitting lanes' top bin
    /// nearest 48 MHz (the paper's sideband family) when one lies
    /// within ±5 MHz, else the strongest top bin — then rank the
    /// hitting lanes by *absolute* amplitude excess at that line. The
    /// first lane wins ties, deterministically.
    fn localize(&self, ctx: &AcqContext<'_>, tick: &[crate::monitor::LaneObservation]) -> usize {
        let hitting: Vec<(usize, &crate::monitor::LaneObservation)> =
            tick.iter().enumerate().filter(|(_, o)| o.hit).collect();
        let line_bin = crate::localize::pick_common_line(
            &hitting,
            |(_, o)| ctx.fullres_bin_hz(o.top_bin.expect("hitting lane has a top bin")),
            |(_, o)| o.top_excess_db,
        )
        .expect("an alarm implies a hitting lane")
        .1
        .top_bin
        .expect("hitting lane has a top bin");
        let mut best_sensor = hitting[0].1.sensor;
        let mut best_amp = f64::NEG_INFINITY;
        for (lane_idx, obs) in &hitting {
            let amp = self
                .detector
                .amplitude_excess_at(*lane_idx, &obs.spec, line_bin);
            if amp > best_amp {
                best_amp = amp;
                best_sensor = obs.sensor;
            }
        }
        best_sensor
    }

    /// Runs the stream to its horizon.
    ///
    /// # Errors
    ///
    /// Propagates the first failing tick's error.
    pub fn run_to_end(&mut self, ctx: &mut AcqContext<'_>) -> Result<(), CoreError> {
        while !self.finished() {
            self.step(ctx)?;
        }
        Ok(())
    }

    /// Aggregates the session's events into a [`MonitorReport`].
    pub fn report(&self, expected_sensor: Option<usize>) -> MonitorReport {
        MonitorReport::from_events(
            &self.events,
            self.stream.schedule(),
            self.detector.lanes(),
            expected_sensor,
        )
    }
}

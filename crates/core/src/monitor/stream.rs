//! The record stream: one-at-a-time acquisition from a live chip under
//! an [`ActivationSchedule`].

use crate::acquisition::AcqContext;
use crate::chip::SensorSelect;
use crate::error::CoreError;
use crate::monitor::schedule::ActivationSchedule;

/// Pulls records one at a time from a live [`TestChip`] while an
/// [`ActivationSchedule`] scripts what the chip is doing.
///
/// The source itself is stateless between pulls: record `r` on sensor
/// `s` is a pure function of `(schedule, r, s)`, acquired through the
/// caller's reusable [`AcqContext`] into its one record buffer. That
/// purity is what lets whole monitor sessions fan out across the
/// campaign engine with byte-identical output.
///
/// [`TestChip`]: crate::chip::TestChip
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSource {
    schedule: ActivationSchedule,
}

impl StreamSource {
    /// A stream scripted by `schedule`.
    pub fn new(schedule: ActivationSchedule) -> Self {
        StreamSource { schedule }
    }

    /// The schedule scripting this stream.
    pub fn schedule(&self) -> &ActivationSchedule {
        &self.schedule
    }

    /// Stream length in records.
    pub fn horizon(&self) -> usize {
        self.schedule.horizon()
    }

    /// Acquires one stream record from PSA sensor `sensor` under the
    /// record's effective `scenario`, which the session computes once
    /// per tick and shares across sensor lanes, and returns its
    /// full-resolution linear amplitude row
    /// ([`AcqContext::acquire_amplitude_row`]), borrowed from `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates acquisition errors ([`CoreError`]).
    pub fn pull_row<'a>(
        &self,
        ctx: &'a mut AcqContext<'_>,
        scenario: &crate::scenario::Scenario,
        sensor: usize,
    ) -> Result<&'a [f64], CoreError> {
        ctx.acquire_amplitude_row(scenario, SensorSelect::Psa(sensor))
    }
}

//! Streaming run-time monitor (paper Sec. II-A): online detection from
//! a continuous record stream, golden-model free.
//!
//! The batch pipeline ([`cross_domain`](crate::cross_domain),
//! [`mttd`](crate::mttd)) replays a fixed number of pre-described
//! records; this module watches a *live* chip the way the paper's
//! deployed array does. The pieces:
//!
//! * [`ActivationSchedule`] — scripts what happens to the chip on the
//!   record clock: Trojan triggers firing and ending, VDD/temperature
//!   drift ramps, AES key rotations, multi-Trojan overlap. Record `r`'s
//!   effective [`Scenario`](crate::scenario::Scenario) is a pure
//!   function of `r`, which keeps sessions deterministic.
//! * [`StreamSource`] — pulls records one at a time from the chip under
//!   the schedule, through a reusable
//!   [`AcqContext`](crate::acquisition::AcqContext) (zero hot-path
//!   allocations in steady state).
//! * [`SlidingDetector`] — per-sensor rolling spectra over a ring
//!   buffer, compared against (optionally rolling) baseline envelopes.
//! * [`Monitor`] — the session loop, emitting cycle-stamped
//!   [`MonitorEvent`]s (`Alarm`, `Clear`, `Localized`,
//!   `DriftRecalibrated`).
//! * [`MonitorReport`] — MTTD / false-alarm / localization aggregation
//!   per session.
//!
//! With a constant schedule, a frozen baseline, and one watched sensor,
//! a session is **bit-identical** to the batch
//! [`mttd_trial_with`](crate::mttd::mttd_trial_with) replay — which is
//! implemented as a thin adapter over this path.

pub mod event;
pub mod report;
pub mod schedule;
pub mod session;
pub mod sliding;
pub mod stream;

pub use event::{MonitorEvent, MonitorEventKind};
pub use report::MonitorReport;
pub use schedule::{ActivationSchedule, ScheduleChange, ScheduleStep};
pub use session::Monitor;
pub use sliding::{AlarmLatch, LaneObservation, SlidingConfig, SlidingDetector};
pub use stream::StreamSource;

//! # psa-runtime — the parallel campaign engine
//!
//! The paper's evaluation (and this reproduction's regeneration of it)
//! is embarrassingly parallel: scenarios × sensors × seeds, every job
//! independent once its seed is fixed. This crate turns that shape into
//! throughput with nothing but `std`:
//!
//! * [`engine`] — a scoped `std::thread` worker pool with
//!   deterministic, submission-order result collection. Worker count
//!   comes from `--jobs N`, the `PSA_JOBS` environment variable, or
//!   [`std::thread::available_parallelism`]; `--jobs 1` is the serial
//!   fallback (no threads spawned at all), and `--jobs 0` is rejected
//!   with a [`JobsArgError`](engine::JobsArgError) rather than being
//!   silently coerced.
//! * [`campaign`] — the acquisition-level [`Campaign`]: any per-job
//!   closure, seeded by its job, fanned against one shared
//!   [`TestChip`](psa_core::chip::TestChip), with one reusable
//!   [`AcqContext`](psa_core::acquisition::AcqContext) per worker.
//! * [`monitor`] — streaming-session campaigns: whole
//!   [`psa_core::monitor`] sessions (schedule, sliding detector, event
//!   log) fanned across workers as single jobs, with submission-order
//!   outcome collection and campaign-level MTTD / false-alarm /
//!   localization summaries.
//! * [`bakeoff`] — detector bake-off campaigns: scenario-suite ×
//!   [`Detector`](psa_core::detector::Detector) × seed
//!   score fan-outs, swept over decision thresholds into per-Trojan
//!   ROC curves with trapezoid AUC.
//! * [`atlas`] — the VDD/temperature corners the localization
//!   campaigns run at.
//! * [`multiloc`] — joint-localization campaigns: K-emitter placement
//!   tuples (one-emitter tuples for the localization-accuracy atlas) ×
//!   VDD/temp corners × seeds through the joint
//!   [`MultiLocalizer`](psa_core::multiloc::MultiLocalizer), with
//!   per-corner baselines and amplitude-to-drive calibrations learned
//!   in parallel first and every outcome scored Localection-style
//!   against its tuple's ground truth.
//! * [`fleet`] — fleet-scale streaming monitoring: 10k+ seeded per-die
//!   chip streams ([`psa_core::chip::ChipVariation`]) multiplexed
//!   through shared per-worker contexts in fixed round-robin order,
//!   with sharded per-chip baselines, decimated per-chip sliding rings
//!   (memory O(chips × window)), and a cross-fleet [`FleetReport`].
//! * [`progsearch`] — SNR-driven programming-search campaigns: a
//!   deterministic beam search over custom switch-matrix programmings
//!   ([`SensorSelect::Custom`](psa_core::chip::SensorSelect)), every
//!   candidate generation in canonical order and every evaluation
//!   seeded purely from its program, so the searched result is
//!   byte-identical at any worker count.
//!
//! ## Determinism
//!
//! Parallel output is **byte-identical** to serial output. Three
//! properties combine to guarantee it:
//!
//! 1. every job is a pure function of `(index, job)` — all randomness is
//!    derived from explicit per-job seeds;
//! 2. per-worker contexts only recycle buffers (their contents are
//!    fully overwritten), so results never depend on what a worker
//!    processed before;
//! 3. the engine writes each result into its submission-index slot, so
//!    completion order is invisible to the caller.
//!
//! The workspace tests assert this end to end: a Table I campaign run
//! with one worker and with N workers produces bit-identical rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atlas;
pub mod bakeoff;
pub mod campaign;
pub mod engine;
pub mod fleet;
pub mod monitor;
pub mod multiloc;
pub mod progsearch;

pub use atlas::AtlasCorner;
pub use bakeoff::{Bakeoff, BakeoffCell, BakeoffReport, RocSummary};
pub use campaign::Campaign;
pub use engine::Engine;
pub use fleet::{ChipOutcome, Fleet, FleetBaselines, FleetConfig, FleetReport};
pub use monitor::{MonitorCampaign, MonitorJob, MonitorOutcome, MonitorSummary};
pub use multiloc::{MultilocCampaign, MultilocJob, MultilocOutcome};
pub use progsearch::{ProgramSearch, RoundSummary, SearchReport};

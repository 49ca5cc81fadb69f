//! # PSA — Programmable EM Sensor Array (DATE 2024) reproduction
//!
//! A from-scratch Rust reproduction of *Programmable EM Sensor Array for
//! Golden-Model Free Run-time Trojan Detection and Localization*
//! (Wang et al., DATE 2024, arXiv:2401.12193): an on-chip programmable
//! magnetic-sensor array that detects, localizes, and identifies
//! hardware Trojans at run time from their EM side-channel emissions.
//!
//! The paper's silicon test chip and bench instruments are replaced by
//! physics-grounded simulation substrates (see `DESIGN.md`); every table
//! and figure of the evaluation is regenerated by the binaries in
//! `psa-bench` (see `EXPERIMENTS.md` for paper-vs-measured numbers).
//!
//! This facade crate re-exports the workspace so examples and downstream
//! users need a single dependency:
//!
//! * [`dsp`] — FFT, spectra, zero-span down-conversion, statistics.
//! * [`ml`] — PCA, k-means, k-NN (baseline detectors, identification).
//! * [`layout`] — die geometry, floorplan, standard-cell placement.
//! * [`gatesim`] — AES-128, UART, Trojan circuits, switching activity.
//! * [`field`] — dipole fields, flux integrals, coupling, noise.
//! * [`array`](mod@crate::array) — the PSA lattice, T-gates, coil
//!   programming: the 16
//!   presets plus arbitrary node-rectangle spirals
//!   (`psa_array::program::CoilProgram`, loop-validated synthesis).
//! * [`analog`] — op-amp, ADC, spectrum-analyzer and scope models.
//! * [`core`] — the assembled chip, the cross-domain detection
//!   pipeline, the streaming run-time monitor
//!   (`psa_core::monitor`: activation schedules, sliding detection,
//!   cycle-stamped events), the localization-accuracy atlas
//!   (`psa_core::atlas`: synthetic-Trojan placement sweeps scored as
//!   localization error in µm), the multi-emitter joint localizer
//!   (`psa_core::multiloc`: successive cancellation recovering count,
//!   location, and drive power for K concurrent sources), and the
//!   SNR-driven programming search (`psa_core::progsearch`: custom
//!   programmings via `SensorSelect::Custom`, scored by measured
//!   detection SNR).
//! * [`runtime`] — the parallel campaign engine: batched multi-core
//!   acquisition/detection jobs, whole monitor sessions, K-emitter
//!   joint-localization campaigns (the atlas's placements are the
//!   one-emitter case), and
//!   deterministic programming-search beam campaigns with
//!   serial-identical output (`--jobs`/`PSA_JOBS`).
//!
//! # Quickstart
//!
//! ```no_run
//! use psa_repro::core::acquisition::AcqContext;
//! use psa_repro::core::chip::TestChip;
//! use psa_repro::core::cross_domain::{Baseline, CrossDomainDetector};
//! use psa_repro::core::scenario::Scenario;
//! use psa_repro::gatesim::trojan::TrojanKind;
//!
//! let chip = TestChip::date24();
//! let mut ctx = AcqContext::new(&chip);
//! let baseline = Baseline::learn_with(&mut ctx, 42);
//! let detector = CrossDomainDetector::with_baseline(baseline);
//! let verdict = detector
//!     .analyze_with(&mut ctx, &Scenario::trojan_active(TrojanKind::T3))
//!     .expect("analysis runs");
//! assert!(verdict.detected);
//! assert_eq!(verdict.localized_sensor, Some(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use psa_analog as analog;
pub use psa_array as array;
pub use psa_core as core;
pub use psa_dsp as dsp;
pub use psa_field as field;
pub use psa_gatesim as gatesim;
pub use psa_layout as layout;
pub use psa_ml as ml;
pub use psa_runtime as runtime;

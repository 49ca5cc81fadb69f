//! Core library of the PSA reproduction: the paper's algorithmic
//! contribution assembled on top of the substrate crates.
//!
//! *Programmable EM Sensor Array for Golden-Model Free Run-time Trojan
//! Detection and Localization* (DATE 2024) contributes (1) the
//! programmable on-chip sensor array itself (modelled in [`psa_array`])
//! and (2) a **cross-domain analysis** that detects, localizes, and
//! identifies hardware Trojans at run time without a golden model. This
//! crate implements that pipeline end to end on the simulated test chip:
//!
//! * [`chip`] — assembles the simulated AES-128 test chip: floorplan,
//!   digital activity, EM coupling, PSA lattice and analog chain.
//! * [`scenario`] — what the chip is doing during a measurement (which
//!   Trojan is active, plaintexts, supply voltage, temperature, seed).
//! * [`acquisition`] — collects voltage traces and spectra from any
//!   sensor, exactly like the paper's spectrum-analyzer captures.
//! * [`calib`] — the few free physical constants, calibrated once so the
//!   absolute SNR figures land near the paper's (Sec. VI-B).
//! * [`cross_domain`] — the paper's detector: learn a same-chip baseline
//!   spectrum, flag emergent sideband components (48/84 MHz), localize by
//!   scanning the 16 sensors, then switch to the time domain (zero-span)
//!   to identify which Trojan is active.
//! * [`identify`] — envelope feature extraction and the unsupervised /
//!   nearest-template classification of Fig 5.
//! * [`detector`] — the scored detection surface: a
//!   [`detector::ScoredDetector`] trait (raw statistic + threshold +
//!   one shared decision rule) with [`detector::Detector`] adapters on
//!   top, the Table I baselines (Euclidean-distance statistics on
//!   external-probe and single-coil traces, He TVLSI'17 / He DAC'20;
//!   backscattering PCA+K-means, Nguyen HOST'20), and the
//!   reference-free statistics of [`detector::reference_free`].
//! * [`snr`] — the RMS-ratio SNR procedure of Eq. (1).
//! * [`mttd`] — mean-time-to-detect simulation of the run-time loop,
//!   now a thin batch adapter over the streaming monitor.
//! * [`monitor`] — the streaming run-time monitor: record streams under
//!   activation schedules, sliding spectral detection, typed
//!   cycle-stamped events, and per-session MTTD reports.
//! * [`atlas`] — the localization-accuracy atlas: parametric synthetic-
//!   Trojan placement sweeps scored as localization error in µm.
//! * [`localize`] — the shared common-line localization primitives
//!   (line selection, absolute amplitude excess, centroid refinement)
//!   every localizing layer routes through.
//! * [`multiloc`] — hypothesis-based joint localization of K concurrent
//!   emitters by greedy successive cancellation over coupling-row
//!   signatures, with Localection-style miss/false-alarm scoring.
//! * [`progsearch`] — the SNR-driven programming search: scores
//!   arbitrary lattice programmings (`SensorSelect::Custom`) by their
//!   measured detection SNR per Trojan region and provides the
//!   deterministic beam-search primitives `psa_runtime` fans out.
//! * [`report`] — plain-text table rendering for the bench harness.
//!
//! # Example
//!
//! ```no_run
//! use psa_core::acquisition::AcqContext;
//! use psa_core::chip::TestChip;
//! use psa_core::cross_domain::{Baseline, CrossDomainAnalyzer};
//! use psa_core::scenario::Scenario;
//! use psa_gatesim::trojan::TrojanKind;
//!
//! let chip = TestChip::date24();
//! let mut ctx = AcqContext::new(&chip);
//! let analyzer = CrossDomainAnalyzer::new(&chip).expect("reference template library");
//! let baseline = Baseline::learn_with(analyzer.config(), &mut ctx, 42);
//! let verdict = analyzer
//!     .analyze_with(&mut ctx, &Scenario::trojan_active(TrojanKind::T1).with_seed(7), &baseline)
//!     .expect("analysis succeeds");
//! assert!(verdict.detected);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod atlas;
pub mod calib;
pub mod chip;
pub mod cross_domain;
pub mod detector;
pub mod error;
pub mod identify;
pub mod localize;
pub mod monitor;
pub mod mttd;
pub mod multiloc;
pub mod progsearch;
pub mod report;
pub mod scenario;
pub mod snr;

pub use error::CoreError;

//! Digital signal processing substrate for the PSA reproduction.
//!
//! The paper *Programmable EM Sensor Array for Golden-Model Free Run-time
//! Trojan Detection and Localization* (DATE 2024) analyses electromagnetic
//! side-channel traces with bench instruments: an oscilloscope, a spectrum
//! analyzer (including its *zero-span* mode), and offline spectral analysis.
//! This crate implements the mathematics behind those instruments from
//! scratch so the rest of the workspace can regenerate every figure without
//! any external DSP dependency:
//!
//! * [`Complex`] — minimal complex arithmetic used throughout.
//! * [`fft`] — iterative radix-2 FFT plus a Bluestein fallback for
//!   arbitrary lengths, forward/inverse, and real-input helpers.
//! * [`rfft`] — the one spectrum plan: a real-input FFT via the N/2
//!   complex-packing trick in split (`re`/`im`) format with radix-4
//!   passes, planned once per process per `(length, window)`; every
//!   amplitude spectrum runs it.
//! * [`batch`] — per-worker scratch buffers over the shared plan for
//!   the campaign engine's hot path (bit-identical to the one-shot
//!   functions).
//! * [`sliding`] — sliding-window averaged spectra for the streaming
//!   run-time monitor, re-summed from cached per-record rows
//!   (bit-identical to a full-window recompute at one FFT per tick).
//! * [`fastmath`] — in-tree `ln`, `sincos`, `log10`, `hypot` and
//!   `round` kernels for the per-sample record loops, each with a
//!   documented domain and error bound.
//! * [`window`] — Rectangular/Hann/Hamming/Blackman/Blackman-Harris/flat-top
//!   analysis windows with gain bookkeeping.
//! * [`spectrum`] — amplitude spectra, trace averaging and dB
//!   conversions; this is the "spectrum analyzer screen".
//! * [`filter`] — windowed-sinc low-pass FIR design, linear convolution
//!   and decimation.
//! * [`zero_span`] — digital down-conversion replicating the spectrum
//!   analyzer's zero-span mode: mix to baseband, low-pass, decimate, take
//!   the envelope at one chosen frequency, with the input streamed in
//!   pieces.
//! * [`stats`] — running and batch statistics (RMS, variance, percentiles,
//!   kurtosis) used by the SNR procedure and feature extraction.
//! * [`peak`] — excess-over-baseline detection and local-max envelopes
//!   used by the cross-domain analysis to find emergent Trojan sidebands.
//! * [`correlate`] — auto/cross correlation for envelope classification.
//!
//! # Example
//!
//! ```
//! use psa_dsp::{spectrum, window::Window};
//!
//! // A 1 kHz tone sampled at 8 kHz shows up in bin 128 of a 1024-point FFT.
//! let fs = 8000.0;
//! let n = 1024;
//! let tone: Vec<f64> = (0..n)
//!     .map(|i| (2.0 * std::f64::consts::PI * 1000.0 * i as f64 / fs).sin())
//!     .collect();
//! let spec = spectrum::amplitude_spectrum(&tone, Window::Rectangular);
//! let peak_bin = spec
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.total_cmp(b.1))
//!     .map(|(i, _)| i)
//!     .unwrap();
//! assert_eq!(peak_bin, 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod complex;
pub mod correlate;
pub mod error;
pub mod fastmath;
pub mod fft;
pub mod filter;
pub mod peak;
pub mod rfft;
pub mod rng;
pub mod sliding;
pub mod spectrum;
pub mod stats;
pub mod window;
pub mod zero_span;

pub use complex::Complex;
pub use error::DspError;

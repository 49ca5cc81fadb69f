//! The Programmable Sensor Array (PSA) hardware model — the paper's core
//! hardware contribution.
//!
//! The PSA is a crossbar of 36 horizontal and 36 vertical wires on the two
//! top metal layers with a transmission-gate switch at each of the 1296
//! intersections (Fig 1). Closing selected switches forms sensing coils of
//! programmable shape, size, location, and turn count:
//!
//! * [`lattice`] — the wire grid: nodes, segments, and electrical
//!   bookkeeping (wire resistance per segment).
//! * [`tgate`] — the custom T-gate of Fig 1c: R_on ≈ 34 Ω nominal, with
//!   first-order supply-voltage and temperature dependence (Sec. VI-C).
//! * [`program`] — switch-state programming, including the 4-bit
//!   `PSA_sel` decoder of the test chip.
//! * [`coil`] — extraction of the programmed coil path: closed-loop
//!   finding, polygon + turns, series resistance, inductance estimate.
//! * [`sensors`] — the test-chip preset: 16 square sensors with 33% area
//!   overlap, mapped onto 4 differential output channels.
//! * [`impedance`] — |Z(f)| of a programmed coil (R + jωL with parasitic
//!   C), used for the voltage/temperature robustness experiments.
//! * [`validate`] — tamper-resilience checks (Sec. IV): opens and
//!   shorts, the tests that "return testing values".
//! * [`overhead`] — area / routing-capacity accounting (5% area, 6.25%
//!   top-layer routing vs 100% for the single-coil design).
//!
//! # Example
//!
//! ```
//! use psa_array::sensors::SensorBank;
//!
//! let bank = SensorBank::date24_default();
//! assert_eq!(bank.len(), 16);
//! // Sensors overlap their neighbours by about a third of their width.
//! let s0 = bank.sensor(0).unwrap().footprint();
//! let s1 = bank.sensor(1).unwrap().footprint();
//! let overlap = s0.max().x - s1.min().x;
//! assert!((overlap / s0.width() - 0.33).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coil;
pub mod error;
pub mod impedance;
pub mod lattice;
pub mod overhead;
pub mod program;
pub mod sensors;
pub mod tgate;
pub mod validate;

pub use error::ArrayError;

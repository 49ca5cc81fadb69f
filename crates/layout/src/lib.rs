//! Physical layout substrate for the PSA reproduction.
//!
//! The paper's experiment lives on a fabricated 65 nm test chip (Fig 2):
//! a 1 mm × 1 mm die carrying an AES-128 core, a UART, four hardware
//! Trojans, and the PSA lattice on metal layers M7/M8, packaged in a QFN
//! with 8 IO pins per side. Localization claims only make sense with real
//! geometry, so this crate models:
//!
//! * [`geom`] — points, rectangles and polygons in microns, with the
//!   area/containment/overlap predicates the flux integrator needs.
//! * [`die`] — die outline and metal-stack heights (M1–M8), which set the
//!   vertical standoff between switching cells and sensing coils.
//! * [`stdcell`] — standard-cell kinds with area and switching-charge
//!   parameters (the Hamming-distance power model's per-toggle charge).
//! * [`floorplan`] — the Fig 2 module placement: `AES_core`, `UART_FIFO`,
//!   `PSA_control` and Trojans T1–T4, with the gate counts of Table II.
//! * [`placement`] — deterministic row-based placement of cells into
//!   module regions, and clustering of cells into EM source tiles.
//! * [`emitter`] — synthetic-emitter sites at arbitrary coordinates and
//!   the parametric sweep grids of the localization-accuracy atlas.
//!
//! # Example
//!
//! ```
//! use psa_layout::floorplan::{Floorplan, ModuleKind};
//!
//! let fp = Floorplan::date24_test_chip();
//! // Table II: T3 is the small CDMA Trojan, 329 cells.
//! let t3 = fp.module(ModuleKind::TrojanT3).unwrap();
//! assert_eq!(t3.cell_count, 329);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod die;
pub mod emitter;
pub mod error;
pub mod floorplan;
pub mod geom;
pub mod placement;
pub mod stdcell;

pub use error::LayoutError;
pub use geom::{Point, Polygon, Rect};

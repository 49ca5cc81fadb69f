//! Error type for layout operations.

use std::error::Error;
use std::fmt;

/// Errors produced by layout construction and queries.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LayoutError {
    /// A polygon needs at least three vertices.
    TooFewVertices {
        /// Number of vertices supplied.
        got: usize,
    },
    /// A module or layer lookup failed.
    NotFound {
        /// What was looked up.
        what: &'static str,
    },
    /// A placement request did not fit its region.
    RegionOverflow {
        /// Cells requested.
        requested: usize,
        /// Cells that fit.
        capacity: usize,
    },
    /// An emitter site (centre plus extent) falls outside the die.
    OffDie {
        /// Requested site centre x, µm.
        x_um: f64,
        /// Requested site centre y, µm.
        y_um: f64,
    },
    /// Two emitter sites in one placement tuple overlap or sit closer
    /// than the requested minimum separation.
    SitesTooClose {
        /// First site centre x, µm.
        x1_um: f64,
        /// First site centre y, µm.
        y1_um: f64,
        /// Second site centre x, µm.
        x2_um: f64,
        /// Second site centre y, µm.
        y2_um: f64,
        /// Centre-to-centre separation of the offending pair, µm.
        separation_um: f64,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::TooFewVertices { got } => {
                write!(f, "polygon needs at least 3 vertices, got {got}")
            }
            LayoutError::NotFound { what } => write!(f, "{what} not found"),
            LayoutError::RegionOverflow {
                requested,
                capacity,
            } => write!(
                f,
                "placement overflow: {requested} cells requested, {capacity} fit"
            ),
            LayoutError::OffDie { x_um, y_um } => {
                write!(
                    f,
                    "emitter site at ({x_um}, {y_um}) um falls outside the die"
                )
            }
            LayoutError::SitesTooClose {
                x1_um,
                y1_um,
                x2_um,
                y2_um,
                separation_um,
            } => write!(
                f,
                "emitter sites at ({x1_um}, {y1_um}) and ({x2_um}, {y2_um}) um \
                 are only {separation_um} um apart"
            ),
        }
    }
}

impl Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        for e in [
            LayoutError::TooFewVertices { got: 2 },
            LayoutError::NotFound { what: "module" },
            LayoutError::RegionOverflow {
                requested: 10,
                capacity: 5,
            },
            LayoutError::OffDie {
                x_um: -3.0,
                y_um: 40.0,
            },
            LayoutError::SitesTooClose {
                x1_um: 100.0,
                y1_um: 100.0,
                x2_um: 110.0,
                y2_um: 100.0,
                separation_um: 10.0,
            },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(!e.to_string().ends_with('.'));
        }
    }
}

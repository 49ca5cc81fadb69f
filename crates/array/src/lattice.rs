//! The PSA wire lattice (paper Fig 1a).
//!
//! 36 horizontal wires on one top metal and 36 vertical wires on the
//! other, spanning the die, with a T-gate switch at each of the 1296
//! crossings. Wires on different layers touch *only* through a closed
//! switch, so a sensing coil is a cycle that alternates between
//! horizontal and vertical wires via closed switches.

use crate::error::ArrayError;
use psa_layout::Point;

/// The wire grid geometry and electrical constants.
///
/// # Example
///
/// ```
/// use psa_array::lattice::Lattice;
/// let l = Lattice::date24();
/// assert_eq!(l.rows(), 36);
/// assert_eq!(l.cols(), 36);
/// assert_eq!(l.switch_count(), 1296); // the paper's 1296 T-gates
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lattice {
    rows: usize,
    cols: usize,
    pitch_um: f64,
    wire_width_um: f64,
    r_per_um_ohm: f64,
}

impl Lattice {
    /// The test-chip lattice: 36 × 36 wires over a 1 mm die, 1 µm wire
    /// width on the thick top metals.
    ///
    /// The paper quotes a 16 µm drawn segment unit; spanning a 1 mm die
    /// with 36 wires gives a 28.6 µm crossing pitch, which is what the
    /// sensing geometry needs — the discrepancy is noted in DESIGN.md.
    pub fn date24() -> Self {
        Lattice {
            rows: 36,
            cols: 36,
            pitch_um: 1000.0 / 35.0,
            wire_width_um: 1.0,
            r_per_um_ohm: 0.007, // 7 mΩ/□ top metal, 1 µm wide
        }
    }

    /// Creates a custom lattice.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] for fewer than 2 wires in
    /// either direction or non-positive pitch/width/resistance.
    pub fn new(
        rows: usize,
        cols: usize,
        pitch_um: f64,
        wire_width_um: f64,
        r_per_um_ohm: f64,
    ) -> Result<Self, ArrayError> {
        if rows < 2 || cols < 2 {
            return Err(ArrayError::InvalidParameter {
                what: "lattice needs at least 2x2 wires",
            });
        }
        if pitch_um <= 0.0 || wire_width_um <= 0.0 || r_per_um_ohm <= 0.0 {
            return Err(ArrayError::InvalidParameter {
                what: "pitch, width and resistance must be positive",
            });
        }
        Ok(Lattice {
            rows,
            cols,
            pitch_um,
            wire_width_um,
            r_per_um_ohm,
        })
    }

    /// Number of horizontal wires (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of vertical wires (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Crossing pitch, µm.
    pub fn pitch_um(&self) -> f64 {
        self.pitch_um
    }

    /// Wire width, µm.
    pub fn wire_width_um(&self) -> f64 {
        self.wire_width_um
    }

    /// Wire resistance per micron, Ω.
    pub fn r_per_um_ohm(&self) -> f64 {
        self.r_per_um_ohm
    }

    /// Total switches (crossings).
    pub fn switch_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Die-plane position of crossing `(row, col)`, µm.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NodeOutOfRange`] outside the lattice.
    pub fn node_position(&self, row: usize, col: usize) -> Result<Point, ArrayError> {
        self.check(row, col)?;
        Ok(Point::new(
            col as f64 * self.pitch_um,
            row as f64 * self.pitch_um,
        ))
    }

    /// Die extent covered by the lattice, µm (a square of side
    /// `(n-1)·pitch`).
    pub fn extent_um(&self) -> (f64, f64) {
        (
            (self.cols - 1) as f64 * self.pitch_um,
            (self.rows - 1) as f64 * self.pitch_um,
        )
    }

    fn check(&self, row: usize, col: usize) -> Result<(), ArrayError> {
        if row >= self.rows || col >= self.cols {
            return Err(ArrayError::NodeOutOfRange {
                row,
                col,
                dims: (self.rows, self.cols),
            });
        }
        Ok(())
    }
}

impl Default for Lattice {
    fn default() -> Self {
        Lattice::date24()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date24_dimensions() {
        let l = Lattice::date24();
        assert_eq!(l.rows(), 36);
        assert_eq!(l.cols(), 36);
        assert_eq!(l.switch_count(), 1296);
        let (w, h) = l.extent_um();
        assert!((w - 1000.0).abs() < 1e-9);
        assert!((h - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn node_positions_are_on_grid() {
        let l = Lattice::date24();
        let p = l.node_position(0, 0).unwrap();
        assert_eq!(p, Point::new(0.0, 0.0));
        let p = l.node_position(35, 35).unwrap();
        assert!((p.x - 1000.0).abs() < 1e-9);
        assert!((p.y - 1000.0).abs() < 1e-9);
        let p = l.node_position(7, 3).unwrap();
        assert!((p.x - 3.0 * l.pitch_um()).abs() < 1e-12);
        assert!((p.y - 7.0 * l.pitch_um()).abs() < 1e-12);
    }

    #[test]
    fn bounds_checked() {
        let l = Lattice::date24();
        assert!(l.node_position(36, 0).is_err());
        assert!(l.node_position(0, 36).is_err());
    }

    #[test]
    fn custom_lattice_validation() {
        assert!(Lattice::new(1, 36, 10.0, 1.0, 0.01).is_err());
        assert!(Lattice::new(36, 36, 0.0, 1.0, 0.01).is_err());
        assert!(Lattice::new(36, 36, 10.0, -1.0, 0.01).is_err());
        assert!(Lattice::new(8, 8, 10.0, 1.0, 0.01).is_ok());
    }
}

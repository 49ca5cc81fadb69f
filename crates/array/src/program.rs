//! Switch-matrix programming and the 4-bit sensor-select decoder.
//!
//! The lattice state is one bit per crossing (1296 bits on the test
//! chip). The chip exposes a fully combinational decoder (Fig 2) that
//! maps the 4-bit `PSA_sel` bus to one of the 16 preset sensor
//! programmings; arbitrary programmings remain available to the host.

use crate::error::ArrayError;
use crate::lattice::Lattice;

/// The programmable switch state of a lattice.
///
/// # Example
///
/// ```
/// use psa_array::lattice::Lattice;
/// use psa_array::program::SwitchMatrix;
///
/// let lattice = Lattice::date24();
/// let mut m = SwitchMatrix::new(&lattice);
/// m.close(3, 5)?;
/// assert_eq!(m.closed_count(), 1);
/// m.clear();
/// assert_eq!(m.closed_count(), 0);
/// # Ok::<(), psa_array::ArrayError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchMatrix {
    rows: usize,
    cols: usize,
    bits: Vec<bool>,
}

impl SwitchMatrix {
    /// All switches open.
    pub fn new(lattice: &Lattice) -> Self {
        SwitchMatrix {
            rows: lattice.rows(),
            cols: lattice.cols(),
            bits: vec![false; lattice.switch_count()],
        }
    }

    /// Lattice dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Closes the switch at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NodeOutOfRange`] outside the lattice.
    pub fn close(&mut self, row: usize, col: usize) -> Result<(), ArrayError> {
        let i = self.index(row, col)?;
        self.bits[i] = true;
        Ok(())
    }

    /// Opens the switch at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NodeOutOfRange`] outside the lattice.
    pub fn open(&mut self, row: usize, col: usize) -> Result<(), ArrayError> {
        let i = self.index(row, col)?;
        self.bits[i] = false;
        Ok(())
    }

    /// Opens every switch.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|b| *b = false);
    }

    /// Number of closed switches.
    pub fn closed_count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Coordinates of all closed switches, row-major order.
    pub fn closed_switches(&self) -> Vec<(usize, usize)> {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some((i / self.cols, i % self.cols)))
            .collect()
    }

    /// Programs a rectangle: closes the four corner switches
    /// `(r0,c0)-(r0,c1)-(r1,c1)-(r1,c0)`, forming one rectangular coil.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::DegenerateRectangle`] when the corners
    /// collapse onto one wire (`r0 == r1` or `c0 == c1`) — closing the
    /// "four" corners would then close the same switch more than once,
    /// inflating nothing but the caller's expectations of
    /// [`closed_count`](Self::closed_count) — or
    /// [`ArrayError::NodeOutOfRange`] outside the lattice. The matrix is
    /// untouched on error.
    pub fn program_rectangle(
        &mut self,
        r0: usize,
        c0: usize,
        r1: usize,
        c1: usize,
    ) -> Result<(), ArrayError> {
        if r0 == r1 || c0 == c1 {
            return Err(ArrayError::DegenerateRectangle { r0, c0, r1, c1 });
        }
        // Validate all four corners before closing any, so a bounds
        // error cannot leave a half-programmed rectangle behind.
        for &(r, c) in &[(r0, c0), (r0, c1), (r1, c1), (r1, c0)] {
            self.index(r, c)?;
        }
        self.close(r0, c0)?;
        self.close(r0, c1)?;
        self.close(r1, c1)?;
        self.close(r1, c0)?;
        Ok(())
    }

    fn index(&self, row: usize, col: usize) -> Result<usize, ArrayError> {
        if row >= self.rows || col >= self.cols {
            return Err(ArrayError::NodeOutOfRange {
                row,
                col,
                dims: (self.rows, self.cols),
            });
        }
        Ok(row * self.cols + col)
    }
}

/// Node-rectangle of one preset sensor: `(r0, c0, r1, c1)`.
pub type SensorNodes = (usize, usize, usize, usize);

/// The 16 preset sensor node-rectangles of the test chip: a 4 × 4 grid
/// of 12-segment-wide squares stepping by 8 (7 for the last) segments,
/// giving the paper's ~33 % area overlap between neighbours. Index is
/// row-major from the die's lower-left.
pub fn date24_sensor_nodes() -> [SensorNodes; 16] {
    let starts = [0usize, 8, 16, 23];
    let mut out = [(0, 0, 0, 0); 16];
    for (i, out_slot) in out.iter_mut().enumerate() {
        let row = i / 4;
        let col = i % 4;
        let r0 = starts[row];
        let c0 = starts[col];
        *out_slot = (r0, c0, r0 + 12, c0 + 12);
    }
    out
}

/// Turns per preset sensor coil: the test chip's sensors are 6-turn
/// spirals ("the green box represents the area of a 6-turn-coil
/// sensor", Fig 2). Multi-turn winding senses the footprint uniformly —
/// a single-turn loop is most sensitive right under its wire, which
/// would defeat footprint-based localization.
pub const SENSOR_TURNS: usize = 6;

/// The fully combinational `PSA_sel[3:0]` decoder of Fig 2: programs the
/// lattice for one of the 16 preset 6-turn sensors.
///
/// # Errors
///
/// Returns [`ArrayError::SensorOutOfRange`] when `sel` exceeds 15.
///
/// # Example
///
/// ```
/// use psa_array::lattice::Lattice;
/// use psa_array::program::{decode_psa_sel, SwitchMatrix, SENSOR_TURNS};
///
/// let lattice = Lattice::date24();
/// let mut m = SwitchMatrix::new(&lattice);
/// decode_psa_sel(&mut m, 10)?; // select sensor 10
/// assert_eq!(m.closed_count(), 4 * SENSOR_TURNS);
/// # Ok::<(), psa_array::ArrayError>(())
/// ```
pub fn decode_psa_sel(matrix: &mut SwitchMatrix, sel: u8) -> Result<(), ArrayError> {
    if sel > 15 {
        return Err(ArrayError::SensorOutOfRange {
            index: sel as usize,
            len: 16,
        });
    }
    let (r0, c0, r1, c1) = date24_sensor_nodes()[sel as usize];
    matrix.clear();
    crate::coil::program_spiral(matrix, r0, c0, r1, c1, SENSOR_TURNS)
}

/// An arbitrary node-rectangle spiral programming — the general form of
/// which the 16 presets are fixed instances.
///
/// A program is the *host-side* description of a custom sensor: the
/// outer node rectangle and the number of nested turns. [`apply`]
/// programs it onto a matrix (clearing any previous programming);
/// [`synthesize`] additionally extracts the resulting coil and enforces
/// the **loop-validity invariant**: the closed switches must form
/// exactly one closed loop with no switch left outside it.
///
/// Corner order is normalized at construction (`r0 < r1`, `c0 < c1`),
/// and the derived `Ord` is the canonical deterministic ordering the
/// programming search uses for tie-breaking.
///
/// [`apply`]: Self::apply
/// [`synthesize`]: Self::synthesize
///
/// # Example
///
/// ```
/// use psa_array::lattice::Lattice;
/// use psa_array::program::CoilProgram;
///
/// let lattice = Lattice::date24();
/// let p = CoilProgram::new(16, 16, 28, 28, 3)?;
/// let coil = p.synthesize(&lattice)?;
/// assert_eq!(coil.switch_count(), 4 * 3);
/// # Ok::<(), psa_array::ArrayError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoilProgram {
    r0: usize,
    c0: usize,
    r1: usize,
    c1: usize,
    turns: usize,
}

impl CoilProgram {
    /// Creates a validated program over the node rectangle
    /// `(r0, c0)-(r1, c1)` with `turns` nested windings. Corners may be
    /// given in any order; they are normalized so `r0 < r1`, `c0 < c1`.
    ///
    /// # Errors
    ///
    /// * [`ArrayError::DegenerateRectangle`] when the rectangle
    ///   collapses onto one wire;
    /// * [`ArrayError::InvalidParameter`] for zero turns or an extent
    ///   too small to hold the requested turns (each axis needs at
    ///   least `2·turns` segments, the [`program_spiral`] requirement).
    ///
    /// [`program_spiral`]: crate::coil::program_spiral
    pub fn new(
        r0: usize,
        c0: usize,
        r1: usize,
        c1: usize,
        turns: usize,
    ) -> Result<Self, ArrayError> {
        if r0 == r1 || c0 == c1 {
            return Err(ArrayError::DegenerateRectangle { r0, c0, r1, c1 });
        }
        if turns == 0 {
            return Err(ArrayError::InvalidParameter {
                what: "coil program needs at least one turn",
            });
        }
        let (r0, r1) = (r0.min(r1), r0.max(r1));
        let (c0, c1) = (c0.min(c1), c0.max(c1));
        if r1 - r0 < 2 * turns || c1 - c0 < 2 * turns {
            return Err(ArrayError::InvalidParameter {
                what: "spiral turns exceed the node extent",
            });
        }
        Ok(CoilProgram {
            r0,
            c0,
            r1,
            c1,
            turns,
        })
    }

    /// The preset programming behind `PSA_sel = sel` (a 12-wide square,
    /// [`SENSOR_TURNS`] turns).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::SensorOutOfRange`] when `sel` exceeds 15.
    pub fn preset(sel: u8) -> Result<Self, ArrayError> {
        if sel > 15 {
            return Err(ArrayError::SensorOutOfRange {
                index: sel as usize,
                len: 16,
            });
        }
        let (r0, c0, r1, c1) = date24_sensor_nodes()[sel as usize];
        Self::new(r0, c0, r1, c1, SENSOR_TURNS)
    }

    /// The normalized node rectangle `(r0, c0, r1, c1)`.
    pub fn node_rect(&self) -> SensorNodes {
        (self.r0, self.c0, self.r1, self.c1)
    }

    /// Number of nested windings.
    pub fn turns(&self) -> usize {
        self.turns
    }

    /// Programs the spiral onto `matrix` (clearing it first).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NodeOutOfRange`] when the rectangle falls
    /// outside the matrix's lattice.
    pub fn apply(&self, matrix: &mut SwitchMatrix) -> Result<(), ArrayError> {
        crate::coil::program_spiral(matrix, self.r0, self.c0, self.r1, self.c1, self.turns)
    }

    /// The sensing footprint on the die, µm (the outer rectangle).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NodeOutOfRange`] when the rectangle falls
    /// outside `lattice`.
    pub fn footprint(&self, lattice: &Lattice) -> Result<psa_layout::Rect, ArrayError> {
        let p0 = lattice.node_position(self.r0, self.c0)?;
        let p1 = lattice.node_position(self.r1, self.c1)?;
        Ok(psa_layout::Rect::new(p0.x, p0.y, p1.x, p1.y))
    }

    /// Programs a fresh matrix on `lattice`, extracts the coil, and
    /// enforces the loop-validity invariant: the closed switches form
    /// **exactly one** closed loop and **every** closed switch is part
    /// of it (no stubs, no extra loops).
    ///
    /// # Errors
    ///
    /// * [`ArrayError::NodeOutOfRange`] when the rectangle falls outside
    ///   `lattice`;
    /// * [`ArrayError::NoClosedLoop`] / [`ArrayError::MultipleLoops`]
    ///   from extraction;
    /// * [`ArrayError::InvalidParameter`] when a closed switch is left
    ///   outside the loop (cannot happen for spiral construction, but
    ///   the invariant is checked, not assumed).
    pub fn synthesize(&self, lattice: &Lattice) -> Result<crate::coil::Coil, ArrayError> {
        let mut matrix = SwitchMatrix::new(lattice);
        self.apply(&mut matrix)?;
        let coil = crate::coil::extract_coil(lattice, &matrix)?;
        if coil.switch_count() != matrix.closed_count() {
            return Err(ArrayError::InvalidParameter {
                what: "programmed switches include a switch outside the coil loop",
            });
        }
        Ok(coil)
    }
}

impl std::fmt::Display for CoilProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({},{})-({},{})x{}",
            self.r0, self.c0, self.r1, self.c1, self.turns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the switch at `(row, col)` is closed.
    fn closed(m: &SwitchMatrix, row: usize, col: usize) -> bool {
        m.bits[m.index(row, col).unwrap()]
    }

    fn matrix() -> SwitchMatrix {
        SwitchMatrix::new(&Lattice::date24())
    }

    #[test]
    fn open_close_roundtrip() {
        let mut m = matrix();
        assert!(!closed(&m, 10, 20));
        m.close(10, 20).unwrap();
        assert!(closed(&m, 10, 20));
        m.open(10, 20).unwrap();
        assert!(!closed(&m, 10, 20));
    }

    #[test]
    fn closed_switches_enumerated_in_order() {
        let mut m = matrix();
        m.close(2, 3).unwrap();
        m.close(0, 7).unwrap();
        m.close(2, 1).unwrap();
        assert_eq!(m.closed_switches(), vec![(0, 7), (2, 1), (2, 3)]);
        assert_eq!(m.closed_count(), 3);
    }

    #[test]
    fn rectangle_closes_four_corners() {
        let mut m = matrix();
        m.program_rectangle(4, 6, 10, 20).unwrap();
        assert_eq!(m.closed_count(), 4);
        for (r, c) in [(4, 6), (4, 20), (10, 20), (10, 6)] {
            assert!(closed(&m, r, c));
        }
    }

    #[test]
    fn degenerate_rectangle_rejected() {
        let mut m = matrix();
        // Same row: the dedicated variant, with the corners preserved.
        assert_eq!(
            m.program_rectangle(4, 6, 4, 20),
            Err(ArrayError::DegenerateRectangle {
                r0: 4,
                c0: 6,
                r1: 4,
                c1: 20
            })
        );
        // Same column.
        assert!(matches!(
            m.program_rectangle(4, 6, 10, 6),
            Err(ArrayError::DegenerateRectangle { .. })
        ));
        // A point (both axes collapsed).
        assert!(matches!(
            m.program_rectangle(7, 7, 7, 7),
            Err(ArrayError::DegenerateRectangle { .. })
        ));
        // Regression: the failed programmings must not have closed any
        // switch — closed_count previously double-counted the shared
        // corner story; now the matrix stays untouched on error.
        assert_eq!(m.closed_count(), 0);
    }

    #[test]
    fn out_of_range_rectangle_leaves_matrix_untouched() {
        let mut m = matrix();
        assert!(matches!(
            m.program_rectangle(0, 0, 36, 5),
            Err(ArrayError::NodeOutOfRange { .. })
        ));
        // Corners are validated before any switch closes, so a bounds
        // error cannot leave a half-programmed rectangle behind.
        assert_eq!(m.closed_count(), 0);
    }

    #[test]
    fn bounds_checked() {
        let mut m = matrix();
        assert!(m.close(36, 0).is_err());
        assert!(m.open(0, 36).is_err());
        assert!(m.program_rectangle(0, 0, 36, 5).is_err());
    }

    #[test]
    fn preset_sensors_are_12_wide_with_overlap() {
        let nodes = date24_sensor_nodes();
        for (r0, c0, r1, c1) in nodes {
            assert_eq!(r1 - r0, 12);
            assert_eq!(c1 - c0, 12);
            assert!(r1 <= 35 && c1 <= 35);
        }
        // Horizontal neighbours overlap by 4 of 12 segments (33 %).
        let a = nodes[0];
        let b = nodes[1];
        assert_eq!(a.3 - b.1, 4);
    }

    #[test]
    fn decoder_selects_each_sensor() {
        let mut m = matrix();
        for sel in 0..16u8 {
            decode_psa_sel(&mut m, sel).unwrap();
            assert_eq!(m.closed_count(), 4 * SENSOR_TURNS, "sensor {sel}");
            let (r0, c0, r1, c1) = date24_sensor_nodes()[sel as usize];
            // Outer-turn corners always present (the spiral's top-left
            // is the crossover side, so (r0, c0) itself stays open).
            assert!(closed(&m, r0, c1));
            assert!(closed(&m, r1, c1));
            assert!(closed(&m, r1, c0));
        }
        assert!(decode_psa_sel(&mut m, 16).is_err());
    }

    #[test]
    fn decoder_clears_previous_selection() {
        let mut m = matrix();
        decode_psa_sel(&mut m, 0).unwrap();
        decode_psa_sel(&mut m, 15).unwrap();
        assert_eq!(m.closed_count(), 4 * SENSOR_TURNS);
        // Sensor 0's corner must be open again.
        assert!(!closed(&m, 0, 0));
    }

    #[test]
    fn decoder_rejects_out_of_range_sel_without_touching_matrix() {
        let mut m = matrix();
        decode_psa_sel(&mut m, 7).unwrap();
        let before = m.clone();
        for sel in [16u8, 17, 100, 255] {
            assert_eq!(
                decode_psa_sel(&mut m, sel),
                Err(ArrayError::SensorOutOfRange {
                    index: sel as usize,
                    len: 16
                }),
                "sel {sel}"
            );
        }
        // The rejected selects must not have cleared or altered the
        // currently-programmed sensor.
        assert_eq!(m, before);
    }

    #[test]
    fn decoder_clears_stale_arbitrary_switches() {
        // Stale closed switches from a *hand-programmed* (non-preset)
        // state must not leak into the decoded coil.
        let mut m = matrix();
        m.program_rectangle(1, 1, 34, 34).unwrap();
        m.close(2, 30).unwrap();
        decode_psa_sel(&mut m, 5).unwrap();
        assert_eq!(m.closed_count(), 4 * SENSOR_TURNS);
        for (r, c) in [(1, 1), (1, 34), (34, 34), (34, 1), (2, 30)] {
            assert!(!closed(&m, r, c), "stale switch ({r}, {c})");
        }
        // And the decoded programming still extracts as one clean coil.
        let l = Lattice::date24();
        let coil = crate::coil::extract_coil(&l, &m).unwrap();
        assert_eq!(coil.switch_count(), 4 * SENSOR_TURNS);
    }

    #[test]
    fn coil_program_validation() {
        // Degenerate rectangles carry the dedicated variant.
        assert!(matches!(
            CoilProgram::new(4, 6, 4, 20, 1),
            Err(ArrayError::DegenerateRectangle { .. })
        ));
        assert!(matches!(
            CoilProgram::new(4, 6, 10, 6, 1),
            Err(ArrayError::DegenerateRectangle { .. })
        ));
        // Zero turns and too-tight extents are invalid parameters.
        assert!(CoilProgram::new(0, 0, 12, 12, 0).is_err());
        assert!(CoilProgram::new(0, 0, 5, 12, 3).is_err());
        assert!(CoilProgram::new(0, 0, 12, 5, 3).is_err());
        // Minimal extent: 2 turns need 4 segments per axis.
        assert!(CoilProgram::new(0, 0, 4, 4, 2).is_ok());
    }

    #[test]
    fn coil_program_normalizes_corner_order() {
        let a = CoilProgram::new(28, 28, 16, 16, 3).unwrap();
        let b = CoilProgram::new(16, 16, 28, 28, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.node_rect(), (16, 16, 28, 28));
        assert_eq!(a.turns(), 3);
        assert_eq!(a.to_string(), "(16,16)-(28,28)x3");
    }

    #[test]
    fn coil_program_presets_match_decoder() {
        let l = Lattice::date24();
        for sel in 0..16u8 {
            let p = CoilProgram::preset(sel).unwrap();
            let mut via_program = SwitchMatrix::new(&l);
            p.apply(&mut via_program).unwrap();
            let mut via_decoder = SwitchMatrix::new(&l);
            decode_psa_sel(&mut via_decoder, sel).unwrap();
            assert_eq!(via_program, via_decoder, "sel {sel}");
        }
        assert!(CoilProgram::preset(16).is_err());
    }

    #[test]
    fn coil_program_synthesize_enforces_single_loop() {
        let l = Lattice::date24();
        // Arbitrary non-preset geometries synthesize to valid coils.
        for (r0, c0, r1, c1, turns) in [(2, 3, 11, 30, 1), (16, 16, 28, 28, 4), (0, 0, 35, 35, 8)] {
            let p = CoilProgram::new(r0, c0, r1, c1, turns).unwrap();
            let coil = p.synthesize(&l).unwrap();
            assert_eq!(coil.switch_count(), 4 * turns, "{p}");
            // Winding-weighted area grows with each nested turn.
            assert!(coil.enclosed_area_um2() > 0.0);
        }
        // Off-lattice programs are rejected at synthesis.
        let off = CoilProgram::new(30, 30, 40, 40, 2).unwrap();
        assert!(matches!(
            off.synthesize(&l),
            Err(ArrayError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn coil_program_footprint_matches_node_positions() {
        let l = Lattice::date24();
        let p = CoilProgram::new(16, 16, 28, 28, 3).unwrap();
        let fp = p.footprint(&l).unwrap();
        let lo = l.node_position(16, 16).unwrap();
        let hi = l.node_position(28, 28).unwrap();
        assert_eq!(fp.min().x, lo.x);
        assert_eq!(fp.max().y, hi.y);
    }

    #[test]
    fn sensor_10_covers_die_center() {
        // Row-major index 10 = (row 2, col 2): nodes 16..28 → µm 457..800.
        let (r0, c0, r1, c1) = date24_sensor_nodes()[10];
        assert_eq!((r0, c0, r1, c1), (16, 16, 28, 28));
        let l = Lattice::date24();
        let p0 = l.node_position(r0, c0).unwrap();
        let p1 = l.node_position(r1, c1).unwrap();
        assert!(p0.x < 500.0 && p1.x > 700.0);
        assert!(p0.y < 500.0 && p1.y > 700.0);
    }
}

//! Coil-path extraction from a programmed switch matrix.
//!
//! Horizontal wires live on one metal layer, vertical wires on the
//! other; they connect only through closed T-gates. A sensing coil is
//! therefore a **cycle in the bipartite wire graph** whose vertices are
//! wires and whose edges are closed switches. The cycle's switch
//! positions, visited in order, trace the coil's closed path on the die —
//! including multi-turn spirals like the 2-turn example of Fig 1b (flux
//! through any closed path is handled exactly by the vector-potential
//! line integral in `psa-field`).

use crate::error::ArrayError;
use crate::lattice::Lattice;
use crate::program::SwitchMatrix;
use crate::tgate::TGate;
use psa_layout::{Point, Polygon};

/// An extracted sensing coil.
#[derive(Debug, Clone, PartialEq)]
pub struct Coil {
    /// Closed path on the die, µm: the switch positions in cycle order.
    path: Vec<Point>,
    /// Switch coordinates in cycle order.
    switches: Vec<(usize, usize)>,
    /// Total wire length along the path, µm.
    wire_length_um: f64,
    /// Wire resistance along the path, Ω.
    wire_resistance_ohm: f64,
}

impl Coil {
    /// Number of T-gates in the conduction path.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Total wire length, µm.
    pub fn wire_length_um(&self) -> f64 {
        self.wire_length_um
    }

    /// Series resistance: wire + `switch_count` T-gates at the given
    /// corner.
    pub fn series_resistance_ohm(&self, tgate: &TGate, vdd: f64, temp_c: f64) -> f64 {
        self.wire_resistance_ohm + self.switch_count() as f64 * tgate.r_on_ohm(vdd, temp_c)
    }

    /// The coil path as a polygon (self-intersecting for multi-turn
    /// coils; the flux line integral handles that correctly).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NoClosedLoop`] if the path has fewer than 3
    /// vertices (cannot happen for coils built by [`extract_coil`]).
    pub fn to_polygon(&self) -> Result<Polygon, ArrayError> {
        Polygon::new(self.path.clone()).map_err(|_| ArrayError::NoClosedLoop)
    }

    /// Signed enclosed area (µm²) via the shoelace formula over the
    /// closed path — for an N-turn coil this is approximately N × the
    /// single-turn area, which is how turn count is estimated.
    pub fn enclosed_area_um2(&self) -> f64 {
        let n = self.path.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.path[i];
            let b = self.path[(i + 1) % n];
            acc += a.x * b.y - b.x * a.y;
        }
        (acc / 2.0).abs()
    }

    /// Rough loop self-inductance estimate (rectangular-loop formula):
    /// `L ≈ (µ0/π)·ℓ·[ln(ℓ/w) − 0.77]` with ℓ the mean side length.
    pub fn inductance_estimate_h(&self, wire_width_um: f64) -> f64 {
        let perim_m = self.wire_length_um * 1e-6;
        if perim_m <= 0.0 {
            return 0.0;
        }
        let side_m = perim_m / 4.0;
        let w_m = wire_width_um.max(0.01) * 1e-6;
        let mu0_over_pi = 4.0e-7;
        (mu0_over_pi * side_m * ((side_m / w_m).ln() - 0.77)).max(0.0) * 4.0
    }
}

/// Extracts the single sensing coil from a programmed matrix.
///
/// # Errors
///
/// * [`ArrayError::NoClosedLoop`] — the closed switches contain no cycle
///   (e.g. an open coil after tampering).
/// * [`ArrayError::MultipleLoops`] — more than one independent cycle
///   (e.g. a short circuit adding an extra loop).
///
/// # Example
///
/// ```
/// use psa_array::lattice::Lattice;
/// use psa_array::coil::extract_coil;
/// use psa_array::program::SwitchMatrix;
///
/// let lattice = Lattice::date24();
/// let mut m = SwitchMatrix::new(&lattice);
/// m.program_rectangle(0, 0, 12, 12)?;
/// let coil = extract_coil(&lattice, &m)?;
/// assert_eq!(coil.switch_count(), 4);
/// # Ok::<(), psa_array::ArrayError>(())
/// ```
pub fn extract_coil(lattice: &Lattice, matrix: &SwitchMatrix) -> Result<Coil, ArrayError> {
    let cycles = extract_all_cycles(lattice, matrix)?;
    match cycles.len() {
        0 => Err(ArrayError::NoClosedLoop),
        1 => Ok(cycles.into_iter().next().expect("one cycle")),
        n => Err(ArrayError::MultipleLoops { count: n }),
    }
}

/// Extracts every independent cycle (coil) in the programmed matrix.
///
/// # Errors
///
/// Returns [`ArrayError::NodeOutOfRange`] only if the matrix and lattice
/// dimensions disagree (construction prevents this).
pub fn extract_all_cycles(
    lattice: &Lattice,
    matrix: &SwitchMatrix,
) -> Result<Vec<Coil>, ArrayError> {
    // Bipartite wire graph: vertices 0..rows are horizontal wires,
    // rows..rows+cols vertical; each closed switch (r, c) is an edge
    // h_r — v_c.
    let rows = lattice.rows();
    let cols = lattice.cols();
    let switches = matrix.closed_switches();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); rows + cols]; // (neighbor, switch idx)
    for (i, &(r, c)) in switches.iter().enumerate() {
        adj[r].push((rows + c, i));
        adj[rows + c].push((r, i));
    }

    let mut used_edge = vec![false; switches.len()];
    let mut cycles = Vec::new();

    // Repeatedly peel degree-1 vertices (dangling stubs cannot be part of
    // a cycle), then walk the remaining 2-regular-ish structure.
    let mut degree: Vec<usize> = adj.iter().map(|a| a.len()).collect();
    let mut removed_edge = vec![false; switches.len()];
    let mut queue: Vec<usize> = (0..adj.len()).filter(|&v| degree[v] == 1).collect();
    while let Some(v) = queue.pop() {
        if degree[v] != 1 {
            continue;
        }
        // Remove its single remaining edge.
        if let Some(&(u, e)) = adj[v].iter().find(|&&(_, e)| !removed_edge[e]) {
            removed_edge[e] = true;
            degree[v] -= 1;
            degree[u] -= 1;
            if degree[u] == 1 {
                queue.push(u);
            }
        }
    }

    // Walk cycles over the remaining edges.
    for start_edge in 0..switches.len() {
        if removed_edge[start_edge] || used_edge[start_edge] {
            continue;
        }
        let (r0, c0) = switches[start_edge];
        let start_v = r0;
        let mut path_switches = vec![start_edge];
        used_edge[start_edge] = true;
        let mut current = rows + c0;
        let mut guard = 0usize;
        let mut closed = false;
        while guard <= switches.len() {
            guard += 1;
            if current == start_v {
                closed = true;
                break;
            }
            let next = adj[current]
                .iter()
                .find(|&&(_, e)| !removed_edge[e] && !used_edge[e]);
            match next {
                Some(&(nv, e)) => {
                    used_edge[e] = true;
                    path_switches.push(e);
                    current = nv;
                }
                None => break,
            }
        }
        if !closed || path_switches.len() < 3 {
            continue;
        }
        // Build the geometric path from the switch sequence.
        let mut pts = Vec::with_capacity(path_switches.len());
        let mut coords = Vec::with_capacity(path_switches.len());
        let mut wire_len = 0.0;
        for (k, &e) in path_switches.iter().enumerate() {
            let (r, c) = switches[e];
            coords.push((r, c));
            pts.push(lattice.node_position(r, c)?);
            let (pr, pc) = switches[path_switches[(k + 1) % path_switches.len()]];
            let here = lattice.node_position(r, c)?;
            let there = lattice.node_position(pr, pc)?;
            wire_len += (here.x - there.x).abs() + (here.y - there.y).abs();
        }
        let wire_resistance = wire_len * lattice.r_per_um_ohm();
        cycles.push(Coil {
            path: pts,
            switches: coords,
            wire_length_um: wire_len,
            wire_resistance_ohm: wire_resistance,
        });
    }
    Ok(cycles)
}

/// Programs and extracts a 2-turn coil like Fig 1b: two nested
/// rectangles joined through a shared crossover column, yielding one
/// longer cycle whose enclosed (winding-weighted) area is roughly the
/// sum of both rectangles.
///
/// # Errors
///
/// Returns [`ArrayError::InvalidParameter`] when the geometry does not
/// leave room for the inner turn, or lattice bounds errors.
pub fn program_two_turn(
    matrix: &mut SwitchMatrix,
    r0: usize,
    c0: usize,
    r1: usize,
    c1: usize,
) -> Result<(), ArrayError> {
    if r1 <= r0 + 3 || c1 <= c0 + 3 {
        return Err(ArrayError::InvalidParameter {
            what: "two-turn coil needs at least a 4x4-node extent",
        });
    }
    // Outer turn uses rows r0/r1 and columns c0/c1; the inner turn is
    // inset by 2 nodes and shares column c0+1 as the crossover.
    let (ir0, ic0, ir1, ic1) = (r0 + 2, c0 + 2, r1 - 2, c1 - 2);
    matrix.clear();
    // One single cycle: h_r0 → v_c1 → h_r1 → v_c0 → h_ir0* … walk:
    // (r0,c0+1) starts the crossover into the inner winding.
    for &(r, c) in &[
        (r0, c1),
        (r1, c1),
        (r1, c0),
        (ir0, c0),
        (ir0, ic1),
        (ir1, ic1),
        (ir1, ic0),
        (r0, ic0),
    ] {
        matrix.close(r, c)?;
    }
    Ok(())
}

/// Programs an `n_turns` spiral of nested rectangles, each inset by one
/// lattice node, joined through crossover switches into one single
/// cycle — the multi-turn sensing coil of the test chip ("the green box
/// represents the area of a 6-turn-coil sensor", Fig 2).
///
/// Uses `4·n_turns` switches. The existing matrix contents are cleared.
///
/// # Errors
///
/// Returns [`ArrayError::InvalidParameter`] when the extent cannot hold
/// the requested turns (needs at least `2·n_turns + 1` nodes per axis),
/// and lattice bounds errors.
pub fn program_spiral(
    matrix: &mut SwitchMatrix,
    r0: usize,
    c0: usize,
    r1: usize,
    c1: usize,
    n_turns: usize,
) -> Result<(), ArrayError> {
    if n_turns == 0 {
        return Err(ArrayError::InvalidParameter {
            what: "spiral needs at least one turn",
        });
    }
    if r1 < r0 + 2 * n_turns || c1 < c0 + 2 * n_turns {
        return Err(ArrayError::InvalidParameter {
            what: "spiral turns exceed the node extent",
        });
    }
    matrix.clear();
    for k in 0..n_turns {
        let (rk0, ck0, rk1, ck1) = (r0 + k, c0 + k, r1 - k, c1 - k);
        // Three corners of turn k.
        matrix.close(rk0, ck1)?;
        matrix.close(rk1, ck1)?;
        matrix.close(rk1, ck0)?;
        if k + 1 < n_turns {
            // Crossover into the next (inner) turn via column ck0.
            matrix.close(r0 + k + 1, ck0)?;
        } else {
            // Innermost turn closes back along the outer top row.
            matrix.close(r0, ck0)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Lattice, SwitchMatrix) {
        let l = Lattice::date24();
        let m = SwitchMatrix::new(&l);
        (l, m)
    }

    #[test]
    fn rectangle_extracts_four_switch_cycle() {
        let (l, mut m) = setup();
        m.program_rectangle(4, 6, 16, 30).unwrap();
        let coil = extract_coil(&l, &m).unwrap();
        assert_eq!(coil.switch_count(), 4);
        // Perimeter: 2×(12 + 24) pitches.
        let expected = 2.0 * (12.0 + 24.0) * l.pitch_um();
        assert!((coil.wire_length_um() - expected).abs() < 1e-6);
        // Enclosed area = 12×24 pitches².
        let area = 12.0 * 24.0 * l.pitch_um() * l.pitch_um();
        assert!((coil.enclosed_area_um2() - area).abs() < 1e-6);
    }

    #[test]
    fn open_circuit_detected() {
        let (l, mut m) = setup();
        // Only 3 corners: no cycle.
        m.close(4, 6).unwrap();
        m.close(4, 30).unwrap();
        m.close(16, 30).unwrap();
        assert!(matches!(
            extract_coil(&l, &m),
            Err(ArrayError::NoClosedLoop)
        ));
    }

    #[test]
    fn two_disjoint_rectangles_are_two_loops() {
        let (l, mut m) = setup();
        m.program_rectangle(0, 0, 5, 5).unwrap();
        m.program_rectangle(20, 20, 30, 30).unwrap();
        assert!(matches!(
            extract_coil(&l, &m),
            Err(ArrayError::MultipleLoops { count: 2 })
        ));
        let all = extract_all_cycles(&l, &m).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn dangling_stub_is_ignored() {
        let (l, mut m) = setup();
        m.program_rectangle(4, 6, 16, 30).unwrap();
        // A stray closed switch touching the same wires but completing no
        // loop.
        m.close(4, 33).unwrap();
        let coil = extract_coil(&l, &m).unwrap();
        assert_eq!(coil.switch_count(), 4);
    }

    #[test]
    fn series_resistance_includes_switches_and_wire() {
        let (l, mut m) = setup();
        m.program_rectangle(0, 0, 12, 12).unwrap();
        let coil = extract_coil(&l, &m).unwrap();
        let tg = TGate::date24();
        let r = coil.series_resistance_ohm(&tg, 1.0, 25.0);
        let wire = coil.wire_length_um() * l.r_per_um_ohm();
        assert!((r - (wire + 4.0 * 34.0)).abs() < 1e-9);
        // Lower supply raises the total.
        assert!(coil.series_resistance_ohm(&tg, 0.8, 25.0) > r);
    }

    #[test]
    fn two_turn_coil_has_double_area() {
        let (l, mut m) = setup();
        program_two_turn(&mut m, 4, 4, 20, 20).unwrap();
        let coil = extract_coil(&l, &m).unwrap();
        assert_eq!(coil.switch_count(), 8);
        let outer = 16.0 * 16.0 * l.pitch_um() * l.pitch_um();
        let inner = 12.0 * 12.0 * l.pitch_um() * l.pitch_um();
        let area = coil.enclosed_area_um2();
        // Winding-weighted area ≈ outer + inner (crossover makes it
        // slightly less).
        assert!(
            area > 0.8 * (outer + inner) && area < 1.05 * (outer + inner),
            "area {area} vs outer+inner {}",
            outer + inner
        );
    }

    #[test]
    fn two_turn_needs_room() {
        let (_, mut m) = setup();
        assert!(program_two_turn(&mut m, 0, 0, 3, 10).is_err());
        assert!(program_two_turn(&mut m, 0, 0, 10, 3).is_err());
    }

    #[test]
    fn polygon_conversion() {
        let (l, mut m) = setup();
        m.program_rectangle(0, 0, 10, 10).unwrap();
        let coil = extract_coil(&l, &m).unwrap();
        let poly = coil.to_polygon().unwrap();
        assert_eq!(poly.vertices().len(), 4);
        assert!((poly.area() - coil.enclosed_area_um2()).abs() < 1e-9);
    }

    #[test]
    fn inductance_estimate_positive_and_scaling() {
        let (l, mut m) = setup();
        m.program_rectangle(0, 0, 6, 6).unwrap();
        let small = extract_coil(&l, &m).unwrap().inductance_estimate_h(1.0);
        m.clear();
        m.program_rectangle(0, 0, 24, 24).unwrap();
        let large = extract_coil(&l, &m).unwrap().inductance_estimate_h(1.0);
        assert!(small > 0.0);
        assert!(large > 2.0 * small);
        // Order of magnitude: sub-10 nH for sub-mm loops.
        assert!(large < 1.0e-8, "L = {large}");
    }

    #[test]
    fn empty_matrix_no_loop() {
        let (l, m) = setup();
        assert!(matches!(
            extract_coil(&l, &m),
            Err(ArrayError::NoClosedLoop)
        ));
        assert!(extract_all_cycles(&l, &m).unwrap().is_empty());
    }
}

//! Magnetic dipole fields and flux integrals.
//!
//! Every cluster of switching standard cells is modelled as a vertical
//! magnetic dipole sitting in the device layer: its switching current
//! circulates in a small loop (cell + local power grid), giving a moment
//! `m(t) = I(t)·A_loop` pointing out of the die.
//!
//! Flux through a sensing loop is computed as the line integral of the
//! dipole's vector potential around the loop boundary (Stokes), which is
//! numerically far better behaved than integrating `Bz` over the loop
//! area near the dipole:
//!
//! `Φ = ∮ A·dl`, with `A = (µ0/4π)·m (ẑ×r)/|r|³`.
//!
//! The closed-form on-axis result `Φ(R) = µ0 m R²/(2(R²+h²)^{3/2})` is
//! kept as a test oracle; its `1/R` large-`R` decay is the paper's flux
//! *self-cancellation* — the physical reason a matched small sensor beats
//! a whole-chip coil.

use psa_layout::{Point, Polygon};

/// µ0/4π in SI (T·m/A).
pub const MU0_OVER_4PI: f64 = 1.0e-7;
/// Microns to meters.
pub const UM: f64 = 1.0e-6;

/// A vertical magnetic dipole in the device plane (z = 0).
///
/// # Example
///
/// ```
/// use psa_field::dipole::Dipole;
/// use psa_layout::Point;
/// let d = Dipole::new(Point::new(0.0, 0.0), 1.0e-12);
/// // Flux through a loop directly above is positive (upward field).
/// let square = psa_layout::Rect::new(-30.0, -30.0, 30.0, 30.0);
/// assert!(d.flux_through_polygon(&square.to_polygon(), 5.0) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dipole {
    /// Position in the die plane, µm.
    pub position: Point,
    /// Magnetic moment, A·m² (positive = +z).
    pub moment: f64,
}

impl Dipole {
    /// Creates a dipole at `position` (µm) with `moment` (A·m²).
    pub fn new(position: Point, moment: f64) -> Self {
        Dipole { position, moment }
    }

    /// Flux (weber) through a polygonal loop in the plane z = `z_um`,
    /// via the vector-potential line integral. Positive for a
    /// counter-clockwise loop above a +z dipole.
    pub fn flux_through_polygon(&self, loop_poly: &Polygon, z_um: f64) -> f64 {
        let verts = loop_poly.vertices();
        let n = verts.len();
        let z = z_um * UM;
        let mut total = 0.0;
        for i in 0..n {
            let a = verts[i];
            let b = verts[(i + 1) % n];
            total += self.edge_integral(a, b, z);
        }
        MU0_OVER_4PI * self.moment * total
    }

    /// ∫ (ẑ×r̂)/|r|³ · dl along segment a→b at height z, relative to the
    /// dipole position. Adaptive: splits the segment until each chunk is
    /// short compared to its distance from the dipole axis.
    fn edge_integral(&self, a: Point, b: Point, z: f64) -> f64 {
        let ax = (a.x - self.position.x) * UM;
        let ay = (a.y - self.position.y) * UM;
        let bx = (b.x - self.position.x) * UM;
        let by = (b.y - self.position.y) * UM;
        self.segment_quad(ax, ay, bx, by, z, 0)
    }

    fn segment_quad(&self, ax: f64, ay: f64, bx: f64, by: f64, z: f64, depth: u32) -> f64 {
        let len = ((bx - ax).powi(2) + (by - ay).powi(2)).sqrt();
        let mx = (ax + bx) / 2.0;
        let my = (ay + by) / 2.0;
        let dist = (mx * mx + my * my + z * z).sqrt();
        if depth < 16 && len > 0.5 * dist {
            // Too long relative to its distance: bisect.
            return self.segment_quad(ax, ay, mx, my, z, depth + 1)
                + self.segment_quad(mx, my, bx, by, z, depth + 1);
        }
        // 4-point Gauss-Legendre on the segment.
        const GX: [f64; 4] = [
            -0.861136311594053,
            -0.339981043584856,
            0.339981043584856,
            0.861136311594053,
        ];
        const GW: [f64; 4] = [
            0.347854845137454,
            0.652145154862546,
            0.652145154862546,
            0.347854845137454,
        ];
        let mut acc = 0.0;
        for (t, w) in GX.iter().zip(GW.iter()) {
            let s = 0.5 * (1.0 + t); // [0,1]
            let x = ax + (bx - ax) * s;
            let y = ay + (by - ay) * s;
            let r2 = x * x + y * y + z * z;
            let r3 = r2 * r2.sqrt();
            // A ∝ (ẑ×r)/r³ = (-y, x, 0)/r³; dl = (bx-ax, by-ay)·ds/2… the
            // ds/2 half-width factor is applied after the loop.
            let integrand = (-y * (bx - ax) + x * (by - ay)) / r3;
            acc += w * integrand;
        }
        acc * 0.5
    }
}

/// Closed-form on-axis flux through a circle of radius `r_um` centred
/// above a dipole of moment `m` at height `z_um` — the test oracle:
/// `Φ = µ0·m·R²/(2(R²+z²)^{3/2})`.
pub fn on_axis_circle_flux(moment: f64, r_um: f64, z_um: f64) -> f64 {
    let r = r_um * UM;
    let z = z_um * UM;
    4.0 * std::f64::consts::PI * MU0_OVER_4PI * moment * r * r / (2.0 * (r * r + z * z).powf(1.5))
}

/// A regular polygon approximating a circle (counter-clockwise), used by
/// the probe models and tests.
pub fn circle_polygon(center: Point, r_um: f64, sides: usize) -> Polygon {
    let n = sides.max(3);
    let verts: Vec<Point> = (0..n)
        .map(|i| {
            let th = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            Point::new(center.x + r_um * th.cos(), center.y + r_um * th.sin())
        })
        .collect();
    Polygon::new(verts).expect("n >= 3")
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_layout::Rect;

    const M: f64 = 1.0e-12; // A·m², ~1 µA in a 1 µm² loop

    #[test]
    fn flux_matches_on_axis_closed_form() {
        let d = Dipole::new(Point::new(500.0, 500.0), M);
        for r in [5.0, 20.0, 100.0, 400.0] {
            for z in [2.0, 4.8, 10.0] {
                let poly = circle_polygon(Point::new(500.0, 500.0), r, 256);
                let numeric = d.flux_through_polygon(&poly, z);
                let exact = on_axis_circle_flux(M, r, z);
                let rel = (numeric - exact).abs() / exact.abs();
                assert!(rel < 2e-3, "r={r} z={z}: rel err {rel}");
            }
        }
    }

    #[test]
    fn self_cancellation_large_loops_collect_less_relative_flux() {
        // Φ(R) rises then decays ~1/R: a 50 µm loop right above the
        // dipole beats a 500 µm loop at the same height.
        let z = 4.8;
        let phi_small = on_axis_circle_flux(M, 50.0, z);
        let phi_large = on_axis_circle_flux(M, 500.0, z);
        assert!(phi_small > 5.0 * phi_large);
        // And the numeric path agrees.
        let d = Dipole::new(Point::ORIGIN, M);
        let s = d.flux_through_polygon(&circle_polygon(Point::ORIGIN, 50.0, 128), z);
        let l = d.flux_through_polygon(&circle_polygon(Point::ORIGIN, 500.0, 128), z);
        assert!(s > 5.0 * l);
    }

    #[test]
    fn flux_peak_near_r_equals_sqrt2_h() {
        // dΦ/dR = 0 at R = h√2.
        let z = 10.0;
        let peak_r = z * 2f64.sqrt();
        let phi_peak = on_axis_circle_flux(M, peak_r, z);
        for r in [peak_r * 0.5, peak_r * 2.0] {
            assert!(on_axis_circle_flux(M, r, z) < phi_peak);
        }
    }

    #[test]
    fn off_center_loop_sees_less_flux() {
        let d = Dipole::new(Point::new(0.0, 0.0), M);
        let z = 4.8;
        let centered = Rect::new(-50.0, -50.0, 50.0, 50.0);
        let offset = Rect::new(250.0, -50.0, 350.0, 50.0);
        let phi_c = d.flux_through_polygon(&centered.to_polygon(), z);
        let phi_o = d.flux_through_polygon(&offset.to_polygon(), z);
        assert!(phi_c > 10.0 * phi_o.abs(), "{phi_c} vs {phi_o}");
    }

    #[test]
    fn flux_scales_linearly_with_moment() {
        let rect = Rect::new(-40.0, -40.0, 40.0, 40.0);
        let d1 = Dipole::new(Point::ORIGIN, M);
        let d3 = Dipole::new(Point::ORIGIN, 3.0 * M);
        let f1 = d1.flux_through_polygon(&rect.to_polygon(), 5.0);
        let f3 = d3.flux_through_polygon(&rect.to_polygon(), 5.0);
        assert!((f3 / f1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn winding_direction_flips_sign() {
        let d = Dipole::new(Point::ORIGIN, M);
        let ccw = Rect::new(-30.0, -30.0, 30.0, 30.0).to_polygon();
        let cw = Polygon::new(ccw.vertices().iter().rev().copied().collect()).unwrap();
        let f_ccw = d.flux_through_polygon(&ccw, 5.0);
        let f_cw = d.flux_through_polygon(&cw, 5.0);
        assert!((f_ccw + f_cw).abs() < 1e-9 * f_ccw.abs());
        assert!(f_ccw > 0.0);
    }

    #[test]
    fn dipole_far_outside_loop_contributes_negligibly() {
        // A dipole 1 mm away from a small loop contributes ~nothing
        // compared to one underneath — the basis for localization.
        let near = Dipole::new(Point::new(0.0, 0.0), M);
        let far = Dipole::new(Point::new(1000.0, 1000.0), M);
        let rect = Rect::new(-50.0, -50.0, 50.0, 50.0);
        let f_near = near.flux_through_polygon(&rect.to_polygon(), 4.8);
        let f_far = far.flux_through_polygon(&rect.to_polygon(), 4.8).abs();
        assert!(f_near > 1e3 * f_far, "{f_near} vs {f_far}");
    }

    #[test]
    fn circle_polygon_basics() {
        let c = circle_polygon(Point::new(10.0, 20.0), 5.0, 64);
        assert_eq!(c.vertices().len(), 64);
        let area_err = (c.area() - std::f64::consts::PI * 25.0).abs();
        assert!(area_err < 0.2);
        // Degenerate side count clamps to 3.
        assert_eq!(circle_polygon(Point::ORIGIN, 1.0, 0).vertices().len(), 3);
    }
}

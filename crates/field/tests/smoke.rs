//! Crate smoke test: dipole flux is local (small loop above beats
//! whole-die loop).

use psa_field::dipole::Dipole;
use psa_layout::{Point, Rect};

#[test]
fn dipole_flux_smoke() {
    let d = Dipole::new(Point::new(500.0, 500.0), 1.0e-12);
    let small = Rect::new(450.0, 450.0, 550.0, 550.0);
    let large = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let phi_small = d.flux_through_polygon(&small.to_polygon(), 5.0);
    let phi_large = d.flux_through_polygon(&large.to_polygon(), 5.0);
    assert!(phi_small > 0.9 * phi_large);
}

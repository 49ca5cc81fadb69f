//! The test chip's 16-sensor preset (paper Sec. V-A).
//!
//! The die is uniformly divided into 16 square sensing areas, each
//! sharing about a third of its area with its neighbours so circuitry
//! near sensor borders is adequately sampled. The four sensors of each
//! row share one differential output channel (`Sensor1±` … `Sensor4±`),
//! selected by `PSA_sel[3:0]`.

use crate::coil::{extract_coil, Coil};
use crate::error::ArrayError;
use crate::lattice::Lattice;
use crate::program::{date24_sensor_nodes, decode_psa_sel, SwitchMatrix};
use psa_layout::Rect;

/// One preset sensor: its lattice programming plus derived geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensor {
    footprint: Rect,
    coil: Coil,
}

impl Sensor {
    /// The sensing footprint on the die, µm.
    pub fn footprint(&self) -> Rect {
        self.footprint
    }

    /// The programmed coil.
    pub fn coil(&self) -> &Coil {
        &self.coil
    }
}

/// The bank of 16 preset sensors.
///
/// # Example
///
/// ```
/// use psa_array::sensors::SensorBank;
/// let bank = SensorBank::date24_default();
/// let s10 = bank.sensor(10).unwrap();
/// // Sensor 10 (row 2, column 2) covers the die centre.
/// assert!(s10.footprint().contains(psa_layout::Point::new(500.0, 500.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensorBank {
    lattice: Lattice,
    sensors: Vec<Sensor>,
}

impl SensorBank {
    /// Builds the 16-sensor test-chip preset on the default lattice.
    pub fn date24_default() -> Self {
        Self::build(Lattice::date24()).expect("default preset is valid")
    }

    /// Builds the preset on a custom lattice (must be at least 36×36).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::NodeOutOfRange`] if the lattice is too
    /// small for the preset node rectangles, or a coil-extraction error
    /// if a programming is invalid.
    pub fn build(lattice: Lattice) -> Result<Self, ArrayError> {
        let mut sensors = Vec::with_capacity(16);
        for (i, &(r0, c0, r1, c1)) in date24_sensor_nodes().iter().enumerate() {
            let mut m = SwitchMatrix::new(&lattice);
            decode_psa_sel(&mut m, i as u8)?;
            let coil = extract_coil(&lattice, &m)?;
            let p0 = lattice.node_position(r0, c0)?;
            let p1 = lattice.node_position(r1, c1)?;
            sensors.push(Sensor {
                footprint: Rect::new(p0.x, p0.y, p1.x, p1.y),
                coil,
            });
        }
        Ok(SensorBank { lattice, sensors })
    }

    /// The underlying lattice.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Number of sensors (16 for the preset).
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// `true` if the bank has no sensors (never for the preset).
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// Looks up a sensor by index.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::SensorOutOfRange`] past the end.
    pub fn sensor(&self, index: usize) -> Result<&Sensor, ArrayError> {
        self.sensors.get(index).ok_or(ArrayError::SensorOutOfRange {
            index,
            len: self.sensors.len(),
        })
    }

    /// Iterates over all sensors in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Sensor> {
        self.sensors.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_sensors_in_grid() {
        let bank = SensorBank::date24_default();
        assert_eq!(bank.len(), 16);
        assert!(!bank.is_empty());
        assert_eq!(bank.iter().count(), 16);
    }

    #[test]
    fn adjacent_sensors_overlap_about_a_third() {
        let bank = SensorBank::date24_default();
        let a = bank.sensor(5).unwrap().footprint();
        let b = bank.sensor(6).unwrap().footprint();
        let overlap = (a.max().x.min(b.max().x) - a.min().x.max(b.min().x))
            * (a.max().y.min(b.max().y) - a.min().y.max(b.min().y));
        let frac = overlap / a.area();
        assert!((frac - 1.0 / 3.0).abs() < 0.02, "overlap fraction {frac}");
    }

    #[test]
    fn footprints_tile_the_die() {
        let bank = SensorBank::date24_default();
        let die = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        // Union of footprints covers the die corners and centre.
        for probe in [
            (1.0, 1.0),
            (999.0, 1.0),
            (1.0, 999.0),
            (999.0, 999.0),
            (500.0, 500.0),
        ] {
            let covered = bank.iter().any(|s| {
                s.footprint()
                    .contains(psa_layout::Point::new(probe.0, probe.1))
            });
            assert!(covered, "point {probe:?} uncovered");
        }
        for s in bank.iter() {
            assert!(die.contains(s.footprint().min()));
            assert!(die.contains(s.footprint().max()));
        }
    }

    #[test]
    fn sensor10_covers_trojan_quarter() {
        let bank = SensorBank::date24_default();
        let s10 = bank.sensor(10).unwrap();
        let fp = s10.footprint();
        // The floorplan puts all four Trojans in [457..800]² µm.
        assert!(fp.min().x < 460.0 && fp.max().x > 799.0);
        assert!(fp.min().y < 460.0 && fp.max().y > 799.0);
    }

    #[test]
    fn every_coil_is_a_six_turn_spiral() {
        let bank = SensorBank::date24_default();
        for (i, s) in bank.iter().enumerate() {
            assert_eq!(
                s.coil().switch_count(),
                4 * crate::program::SENSOR_TURNS,
                "sensor {i}"
            );
            assert!(s.coil().wire_length_um() > 4000.0);
            // Winding-weighted area: sum over the nested turns, several
            // times the footprint but bounded by turns x footprint.
            let poly_area = s.coil().enclosed_area_um2();
            assert!(poly_area > 1.5 * s.footprint().area());
            assert!(poly_area < crate::program::SENSOR_TURNS as f64 * s.footprint().area());
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let bank = SensorBank::date24_default();
        assert!(bank.sensor(16).is_err());
    }
}

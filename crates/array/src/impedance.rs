//! Coil impedance versus frequency, supply voltage, and temperature.
//!
//! The paper sizes the lattice wires by frequency-sweeping for maximum
//! signal in the 10–100 MHz band (Sec. V-A) and validates run-time
//! robustness by showing the sensor impedance moves ≤ 4 dB across the
//! full supply (0.8–1.2 V) and temperature (−40–125 °C) ranges
//! (Sec. VI-C). This module reproduces those sweeps with an R-L model
//! plus a small parasitic shunt capacitance.

use crate::coil::Coil;
use crate::tgate::TGate;
use std::f64::consts::PI;

/// Lumped impedance model of a programmed sensing coil.
///
/// # Example
///
/// ```
/// use psa_array::lattice::Lattice;
/// use psa_array::program::SwitchMatrix;
/// use psa_array::coil::extract_coil;
/// use psa_array::impedance::CoilImpedance;
/// use psa_array::tgate::TGate;
///
/// let lattice = Lattice::date24();
/// let mut m = SwitchMatrix::new(&lattice);
/// m.program_rectangle(0, 0, 12, 12)?;
/// let coil = extract_coil(&lattice, &m)?;
/// let z = CoilImpedance::of_coil(&coil, &TGate::date24(), 1.0, 25.0, 1.0);
/// assert!(z.magnitude_ohm(50.0e6) > z.magnitude_ohm(0.0) * 0.99);
/// # Ok::<(), psa_array::ArrayError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoilImpedance {
    r_ohm: f64,
    l_h: f64,
    c_f: f64,
}

impl CoilImpedance {
    /// Parasitic shunt capacitance per switch in the path, farads
    /// (drain/source junction + wiring).
    pub const C_PER_SWITCH_F: f64 = 8.0e-15;

    /// Builds the model from an extracted coil at a given corner.
    pub fn of_coil(coil: &Coil, tgate: &TGate, vdd: f64, temp_c: f64, wire_width_um: f64) -> Self {
        CoilImpedance {
            r_ohm: coil.series_resistance_ohm(tgate, vdd, temp_c),
            l_h: coil.inductance_estimate_h(wire_width_um),
            c_f: coil.switch_count() as f64 * Self::C_PER_SWITCH_F,
        }
    }

    /// Impedance magnitude at `freq_hz`: `(R + jωL)` in parallel with
    /// the parasitic `1/(jωC)`.
    pub fn magnitude_ohm(&self, freq_hz: f64) -> f64 {
        let w = 2.0 * PI * freq_hz.max(0.0);
        let (sr, sx) = (self.r_ohm, w * self.l_h);
        if self.c_f <= 0.0 || w == 0.0 {
            return sr.hypot(sx);
        }
        // Z = Zs / (1 + jωC·Zs)
        let (dr, dx) = (1.0 - w * self.c_f * sx, w * self.c_f * sr);
        sr.hypot(sx) / dr.hypot(dx)
    }

    /// Impedance magnitude in dBΩ.
    pub fn magnitude_db(&self, freq_hz: f64) -> f64 {
        20.0 * self.magnitude_ohm(freq_hz).max(1e-12).log10()
    }

    /// Self-resonance frequency, Hz (beyond the band of interest).
    pub fn self_resonance_hz(&self) -> f64 {
        if self.l_h <= 0.0 || self.c_f <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / (2.0 * PI * (self.l_h * self.c_f).sqrt())
    }
}

/// Sweeps |Z| in dB over supply voltages at fixed frequency and
/// temperature; returns `(vdd, dB)` pairs. Reproduces Sec. VI-C.1.
pub fn voltage_sweep_db(
    coil: &Coil,
    tgate: &TGate,
    freq_hz: f64,
    temp_c: f64,
    vdds: &[f64],
) -> Vec<(f64, f64)> {
    vdds.iter()
        .map(|&v| {
            let z = CoilImpedance::of_coil(coil, tgate, v, temp_c, 1.0);
            (v, z.magnitude_db(freq_hz))
        })
        .collect()
}

/// Sweeps |Z| in dB over temperatures at fixed frequency and supply;
/// returns `(°C, dB)` pairs. Reproduces Sec. VI-C.2.
pub fn temperature_sweep_db(
    coil: &Coil,
    tgate: &TGate,
    freq_hz: f64,
    vdd: f64,
    temps_c: &[f64],
) -> Vec<(f64, f64)> {
    temps_c
        .iter()
        .map(|&t| {
            let z = CoilImpedance::of_coil(coil, tgate, vdd, t, 1.0);
            (t, z.magnitude_db(freq_hz))
        })
        .collect()
}

/// Peak-to-peak spread of the dB values in a sweep.
pub fn sweep_spread_db(sweep: &[(f64, f64)]) -> f64 {
    let max = sweep.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let min = sweep.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    if max.is_finite() && min.is_finite() {
        max - min
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Lattice;
    use crate::program::SwitchMatrix;

    fn sensor_coil() -> Coil {
        let l = Lattice::date24();
        let mut m = SwitchMatrix::new(&l);
        m.program_rectangle(16, 16, 28, 28).unwrap(); // sensor 10
        crate::coil::extract_coil(&l, &m).unwrap()
    }

    #[test]
    fn dc_impedance_equals_resistance() {
        let coil = sensor_coil();
        let z = CoilImpedance::of_coil(&coil, &TGate::date24(), 1.0, 25.0, 1.0);
        assert!((z.magnitude_ohm(0.0) - z.r_ohm).abs() < 1e-9);
    }

    #[test]
    fn impedance_flat_through_measurement_band() {
        // R dominates ωL below 120 MHz for a sensor-sized coil: |Z|
        // changes by well under 1 dB across the band.
        let coil = sensor_coil();
        let z = CoilImpedance::of_coil(&coil, &TGate::date24(), 1.0, 25.0, 1.0);
        let spread = z.magnitude_db(120.0e6) - z.magnitude_db(10.0e6);
        assert!(spread.abs() < 1.0, "band spread {spread} dB");
    }

    #[test]
    fn self_resonance_far_above_band() {
        let coil = sensor_coil();
        let z = CoilImpedance::of_coil(&coil, &TGate::date24(), 1.0, 25.0, 1.0);
        assert!(z.self_resonance_hz() > 1.0e9);
        let open = CoilImpedance {
            r_ohm: 10.0,
            l_h: 0.0,
            c_f: 0.0,
        };
        assert_eq!(open.self_resonance_hz(), f64::INFINITY);
    }

    #[test]
    fn voltage_sweep_within_about_4db() {
        // Paper Sec. VI-C.1: ~4 dB over 0.8 → 1.2 V.
        let coil = sensor_coil();
        let sweep = voltage_sweep_db(
            &coil,
            &TGate::date24(),
            48.0e6,
            25.0,
            &[0.8, 0.9, 1.0, 1.1, 1.2],
        );
        let spread = sweep_spread_db(&sweep);
        assert!((2.0..5.0).contains(&spread), "voltage spread {spread} dB");
        // Monotone: higher supply, lower impedance.
        for w in sweep.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    fn temperature_sweep_within_about_4db() {
        // Paper Sec. VI-C.2: within ~4 dB over −40 → 125 °C.
        let coil = sensor_coil();
        let sweep = temperature_sweep_db(
            &coil,
            &TGate::date24(),
            48.0e6,
            1.0,
            &[-40.0, -20.0, 0.0, 25.0, 50.0, 85.0, 125.0],
        );
        let spread = sweep_spread_db(&sweep);
        assert!(
            (1.5..4.5).contains(&spread),
            "temperature spread {spread} dB"
        );
    }

    #[test]
    fn magnitude_db_consistency() {
        let z = CoilImpedance {
            r_ohm: 100.0,
            l_h: 1e-9,
            c_f: 1e-14,
        };
        let m = z.magnitude_ohm(48.0e6);
        assert!((z.magnitude_db(48.0e6) - 20.0 * m.log10()).abs() < 1e-9);
    }

    #[test]
    fn sweep_spread_of_empty_is_zero() {
        assert_eq!(sweep_spread_db(&[]), 0.0);
    }
}

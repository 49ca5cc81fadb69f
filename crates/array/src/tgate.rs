//! The custom transmission gate of Fig 1c.
//!
//! Two PMOS/NMOS pairs in parallel in a 3.2 µm × 4 µm custom cell,
//! achieving ≈ 34 Ω on-resistance at nominal corner. Supply-voltage and
//! temperature dependence follow a first-order MOSFET model — enough to
//! reproduce the ≤ 4 dB impedance spread the paper reports over
//! 0.8–1.2 V and −40–125 °C (Sec. VI-C).

/// Transmission-gate electrical model.
///
/// # Example
///
/// ```
/// use psa_array::tgate::TGate;
/// let tg = TGate::date24();
/// // ≈ 34 Ω at the nominal corner.
/// assert!((tg.r_on_ohm(1.0, 25.0) - 34.0).abs() < 0.5);
/// // Higher supply → lower on-resistance.
/// assert!(tg.r_on_ohm(1.2, 25.0) < tg.r_on_ohm(0.8, 25.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TGate {
    /// On-resistance at `(v_nominal, t_nominal)`, Ω.
    pub r_nominal_ohm: f64,
    /// Nominal supply voltage, V.
    pub v_nominal: f64,
    /// Effective threshold voltage of the composite gate, V. The
    /// parallel NMOS+PMOS pair conducts over the full swing, so the
    /// *effective* threshold governing R(V) is low.
    pub v_threshold: f64,
    /// Mobility temperature exponent (R ∝ (T/T₀)^α).
    pub temp_exponent: f64,
    /// Cell width, µm (Fig 1c: 3.2 µm).
    pub width_um: f64,
    /// Cell height, µm (Fig 1c: 4 µm).
    pub height_um: f64,
    /// Off-state leakage resistance, Ω.
    pub r_off_ohm: f64,
}

impl TGate {
    /// Nominal corner temperature, °C.
    pub const T_NOMINAL_C: f64 = 25.0;

    /// The paper's T-gate: 34 Ω nominal, 3.2 µm × 4 µm cell.
    pub fn date24() -> Self {
        TGate {
            r_nominal_ohm: 34.0,
            v_nominal: 1.0,
            v_threshold: 0.2,
            temp_exponent: 0.9,
            width_um: 3.2,
            height_um: 4.0,
            r_off_ohm: 5.0e8,
        }
    }

    /// On-resistance at supply `vdd` (V) and ambient `temp_c` (°C).
    ///
    /// `R(V, T) = R_nom · (V_nom − V_th)/(V − V_th) · (T_K/T₀_K)^α`
    ///
    /// Supplies at or below the threshold return the off-resistance.
    pub fn r_on_ohm(&self, vdd: f64, temp_c: f64) -> f64 {
        if vdd <= self.v_threshold + 0.05 {
            return self.r_off_ohm;
        }
        let v_term = (self.v_nominal - self.v_threshold) / (vdd - self.v_threshold);
        let t0 = Self::T_NOMINAL_C + 273.15;
        let t = temp_c + 273.15;
        let t_term = (t / t0).powf(self.temp_exponent);
        self.r_nominal_ohm * v_term * t_term
    }

    /// Cell footprint area, µm².
    pub fn area_um2(&self) -> f64 {
        self.width_um * self.height_um
    }
}

impl Default for TGate {
    fn default() -> Self {
        TGate::date24()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resistance spread in dB between two `(vdd, temp_c)` corners.
    fn spread_db(tg: &TGate, a: (f64, f64), b: (f64, f64)) -> f64 {
        (20.0 * (tg.r_on_ohm(a.0, a.1) / tg.r_on_ohm(b.0, b.1)).log10()).abs()
    }

    #[test]
    fn nominal_resistance_is_34_ohm() {
        let tg = TGate::date24();
        assert!((tg.r_on_ohm(1.0, 25.0) - 34.0).abs() < 1e-9);
    }

    #[test]
    fn voltage_dependence_monotone_decreasing() {
        let tg = TGate::date24();
        let mut prev = f64::INFINITY;
        for v in [0.8, 0.9, 1.0, 1.1, 1.2, 1.25] {
            let r = tg.r_on_ohm(v, 25.0);
            assert!(r < prev, "R({v}) = {r} not decreasing");
            prev = r;
        }
    }

    #[test]
    fn temperature_dependence_monotone_increasing() {
        let tg = TGate::date24();
        let mut prev = 0.0;
        for t in [-40.0, 0.0, 25.0, 85.0, 125.0] {
            let r = tg.r_on_ohm(1.0, t);
            assert!(r > prev, "R at {t} C = {r} not increasing");
            prev = r;
        }
    }

    #[test]
    fn voltage_spread_is_about_4db() {
        // Paper Sec. VI-C.1: ~4 dB impedance drop from 0.8 V to 1.2 V.
        let tg = TGate::date24();
        let spread = spread_db(&tg, (0.8, 25.0), (1.2, 25.0));
        assert!((3.0..6.0).contains(&spread), "voltage spread {spread} dB");
    }

    #[test]
    fn temperature_spread_is_about_4db() {
        // Paper Sec. VI-C.2: impedance fluctuates within ~4 dB over
        // −40 to 125 °C.
        let tg = TGate::date24();
        let spread = spread_db(&tg, (1.0, -40.0), (1.0, 125.0));
        assert!(
            (2.0..5.0).contains(&spread),
            "temperature spread {spread} dB"
        );
    }

    #[test]
    fn below_threshold_is_off() {
        let tg = TGate::date24();
        assert_eq!(tg.r_on_ohm(0.1, 25.0), tg.r_off_ohm);
        assert_eq!(tg.r_on_ohm(0.0, 25.0), tg.r_off_ohm);
    }

    #[test]
    fn cell_area_matches_fig1c() {
        let tg = TGate::date24();
        assert!((tg.area_um2() - 12.8).abs() < 1e-12);
    }
}

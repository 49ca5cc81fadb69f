//! Die outline and metal stack.
//!
//! The vertical geometry matters to the EM model: switching currents flow
//! in the device layer near the substrate surface, while the PSA coils sit
//! on the two *top* metals (M7/M8 in the paper's TSMC 65 nm stack), a few
//! microns above. That standoff `h` is what bounds the flux a matched
//! small loop can collect (`Φ` peaks for loop radius ≈ h·√2) and is tiny
//! compared to the millimetre-scale standoff of an external probe.

use crate::geom::Rect;

/// One metal layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetalLayer {
    /// 1-based index (M1 = 1 … M8 = 8).
    pub index: u8,
    /// Height of the layer's mid-plane above the device layer, µm.
    pub z_um: f64,
    /// Layer thickness, µm (top metals are the thick ones).
    pub thickness_um: f64,
    /// Sheet resistance, mΩ/□ (thick top metals are low-resistance).
    pub sheet_resistance_mohm_sq: f64,
}

/// The die: outline plus metal stack.
///
/// # Example
///
/// ```
/// use psa_layout::die::Die;
/// let die = Die::tsmc65_1mm();
/// assert!(die.metal(8).is_some() && die.metal(9).is_none());
/// // PSA metals are the two topmost.
/// assert_eq!(die.psa_layers(), (7, 8));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Die {
    outline: Rect,
    layers: Vec<MetalLayer>,
}

impl Die {
    /// The paper's test chip: 1 mm × 1 mm in a TSMC 65 nm-like 8-metal
    /// stack. Layer heights/thicknesses are representative textbook
    /// values for a 65 nm 8-metal process (exact foundry numbers are
    /// proprietary); only their order of magnitude matters to the flux
    /// model.
    pub fn tsmc65_1mm() -> Self {
        let mut layers = Vec::with_capacity(8);
        // Thin lower metals ~0.2 µm thick spaced ~0.4 µm apart, two thick
        // top metals (the "RDL-class" layers the PSA uses).
        let mut z = 0.6; // M1 mid-plane above the device layer
        for i in 1..=6u8 {
            layers.push(MetalLayer {
                index: i,
                z_um: z,
                thickness_um: 0.22,
                sheet_resistance_mohm_sq: 120.0,
            });
            z += 0.55;
        }
        layers.push(MetalLayer {
            index: 7,
            z_um: 4.2,
            thickness_um: 0.9,
            sheet_resistance_mohm_sq: 22.0,
        });
        layers.push(MetalLayer {
            index: 8,
            z_um: 5.4,
            thickness_um: 3.3,
            sheet_resistance_mohm_sq: 7.0,
        });
        Die {
            outline: Rect::new(0.0, 0.0, 1000.0, 1000.0),
            layers,
        }
    }

    /// Die outline in µm.
    pub fn outline(&self) -> Rect {
        self.outline
    }

    /// Looks up a metal layer by 1-based index.
    pub fn metal(&self, index: u8) -> Option<&MetalLayer> {
        self.layers.iter().find(|l| l.index == index)
    }

    /// Indices of the two layers carrying the PSA (the topmost pair).
    pub fn psa_layers(&self) -> (u8, u8) {
        let n = self.layers.len();
        (self.layers[n - 2].index, self.layers[n - 1].index)
    }

    /// Height of the PSA sensing plane above the device layer, µm: the
    /// midpoint of the two top metals. This is the `h` of the flux model.
    pub fn psa_plane_z_um(&self) -> f64 {
        let (a, b) = self.psa_layers();
        let za = self.metal(a).expect("layer exists").z_um;
        let zb = self.metal(b).expect("layer exists").z_um;
        (za + zb) / 2.0
    }
}

impl Default for Die {
    fn default() -> Self {
        Die::tsmc65_1mm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_is_eight_metals_ascending() {
        let die = Die::tsmc65_1mm();
        assert_eq!(die.layers.len(), 8);
        for w in die.layers.windows(2) {
            assert!(w[1].z_um > w[0].z_um, "stack must ascend");
            assert!(w[1].index == w[0].index + 1);
        }
    }

    #[test]
    fn top_metals_are_thick_and_low_resistance() {
        let die = Die::tsmc65_1mm();
        let m1 = die.metal(1).unwrap();
        let m8 = die.metal(8).unwrap();
        assert!(m8.thickness_um > 3.0 * m1.thickness_um);
        assert!(m8.sheet_resistance_mohm_sq < m1.sheet_resistance_mohm_sq / 5.0);
    }

    #[test]
    fn psa_plane_is_microns_above_devices() {
        let die = Die::tsmc65_1mm();
        assert_eq!(die.psa_layers(), (7, 8));
        let h = die.psa_plane_z_um();
        assert!((4.0..7.0).contains(&h), "psa plane at {h} um");
    }

    #[test]
    fn outline_is_one_millimetre() {
        let die = Die::tsmc65_1mm();
        assert_eq!(die.outline().width(), 1000.0);
        assert_eq!(die.outline().height(), 1000.0);
        assert_eq!(die.outline().area(), 1.0e6);
    }

    #[test]
    fn metal_lookup() {
        let die = Die::default();
        assert!(die.metal(3).is_some());
        assert!(die.metal(9).is_none());
        assert!(die.metal(0).is_none());
    }
}

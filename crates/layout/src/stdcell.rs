//! Standard-cell kinds and their electrical parameters.
//!
//! The Hamming-distance power model charges each output toggle with a
//! per-cell switching charge `q_sw = C_load · V_dd`. Values here are
//! representative of a 65 nm GP library at 1.0 V — only relative
//! magnitudes matter to the reproduced figures, and they are calibrated
//! once in `psa-core::calib`.

use std::fmt;

/// Standard-cell families used by the test chip and its Trojans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StdCellKind {
    /// Inverter (T2's leakage-amplifier chain is built from these).
    Inv,
    /// Buffer / clock buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR (AES round function is XOR-heavy).
    Xor2,
    /// 2-to-1 multiplexer.
    Mux2,
    /// D flip-flop with reset (state registers, counters).
    Dff,
    /// A LUT-style combinational lookup macro (the AES-128-LUT S-box
    /// tables of Morioka/Satoh used by the paper's main circuit).
    Lut,
}

impl StdCellKind {
    /// All kinds.
    pub const ALL: [StdCellKind; 8] = [
        StdCellKind::Inv,
        StdCellKind::Buf,
        StdCellKind::Nand2,
        StdCellKind::Nor2,
        StdCellKind::Xor2,
        StdCellKind::Mux2,
        StdCellKind::Dff,
        StdCellKind::Lut,
    ];

    /// Cell footprint area in µm² (65 nm-class).
    pub fn area_um2(self) -> f64 {
        match self {
            StdCellKind::Inv => 1.0,
            StdCellKind::Buf => 1.4,
            StdCellKind::Nand2 => 1.4,
            StdCellKind::Nor2 => 1.4,
            StdCellKind::Xor2 => 3.1,
            StdCellKind::Mux2 => 2.9,
            StdCellKind::Dff => 6.1,
            StdCellKind::Lut => 14.0,
        }
    }

    /// Switching charge per output toggle, in femtocoulombs: effective
    /// load capacitance (gate + wire) times a 1.0 V swing.
    pub fn switching_charge_fc(self) -> f64 {
        match self {
            StdCellKind::Inv => 1.6,
            StdCellKind::Buf => 2.4,
            StdCellKind::Nand2 => 2.0,
            StdCellKind::Nor2 => 2.0,
            StdCellKind::Xor2 => 3.4,
            StdCellKind::Mux2 => 3.0,
            StdCellKind::Dff => 5.2,
            StdCellKind::Lut => 9.5,
        }
    }
}

impl fmt::Display for StdCellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StdCellKind::Inv => "INV",
            StdCellKind::Buf => "BUF",
            StdCellKind::Nand2 => "NAND2",
            StdCellKind::Nor2 => "NOR2",
            StdCellKind::Xor2 => "XOR2",
            StdCellKind::Mux2 => "MUX2",
            StdCellKind::Dff => "DFF",
            StdCellKind::Lut => "LUT",
        };
        f.write_str(s)
    }
}

/// A mix of standard cells, as fractions summing to 1, describing a
/// module's composition. Used to derive a module's mean per-toggle charge
/// and area without enumerating every gate.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMix {
    entries: Vec<(StdCellKind, f64)>,
}

impl CellMix {
    /// Builds a mix; fractions are normalized to sum to 1. Entries with
    /// non-positive weight are dropped.
    pub fn new(entries: &[(StdCellKind, f64)]) -> Self {
        let mut kept: Vec<(StdCellKind, f64)> =
            entries.iter().copied().filter(|(_, w)| *w > 0.0).collect();
        let total: f64 = kept.iter().map(|(_, w)| w).sum();
        if total > 0.0 {
            for (_, w) in &mut kept {
                *w /= total;
            }
        }
        CellMix { entries: kept }
    }

    /// A datapath-flavoured mix (XOR/LUT heavy) for the AES core.
    pub fn aes_datapath() -> Self {
        CellMix::new(&[
            (StdCellKind::Xor2, 0.30),
            (StdCellKind::Lut, 0.14),
            (StdCellKind::Nand2, 0.18),
            (StdCellKind::Mux2, 0.12),
            (StdCellKind::Dff, 0.16),
            (StdCellKind::Buf, 0.10),
        ])
    }

    /// A control-flavoured mix (FF and NAND heavy) for UART/decoders.
    pub fn control_logic() -> Self {
        CellMix::new(&[
            (StdCellKind::Dff, 0.30),
            (StdCellKind::Nand2, 0.30),
            (StdCellKind::Nor2, 0.15),
            (StdCellKind::Inv, 0.15),
            (StdCellKind::Buf, 0.10),
        ])
    }

    /// An inverter-chain mix (T2's payload).
    pub fn inverter_chain() -> Self {
        CellMix::new(&[(StdCellKind::Inv, 0.9), (StdCellKind::Buf, 0.1)])
    }

    /// The entries as `(kind, fraction)` pairs.
    pub fn entries(&self) -> &[(StdCellKind, f64)] {
        &self.entries
    }

    /// Weighted mean switching charge per toggle, fC.
    pub fn mean_switching_charge_fc(&self) -> f64 {
        self.entries
            .iter()
            .map(|(k, w)| k.switching_charge_fc() * w)
            .sum()
    }

    /// Weighted mean cell area, µm².
    pub fn mean_area_um2(&self) -> f64 {
        self.entries.iter().map(|(k, w)| k.area_um2() * w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_positive_parameters() {
        for k in StdCellKind::ALL {
            assert!(k.area_um2() > 0.0);
            assert!(k.switching_charge_fc() > 0.0);
        }
    }

    #[test]
    fn dff_bigger_than_inverter() {
        assert!(StdCellKind::Dff.area_um2() > StdCellKind::Inv.area_um2());
        assert!(StdCellKind::Dff.switching_charge_fc() > StdCellKind::Inv.switching_charge_fc());
    }

    #[test]
    fn mix_normalizes() {
        let mix = CellMix::new(&[(StdCellKind::Inv, 2.0), (StdCellKind::Dff, 2.0)]);
        let total: f64 = mix.entries().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let expected =
            (StdCellKind::Inv.switching_charge_fc() + StdCellKind::Dff.switching_charge_fc()) / 2.0;
        assert!((mix.mean_switching_charge_fc() - expected).abs() < 1e-12);
    }

    #[test]
    fn mix_drops_nonpositive_weights() {
        let mix = CellMix::new(&[
            (StdCellKind::Inv, 1.0),
            (StdCellKind::Dff, 0.0),
            (StdCellKind::Lut, -3.0),
        ]);
        assert_eq!(mix.entries().len(), 1);
    }

    #[test]
    fn preset_mixes_are_sane() {
        for mix in [
            CellMix::aes_datapath(),
            CellMix::control_logic(),
            CellMix::inverter_chain(),
        ] {
            let total: f64 = mix.entries().iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!(mix.mean_switching_charge_fc() > 0.5);
            assert!(mix.mean_area_um2() > 0.5);
        }
        // The inverter chain has the smallest per-toggle charge of the
        // presets — T2 is many small fast gates.
        assert!(
            CellMix::inverter_chain().mean_switching_charge_fc()
                < CellMix::aes_datapath().mean_switching_charge_fc()
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(StdCellKind::Nand2.to_string(), "NAND2");
        assert_eq!(StdCellKind::Lut.to_string(), "LUT");
    }
}

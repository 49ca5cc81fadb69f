//! The test chip's floorplan (paper Fig 2).
//!
//! A 1 mm × 1 mm die with an AES-128-LUT core, a UART FIFO, the PSA
//! control decoder, and four hardware Trojans whose cell counts come from
//! Table II. The Trojan payload/trigger regions sit in the die's centre
//! region so that — with the 16-sensor preset of `psa-array` — sensor 10
//! covers all four Trojans while sensor 0 covers an empty corner, exactly
//! the contrast exploited in Fig 4.
//!
//! **Numbering note.** Fig 2 of the paper labels its sensors in a
//! scrambled order (an artifact of the figure); this reproduction uses
//! plain row-major numbering from the die's lower-left corner and places
//! modules so the paper's *spatial claims* hold verbatim: sensor 10 has
//! the best Trojan coverage, sensor 0 sees none, and the main circuit
//! falls under nine of the sixteen sensors.

use crate::die::Die;
use crate::error::LayoutError;
use crate::geom::Rect;
use crate::stdcell::CellMix;
use std::fmt;

/// The modules placed on the test chip.
///
/// `Ord` is derived: declaration order is the canonical module order
/// used wherever clusters, sources, or reports sort by module — a
/// compiler-checked total order instead of an allocating
/// `format!("{:?}", ..)` sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ModuleKind {
    /// The AES-128-LUT main circuit (Morioka/Satoh S-box architecture).
    AesCore,
    /// RS232 UART + FIFO used to stream plaintext/ciphertext.
    UartFifo,
    /// The combinational decoder driving the PSA T-gate controls.
    PsaControl,
    /// T1 — AM radio-carrier Trojan (750 kHz emission, counter trigger).
    TrojanT1,
    /// T2 — key-wire inverter-chain leakage amplifier (plaintext trigger).
    TrojanT2,
    /// T3 — CDMA key-leak Trojan (small; always-on via external enable).
    TrojanT3,
    /// T4 — denial-of-service power hog (always-on via external enable).
    TrojanT4,
}

impl ModuleKind {
    /// All modules of the test chip.
    pub const ALL: [ModuleKind; 7] = [
        ModuleKind::AesCore,
        ModuleKind::UartFifo,
        ModuleKind::PsaControl,
        ModuleKind::TrojanT1,
        ModuleKind::TrojanT2,
        ModuleKind::TrojanT3,
        ModuleKind::TrojanT4,
    ];
}

impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModuleKind::AesCore => "AES_core",
            ModuleKind::UartFifo => "UART_FIFO",
            ModuleKind::PsaControl => "PSA_control",
            ModuleKind::TrojanT1 => "T1",
            ModuleKind::TrojanT2 => "T2",
            ModuleKind::TrojanT3 => "T3",
            ModuleKind::TrojanT4 => "T4",
        };
        f.write_str(s)
    }
}

/// A placed module: its kind, region, cell count and cell mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Which module this is.
    pub kind: ModuleKind,
    /// Placement region on the die, µm.
    pub region: Rect,
    /// Number of standard cells (Table II for the Trojans).
    pub cell_count: usize,
    /// Cell composition, used to derive per-toggle charge.
    pub mix: CellMix,
}

/// The whole floorplan: die plus placed modules.
///
/// # Example
///
/// ```
/// use psa_layout::floorplan::{Floorplan, ModuleKind};
/// let fp = Floorplan::date24_test_chip();
/// assert_eq!(fp.total_cells(), 28806); // Table II "Overall"
/// assert!(fp.module(ModuleKind::AesCore).unwrap().region.area() > 1e5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    die: Die,
    modules: Vec<Module>,
}

impl Floorplan {
    /// Builds the DATE'24 test chip floorplan.
    ///
    /// Cell counts follow Table II exactly: 28 806 cells total, of which
    /// T1 = 1881, T2 = 2132, T3 = 329, T4 = 2181. The non-Trojan
    /// remainder is split between the AES core, the UART FIFO, and the
    /// PSA control decoder.
    pub fn date24_test_chip() -> Self {
        let die = Die::tsmc65_1mm();
        // Table II.
        let t1 = 1881;
        let t2 = 2132;
        let t3 = 329;
        let t4 = 2181;
        let uart = 800;
        let psa_ctrl = 283;
        let aes = 28806 - t1 - t2 - t3 - t4 - uart - psa_ctrl;

        let modules = vec![
            // A compact, realistically-utilized core block (≈ 90 %
            // placement utilization) centred under sensor 10, as in the
            // silicon floorplan where the green sensor box covers "most
            // HT circuits" and the core.
            Module {
                kind: ModuleKind::AesCore,
                region: Rect::new(420.0, 420.0, 750.0, 750.0),
                cell_count: aes,
                mix: CellMix::aes_datapath(),
            },
            Module {
                kind: ModuleKind::UartFifo,
                region: Rect::new(30.0, 550.0, 180.0, 850.0),
                cell_count: uart,
                mix: CellMix::control_logic(),
            },
            Module {
                kind: ModuleKind::PsaControl,
                region: Rect::new(30.0, 20.0, 400.0, 80.0),
                cell_count: psa_ctrl,
                mix: CellMix::control_logic(),
            },
            // All four Trojans are embedded in the core block, clustered
            // around sensor 10's footprint centre (~614, 614) so that
            // sensor 10 couples to them more strongly than any
            // overlapping neighbour — the paper's "sensor 10 offers the
            // most coverage of both Trojan payloads and triggers".
            Module {
                kind: ModuleKind::TrojanT1,
                region: Rect::new(520.0, 620.0, 610.0, 710.0),
                cell_count: t1,
                mix: CellMix::control_logic(),
            },
            Module {
                kind: ModuleKind::TrojanT2,
                region: Rect::new(620.0, 520.0, 710.0, 610.0),
                cell_count: t2,
                mix: CellMix::inverter_chain(),
            },
            Module {
                kind: ModuleKind::TrojanT3,
                region: Rect::new(620.0, 620.0, 670.0, 670.0),
                cell_count: t3,
                mix: CellMix::control_logic(),
            },
            Module {
                kind: ModuleKind::TrojanT4,
                region: Rect::new(520.0, 520.0, 610.0, 610.0),
                cell_count: t4,
                mix: CellMix::control_logic(),
            },
        ];
        Floorplan { die, modules }
    }

    /// The die.
    pub fn die(&self) -> &Die {
        &self.die
    }

    /// All placed modules.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Looks up one module.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::NotFound`] when the module is not placed.
    pub fn module(&self, kind: ModuleKind) -> Result<&Module, LayoutError> {
        self.modules
            .iter()
            .find(|m| m.kind == kind)
            .ok_or(LayoutError::NotFound { what: "module" })
    }

    /// Total standard-cell count (Table II "Overall").
    pub fn total_cells(&self) -> usize {
        self.modules.iter().map(|m| m.cell_count).sum()
    }

    /// Regenerates Table II as `(label, cell count, percentage)` rows:
    /// Overall first, then T1–T4.
    pub fn gate_count_table(&self) -> Vec<(String, usize, f64)> {
        let mut rows = vec![("Overall".to_string(), self.total_cells(), 100.0)];
        for kind in [
            ModuleKind::TrojanT1,
            ModuleKind::TrojanT2,
            ModuleKind::TrojanT3,
            ModuleKind::TrojanT4,
        ] {
            if let Ok(m) = self.module(kind) {
                rows.push((
                    kind.to_string(),
                    m.cell_count,
                    100.0 * m.cell_count as f64 / self.total_cells() as f64,
                ));
            }
        }
        rows
    }
}

impl Default for Floorplan {
    fn default() -> Self {
        Floorplan::date24_test_chip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four Trojan modules, last in declaration order.
    fn trojans(fp: &Floorplan) -> Vec<&Module> {
        fp.modules()
            .iter()
            .filter(|m| m.kind >= ModuleKind::TrojanT1)
            .collect()
    }

    #[test]
    fn table2_counts_match_paper() {
        let fp = Floorplan::date24_test_chip();
        assert_eq!(fp.total_cells(), 28806);
        assert_eq!(fp.module(ModuleKind::TrojanT1).unwrap().cell_count, 1881);
        assert_eq!(fp.module(ModuleKind::TrojanT2).unwrap().cell_count, 2132);
        assert_eq!(fp.module(ModuleKind::TrojanT3).unwrap().cell_count, 329);
        assert_eq!(fp.module(ModuleKind::TrojanT4).unwrap().cell_count, 2181);
    }

    #[test]
    fn table2_percentages_match_paper() {
        let fp = Floorplan::date24_test_chip();
        // Paper: 6.52 / 7.40 / 1.14 / 7.57 (%).
        let rows = fp.gate_count_table();
        for (row, paper) in rows[1..].iter().zip([6.52, 7.40, 1.14, 7.57]) {
            assert!((row.2 - paper).abs() < 0.02, "{}: {}", row.0, row.2);
        }
    }

    #[test]
    fn gate_count_table_rows() {
        let fp = Floorplan::date24_test_chip();
        let rows = fp.gate_count_table();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, "Overall");
        assert_eq!(rows[0].1, 28806);
        assert_eq!(rows[3].0, "T3");
        assert_eq!(rows[3].1, 329);
    }

    #[test]
    fn modules_fit_on_die() {
        let fp = Floorplan::date24_test_chip();
        let outline = fp.die().outline();
        for m in fp.modules() {
            assert!(outline.contains(m.region.min()), "{} off-die", m.kind);
            assert!(outline.contains(m.region.max()), "{} off-die", m.kind);
        }
    }

    #[test]
    fn trojans_dont_overlap_each_other() {
        let fp = Floorplan::date24_test_chip();
        let trojans = trojans(&fp);
        assert_eq!(trojans.len(), 4);
        for i in 0..trojans.len() {
            for j in i + 1..trojans.len() {
                assert!(
                    !trojans[i].region.intersects(&trojans[j].region),
                    "{} overlaps {}",
                    trojans[i].kind,
                    trojans[j].kind
                );
            }
        }
    }

    #[test]
    fn trojans_inside_sensor10_footprint() {
        // Sensor 10 with the 16-sensor preset covers
        // [457.1..800] x [457.1..800] µm (lattice nodes 16..28).
        let sensor10 = Rect::new(457.1, 457.1, 800.0, 800.0);
        let fp = Floorplan::date24_test_chip();
        for t in trojans(&fp) {
            assert!(
                sensor10.contains(t.region.min()) && sensor10.contains(t.region.max()),
                "{} outside sensor 10",
                t.kind
            );
        }
    }

    #[test]
    fn corner_under_sensor0_is_empty() {
        // Sensor 0 covers about [0..332]² µm; only PSA control grazes the
        // bottom strip, so keep the main-circuit modules out.
        let sensor0 = Rect::new(0.0, 0.0, 332.3, 332.3);
        let fp = Floorplan::date24_test_chip();
        assert!(fp
            .modules()
            .iter()
            .filter(|m| m.region.intersects(&sensor0))
            .all(|m| m.kind == ModuleKind::PsaControl));
    }

    #[test]
    fn trojan_regions_have_room_for_cells() {
        let fp = Floorplan::date24_test_chip();
        for t in trojans(&fp) {
            let needed = t.cell_count as f64 * t.mix.mean_area_um2();
            assert!(
                t.region.area() > needed,
                "{}: {} um^2 needed, {} available",
                t.kind,
                needed,
                t.region.area()
            );
        }
    }

    #[test]
    fn module_lookup_and_display() {
        let fp = Floorplan::default();
        assert!(fp.module(ModuleKind::AesCore).is_ok());
        assert_eq!(ModuleKind::TrojanT3.to_string(), "T3");
    }

    #[test]
    fn aes_sits_under_the_center() {
        let fp = Floorplan::date24_test_chip();
        let center = Rect::new(480.0, 480.0, 520.0, 520.0);
        assert!(fp
            .modules()
            .iter()
            .any(|m| m.kind == ModuleKind::AesCore && m.region.intersects(&center)));
    }
}

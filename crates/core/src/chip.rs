//! The assembled simulated test chip.
//!
//! [`TestChip`] glues every substrate together: the Fig 2 floorplan and
//! placement (`psa-layout`), the PSA lattice with its 16-sensor preset
//! (`psa-array`), the EM coupling matrices for the PSA sensors and all
//! baseline probes (`psa-field`), and the per-channel analog front end
//! (`psa-analog`). Building the couplings is the expensive step, so a
//! chip is built once and shared across experiments.

use crate::calib;
use crate::error::CoreError;
use psa_array::coil::Coil;
use psa_array::program::CoilProgram;
use psa_array::sensors::SensorBank;
use psa_array::tgate::TGate;
use psa_field::coupling::CouplingMatrix;
use psa_field::probe::ProbeModel;
use psa_gatesim::activity::Source;
use psa_layout::floorplan::{Floorplan, ModuleKind};
use psa_layout::placement::{cluster_cells, place_floorplan, Cluster};
use psa_layout::{Point, Polygon};

/// Which sensing structure a measurement uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorSelect {
    /// One of the 16 PSA sensors.
    Psa(usize),
    /// An arbitrary host-side lattice programming — the "programmable"
    /// half of the paper's title. Couplings are synthesized on demand
    /// (and cached per worker by
    /// [`AcqContext`](crate::acquisition::AcqContext)); a custom
    /// programming shaped like a preset measures **bit-identically** to
    /// the corresponding [`Psa`](Self::Psa) selection.
    Custom(CoilProgram),
    /// The whole-die single coil of He et al. (DAC'20).
    SingleCoil,
    /// The Langer LF1 external probe.
    LangerLf1,
    /// The ICR HH100-6 external micro probe.
    IcrHh100,
}

impl SensorSelect {
    /// All baseline (non-PSA) selections.
    pub const BASELINES: [SensorSelect; 3] = [
        SensorSelect::SingleCoil,
        SensorSelect::LangerLf1,
        SensorSelect::IcrHh100,
    ];
}

/// A synthesized custom sensor: the programming, its extracted coil,
/// and its on-demand source couplings — everything an acquisition needs
/// that the chip precomputes for the 16 presets.
///
/// Built by [`TestChip::synthesize_custom`]; cached per worker inside
/// [`AcqContext`](crate::acquisition::AcqContext) so the acquisition hot
/// path stays allocation-free once a programming has been seen.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomSensor {
    program: CoilProgram,
    coil: Coil,
    couplings: Vec<f64>,
}

impl CustomSensor {
    /// The programming this sensor realizes.
    pub fn program(&self) -> &CoilProgram {
        &self.program
    }

    /// The extracted (loop-validated) coil.
    pub fn coil(&self) -> &Coil {
        &self.coil
    }

    /// Effective couplings of all sources into this coil, in
    /// [`Source::ALL`] order (Wb per A·m²).
    pub fn couplings(&self) -> &[f64] {
        &self.couplings
    }

    /// Sensor-referred thermal noise over bandwidth `bw_hz`, volts RMS —
    /// the same formula the chip applies to preset PSA sensors (series
    /// resistance includes the coil's T-gates at the given corner).
    pub fn noise_vrms(&self, tgate: &TGate, bw_hz: f64, vdd: f64, temp_c: f64) -> f64 {
        let r = self.coil.series_resistance_ohm(tgate, vdd, temp_c);
        psa_field::noise::thermal_noise_vrms(r, temp_c + 273.15, bw_hz)
    }
}

/// The assembled test chip.
///
/// # Example
///
/// ```no_run
/// use psa_core::chip::TestChip;
/// let chip = TestChip::date24();
/// assert_eq!(chip.sensor_bank().len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct TestChip {
    floorplan: Floorplan,
    sensor_bank: SensorBank,
    tgate: TGate,
    clusters_by_source: Vec<Vec<Cluster>>,
    charges_fc: Vec<(Source, f64)>,
    psa_couplings: CouplingMatrix,
    probe_couplings: Vec<(SensorSelect, ProbeModel, Vec<f64>)>,
}

impl TestChip {
    /// Builds the DATE'24 test chip with default calibration.
    ///
    /// # Panics
    ///
    /// Panics if the built-in floorplan/lattice constants are
    /// inconsistent (a bug, covered by tests) — never on user input.
    pub fn date24() -> Self {
        Self::build().expect("built-in test chip constants are consistent")
    }

    fn build() -> Result<Self, CoreError> {
        let floorplan = Floorplan::date24_test_chip();
        let sensor_bank = SensorBank::date24_default();
        let tgate = TGate::date24();

        // Place and cluster the cells once.
        let cells = place_floorplan(&floorplan, calib::PLACEMENT_SEED)?;
        let all_clusters = cluster_cells(&cells, calib::CLUSTER_TILE_UM);
        let clusters_by_source: Vec<Vec<Cluster>> = Source::ALL
            .iter()
            .map(|&s| {
                let module = module_for_source(s);
                all_clusters
                    .iter()
                    .filter(|c| c.module == module)
                    .cloned()
                    .collect()
            })
            .collect();

        // Per-source mean switching charge from the module mixes.
        let charges_fc: Vec<(Source, f64)> = Source::ALL
            .iter()
            .map(|&s| {
                let module = module_for_source(s);
                let q = floorplan
                    .module(module)
                    .map(|m| m.mix.mean_switching_charge_fc())
                    .unwrap_or(2.5);
                (s, q)
            })
            .collect();

        // PSA sensor couplings at the M7/M8 plane.
        let z_psa = floorplan.die().psa_plane_z_um();
        let sensor_loops: Vec<Polygon> = sensor_bank
            .iter()
            .map(|s| s.coil().to_polygon())
            .collect::<Result<_, _>>()?;
        let psa_couplings = CouplingMatrix::build(&clusters_by_source, &sensor_loops, z_psa)?;

        // Baseline probes. The LF1 hovers over the package centre; the
        // ICR micro probe is positioned over the core block (how an
        // operator actually uses a 100 µm near-field probe).
        let die = floorplan.die().outline();
        let center = Point::new(die.center().x, die.center().y);
        let core_center = floorplan
            .module(ModuleKind::AesCore)
            .map(|m| m.region.center())
            .unwrap_or(center);
        let mut probe_couplings = Vec::new();
        for (select, probe) in [
            (
                SensorSelect::SingleCoil,
                ProbeModel::single_coil_on_chip(die, z_psa),
            ),
            (SensorSelect::LangerLf1, ProbeModel::langer_lf1(center)),
            (SensorSelect::IcrHh100, ProbeModel::icr_hh100_6(core_center)),
        ] {
            let m = CouplingMatrix::build(
                &clusters_by_source,
                std::slice::from_ref(&probe.loop_poly),
                probe.z_um,
            )?;
            let col = m.sensor_column(0);
            probe_couplings.push((select, probe, col));
        }

        Ok(TestChip {
            floorplan,
            sensor_bank,
            tgate,
            clusters_by_source,
            charges_fc,
            psa_couplings,
            probe_couplings,
        })
    }

    /// The floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The PSA sensor bank.
    pub fn sensor_bank(&self) -> &SensorBank {
        &self.sensor_bank
    }

    /// The T-gate model.
    pub fn tgate(&self) -> &TGate {
        &self.tgate
    }

    /// Per-source switching charges, fC per toggle, in
    /// [`Source::ALL`] order.
    pub fn charges_fc(&self) -> &[(Source, f64)] {
        &self.charges_fc
    }

    /// EM source clusters grouped per activity source.
    pub fn clusters_by_source(&self) -> &[Vec<Cluster>] {
        &self.clusters_by_source
    }

    /// Synthesizes a custom programming into a measurable sensor:
    /// programs a fresh matrix, extracts the coil (enforcing the
    /// one-closed-loop invariant), and derives the couplings of every
    /// activity source into the coil polygon at the PSA plane — the
    /// same dipole-flux machinery the preset coupling matrix and the
    /// atlas's `emitter_coupling_row` are built from.
    ///
    /// This is the expensive step (a flux integral per source cluster);
    /// [`AcqContext`](crate::acquisition::AcqContext) caches the result
    /// per worker so sweeps over repeated programmings pay it once.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Array`] when the programming falls
    /// outside the lattice or fails loop validation, and field errors
    /// from the coupling derivation.
    pub fn synthesize_custom(&self, program: &CoilProgram) -> Result<CustomSensor, CoreError> {
        let coil = program.synthesize(self.sensor_bank.lattice())?;
        let poly = coil.to_polygon()?;
        let z_psa = self.floorplan.die().psa_plane_z_um();
        let couplings =
            psa_field::coupling::source_coupling_column(&self.clusters_by_source, &poly, z_psa)?;
        Ok(CustomSensor {
            program: *program,
            coil,
            couplings,
        })
    }

    /// Effective couplings of all sources into a sensing selection, in
    /// [`Source::ALL`] order (Wb per A·m²). For
    /// [`SensorSelect::Custom`] the row is synthesized on demand — hot
    /// paths should go through an
    /// [`AcqContext`](crate::acquisition::AcqContext), which caches it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a PSA index ≥ 16, and
    /// synthesis errors for an invalid custom programming.
    pub fn couplings_for(&self, select: SensorSelect) -> Result<Vec<f64>, CoreError> {
        match select {
            SensorSelect::Psa(i) => {
                if i >= self.sensor_bank.len() {
                    return Err(CoreError::InvalidParameter {
                        what: "psa sensor index out of range",
                    });
                }
                Ok(self.psa_couplings.sensor_column(i))
            }
            SensorSelect::Custom(program) => Ok(self.synthesize_custom(&program)?.couplings),
            other => self
                .probe_couplings
                .iter()
                .find(|(s, _, _)| *s == other)
                .map(|(_, _, col)| col.clone())
                .ok_or(CoreError::InvalidParameter {
                    what: "probe not configured",
                }),
        }
    }

    /// Sensor-referred noise of a selection over bandwidth `bw_hz`
    /// (coil/probe thermal + ambient), volts RMS. For PSA sensors the
    /// series resistance includes the four T-gates at the given corner.
    pub fn sensor_noise_vrms(
        &self,
        select: SensorSelect,
        bw_hz: f64,
        vdd: f64,
        temp_c: f64,
    ) -> f64 {
        match select {
            SensorSelect::Psa(i) => {
                let Ok(sensor) = self.sensor_bank.sensor(i) else {
                    return 0.0;
                };
                let r = sensor
                    .coil()
                    .series_resistance_ohm(&self.tgate, vdd, temp_c);
                psa_field::noise::thermal_noise_vrms(r, temp_c + 273.15, bw_hz)
            }
            SensorSelect::Custom(program) => {
                // Invalid programmings report a zero floor, matching the
                // out-of-range Psa convention; valid acquisitions never
                // reach this case (couplings_for rejects them first).
                let Ok(coil) = program.synthesize(self.sensor_bank.lattice()) else {
                    return 0.0;
                };
                let r = coil.series_resistance_ohm(&self.tgate, vdd, temp_c);
                psa_field::noise::thermal_noise_vrms(r, temp_c + 273.15, bw_hz)
            }
            other => self
                .probe_couplings
                .iter()
                .find(|(s, _, _)| *s == other)
                .map(|(_, p, _)| p.total_noise_vrms(bw_hz))
                .unwrap_or(0.0),
        }
    }

    /// The probe model behind a baseline selection.
    pub fn probe(&self, select: SensorSelect) -> Option<&ProbeModel> {
        self.probe_couplings
            .iter()
            .find(|(s, _, _)| *s == select)
            .map(|(_, p, _)| p)
    }
}

/// Seeded per-chip process variation, for fleet-scale experiments where
/// no two dies may share a baseline.
///
/// Real deployed parts differ die-to-die: metal thickness shifts the
/// sensor coupling, front-end gain spreads with transistor matching,
/// and thermal noise tracks local resistance. `ChipVariation` models
/// that as three seeded multiplicative factors — a per-PSA-sensor
/// coupling factor, a chip-wide gain factor applied to signal and noise
/// alike, and a noise-only factor — all drawn uniformly inside fixed
/// spreads from one [`SmallRng`](psa_dsp::rng::SmallRng) stream. The
/// same seed always reproduces the same die; [`nominal`](Self::nominal)
/// is the exact identity (every factor `1.0`).
///
/// Applied by
/// [`AcqContext::set_variation`](crate::acquisition::AcqContext::set_variation):
/// acquisition with `None` (or a nominal variation) stays bit-identical
/// to the unvaried path.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipVariation {
    seed: u64,
    coupling: Vec<f64>,
    gain: f64,
    noise: f64,
}

impl ChipVariation {
    /// Relative half-spread of the per-sensor coupling factors (±6 %).
    pub const COUPLING_SPREAD: f64 = 0.06;
    /// Relative half-spread of the chip-wide gain factor (±4 %).
    pub const GAIN_SPREAD: f64 = 0.04;
    /// Relative half-spread of the noise-only factor (±15 %).
    pub const NOISE_SPREAD: f64 = 0.15;
    /// Sensors a variation carries coupling factors for — the 16-sensor
    /// preset bank.
    pub const SENSORS: usize = 16;

    /// Draws one die's variation from `seed` (deterministic: the same
    /// seed always yields the same factors).
    pub fn new(seed: u64) -> Self {
        let mut rng = psa_dsp::rng::SmallRng::seed_from_u64(seed);
        let mut draw = |spread: f64| 1.0 + spread * (2.0 * rng.gen_f64() - 1.0);
        let coupling = (0..Self::SENSORS)
            .map(|_| draw(Self::COUPLING_SPREAD))
            .collect();
        let gain = draw(Self::GAIN_SPREAD);
        let noise = draw(Self::NOISE_SPREAD);
        ChipVariation {
            seed,
            coupling,
            gain,
            noise,
        }
    }

    /// The exact identity: every factor `1.0`, so acquisition through a
    /// nominal variation is bit-identical to no variation at all.
    pub fn nominal() -> Self {
        ChipVariation {
            seed: 0,
            coupling: vec![1.0; Self::SENSORS],
            gain: 1.0,
            noise: 1.0,
        }
    }

    /// The seed this die was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The chip-wide gain factor.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Multiplier on the coupled signal for `select`: gain × the
    /// sensor's coupling factor (PSA sensors only — custom programmings
    /// and external probes see gain alone).
    pub fn signal_scale(&self, select: &SensorSelect) -> f64 {
        let k = match select {
            SensorSelect::Psa(i) => self.coupling.get(*i).copied().unwrap_or(1.0),
            _ => 1.0,
        };
        self.gain * k
    }

    /// Multiplier on the front-end thermal-noise floor: gain × the
    /// noise-only factor.
    pub fn noise_scale(&self) -> f64 {
        self.gain * self.noise
    }
}

/// Maps an activity source to its floorplan module.
pub fn module_for_source(source: Source) -> ModuleKind {
    match source {
        Source::AesCore => ModuleKind::AesCore,
        Source::UartFifo => ModuleKind::UartFifo,
        Source::PsaControl => ModuleKind::PsaControl,
        Source::TrojanT1 => ModuleKind::TrojanT1,
        Source::TrojanT2 => ModuleKind::TrojanT2,
        Source::TrojanT3 => ModuleKind::TrojanT3,
        Source::TrojanT4 => ModuleKind::TrojanT4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn chip() -> &'static TestChip {
        static CHIP: OnceLock<TestChip> = OnceLock::new();
        CHIP.get_or_init(TestChip::date24)
    }

    #[test]
    fn chip_assembles() {
        let c = chip();
        assert_eq!(c.sensor_bank().len(), 16);
        assert_eq!(c.clusters_by_source().len(), Source::ALL.len());
        assert_eq!(c.charges_fc().len(), Source::ALL.len());
    }

    #[test]
    fn every_source_has_clusters() {
        for (s, clusters) in Source::ALL.iter().zip(chip().clusters_by_source()) {
            assert!(!clusters.is_empty(), "{s:?} has no clusters");
        }
    }

    #[test]
    fn sensor10_dominates_trojan_coupling() {
        let c = chip();
        // T3's coupling into sensor 10 must exceed its coupling into
        // sensor 0 by orders of magnitude — the Fig 4 contrast.
        let t3_idx = Source::ALL
            .iter()
            .position(|&s| s == Source::TrojanT3)
            .unwrap();
        let k10 = c.couplings_for(SensorSelect::Psa(10)).unwrap()[t3_idx].abs();
        let k0 = c.couplings_for(SensorSelect::Psa(0)).unwrap()[t3_idx].abs();
        assert!(k10 > 20.0 * k0, "k10 {k10} vs k0 {k0}");
    }

    #[test]
    fn psa_couples_stronger_than_external_probe() {
        let c = chip();
        let aes_idx = 0; // Source::AesCore
        let k_psa = c.couplings_for(SensorSelect::Psa(10)).unwrap()[aes_idx].abs();
        let k_lf1 = c.couplings_for(SensorSelect::LangerLf1).unwrap()[aes_idx].abs();
        assert!(k_psa > 10.0 * k_lf1, "psa {k_psa} vs lf1 {k_lf1}");
    }

    #[test]
    fn invalid_selections_rejected() {
        let c = chip();
        assert!(c.couplings_for(SensorSelect::Psa(16)).is_err());
        assert!(c.couplings_for(SensorSelect::Psa(0)).is_ok());
        // Off-lattice custom programmings are rejected at synthesis.
        let off = CoilProgram::new(30, 30, 40, 40, 2).unwrap();
        assert!(c.couplings_for(SensorSelect::Custom(off)).is_err());
        assert!(c.synthesize_custom(&off).is_err());
        assert_eq!(
            c.sensor_noise_vrms(SensorSelect::Custom(off), 1.0e8, 1.0, 25.0),
            0.0
        );
    }

    #[test]
    fn custom_preset_matches_precomputed_preset_bitwise() {
        // A custom programming shaped like preset sensor 10 must
        // reproduce the precomputed coupling column and noise floor bit
        // for bit — the contract that makes Custom(preset) ≡ Psa(i).
        let c = chip();
        for sel in [0u8, 10] {
            let p = CoilProgram::preset(sel).unwrap();
            let custom = c.couplings_for(SensorSelect::Custom(p)).unwrap();
            let preset = c.couplings_for(SensorSelect::Psa(sel as usize)).unwrap();
            assert_eq!(custom.len(), preset.len());
            for (a, b) in custom.iter().zip(&preset) {
                assert_eq!(a.to_bits(), b.to_bits(), "sel {sel}");
            }
            let n_custom = c.sensor_noise_vrms(SensorSelect::Custom(p), 1.32e8, 1.0, 25.0);
            let n_preset = c.sensor_noise_vrms(SensorSelect::Psa(sel as usize), 1.32e8, 1.0, 25.0);
            assert_eq!(n_custom.to_bits(), n_preset.to_bits(), "sel {sel}");
        }
    }

    #[test]
    fn custom_sensor_over_trojan_couples_strongly() {
        // A tight 3-turn coil centred on the Trojan quarter couples the
        // Trojan at least as strongly per unit area as the covering
        // preset — the physical headroom the programming search exploits.
        let c = chip();
        let t3_idx = Source::ALL
            .iter()
            .position(|&s| s == Source::TrojanT3)
            .unwrap();
        let tight = CoilProgram::new(18, 18, 26, 26, 3).unwrap();
        let cs = c.synthesize_custom(&tight).unwrap();
        assert_eq!(cs.program(), &tight);
        assert_eq!(cs.coil().switch_count(), 4 * 3);
        assert_eq!(cs.couplings().len(), Source::ALL.len());
        let k_tight = cs.couplings()[t3_idx].abs();
        let k_corner = c.couplings_for(SensorSelect::Psa(0)).unwrap()[t3_idx].abs();
        assert!(
            k_tight > 20.0 * k_corner,
            "tight {k_tight} vs corner {k_corner}"
        );
        assert!(cs.noise_vrms(c.tgate(), 1.32e8, 1.0, 25.0) > 0.0);
    }

    #[test]
    fn noise_floors_ordered() {
        let c = chip();
        let bw = 120.0e6;
        let psa = c.sensor_noise_vrms(SensorSelect::Psa(10), bw, 1.0, 25.0);
        let lf1 = c.sensor_noise_vrms(SensorSelect::LangerLf1, bw, 1.0, 25.0);
        assert!(psa > 0.0);
        assert!(lf1 > 0.0);
        // The external probe carries the ambient floor.
        assert!(c.probe(SensorSelect::LangerLf1).unwrap().ambient_noise_vrms > 0.0);
        assert!(c.probe(SensorSelect::Psa(0)).is_none());
    }

    #[test]
    fn source_module_mapping_is_total() {
        for s in Source::ALL {
            let _ = module_for_source(s); // must not panic
        }
        assert_eq!(module_for_source(Source::TrojanT2), ModuleKind::TrojanT2);
    }

    #[test]
    fn variation_is_deterministic_per_seed() {
        let a = ChipVariation::new(0xD1E5);
        let b = ChipVariation::new(0xD1E5);
        assert_eq!(a, b);
        let c = ChipVariation::new(0xD1E6);
        assert_ne!(a, c);
        assert_eq!(a.seed(), 0xD1E5);
    }

    #[test]
    fn variation_factors_stay_inside_spreads() {
        for seed in 0..64u64 {
            let v = ChipVariation::new(seed);
            assert_eq!(v.coupling.len(), ChipVariation::SENSORS);
            for &k in &v.coupling {
                assert!((k - 1.0).abs() <= ChipVariation::COUPLING_SPREAD, "{k}");
            }
            assert!((v.gain() - 1.0).abs() <= ChipVariation::GAIN_SPREAD);
            assert!(v.noise_scale() > 0.0);
        }
    }

    #[test]
    fn nominal_variation_is_exact_identity() {
        let v = ChipVariation::nominal();
        assert_eq!(v.signal_scale(&SensorSelect::Psa(10)), 1.0);
        assert_eq!(v.signal_scale(&SensorSelect::SingleCoil), 1.0);
        assert_eq!(v.noise_scale(), 1.0);
    }

    #[test]
    fn signal_scale_combines_gain_and_sensor_factor() {
        let v = ChipVariation::new(7);
        let s10 = v.signal_scale(&SensorSelect::Psa(10));
        assert_eq!(s10, v.gain() * v.coupling[10]);
        // Non-PSA selections see the chip-wide gain alone.
        assert_eq!(v.signal_scale(&SensorSelect::LangerLf1), v.gain());
        // Out-of-range PSA index degrades to gain alone, not a panic.
        assert_eq!(v.signal_scale(&SensorSelect::Psa(99)), v.gain());
    }
}

//! The localization-accuracy atlas: parametric Trojan placement sweeps
//! scored in microns.
//!
//! The paper's evaluation (Sec. VI-D) demonstrates localization at the
//! five fixed sites of the test chip — hit/miss at known positions. The
//! [`PlacementSweep`] scenario family instead places a parametric
//! [`SyntheticTrojan`] emitter at arbitrary floorplan coordinates
//! (`psa_layout::emitter`), derives its coupling into all 16 sensors on
//! demand (`psa_field::emitter`), and senses the array with it
//! superposed. The joint localizer ([`crate::multiloc`]) runs on that
//! sensing, and the atlas report scores the **localization error in
//! µm**: the distance from the predicted sensor's footprint centre (and
//! from the amplitude-weighted centroid over the array) to the true
//! emitter position. Sweeping a grid of placements turns localization
//! from five anecdotes into a measurable accuracy surface — the atlas.
//!
//! Atlas acquisitions default to shorter records than the Sec. VI bench
//! (2048 cycles instead of 8192): the emitter lines stay far above the
//! coarser RBW's floor while a hundreds-of-placements sweep stays
//! tractable. Every quantity is a pure function of the job description,
//! so `psa_runtime::multiloc::MultilocCampaign` fans placements (as
//! one-emitter tuples) × corners × seeds across workers with
//! byte-identical output.

use crate::acquisition::{AcqContext, ArrayEmitter, TraceSet};
use crate::calib;
use crate::chip::{SensorSelect, TestChip};
use crate::cross_domain::{check_sensor_rows, merge_adjacent_bins, Baseline};
use crate::error::CoreError;
use crate::scenario::Scenario;
use psa_dsp::peak;
use psa_gatesim::synth::SyntheticTrojan;
use psa_layout::emitter::EmitterSite;
use psa_layout::{Point, Polygon};

/// A synthetic emitter bound to a placement: where it sits, how it
/// switches, and its per-toggle charge.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticEmitter {
    /// The placement site.
    pub site: EmitterSite,
    /// Switching signature and drive strength.
    pub trojan: SyntheticTrojan,
    /// Mean switching charge per toggle, fC.
    pub charge_fc: f64,
}

impl SyntheticEmitter {
    /// The reference atlas emitter at a site: 800 equivalent cells of
    /// 750 kHz AM payload (between T3's 329 and T1's 1881 cells),
    /// 2.0 fC per toggle.
    pub fn reference_at(site: EmitterSite) -> Self {
        SyntheticEmitter {
            site,
            trojan: SyntheticTrojan::am_reference(800.0),
            charge_fc: 2.0,
        }
    }
}

/// Configuration of a placement sweep. Components are flagged at
/// [`calib::DETECTION_THRESHOLD_DB`] over the baseline's
/// [`calib::ENVELOPE_HALF_WINDOW`] envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSweepConfig {
    /// Records averaged per sensor per placement decision.
    pub records_per_sensor: usize,
    /// Record length in clock cycles (atlas default 2048; the Sec. VI
    /// bench uses [`calib::RECORD_CYCLES`] = 8192).
    pub record_cycles: usize,
}

impl Default for PlacementSweepConfig {
    fn default() -> Self {
        PlacementSweepConfig {
            records_per_sensor: 2,
            record_cycles: 2048,
        }
    }
}

/// Dipole sample grid per side of an emitter footprint (four dipoles
/// per site).
const DIPOLE_GRID_PER_SIDE: usize = 2;

/// The evaluation seed of a placement: the corner's base seed salted
/// with the site coordinates (SplitMix64 over the coordinate bits).
///
/// Learning the baseline and evaluating a placement under the *same*
/// seed would replay the identical noise/activity realization, making
/// the baseline-vs-test comparison noise-free and detection
/// structurally guaranteed rather than measured — the batch campaigns
/// deliberately separate baseline and trial seeds for the same reason.
/// Salting per site keeps the seed a pure function of the job
/// description, so campaigns stay byte-identical at any worker count.
pub fn placement_seed(base_seed: u64, site: &EmitterSite) -> u64 {
    psa_dsp::rng::splitmix64(
        base_seed
            ^ site.center.x.to_bits().rotate_left(17)
            ^ site.center.y.to_bits().rotate_left(41)
            ^ site.extent_um.to_bits(),
    )
}

/// The per-sensor view of the array with a set of emitters superposed:
/// every sensor's spectrum at atlas resolution and its emergent
/// components (merged bins with dB excess) over the baseline envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct SensedArray {
    /// Per-sensor full-resolution spectra, dB.
    pub spectra: Vec<Vec<f64>>,
    /// Per-sensor emergent components as `(bin, excess_db)`, merged
    /// across adjacent bins.
    pub components: Vec<Vec<(usize, f64)>>,
}

/// The placement-sweep engine bound to a chip: cached sensor loop
/// polygons plus the sweep configuration.
#[derive(Debug)]
pub struct PlacementSweep<'c> {
    chip: &'c TestChip,
    config: PlacementSweepConfig,
    sensor_loops: Vec<Polygon>,
    sensor_centers: Vec<Point>,
    z_um: f64,
}

impl<'c> PlacementSweep<'c> {
    /// Binds a sweep to the chip.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a zero record count or record
    /// length.
    pub fn new(chip: &'c TestChip, config: PlacementSweepConfig) -> Result<Self, CoreError> {
        if config.records_per_sensor == 0 {
            return Err(CoreError::InvalidParameter {
                what: "placement sweep needs at least one record per sensor",
            });
        }
        if config.record_cycles == 0 {
            return Err(CoreError::InvalidParameter {
                what: "placement sweep record length must be at least one cycle",
            });
        }
        let sensor_loops: Vec<Polygon> = chip
            .sensor_bank()
            .iter()
            .map(|s| s.coil().to_polygon())
            .collect::<Result<_, _>>()?;
        let sensor_centers = chip
            .sensor_bank()
            .iter()
            .map(|s| s.footprint().center())
            .collect();
        let z_um = chip.floorplan().die().psa_plane_z_um();
        Ok(PlacementSweep {
            chip,
            config,
            sensor_loops,
            sensor_centers,
            z_um,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlacementSweepConfig {
        &self.config
    }

    /// The chip under sweep.
    pub fn chip(&self) -> &'c TestChip {
        self.chip
    }

    /// Footprint centres of the 16 sensors, µm — the positions sensor-
    /// granular localization snaps to.
    pub fn sensor_centers(&self) -> &[Point] {
        &self.sensor_centers
    }

    /// The emitter's coupling into each of the 16 sensors, derived on
    /// demand from the site geometry.
    ///
    /// # Errors
    ///
    /// [`CoreError::Layout`] (`OffDie`) when the site's footprint leaves
    /// the die; field errors for degenerate geometry.
    pub fn coupling_row(&self, site: &EmitterSite) -> Result<Vec<f64>, CoreError> {
        site.validate_on(self.chip.floorplan().die())?;
        let points = site.dipole_points(DIPOLE_GRID_PER_SIDE);
        Ok(psa_field::emitter::emitter_coupling_row(
            &points,
            &self.sensor_loops,
            self.z_um,
        )?)
    }

    /// Frequency of atlas-resolution bin `k`.
    pub fn bin_hz(&self, k: usize) -> f64 {
        let n = self.config.record_cycles * calib::SAMPLES_PER_CYCLE;
        psa_dsp::fft::bin_freq(k, n, calib::sample_rate_hz())
    }

    /// One sensor's quiet-chip baseline spectrum at atlas resolution.
    ///
    /// # Errors
    ///
    /// Propagates acquisition/DSP errors.
    pub fn baseline_sensor_db_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
        sensor: usize,
    ) -> Result<Vec<f64>, CoreError> {
        let mut traces = TraceSet::default();
        ctx.acquire_len_into(
            scenario,
            SensorSelect::Psa(sensor),
            self.config.records_per_sensor,
            self.config.record_cycles,
            &mut traces,
        )?;
        ctx.fullres_spectrum_db(&traces)
    }

    /// Learns the 16-sensor atlas baseline on one context with one
    /// sensor sweep, bit-identical to
    /// [`baseline_sensor_db_with`](Self::baseline_sensor_db_with) per
    /// sensor (the campaign layer fans sensors out across workers
    /// instead).
    ///
    /// # Errors
    ///
    /// Propagates acquisition/DSP errors.
    pub fn learn_baseline_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
    ) -> Result<Baseline, CoreError> {
        let per_sensor_db = ctx.sensor_sweep_db(
            scenario,
            self.config.records_per_sensor,
            self.config.record_cycles,
            &[],
        )?;
        Ok(Baseline { per_sensor_db })
    }

    /// Precomputed per-sensor local-max envelopes of a corner baseline —
    /// a pure function of the baseline,
    /// so a campaign computes them once per corner instead of once per
    /// placement.
    pub fn baseline_envelopes(&self, baseline: &Baseline) -> Vec<Vec<f64>> {
        baseline
            .per_sensor_db
            .iter()
            .map(|b| peak::local_max_envelope(b, calib::ENVELOPE_HALF_WINDOW))
            .collect()
    }

    /// Rejects per-sensor rows that miss a sensor or were learned at
    /// another record length than this sweep's.
    pub(crate) fn check_sensor_rows(&self, rows: &[Vec<f64>]) -> Result<(), CoreError> {
        check_sensor_rows(self.chip, self.config.record_cycles, rows)
    }

    /// Acquires all 16 sensors with a **set** of synthetic emitters
    /// superposed and flags each sensor's emergent components over its
    /// baseline envelope — the sensing front half of the joint
    /// localizer ([`crate::multiloc`]), which the atlas drives with
    /// one-element sets.
    ///
    /// # Errors
    ///
    /// [`CoreError::Layout`] (`OffDie`) when any site's footprint
    /// leaves the die; [`CoreError::InvalidParameter`] when `envelopes`
    /// is missing sensors or holds rows of another record length;
    /// acquisition/DSP errors otherwise.
    pub fn sense_emitters_with(
        &self,
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
        emitters: &[SyntheticEmitter],
        envelopes: &[Vec<f64>],
    ) -> Result<SensedArray, CoreError> {
        self.check_sensor_rows(envelopes)?;
        let rows: Vec<Vec<f64>> = emitters
            .iter()
            .map(|e| self.coupling_row(&e.site))
            .collect::<Result<_, _>>()?;
        let injected: Vec<ArrayEmitter<'_>> = emitters
            .iter()
            .zip(&rows)
            .map(|(e, row)| ArrayEmitter {
                trojan: &e.trojan,
                charge_fc: e.charge_fc,
                couplings: row,
            })
            .collect();
        let spectra = ctx.sensor_sweep_db(
            scenario,
            self.config.records_per_sensor,
            self.config.record_cycles,
            &injected,
        )?;
        let components = spectra
            .iter()
            .zip(envelopes)
            .map(|(spec, env)| {
                merge_adjacent_bins(&peak::excess_over_baseline_db(
                    spec,
                    env,
                    calib::DETECTION_THRESHOLD_DB,
                ))
            })
            .collect();
        Ok(SensedArray {
            spectra,
            components,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_layout::emitter::sweep_grid;

    #[test]
    fn default_config_is_sane() {
        let c = PlacementSweepConfig::default();
        assert!(c.records_per_sensor >= 1);
        assert!(c.record_cycles.is_power_of_two());
    }

    #[test]
    fn reference_emitter_shape() {
        let site = EmitterSite::new(Point::new(500.0, 500.0), 40.0);
        let e = SyntheticEmitter::reference_at(site);
        assert_eq!(e.site, site);
        assert!(e.trojan.drive_cells > 0.0);
        assert!(e.charge_fc > 0.0);
    }

    #[test]
    fn placement_seed_is_pure_and_site_sensitive() {
        let a = EmitterSite::new(Point::new(100.0, 200.0), 40.0);
        let b = EmitterSite::new(Point::new(100.0, 260.0), 40.0);
        assert_eq!(placement_seed(7, &a), placement_seed(7, &a));
        assert_ne!(placement_seed(7, &a), placement_seed(7, &b));
        assert_ne!(placement_seed(7, &a), placement_seed(8, &a));
        // The evaluation seed must not replay the corner's baseline
        // seed — that independence is what makes detection a
        // measurement.
        assert_ne!(placement_seed(7, &a), 7);
    }

    #[test]
    fn sweep_grid_sites_are_valid_inputs() {
        // Pure geometry check (no chip build): the standard atlas grid
        // produces the expected deterministic site count.
        let die = psa_layout::die::Die::tsmc65_1mm();
        assert_eq!(sweep_grid(&die, 6, 6, 60.0, 40.0).len(), 36);
        assert_eq!(sweep_grid(&die, 10, 10, 60.0, 40.0).len(), 100);
    }

    // Chip-bound behaviour (detection, off-die rejection, zero drive) is
    // covered by the workspace integration tests, which share the
    // expensive chip build.
}

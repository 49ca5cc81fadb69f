//! Trace acquisition: run the chip, couple the fields, digitize.
//!
//! Reproduces the bench flow of Sec. VI-A: the chip executes a scenario,
//! the selected sensor's EMF is synthesized from the activity via the
//! coupling matrix, the analog chain amplifies and digitizes, and the
//! spectrum-analyzer model renders 2000-point DC–120 MHz traces.
//!
//! [`AcqContext`] is the one entry point: a reusable **per-worker
//! context** owning all scratch state (window coefficients, FFT plans,
//! current/EMF/record buffers). The campaign engine in `psa-runtime`
//! gives each worker thread one context; record after record then runs
//! with no hot-path allocations. One-shot callers build a context for
//! the call with [`AcqContext::new`].
//!
//! Every record runs one body in two halves. The chip half (activity
//! simulation, current synthesis, emitter toggles) depends only on the
//! scenario and the record's start cycle; the sensor half (EMF
//! superposition, analog front end) depends on the sensor too. A
//! one-sensor acquisition runs both halves per record;
//! [`AcqContext::sensor_sweep_db`] runs the chip half once per record
//! and the sensor half once per PSA sensor, so all 16 sensors share one
//! activity pass.

use crate::calib;
use crate::chip::{ChipVariation, CustomSensor, SensorSelect, TestChip};
use crate::error::CoreError;
use crate::scenario::Scenario;
use psa_analog::frontend::{AnalogFrontEnd, UnitNoise};
use psa_analog::specan::SpectrumAnalyzer;
use psa_array::program::CoilProgram;
use psa_dsp::batch::{mean_amplitude_db_in_place, SpectrumScratch};
use psa_dsp::window::Window;
use psa_field::induction::induced_emf_into;
use psa_gatesim::activity::{ActivitySimulator, Source};
use psa_gatesim::current::{toggles_to_current_into, trace_to_currents_into};
use psa_gatesim::synth::SyntheticTrojan;

/// A synthetic emitter injected into an acquisition: its switching
/// signature, per-toggle charge, and its (placement-derived) coupling
/// into the selected sensor. The emitter rides the same
/// toggles → current → EMF pipeline as the chip's fixed sources, so a
/// placement sweep measures it with exactly the instrument model of the
/// paper's bench.
#[derive(Debug, Clone, Copy)]
pub struct InjectedEmitter<'e> {
    /// The emitter's switching signature and drive.
    pub trojan: &'e SyntheticTrojan,
    /// Mean switching charge per toggle, fC.
    pub charge_fc: f64,
    /// Effective coupling into the measured sensor, Wb per A·m².
    pub coupling: f64,
}

/// A synthetic emitter injected into a whole-array sweep
/// ([`AcqContext::sensor_sweep_db`]): the [`InjectedEmitter`] of every
/// PSA sensor at once, with one coupling per sensor.
#[derive(Debug, Clone, Copy)]
pub struct ArrayEmitter<'e> {
    /// The emitter's switching signature and drive.
    pub trojan: &'e SyntheticTrojan,
    /// Mean switching charge per toggle, fC.
    pub charge_fc: f64,
    /// Effective coupling into each PSA sensor, in sensor-index order,
    /// Wb per A·m².
    pub couplings: &'e [f64],
}

/// A set of digitized records from one sensor under one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSet {
    /// Digitized records (ADC output volts), each
    /// `RECORD_CYCLES × SAMPLES_PER_CYCLE` samples.
    pub records: Vec<Vec<f64>>,
    /// Sample rate, Hz.
    pub fs_hz: f64,
    /// The sensing selection used.
    pub sensor: SensorSelect,
}

impl TraceSet {
    /// Total sample count across all records.
    pub fn num_samples(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }

    /// All samples in record order, without materializing the
    /// concatenation.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.records.iter().flat_map(|r| r.iter().copied())
    }

    /// RMS over all samples — the quantity in the paper's Eq. (1) SNR —
    /// computed directly from the records (identical sample order, and
    /// therefore identical rounding, to RMS over the concatenated
    /// samples).
    pub fn rms(&self) -> f64 {
        let n = self.num_samples();
        if n == 0 {
            return 0.0;
        }
        (self.samples().map(|v| v * v).sum::<f64>() / n as f64).sqrt()
    }

    /// Concatenates all records into a caller-owned buffer (cleared
    /// first, reserved exactly once), so zero-span callers can reuse one
    /// allocation across acquisitions.
    pub fn concat_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.num_samples());
        for r in &self.records {
            out.extend_from_slice(r);
        }
    }
}

impl Default for TraceSet {
    /// An empty trace set (placeholder sensor), for use as a reusable
    /// output slot of [`AcqContext::acquire_into`].
    fn default() -> Self {
        TraceSet {
            records: Vec::new(),
            fs_hz: 0.0,
            sensor: SensorSelect::Psa(0),
        }
    }
}

/// Reusable per-worker acquisition context.
///
/// Owns every scratch buffer of the acquisition → spectrum pipeline:
/// synthesized current waveforms, flux/EMF buffers, the record buffers
/// themselves (via reusable [`TraceSet`] slots), and the cached
/// window/FFT state for both the detector-resolution and display-trace
/// spectra. One context per worker thread; the shared [`TestChip`] is
/// borrowed immutably (it is `Sync`).
///
/// # Determinism
///
/// Results do not depend on what the context processed before: one
/// context reused across calls produces bit for bit what a fresh
/// [`AcqContext::new`] per call produces. The parallel campaign
/// engine's determinism rests on this contract.
///
/// # Buffer recycling
///
/// Every method with an `_into` suffix writes into caller-owned
/// buffers (clearing them first) instead of allocating: `TraceSet`
/// record slots, flux/EMF scratch, and spectrum accumulators are all
/// reused across calls. The `_into` variants are **required** on any
/// per-record hot path — a monitor tick, a campaign job body, a
/// detection trial — where the allocating forms (e.g.
/// [`acquire`](Self::acquire)) would reallocate 65 536-sample buffers
/// thousands of times per sweep. One-shot callers (tests, examples,
/// report rendering) can use the allocating forms freely; both produce
/// bit-identical results.
///
/// ```
/// use psa_core::acquisition::{AcqContext, TraceSet};
/// use psa_core::chip::{SensorSelect, TestChip};
/// use psa_core::scenario::Scenario;
///
/// let chip = TestChip::date24();
/// let mut ctx = AcqContext::new(&chip);
/// let mut out = TraceSet::default(); // reusable record slot
/// for seed in 0..2 {
///     let scenario = Scenario::baseline().with_seed(seed);
///     // Refills `out`, recycling its record buffers.
///     ctx.acquire_into(&scenario, SensorSelect::Psa(10), 1, &mut out)?;
///     // One cached-plan FFT of the newest record (linear amplitude).
///     let row = ctx.fullres_amplitude_row(&out.records[0])?;
///     assert!(!row.is_empty());
/// }
/// # Ok::<(), psa_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct AcqContext<'c> {
    chip: &'c TestChip,
    specan: SpectrumAnalyzer,
    fullres: SpectrumScratch,
    display: SpectrumScratch,
    scratch: RecordScratch,
    /// One digitized record of a sensor sweep, recycled across sensors
    /// and records.
    record: Vec<f64>,
    concat: Vec<f64>,
    traces: TraceSet,
    /// Per-worker cache of synthesized custom programmings: deriving a
    /// coupling row is a flux integral per source cluster, far too
    /// expensive to repeat per record. Results never depend on cache
    /// state (each entry is a pure function of the programming), so the
    /// cache affects performance only — the determinism contract holds.
    customs: Vec<CustomSensor>,
    /// Per-die process variation applied to every acquisition, for
    /// fleet experiments streaming many distinct dies through one
    /// context. `None` (the default) is the exact unvaried chip.
    variation: Option<ChipVariation>,
}

/// Synthesized custom programmings kept per context before the cache
/// resets. A programming search's working set (one beam of candidates
/// per worker) is far below this; the cap only bounds pathological
/// sweeps over thousands of distinct programmings.
const CUSTOM_CACHE_CAP: usize = 64;

impl<'c> AcqContext<'c> {
    /// Creates a context with the paper's spectrum-analyzer settings.
    pub fn new(chip: &'c TestChip) -> Self {
        let specan = SpectrumAnalyzer::date24();
        let display = specan.scratch();
        AcqContext {
            chip,
            specan,
            fullres: SpectrumScratch::new(Window::Hann),
            display,
            scratch: RecordScratch::default(),
            record: Vec::new(),
            concat: Vec::new(),
            traces: TraceSet::default(),
            customs: Vec::new(),
            variation: None,
        }
    }

    /// Sets (or clears) the per-die process variation applied to every
    /// subsequent acquisition. `None` — the default — is the unvaried
    /// chip; a [`ChipVariation::nominal`] value (all factors exactly
    /// `1.0`) acquires bit-identically to `None`. Fleet runs call this
    /// per stream so one recycled context serves many distinct dies.
    pub fn set_variation(&mut self, variation: Option<ChipVariation>) {
        self.variation = variation;
    }

    /// Index of `program` in the custom-sensor cache, synthesizing on
    /// first sight.
    fn ensure_custom(&mut self, program: &CoilProgram) -> Result<usize, CoreError> {
        if let Some(i) = self.customs.iter().position(|c| c.program() == program) {
            return Ok(i);
        }
        if self.customs.len() >= CUSTOM_CACHE_CAP {
            self.customs.clear();
        }
        let sensor = self.chip.synthesize_custom(program)?;
        self.customs.push(sensor);
        Ok(self.customs.len() - 1)
    }

    /// The chip this context measures.
    pub fn chip(&self) -> &'c TestChip {
        self.chip
    }

    /// Acquires `n_records` consecutive records from `sensor` while the
    /// chip runs `scenario`, reusing `out`'s record buffers.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors ([`CoreError`]) from the
    /// coupling lookup or analog chain; `n_records == 0` is invalid.
    pub fn acquire_into(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        n_records: usize,
        out: &mut TraceSet,
    ) -> Result<(), CoreError> {
        self.acquire_len_into(scenario, sensor, n_records, calib::RECORD_CYCLES, out)
    }

    /// [`acquire_into`](Self::acquire_into) with an explicit record
    /// length in clock cycles. The literature-baseline detectors use the
    /// shorter records of their original setups (coarser RBW), which is
    /// part of why they miss small Trojans.
    ///
    /// # Errors
    ///
    /// Same as [`acquire_into`](Self::acquire_into);
    /// `record_cycles == 0` is invalid.
    pub fn acquire_len_into(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        n_records: usize,
        record_cycles: usize,
        out: &mut TraceSet,
    ) -> Result<(), CoreError> {
        self.acquire_records(scenario, sensor, n_records, record_cycles, &[], out)
    }

    /// [`acquire_len_into`](Self::acquire_len_into) with a **set** of
    /// synthetic emitters superposed on the chip's activity — the joint-
    /// localization acquisition path. Every emitter is pure in the
    /// absolute cycle, so placements still parallelize: each one's
    /// toggle train is regenerated from the record's start cycle and
    /// superposed in slice order, exactly like the chip's own sources.
    /// An empty slice is bit-identical to the plain acquisition. With a
    /// zero coupling or zero drive an emitter leaves the records
    /// bit-identical too.
    ///
    /// # Errors
    ///
    /// Same as [`acquire_len_into`](Self::acquire_len_into).
    pub fn acquire_len_with_emitters_into(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        n_records: usize,
        record_cycles: usize,
        emitters: &[InjectedEmitter<'_>],
        out: &mut TraceSet,
    ) -> Result<(), CoreError> {
        self.acquire_records(scenario, sensor, n_records, record_cycles, emitters, out)
    }

    fn acquire_records(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        n_records: usize,
        record_cycles: usize,
        emitters: &[InjectedEmitter<'_>],
        out: &mut TraceSet,
    ) -> Result<(), CoreError> {
        check_record_shape(n_records, record_cycles)?;
        let chain = self.sensor_chain(scenario, sensor, emitters.iter().map(|e| e.coupling))?;
        let mut sim = start_activity(scenario);
        out.fs_hz = calib::sample_rate_hz();
        out.sensor = sensor;
        out.records.truncate(n_records);
        while out.records.len() < n_records {
            out.records.push(Vec::new());
        }
        for (rec_idx, record) in out.records.iter_mut().enumerate() {
            self.scratch.run_chip(
                self.chip,
                &mut sim,
                record_cycles,
                emitters.iter().map(|e| (e.trojan, e.charge_fc)),
            );
            self.scratch.sense(&chain, rec_idx, record)?;
        }
        Ok(())
    }

    /// Every PSA sensor's full-resolution averaged amplitude spectrum
    /// (dB), in sensor-index order, while the chip runs `scenario` with
    /// `emitters` superposed — the 16-sensor sweep of detection,
    /// baseline learning and localization.
    ///
    /// The sweep is record-major. Per record the chip runs once: one
    /// activity pass, one current synthesis, one toggle train per
    /// emitter, and one unit-normal front-end noise draw. Then each
    /// sensor superposes its EMF, captures the record through its front
    /// end (scaling the shared draw by its own σ) and adds the record's
    /// amplitude spectrum into its own accumulator. Only the 16
    /// one-sided accumulators are held, never the records.
    ///
    /// Sensor `i`'s spectrum is bit-identical to
    /// [`acquire_len_with_emitters_into`] on `SensorSelect::Psa(i)`
    /// (each emitter's coupling being `couplings[i]`) followed by
    /// [`fullres_spectrum_db`]: the activity is the same for every
    /// sensor, the front-end noise is keyed by the scenario seed and
    /// the record index only, the front end holds no state between
    /// records, and the accumulation adds the same rows in the same
    /// record order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for `n_records == 0`,
    /// `record_cycles == 0`, or an emitter with fewer couplings than the
    /// array has sensors; acquisition/DSP errors otherwise.
    ///
    /// [`acquire_len_with_emitters_into`]: Self::acquire_len_with_emitters_into
    /// [`fullres_spectrum_db`]: Self::fullres_spectrum_db
    pub fn sensor_sweep_db(
        &mut self,
        scenario: &Scenario,
        n_records: usize,
        record_cycles: usize,
        emitters: &[ArrayEmitter<'_>],
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        check_record_shape(n_records, record_cycles)?;
        let n_sensors = self.chip.sensor_bank().len();
        if emitters.iter().any(|e| e.couplings.len() < n_sensors) {
            return Err(CoreError::InvalidParameter {
                what: "emitter coupling row is missing sensors",
            });
        }
        let chains = (0..n_sensors)
            .map(|i| {
                self.sensor_chain(
                    scenario,
                    SensorSelect::Psa(i),
                    emitters.iter().map(|e| e.couplings[i]),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let half = psa_dsp::fft::one_sided_len(record_cycles * calib::SAMPLES_PER_CYCLE);
        let mut sums = vec![vec![0.0; half]; n_sensors];
        let mut sim = start_activity(scenario);
        for rec_idx in 0..n_records {
            self.scratch.run_chip(
                self.chip,
                &mut sim,
                record_cycles,
                emitters.iter().map(|e| (e.trojan, e.charge_fc)),
            );
            for (chain, sum) in chains.iter().zip(&mut sums) {
                self.scratch.sense(chain, rec_idx, &mut self.record)?;
                self.fullres.add_amplitude_spectrum(&self.record, sum)?;
            }
        }
        for sum in &mut sums {
            mean_amplitude_db_in_place(sum, n_records);
        }
        Ok(sums)
    }

    /// The measurement chain of `sensor` for one call, with `emitter_couplings`
    /// (one per injected emitter, in order) appended to its source couplings.
    fn sensor_chain(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        emitter_couplings: impl Iterator<Item = f64>,
    ) -> Result<SensorChain, CoreError> {
        let fs = calib::sample_rate_hz();
        // Custom programmings read their (cached) synthesized row so no
        // call repeats the coupling integral; the fixed selections read
        // the chip's precomputed columns. Both feed the identical
        // pipeline, which is why Custom(preset-shaped) acquisitions are
        // bit-identical to Psa.
        let (mut weights, noise_vrms) = match sensor {
            SensorSelect::Custom(program) => {
                let idx = self.ensure_custom(&program)?;
                let custom = &self.customs[idx];
                let noise =
                    custom.noise_vrms(self.chip.tgate(), fs / 2.0, scenario.vdd, scenario.temp_c);
                (custom.couplings().to_vec(), noise)
            }
            _ => (
                self.chip.couplings_for(sensor)?,
                self.chip
                    .sensor_noise_vrms(sensor, fs / 2.0, scenario.vdd, scenario.temp_c),
            ),
        };
        // Die-level process variation: scale the coupled signal and the
        // thermal-noise floor. `1.0 × x` is bit-exact for finite x, so
        // the unvaried path stays byte-identical.
        let (signal_scale, noise_scale) = match &self.variation {
            Some(v) => (v.signal_scale(&sensor), v.noise_scale()),
            None => (1.0, 1.0),
        };
        let n_sources = weights.len();
        weights.extend(emitter_couplings);
        for w in &mut weights {
            *w *= signal_scale;
        }
        Ok(SensorChain {
            weights,
            n_sources,
            noise_vrms: noise_vrms * noise_scale,
            frontend: frontend_for(sensor, scenario.seed ^ 0xFE),
        })
    }

    /// Acquires into a fresh [`TraceSet`] (convenience; prefer
    /// [`acquire_into`](Self::acquire_into) in loops).
    ///
    /// # Errors
    ///
    /// Same as [`acquire_into`](Self::acquire_into).
    pub fn acquire(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        n_records: usize,
    ) -> Result<TraceSet, CoreError> {
        let mut out = TraceSet::default();
        self.acquire_into(scenario, sensor, n_records, &mut out)?;
        Ok(out)
    }

    /// Renders the averaged 2000-point display spectrum (dB) of a trace
    /// set — one Fig 4 panel — reusing the display-window scratch.
    ///
    /// # Errors
    ///
    /// Propagates spectrum errors for empty trace sets.
    pub fn spectrum_db(&mut self, traces: &TraceSet) -> Result<Vec<f64>, CoreError> {
        Ok(self
            .specan
            .averaged_trace_db_with(&mut self.display, &traces.records, traces.fs_hz)?)
    }

    /// Full-FFT-resolution averaged amplitude spectrum in dB (one value
    /// per FFT bin up to Nyquist), reusing the detector-window scratch.
    /// The *detector* works at this resolution; the 2000-point
    /// [`spectrum_db`](Self::spectrum_db) trace is the human-facing
    /// display.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an empty trace set.
    pub fn fullres_spectrum_db(&mut self, traces: &TraceSet) -> Result<Vec<f64>, CoreError> {
        if traces.records.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "trace set is empty",
            });
        }
        Ok(self.fullres.averaged_spectrum_db(&traces.records)?)
    }

    /// Full-resolution **linear** amplitude spectrum of a single record,
    /// borrowed from the detector-window scratch (valid until the next
    /// spectral call on this context).
    ///
    /// This is one addend of [`fullres_spectrum_db`]'s window average —
    /// a pure function of the record samples — which lets the streaming
    /// monitor cache per-record rows and average them incrementally
    /// (one FFT per tick instead of one per window record) while staying
    /// bit-identical to the full-window recompute.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dsp`] for an empty record.
    ///
    /// [`fullres_spectrum_db`]: Self::fullres_spectrum_db
    pub fn fullres_amplitude_row(&mut self, record: &[f64]) -> Result<&[f64], CoreError> {
        Ok(self.fullres.amplitude_spectrum(record)?)
    }

    /// Acquire `n_records` and render the full-resolution detector
    /// spectrum in one call, reusing the context's internal trace slot —
    /// the campaign hot path (no record-buffer allocation after the
    /// worker's first job).
    ///
    /// # Errors
    ///
    /// Same as [`acquire_into`](Self::acquire_into) and
    /// [`fullres_spectrum_db`](Self::fullres_spectrum_db).
    pub fn acquire_fullres_spectrum_db(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        n_records: usize,
    ) -> Result<Vec<f64>, CoreError> {
        let mut traces = std::mem::take(&mut self.traces);
        let result = self
            .acquire_into(scenario, sensor, n_records, &mut traces)
            .and_then(|()| self.fullres_spectrum_db(&traces));
        self.traces = traces;
        result
    }

    /// Convenience: acquire and render the averaged display spectrum,
    /// using the paper's five-trace averaging.
    ///
    /// # Errors
    ///
    /// Same as [`acquire_into`](Self::acquire_into) and
    /// [`spectrum_db`](Self::spectrum_db).
    pub fn averaged_spectrum_db(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
    ) -> Result<Vec<f64>, CoreError> {
        let mut traces = std::mem::take(&mut self.traces);
        let result = self
            .acquire_into(scenario, sensor, calib::TRACES_PER_SPECTRUM, &mut traces)
            .and_then(|()| self.spectrum_db(&traces));
        self.traces = traces;
        result
    }

    /// Frequency of full-resolution bin `k` for the standard record
    /// length.
    pub fn fullres_bin_hz(&self, k: usize) -> f64 {
        let n = calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE;
        psa_dsp::fft::bin_freq(k, n, calib::sample_rate_hz())
    }

    /// Closest full-resolution bin to a frequency.
    pub fn fullres_freq_bin(&self, freq_hz: f64) -> usize {
        let n = calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE;
        psa_dsp::fft::freq_bin(freq_hz, n, calib::sample_rate_hz())
    }

    /// Zero-span envelope of `center_hz` over `n_records` concatenated
    /// records — one Fig 5 panel — with an explicit resolution
    /// bandwidth (identification uses [`calib::IDENTIFY_RBW_HZ`] to
    /// reject the 3 MHz family neighbour and the AES block-rate lines),
    /// reusing the concatenation scratch.
    ///
    /// # Errors
    ///
    /// Same as [`acquire_into`](Self::acquire_into), plus zero-span
    /// configuration errors.
    pub fn zero_span_rbw(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        center_hz: f64,
        rbw_hz: f64,
        n_records: usize,
    ) -> Result<Vec<f64>, CoreError> {
        let mut traces = std::mem::take(&mut self.traces);
        let result = self
            .acquire_into(scenario, sensor, n_records, &mut traces)
            .and_then(|()| {
                traces.concat_into(&mut self.concat);
                Ok(self.specan.zero_span_trace_rbw(
                    &self.concat,
                    traces.fs_hz,
                    center_hz,
                    rbw_hz,
                )?)
            });
        self.traces = traces;
        result
    }
}

/// The measurement chain appropriate to a sensing selection: PSA
/// channels and the single coil use the PCB's THS4504 + RASC ADC; the
/// ICR probe set ships its own wide-band low-noise preamp.
fn frontend_for(sensor: SensorSelect, seed: u64) -> AnalogFrontEnd {
    match sensor {
        SensorSelect::IcrHh100 => AnalogFrontEnd::icr_hh100(seed),
        _ => AnalogFrontEnd::date24(seed),
    }
}

/// Rejects empty record counts and zero-length records.
fn check_record_shape(n_records: usize, record_cycles: usize) -> Result<(), CoreError> {
    if n_records == 0 {
        return Err(CoreError::InvalidParameter {
            what: "record count must be at least 1",
        });
    }
    if record_cycles == 0 {
        return Err(CoreError::InvalidParameter {
            what: "record length must be at least 1 cycle",
        });
    }
    Ok(())
}

/// The chip running `scenario`, past its warm-up, at the first record's
/// start cycle.
pub(crate) fn start_activity(scenario: &Scenario) -> ActivitySimulator {
    let mut sim = ActivitySimulator::new(scenario.chip_config());
    if scenario.warmup_cycles > 0 {
        let _ = sim.advance(scenario.warmup_cycles);
    }
    sim
}

/// One sensor's measurement chain, fixed for the length of one call:
/// the EMF superposition weights (the chip sources' couplings, then one
/// per injected emitter, each times the die's signal scale), the
/// sensor-referred noise floor, and the analog front end.
struct SensorChain {
    weights: Vec<f64>,
    /// How many leading `weights` belong to the chip's own sources.
    n_sources: usize,
    noise_vrms: f64,
    frontend: AnalogFrontEnd,
}

/// The per-record scratch of the shared record body: the chip half
/// ([`run_chip`](Self::run_chip)) fills the current waveforms, the
/// sensor half ([`sense`](Self::sense)) turns them into one sensor's
/// digitized record.
#[derive(Debug, Default)]
struct RecordScratch {
    currents: Vec<(Source, Vec<f64>)>,
    extra_toggles: Vec<f64>,
    extra_currents: Vec<Vec<f64>>,
    flux: Vec<f64>,
    emf: Vec<f64>,
    /// The record's unit-normal front-end noise. It is keyed by the
    /// front-end seed and the record index, not by the sensor, so every
    /// sensor of a sweep record applies the one draw with its own σ.
    noise: UnitNoise,
    /// The `(waveform, weight)` list handed to the EMF superposition.
    /// Always empty between records; it only keeps the allocation.
    pairs: Vec<(&'static [f64], f64)>,
}

impl RecordScratch {
    /// The chip half of a record: advance the activity one record and
    /// synthesize every source's current, then each emitter's. Each
    /// emitter is pure in the absolute cycle, so records join
    /// seamlessly exactly like the chip's own sources.
    fn run_chip<'t>(
        &mut self,
        chip: &TestChip,
        sim: &mut ActivitySimulator,
        record_cycles: usize,
        emitters: impl ExactSizeIterator<Item = (&'t SyntheticTrojan, f64)>,
    ) {
        let record_start_cycle = sim.cycle();
        let trace = sim.advance(record_cycles);
        trace_to_currents_into(&trace, chip.charges_fc(), calib::CLK_HZ, &mut self.currents);
        if self.extra_currents.len() < emitters.len() {
            self.extra_currents.resize_with(emitters.len(), Vec::new);
        }
        for ((trojan, charge_fc), current) in emitters.zip(&mut self.extra_currents) {
            trojan.toggles_into(
                record_start_cycle,
                record_cycles,
                calib::CLK_HZ,
                &mut self.extra_toggles,
            );
            toggles_to_current_into(&self.extra_toggles, charge_fc, calib::CLK_HZ, current);
        }
    }

    /// The sensor half of a record: superpose `chain`'s EMF
    /// ([`superpose`](Self::superpose)) and capture it as record
    /// `rec_idx` into `out`. The front end draws the record's unit noise
    /// only on the first sensor that captures it.
    fn sense(
        &mut self,
        chain: &SensorChain,
        rec_idx: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CoreError> {
        self.superpose(chain)?;
        chain.frontend.capture_shared_into(
            &self.emf,
            calib::sample_rate_hz(),
            chain.noise_vrms,
            rec_idx as u64,
            &mut self.noise,
            out,
        )?;
        Ok(())
    }

    /// Superposes the currents of the last [`run_chip`](Self::run_chip)
    /// through `chain`'s weights into `self.emf`. The sources come first
    /// in `Source::ALL` order, then the emitters in slice order, which
    /// keeps the accumulation (and its rounding) fixed.
    fn superpose(&mut self, chain: &SensorChain) -> Result<(), CoreError> {
        let (source_weights, emitter_weights) = chain.weights.split_at(chain.n_sources);
        let mut pairs = recycle(std::mem::take(&mut self.pairs));
        pairs.extend(
            self.currents
                .iter()
                .zip(source_weights)
                .map(|((_, wave), &w)| (wave.as_slice(), w)),
        );
        pairs.extend(
            self.extra_currents
                .iter()
                .zip(emitter_weights)
                .map(|(wave, &w)| (wave.as_slice(), w)),
        );
        let emf = induced_emf_into(
            &pairs,
            calib::EFFECTIVE_MOMENT_AREA_M2,
            calib::sample_rate_hz(),
            &mut self.flux,
            &mut self.emf,
        );
        self.pairs = recycle(pairs);
        emf?;
        Ok(())
    }
}

/// Empties `pairs` and hands its allocation to a list of another
/// lifetime. No element survives, so any lifetime is sound; the
/// in-place collect keeps the buffer, so the record loop does not
/// reallocate the list.
fn recycle<'b>(mut pairs: Vec<(&[f64], f64)>) -> Vec<(&'b [f64], f64)> {
    pairs.clear();
    pairs.into_iter().map(|(_, w)| (&[][..], w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_analog::adc::Adc;
    use psa_analog::opamp::OpAmp;
    use psa_gatesim::trojan::TrojanKind;
    use std::sync::OnceLock;

    fn chip() -> &'static TestChip {
        static CHIP: OnceLock<TestChip> = OnceLock::new();
        CHIP.get_or_init(TestChip::date24)
    }

    #[test]
    fn acquires_requested_records() {
        let t = AcqContext::new(chip())
            .acquire(&Scenario::baseline(), SensorSelect::Psa(10), 3)
            .unwrap();
        assert_eq!(t.records.len(), 3);
        for r in &t.records {
            assert_eq!(r.len(), calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE);
        }
        assert_eq!(
            t.num_samples(),
            3 * calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE
        );
    }

    #[test]
    fn zero_records_invalid() {
        assert!(AcqContext::new(chip())
            .acquire(&Scenario::baseline(), SensorSelect::Psa(0), 0)
            .is_err());
    }

    #[test]
    fn trace_set_views_match_concatenation() {
        let t = TraceSet {
            records: vec![vec![1.0, -2.0], vec![3.0], vec![], vec![0.5, 0.5]],
            fs_hz: 1.0,
            sensor: SensorSelect::Psa(0),
        };
        let cat = t.records.concat();
        assert_eq!(t.samples().collect::<Vec<_>>(), cat);
        let mut buf = vec![9.0; 100];
        t.concat_into(&mut buf);
        assert_eq!(buf, cat);
        let rms_cat = (cat.iter().map(|v| v * v).sum::<f64>() / cat.len() as f64).sqrt();
        assert_eq!(t.rms().to_bits(), rms_cat.to_bits());
        assert_eq!(TraceSet::default().rms(), 0.0);
    }

    #[test]
    fn emitter_slices_extend_the_plain_acquisition_bitwise() {
        let trojan = SyntheticTrojan::am_reference(800.0);
        let scenario = Scenario::baseline().with_seed(11);
        // Borrow a realistic coupling magnitude from the chip's own
        // sources so the superposed emitter lands in the ADC's range.
        let k = chip()
            .couplings_for(SensorSelect::Psa(10))
            .unwrap()
            .iter()
            .fold(0.0f64, |a, b| a.max(b.abs()));
        let e = InjectedEmitter {
            trojan: &trojan,
            charge_fc: 2.0,
            coupling: k,
        };

        let mut ctx = AcqContext::new(chip());
        // Empty slice is the plain acquisition, bit for bit.
        let mut plain = TraceSet::default();
        ctx.acquire_len_into(&scenario, SensorSelect::Psa(10), 2, 256, &mut plain)
            .unwrap();
        let mut slice0 = TraceSet::default();
        ctx.acquire_len_with_emitters_into(
            &scenario,
            SensorSelect::Psa(10),
            2,
            256,
            &[],
            &mut slice0,
        )
        .unwrap();
        assert_eq!(plain, slice0);

        // A second superposed emitter actually changes the records, and
        // the two-emitter path is deterministic across contexts.
        let e2 = InjectedEmitter {
            trojan: &trojan,
            charge_fc: 2.0,
            coupling: -0.5 * k,
        };
        let mut single = TraceSet::default();
        ctx.acquire_len_with_emitters_into(
            &scenario,
            SensorSelect::Psa(10),
            2,
            256,
            &[e],
            &mut single,
        )
        .unwrap();
        let mut both = TraceSet::default();
        ctx.acquire_len_with_emitters_into(
            &scenario,
            SensorSelect::Psa(10),
            2,
            256,
            &[e, e2],
            &mut both,
        )
        .unwrap();
        assert_ne!(both, single);
        let mut fresh = AcqContext::new(chip());
        let mut again = TraceSet::default();
        fresh
            .acquire_len_with_emitters_into(
                &scenario,
                SensorSelect::Psa(10),
                2,
                256,
                &[e, e2],
                &mut again,
            )
            .unwrap();
        assert_eq!(both, again);
    }

    #[test]
    fn zero_coupling_and_zero_drive_emitters_are_silent_bitwise() {
        // Both loop orders: the per-sensor record loop and the
        // record-major 16-sensor sweep. A silent emitter superposes
        // ±0.0 terms onto a +0.0-started accumulator, which leaves every
        // sample's bits as they were, signed zeros included.
        let scenario = Scenario::trojan_active(TrojanKind::T1).with_seed(17);
        let loud = SyntheticTrojan::am_reference(800.0);
        let silent = SyntheticTrojan::am_reference(0.0);
        let k = chip()
            .couplings_for(SensorSelect::Psa(10))
            .unwrap()
            .iter()
            .fold(0.0f64, |a, b| a.max(b.abs()));
        // (trojan, charge per toggle fC, coupling): the first is the
        // audible control, the rest are silent.
        let cases = [
            (&loud, 2.0, k),
            (&loud, 2.0, 0.0),
            (&loud, 2.0, -0.0),
            (&loud, 0.0, -k),
            (&silent, 2.0, k),
        ];
        let mut ctx = AcqContext::new(chip());

        let record_bits = |ctx: &mut AcqContext<'_>, emitters: &[InjectedEmitter<'_>]| {
            let mut t = TraceSet::default();
            ctx.acquire_len_with_emitters_into(
                &scenario,
                SensorSelect::Psa(10),
                2,
                256,
                emitters,
                &mut t,
            )
            .unwrap();
            t.records
                .iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        let plain = record_bits(&mut ctx, &[]);
        for (i, &(trojan, charge_fc, coupling)) in cases.iter().enumerate() {
            let e = InjectedEmitter {
                trojan,
                charge_fc,
                coupling,
            };
            let same = record_bits(&mut ctx, &[e]) == plain;
            assert_eq!(same, i > 0, "records, case {i}");
        }

        let sweep_bits = |ctx: &mut AcqContext<'_>, emitters: &[ArrayEmitter<'_>]| {
            ctx.sensor_sweep_db(&scenario, 2, 256, emitters)
                .unwrap()
                .iter()
                .map(|row| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        let plain = sweep_bits(&mut ctx, &[]);
        let n = chip().sensor_bank().len();
        for (i, &(trojan, charge_fc, coupling)) in cases.iter().enumerate() {
            let couplings = vec![coupling; n];
            let e = ArrayEmitter {
                trojan,
                charge_fc,
                couplings: &couplings,
            };
            let same = sweep_bits(&mut ctx, &[e]) == plain;
            assert_eq!(same, i > 0, "sweep, case {i}");
        }
    }

    /// Asserts that `sweep` holds, bit for bit, what each PSA sensor's
    /// own acquisition plus `fullres_spectrum_db` produces.
    fn assert_sweep_matches_per_sensor(
        ctx: &mut AcqContext<'_>,
        scenario: &Scenario,
        n_records: usize,
        record_cycles: usize,
        emitters: &[ArrayEmitter<'_>],
    ) {
        let sweep = ctx
            .sensor_sweep_db(scenario, n_records, record_cycles, emitters)
            .unwrap();
        assert_eq!(sweep.len(), chip().sensor_bank().len());
        let mut traces = TraceSet::default();
        for (i, batched) in sweep.iter().enumerate() {
            let injected: Vec<InjectedEmitter<'_>> = emitters
                .iter()
                .map(|e| InjectedEmitter {
                    trojan: e.trojan,
                    charge_fc: e.charge_fc,
                    coupling: e.couplings[i],
                })
                .collect();
            ctx.acquire_len_with_emitters_into(
                scenario,
                SensorSelect::Psa(i),
                n_records,
                record_cycles,
                &injected,
                &mut traces,
            )
            .unwrap();
            let single = ctx.fullres_spectrum_db(&traces).unwrap();
            assert_eq!(batched.len(), single.len());
            assert!(
                batched
                    .iter()
                    .zip(&single)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "sensor {i}, {} emitter(s), {record_cycles} cycles, variation {:?}",
                emitters.len(),
                ctx.variation
            );
        }
    }

    #[test]
    fn sensor_sweep_matches_per_sensor_acquisition_bitwise() {
        // The sensor-batched ≡ per-sensor invariant: one activity pass
        // per record feeding all 16 sensors must reproduce every
        // sensor's own acquisition exactly.
        let trojans = [
            SyntheticTrojan::am_reference(800.0),
            SyntheticTrojan::am_reference(1200.0),
            SyntheticTrojan::am_reference(500.0),
        ];
        let k = chip()
            .couplings_for(SensorSelect::Psa(10))
            .unwrap()
            .iter()
            .fold(0.0f64, |a, b| a.max(b.abs()));
        // Distinct, signed couplings per (emitter, sensor).
        let rows: Vec<Vec<f64>> = (0..trojans.len())
            .map(|j| {
                (0..16)
                    .map(|i| k * (1.0 + i as f64) / 16.0 * if j % 2 == 0 { 1.0 } else { -0.5 })
                    .collect()
            })
            .collect();
        let emitters: Vec<ArrayEmitter<'_>> = trojans
            .iter()
            .zip(&rows)
            .map(|(trojan, row)| ArrayEmitter {
                trojan,
                charge_fc: 2.0,
                couplings: row,
            })
            .collect();
        let scenario = Scenario::trojan_active(TrojanKind::T3).with_seed(23);
        let mut ctx = AcqContext::new(chip());
        for variation in [None, Some(ChipVariation::new(7))] {
            ctx.set_variation(variation);
            for n_emitters in [0, 1, 3] {
                assert_sweep_matches_per_sensor(
                    &mut ctx,
                    &scenario,
                    2,
                    2048,
                    &emitters[..n_emitters],
                );
            }
        }
        // Full-length records: the plain sweep of detection and
        // baseline learning, and the widest emitter set on a varied die.
        ctx.set_variation(None);
        assert_sweep_matches_per_sensor(&mut ctx, &scenario, 2, calib::RECORD_CYCLES, &[]);
        ctx.set_variation(Some(ChipVariation::new(7)));
        assert_sweep_matches_per_sensor(&mut ctx, &scenario, 1, calib::RECORD_CYCLES, &emitters);
    }

    /// The PSA sensors' front-end capture (THS4504 into the RASC-class
    /// ADC, as [`AnalogFrontEnd::date24`] builds it) as it was before
    /// sweeps shared one noise draw per record: the σ-scaled Box–Muller
    /// stream added sample by sample.
    fn streaming_capture(
        seed: u64,
        sensor_v: &[f64],
        sensor_noise_vrms: f64,
        record_index: u64,
    ) -> Vec<f64> {
        let fs = calib::sample_rate_hz();
        let (amp, adc) = (OpAmp::ths4504(), Adc::rasc());
        let amp_noise = amp.input_noise_vrms(fs / 2.0);
        let sigma = (sensor_noise_vrms * sensor_noise_vrms + amp_noise * amp_noise).sqrt();
        let mut out = sensor_v.to_vec();
        if sigma > 0.0 {
            let mut g = psa_field::noise::GaussianNoise::new(
                sigma,
                seed ^ record_index.wrapping_mul(0x9E3779B97F4A7C15),
            );
            for v in out.iter_mut() {
                *v += g.next();
            }
        }
        amp.amplify_in_place(&mut out, fs);
        adc.quantize_in_place(&mut out);
        out
    }

    #[test]
    fn sensor_sweep_matches_streaming_noise_reference_bitwise() {
        // One sensor of the sweep against the pre-sharing arithmetic:
        // the same chip half, then a per-sensor σ-scaled noise stream
        // keyed by the scenario seed and the record index.
        const SENSOR: usize = 10;
        let (n_records, record_cycles) = (3, 2048);
        let scenario = Scenario::trojan_active(TrojanKind::T3).with_seed(23);
        let mut ctx = AcqContext::new(chip());
        ctx.set_variation(Some(ChipVariation::new(7)));
        let sweep = ctx
            .sensor_sweep_db(&scenario, n_records, record_cycles, &[])
            .unwrap();
        let chain = ctx
            .sensor_chain(&scenario, SensorSelect::Psa(SENSOR), std::iter::empty())
            .unwrap();
        let mut scratch = RecordScratch::default();
        let mut sim = start_activity(&scenario);
        let mut sum = vec![0.0; sweep[SENSOR].len()];
        for rec in 0..n_records {
            scratch.run_chip(chip(), &mut sim, record_cycles, std::iter::empty());
            scratch.superpose(&chain).unwrap();
            let record = streaming_capture(
                scenario.seed ^ 0xFE,
                &scratch.emf,
                chain.noise_vrms,
                rec as u64,
            );
            ctx.fullres
                .add_amplitude_spectrum(&record, &mut sum)
                .unwrap();
        }
        mean_amplitude_db_in_place(&mut sum, n_records);
        assert!(
            sum.iter()
                .zip(&sweep[SENSOR])
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "sensor {SENSOR} sweep differs from the streaming-noise reference"
        );
    }

    #[test]
    fn sensor_sweep_rejects_bad_shapes() {
        let mut ctx = AcqContext::new(chip());
        let scenario = Scenario::baseline();
        assert!(ctx.sensor_sweep_db(&scenario, 0, 256, &[]).is_err());
        assert!(ctx.sensor_sweep_db(&scenario, 1, 0, &[]).is_err());
        let trojan = SyntheticTrojan::am_reference(800.0);
        let short = [1.0e-12; 15];
        let e = ArrayEmitter {
            trojan: &trojan,
            charge_fc: 2.0,
            couplings: &short,
        };
        assert!(ctx.sensor_sweep_db(&scenario, 1, 256, &[e]).is_err());
    }

    #[test]
    fn record_loop_keeps_its_pairs_buffer() {
        // The superposition list is recycled across records and calls,
        // so a warm context does not allocate it per record.
        let mut ctx = AcqContext::new(chip());
        let mut out = TraceSet::default();
        ctx.acquire_len_into(&Scenario::baseline(), SensorSelect::Psa(3), 2, 64, &mut out)
            .unwrap();
        assert!(ctx.scratch.pairs.is_empty());
        assert!(ctx.scratch.pairs.capacity() >= Source::ALL.len());
    }

    #[test]
    fn signal_beats_noise_on_sensor10() {
        let mut ctx = AcqContext::new(chip());
        let sig = ctx
            .acquire(&Scenario::baseline(), SensorSelect::Psa(10), 2)
            .unwrap();
        let noise = ctx
            .acquire(&Scenario::noise(), SensorSelect::Psa(10), 2)
            .unwrap();
        let snr = 20.0 * (sig.rms() / noise.rms()).log10();
        assert!(snr > 20.0, "snr {snr} dB");
    }

    #[test]
    fn spectrum_has_clock_harmonics() {
        let mut ctx = AcqContext::new(chip());
        let spec = ctx
            .averaged_spectrum_db(&Scenario::baseline(), SensorSelect::Psa(10))
            .unwrap();
        assert_eq!(spec.len(), 2000);
        let sa = SpectrumAnalyzer::date24();
        let at = |f: f64| spec[(f / sa.span_hz * (sa.trace_points - 1) as f64).round() as usize];
        // 33 MHz clock line well above the floor between harmonics.
        let clock = at(33.0e6);
        let floor = at(25.0e6);
        assert!(clock > floor + 15.0, "clock {clock} dB vs floor {floor} dB");
    }

    #[test]
    fn trojan_sideband_appears_at_48mhz() {
        let mut ctx = AcqContext::new(chip());
        let base = ctx
            .averaged_spectrum_db(&Scenario::baseline(), SensorSelect::Psa(10))
            .unwrap();
        let active = ctx
            .averaged_spectrum_db(
                &Scenario::trojan_active(TrojanKind::T4),
                SensorSelect::Psa(10),
            )
            .unwrap();
        let sa = SpectrumAnalyzer::date24();
        let p48 = (48.0e6 / sa.span_hz * (sa.trace_points - 1) as f64).round() as usize;
        let excess = active[p48] - base[p48];
        assert!(excess > 10.0, "48 MHz sideband excess {excess} dB");
    }

    #[test]
    fn sensor0_sees_far_less_than_sensor10() {
        // The Fig 4a/4e contrast: the sensor over the Trojan sees a much
        // stronger emergent component than the empty-corner sensor. (The
        // point-dipole far-field leaves a residual line at sensor 0 that
        // the silicon's distributed return currents suppress further —
        // see EXPERIMENTS.md.)
        let mut ctx = AcqContext::new(chip());
        let mut excess_at = |sensor: usize| {
            let t_base = ctx
                .acquire(&Scenario::baseline(), SensorSelect::Psa(sensor), 3)
                .unwrap();
            let t_act = ctx
                .acquire(
                    &Scenario::trojan_active(TrojanKind::T1),
                    SensorSelect::Psa(sensor),
                    3,
                )
                .unwrap();
            let base = ctx.fullres_spectrum_db(&t_base).unwrap();
            let act = ctx.fullres_spectrum_db(&t_act).unwrap();
            let b = ctx.fullres_freq_bin(48.0e6);
            (b - 3..=b + 3)
                .map(|k| act[k] - base[k])
                .fold(f64::MIN, f64::max)
        };
        let e10 = excess_at(10);
        let e0 = excess_at(0);
        assert!(e10 > e0 + 6.0, "sensor 10 {e10} dB vs sensor 0 {e0} dB");
    }

    #[test]
    fn acquisition_is_deterministic() {
        let s = Scenario::baseline().with_seed(33);
        let a = AcqContext::new(chip())
            .acquire(&s, SensorSelect::Psa(5), 2)
            .unwrap();
        let b = AcqContext::new(chip())
            .acquire(&s, SensorSelect::Psa(5), 2)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn context_reuse_matches_fresh_engine_bitwise() {
        // One context, several different acquisitions in sequence: every
        // result must be byte-identical to a fresh context per call — the
        // parallel-equivalence contract.
        let fresh = || AcqContext::new(chip());
        let mut ctx = fresh();
        let scenarios = [
            (Scenario::baseline().with_seed(5), SensorSelect::Psa(10)),
            (
                Scenario::trojan_active(TrojanKind::T1).with_seed(6),
                SensorSelect::Psa(3),
            ),
            (Scenario::noise().with_seed(7), SensorSelect::SingleCoil),
        ];
        let mut reused = TraceSet::default();
        for (scenario, sensor) in &scenarios {
            ctx.acquire_into(scenario, *sensor, 2, &mut reused).unwrap();
            let once = fresh().acquire(scenario, *sensor, 2).unwrap();
            assert_eq!(reused, once);
            let spec_ctx = ctx.fullres_spectrum_db(&reused).unwrap();
            let spec_fresh = fresh().fullres_spectrum_db(&once).unwrap();
            assert!(spec_ctx
                .iter()
                .zip(&spec_fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            let disp_ctx = ctx.spectrum_db(&reused).unwrap();
            let disp_fresh = fresh().spectrum_db(&once).unwrap();
            assert!(disp_ctx
                .iter()
                .zip(&disp_fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            // The one-call hot path (internal trace-slot reuse) matches
            // the two-call path bit-for-bit too.
            let combined = ctx
                .acquire_fullres_spectrum_db(scenario, *sensor, 2)
                .unwrap();
            assert!(combined
                .iter()
                .zip(&spec_fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn nominal_variation_acquires_bit_identically() {
        // The fleet determinism anchor: `None` and an all-1.0 nominal
        // variation must produce byte-identical records, so un-varied
        // callers pay nothing for the fleet hook.
        let mut ctx = AcqContext::new(chip());
        let scenario = Scenario::trojan_active(TrojanKind::T1).with_seed(41);
        let plain = ctx.acquire(&scenario, SensorSelect::Psa(10), 2).unwrap();
        ctx.set_variation(Some(ChipVariation::nominal()));
        let nominal = ctx.acquire(&scenario, SensorSelect::Psa(10), 2).unwrap();
        assert_eq!(plain, nominal);
        ctx.set_variation(None);
        assert!(ctx.variation.is_none());
    }

    #[test]
    fn distinct_variations_yield_distinct_records() {
        // Two dies drawn from different seeds must not share traces —
        // the whole point of fleet-scale process variation — while the
        // same die re-acquired reproduces itself exactly.
        let mut ctx = AcqContext::new(chip());
        let scenario = Scenario::baseline().with_seed(17);
        ctx.set_variation(Some(ChipVariation::new(1)));
        let die_a = ctx.acquire(&scenario, SensorSelect::Psa(10), 1).unwrap();
        ctx.set_variation(Some(ChipVariation::new(2)));
        let die_b = ctx.acquire(&scenario, SensorSelect::Psa(10), 1).unwrap();
        assert_ne!(die_a.records, die_b.records);
        ctx.set_variation(Some(ChipVariation::new(1)));
        let die_a2 = ctx.acquire(&scenario, SensorSelect::Psa(10), 1).unwrap();
        assert_eq!(die_a, die_a2);
    }

    #[test]
    fn custom_preset_acquisition_matches_psa_bitwise() {
        // Custom(preset-shaped program) must be indistinguishable from
        // the 4-bit decoder's selection at the trace level: same
        // couplings, same noise floor, same frontend seed → identical
        // bytes out of the ADC.
        let mut ctx = AcqContext::new(chip());
        let scenario = Scenario::trojan_active(TrojanKind::T3).with_seed(91);
        let p = psa_array::program::CoilProgram::preset(10).unwrap();
        let via_custom = ctx.acquire(&scenario, SensorSelect::Custom(p), 2).unwrap();
        let via_preset = AcqContext::new(chip())
            .acquire(&scenario, SensorSelect::Psa(10), 2)
            .unwrap();
        assert_eq!(via_custom.records, via_preset.records);
        assert_eq!(via_custom.fs_hz, via_preset.fs_hz);
    }

    #[test]
    fn custom_cache_reuses_synthesis_and_stays_bounded() {
        let mut ctx = AcqContext::new(chip());
        let scenario = Scenario::baseline().with_seed(5);
        let p = psa_array::program::CoilProgram::new(18, 18, 26, 26, 3).unwrap();
        assert_eq!(ctx.customs.len(), 0);
        let a = ctx.acquire(&scenario, SensorSelect::Custom(p), 1).unwrap();
        assert_eq!(ctx.customs.len(), 1);
        // Re-acquiring the same programming hits the cache (no growth)
        // and reproduces the identical traces — cache state is invisible
        // in the results.
        let b = ctx.acquire(&scenario, SensorSelect::Custom(p), 1).unwrap();
        assert_eq!(ctx.customs.len(), 1);
        assert_eq!(a, b);
        // A second programming occupies a second slot.
        let q = psa_array::program::CoilProgram::new(0, 0, 12, 12, 2).unwrap();
        ctx.acquire(&scenario, SensorSelect::Custom(q), 1).unwrap();
        assert_eq!(ctx.customs.len(), 2);
        // Invalid programmings are rejected without polluting the cache.
        let off = psa_array::program::CoilProgram::new(30, 30, 40, 40, 2).unwrap();
        assert!(ctx
            .acquire(&scenario, SensorSelect::Custom(off), 1)
            .is_err());
        assert_eq!(ctx.customs.len(), 2);
    }

    #[test]
    fn context_types_are_thread_shareable() {
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        // The campaign engine shares one chip across workers and gives
        // each worker an owned context.
        assert_sync::<TestChip>();
        assert_send::<AcqContext<'_>>();
        assert_send::<TraceSet>();
    }
}

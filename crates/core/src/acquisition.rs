//! Trace acquisition: run the chip, couple the fields, digitize.
//!
//! Reproduces the bench flow of Sec. VI-A: the chip executes a scenario,
//! the selected sensor's EMF is synthesized from the activity via the
//! coupling matrix, the analog chain amplifies and digitizes, and the
//! spectrum-analyzer model renders 2000-point DC–120 MHz traces.
//!
//! [`AcqContext`] is the one entry point: a reusable **per-worker
//! context** owning all scratch state (spectrum work buffers, the
//! kernel's toggle rows and codes, one record buffer). The campaign
//! engine in `psa-runtime` gives each worker thread one context; record
//! after record then reuses those buffers. The chip half still
//! allocates per record: the activity simulator returns each record's
//! rows in a fresh trace. One-shot callers build a context for the call
//! with [`AcqContext::new`].
//!
//! Every record runs one body in two halves. The chip half (activity
//! simulation, emitter toggles) depends only on the scenario and the
//! record's start cycle; the sensor half (currents, flux superposition,
//! EMF, analog front end) depends on the sensor too. The sensor half is
//! one **record kernel** that walks the record's per-cycle toggle rows
//! once, tile by tile: it expands each tile's cycles into current
//! pulses on the stack and runs every sensor of the call in lockstep
//! through flux, EMF, noise, op-amp and ADC. A one-sensor acquisition
//! runs it with one lane; [`AcqContext::sensor_sweep_db`] runs the chip
//! half once per record and the kernel with 16 lanes, so all 16 sensors
//! share one activity pass and one pass over the toggles.
//!
//! The kernel keeps every `f64` operation of the layer functions
//! ([`toggles_to_current_into`](psa_gatesim::current::toggles_to_current_into),
//! [`induced_emf_into`](psa_field::induction::induced_emf_into), then
//! [`AnalogFrontEnd::capture_record_into`]) in the same per-sample
//! order: it calls their per-cycle and per-sample formulas and changes
//! only the loop order, so its records are bit-identical to theirs. No
//! buffer of record length is held but each lane's record as 2-byte
//! ADC codes, until the record is decoded for its consumer: a
//! [`TraceSet`], a sweep's spectrum accumulator, the zero-span stream
//! or a monitor tick's amplitude row.

use crate::calib;
use crate::chip::{ChipVariation, CustomSensor, SensorSelect, TestChip};
use crate::error::CoreError;
use crate::scenario::Scenario;
use psa_analog::adc::Adc;
use psa_analog::frontend::{noisy_input, AnalogFrontEnd};
use psa_analog::opamp::SinglePole;
use psa_analog::specan::SpectrumAnalyzer;
use psa_array::program::CoilProgram;
use psa_dsp::batch::{mean_amplitude_db_in_place, SpectrumScratch};
use psa_dsp::window::Window;
use psa_dsp::zero_span::ZeroSpan;
use psa_field::induction::{emf_central, emf_one_sided, flux_weight};
use psa_field::noise::GaussianNoise;
use psa_gatesim::activity::ActivitySimulator;
use psa_gatesim::current::{charge_fc, CyclePulse};
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
/// the record kernel's toggle rows and codes, one decoded record, a
/// reusable [`TraceSet`] slot, and the window/FFT work buffers for both
/// the detector-resolution and display-trace spectra. One context per worker thread; the shared [`TestChip`] is
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
/// record slots, the kernel's code buffer, and spectrum accumulators
/// are all reused across calls. The `_into` variants are **required** on any
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
///     // One cached-plan FFT of the record (linear amplitude).
///     let kept = ctx.fullres_amplitude_row(&out.records[0])?.to_vec();
///     // A monitor tick: the same record straight to its row, held
///     // only in the context's one record buffer.
///     let row = ctx.acquire_amplitude_row(&scenario, SensorSelect::Psa(10))?;
///     assert_eq!(row, &kept[..]);
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
    /// One digitized record of a sensor sweep, a zero-span stream or a
    /// monitor tick, recycled across sensors and records.
    record: Vec<f64>,
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
        self.acquire_len_with_emitters_into(scenario, sensor, n_records, record_cycles, &[], out)
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
        out.fs_hz = calib::sample_rate_hz();
        out.sensor = sensor;
        out.records.resize_with(n_records, Vec::new);
        let records = &mut out.records;
        self.acquire_records(
            scenario,
            sensor,
            n_records,
            record_cycles,
            emitters,
            |rec_idx, scratch, lanes| {
                scratch.record_into(lanes, 0, &mut records[rec_idx]);
                Ok(())
            },
        )
    }

    /// The one-sensor record loop: runs `n_records` consecutive records
    /// of `sensor` through the record kernel and hands each, by index,
    /// to `sink`, which decodes it from the kernel's codes
    /// ([`RecordScratch::record_into`]) where it keeps it.
    fn acquire_records(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        n_records: usize,
        record_cycles: usize,
        emitters: &[InjectedEmitter<'_>],
        mut sink: impl FnMut(usize, &RecordScratch, &Lanes<1>) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        check_record_shape(n_records, record_cycles)?;
        let chain = self.sensor_chain(scenario, sensor, emitters.iter().map(|e| e.coupling))?;
        let lanes = Lanes::<1>::new(frontend_for(sensor, scenario.seed ^ 0xFE), &[chain])?;
        let mut sim = start_activity(scenario);
        for rec_idx in 0..n_records {
            self.scratch.run_chip(
                self.chip,
                &mut sim,
                record_cycles,
                emitters.iter().map(|e| (e.trojan, e.charge_fc)),
            );
            self.scratch.sense(&lanes, rec_idx)?;
            sink(rec_idx, &self.scratch, &lanes)?;
        }
        Ok(())
    }

    /// Every PSA sensor's full-resolution averaged amplitude spectrum
    /// (dB), in sensor-index order, while the chip runs `scenario` with
    /// `emitters` superposed — the 16-sensor sweep of detection,
    /// baseline learning and localization.
    ///
    /// The sweep is record-major. Per record the chip runs once: one
    /// activity pass and one toggle train per emitter. Then the record
    /// kernel runs the 16 sensors in lockstep over the toggle rows,
    /// expanding each tile's currents once for all of them, drawing the
    /// record's unit-normal front-end
    /// noise once and scaling it by each sensor's own σ, and each
    /// sensor adds its record's amplitude spectrum into its own
    /// accumulator. Besides the 16 one-sided accumulators, only the
    /// record's 2-byte ADC codes and one decoded record are held.
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
    /// `record_cycles == 0`, an array of other than 16 sensors, or an
    /// emitter with fewer couplings than the array has sensors;
    /// acquisition/DSP errors otherwise.
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
        if n_sensors != SWEEP_LANES {
            return Err(CoreError::InvalidParameter {
                what: "the sweep runs a 16-sensor array",
            });
        }
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
        // Every PSA channel has the same front end; the kernel's lanes
        // share it.
        let frontend = frontend_for(SensorSelect::Psa(0), scenario.seed ^ 0xFE);
        let lanes = Lanes::<SWEEP_LANES>::new(frontend, &chains)?;
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
            self.scratch.sense(&lanes, rec_idx)?;
            for (lane, sum) in sums.iter_mut().enumerate() {
                self.scratch.record_into(&lanes, lane, &mut self.record);
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
        weights.extend(emitter_couplings);
        for w in &mut weights {
            *w = flux_weight(*w * signal_scale, calib::EFFECTIVE_MOMENT_AREA_M2);
        }
        Ok(SensorChain {
            weights,
            noise_vrms: noise_vrms * noise_scale,
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

    /// Acquires one record from `sensor` while the chip runs
    /// `scenario` and returns its full-resolution linear amplitude
    /// spectrum, borrowed like
    /// [`fullres_amplitude_row`](Self::fullres_amplitude_row)'s — a
    /// monitor tick.
    ///
    /// The record leaves the record kernel into the context's one
    /// record buffer and goes straight to the FFT, so no caller holds a
    /// record between ticks. The row is bit-identical to
    /// [`acquire_into`](Self::acquire_into) with one record, then
    /// [`fullres_amplitude_row`](Self::fullres_amplitude_row) of it.
    ///
    /// # Errors
    ///
    /// Same as [`acquire_into`](Self::acquire_into).
    pub fn acquire_amplitude_row(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
    ) -> Result<&[f64], CoreError> {
        self.stream_records(scenario, sensor, 1, |_| Ok(()))?;
        Ok(self.fullres.amplitude_spectrum(&self.record)?)
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

    /// Zero-span envelope of `center_hz` over `n_records` consecutive
    /// records — one Fig 5 panel — with an explicit resolution
    /// bandwidth (identification uses [`calib::IDENTIFY_RBW_HZ`] to
    /// reject the 3 MHz family neighbour and the AES block-rate lines),
    /// returned with its sample rate.
    ///
    /// Each record leaves the record kernel into the context's one
    /// record buffer and is pushed straight into a [`ZeroSpanStream`]
    /// (mixer and first decimating filter), so the records are never
    /// held together. The envelope is bit-identical to
    /// [`ZeroSpan::envelope_trimmed`] over the concatenated records of
    /// [`acquire_into`](Self::acquire_into).
    ///
    /// # Errors
    ///
    /// Same as [`acquire_into`](Self::acquire_into), plus zero-span
    /// configuration errors.
    ///
    /// [`ZeroSpanStream`]: psa_dsp::zero_span::ZeroSpanStream
    pub fn zero_span_rbw(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        center_hz: f64,
        rbw_hz: f64,
        n_records: usize,
    ) -> Result<(Vec<f64>, f64), CoreError> {
        check_record_shape(n_records, calib::RECORD_CYCLES)?;
        let zs = ZeroSpan::with_rbw(center_hz, calib::sample_rate_hz(), rbw_hz)?;
        let mut stream = zs.stream(n_records * calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE)?;
        self.stream_records(scenario, sensor, n_records, |record| {
            Ok(stream.push(record)?)
        })?;
        Ok((stream.finish_trimmed()?, zs.output_fs_hz()))
    }

    /// The one-sensor record loop over `n_records` standard records,
    /// each decoded into the context's one record buffer and handed to
    /// `each`; the buffer holds the last record afterwards.
    fn stream_records(
        &mut self,
        scenario: &Scenario,
        sensor: SensorSelect,
        n_records: usize,
        mut each: impl FnMut(&[f64]) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let mut record = std::mem::take(&mut self.record);
        let result = self.acquire_records(
            scenario,
            sensor,
            n_records,
            calib::RECORD_CYCLES,
            &[],
            |_, scratch, lanes| {
                scratch.record_into(lanes, 0, &mut record);
                each(&record)
            },
        );
        self.record = record;
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

/// Sensors a sweep runs through the record kernel in lockstep: the
/// whole 4×4 array.
const SWEEP_LANES: usize = 16;

/// Samples per tile of the record kernel: a tile's flux, samples and
/// codes for 16 lanes (about 75 KB) stay in the core's caches while
/// each step runs over them. 128 measured no faster.
const TILE: usize = 256;

/// One sensor's measurement chain, fixed for the length of one call:
/// the flux weight of each toggle row's current (the chip's sources in
/// `Source::ALL` order, then one per injected emitter, each coupling
/// times the die's signal scale, times the moment area) and the
/// sensor-referred noise floor.
struct SensorChain {
    weights: Vec<f64>,
    noise_vrms: f64,
}

/// `L` sensor chains that share one front end, laid out for the record
/// kernel: lane `s` of every array belongs to the group's sensor `s`.
struct Lanes<const L: usize> {
    /// Per toggle row, each lane's flux weight.
    weights: Vec<[f64; L]>,
    /// Each lane's input-noise σ.
    sigma: [f64; L],
    frontend: AnalogFrontEnd,
    amp: SinglePole,
    adc: Adc,
}

impl<const L: usize> Lanes<L> {
    /// The lanes of `chains` (exactly `L`, with equally many weights)
    /// behind `frontend`.
    ///
    /// # Errors
    ///
    /// [`CoreError`] for a sample rate or noise floor the front end
    /// rejects.
    fn new(frontend: AnalogFrontEnd, chains: &[SensorChain]) -> Result<Self, CoreError> {
        assert_eq!(chains.len(), L, "one chain per lane");
        let fs = calib::sample_rate_hz();
        let mut sigma = [0.0; L];
        for (sigma, chain) in sigma.iter_mut().zip(chains) {
            *sigma = frontend.noise_sigma(fs, chain.noise_vrms)?;
        }
        let rows = chains[0].weights.len();
        Ok(Lanes {
            weights: (0..rows)
                .map(|r| std::array::from_fn(|s| chains[s].weights[r]))
                .collect(),
            sigma,
            amp: frontend.amp_response(fs),
            adc: frontend.adc(),
            frontend,
        })
    }
}

/// An ADC output code in two bytes: code `k` with sign bit `s` is
/// `2k + s`, so `−0.0` (a small negative sample) is `1` and stays
/// apart from `+0.0`. Codes of the front end's 12-bit ADC lie in
/// `[−2048, 2048]`, far inside the range.
type Code = i16;

/// Packs an [`Adc::code`] value (an integer-valued `f64`, not NaN).
/// Adding `1.5·2⁵²` leaves the integer in the low bits of the sum, in
/// two's complement.
#[inline]
fn pack(code: f64) -> Code {
    const TO_INT: f64 = 6_755_399_441_055_744.0;
    let sign = (code.to_bits() >> 63) as Code;
    let k = (code + TO_INT).to_bits() as Code;
    k.wrapping_mul(2).wrapping_add(sign)
}

/// The code [`pack`] packed, bit for bit.
#[inline]
fn unpack(code: Code) -> f64 {
    let k = f64::from(code >> 1);
    f64::from_bits(k.to_bits() | u64::from(code as u16 & 1) << 63)
}

/// The per-record scratch of the shared record body: the chip half
/// ([`run_chip`](Self::run_chip)) keeps the record's toggle rows, the
/// sensor half ([`sense`](Self::sense)) turns them, tile by tile, into
/// every lane's ADC codes. No current row of record length is ever
/// held.
#[derive(Debug, Default)]
struct RecordScratch {
    /// The last record's toggles per cycle: the chip's sources in
    /// `Source::ALL` order (moved out of the activity trace), then one
    /// row per injected emitter.
    toggles: Vec<Vec<f64>>,
    /// Each toggle row's current pulses, memoized across the record's
    /// tiles.
    pulses: Vec<CyclePulse>,
    /// The last record's ADC codes, lane-major: lane `s` of an
    /// `n`-sample record is `codes[s·n..(s+1)·n]`.
    codes: Vec<Code>,
}

/// Cycles per kernel tile.
const TILE_CYCLES: usize = TILE / calib::SAMPLES_PER_CYCLE;

/// One toggle row's current over a tile and its one-sample halo on
/// each side, as whole cycles.
type TileCurrent = [[f64; calib::SAMPLES_PER_CYCLE]; TILE_CYCLES + 2];

/// The current of cycles `cycles` of toggle row `toggles`, one whole
/// cycle's pulse at a time, as samples from the first cycle's start.
#[inline]
fn expand_cycles<'b>(
    toggles: &[f64],
    pulses: &mut CyclePulse,
    cycles: std::ops::Range<usize>,
    out: &'b mut TileCurrent,
) -> &'b [f64] {
    let out = &mut out[..cycles.len()];
    for (chunk, &t) in out.iter_mut().zip(&toggles[cycles]) {
        *chunk = pulses.pulse(t);
    }
    out.as_flattened()
}

impl RecordScratch {
    /// The chip half of a record: advance the activity one record and
    /// keep every source's toggles, then each emitter's, with each
    /// row's pulse synthesis. Each emitter is pure in the absolute
    /// cycle, so records join seamlessly exactly like the chip's own
    /// sources.
    fn run_chip<'t>(
        &mut self,
        chip: &TestChip,
        sim: &mut ActivitySimulator,
        record_cycles: usize,
        emitters: impl ExactSizeIterator<Item = (&'t SyntheticTrojan, f64)>,
    ) {
        let record_start_cycle = sim.cycle();
        let trace = sim.advance(record_cycles);
        let sources = trace.per_source.len();
        self.toggles.resize_with(sources + emitters.len(), Vec::new);
        self.pulses.clear();
        for (row, (source, toggles)) in self.toggles.iter_mut().zip(trace.per_source) {
            *row = toggles;
            let charge = charge_fc(chip.charges_fc(), source);
            self.pulses.push(CyclePulse::new(charge, calib::CLK_HZ));
        }
        for ((trojan, charge_fc), row) in emitters.zip(&mut self.toggles[sources..]) {
            trojan.toggles_into(record_start_cycle, record_cycles, calib::CLK_HZ, row);
            self.pulses.push(CyclePulse::new(charge_fc, calib::CLK_HZ));
        }
    }

    /// The record kernel, the sensor half of record `rec_idx`: turns the
    /// toggle rows of the last [`run_chip`](Self::run_chip) into the ADC
    /// codes of every lane of `lanes`.
    ///
    /// One pass walks the record tile by tile; within a tile, sample `k`
    /// of every lane sits side by side, so each step below is a loop
    /// over independent lanes. Per tile:
    ///
    /// 1. each toggle row's current over the tile's whole cycles and
    ///    the cycle on each side ([`CyclePulse`], the pulses of
    ///    [`toggles_to_current_into`](psa_gatesim::current::toggles_to_current_into)),
    ///    then each lane's flux over the rows (chip sources, then
    ///    emitters, each sum from `0.0`), for the tile and its two
    ///    neighbour samples;
    /// 2. the EMF, [`emf_central`] inside the record and
    ///    [`emf_one_sided`] at its ends, plus the tile of the record's
    ///    unit-normal noise (drawn once for all lanes) through
    ///    [`noisy_input`] with each lane's σ;
    /// 3. the op-amp's [`SinglePole`] IIR, all lanes stepped together,
    ///    so no lane waits on the latency of its own;
    /// 4. the op-amp's rails and [`Adc::code`], packed, then moved into
    ///    each lane's record of codes.
    ///
    /// These are the per-sample formulas of the layer functions, in
    /// their per-sample order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when a lane's op-amp state ends
    /// the record non-finite: some sample's EMF or state overflowed or
    /// was NaN, so a code may be NaN, which no [`Code`] holds.
    fn sense<const L: usize>(&mut self, lanes: &Lanes<L>, rec_idx: usize) -> Result<(), CoreError> {
        let rows = lanes.weights.len();
        let toggles = &self.toggles[..rows];
        let pulses = &mut self.pulses[..rows];
        // Whole cycles: a record holds at least 8 samples.
        let n = toggles[0].len() * calib::SAMPLES_PER_CYCLE;
        let fs = calib::sample_rate_hz();
        self.codes.resize(L * n, 0);
        let mut noise = lanes
            .sigma
            .iter()
            .any(|&sigma| sigma > 0.0)
            .then(|| GaussianNoise::new(1.0, lanes.frontend.noise_seed(rec_idx as u64)));
        let (amp, adc, sigma) = (lanes.amp, lanes.adc, lanes.sigma);
        let mut y = [0.0; L];
        let mut z = [0.0; TILE];
        let mut current = [[0.0; calib::SAMPLES_PER_CYCLE]; TILE_CYCLES + 2];
        let mut next_current = current;
        let mut flux = [[0.0; L]; TILE + 2];
        let mut tile = [[0.0; L]; TILE];
        let mut tile_codes = [[0; L]; TILE];
        for t0 in (0..n).step_by(TILE) {
            let t1 = (t0 + TILE).min(n);
            // 1. The flux of samples lo..hi: the tile and its neighbours,
            // from the currents of the whole cycles that hold them.
            let lo = t0.saturating_sub(1);
            let hi = (t1 + 1).min(n);
            let cycles = lo / calib::SAMPLES_PER_CYCLE..hi.div_ceil(calib::SAMPLES_PER_CYCLE);
            let from = cycles.start * calib::SAMPLES_PER_CYCLE;
            let span = lo - from..hi - from;
            // Rows are added two per pass, each in its turn, so the flux
            // tile is read and written half as often.
            let flux = &mut flux[..hi - lo];
            flux.fill([0.0; L]);
            for r in (0..rows).step_by(2) {
                let w = &lanes.weights[r];
                let wave =
                    &expand_cycles(&toggles[r], &mut pulses[r], cycles.clone(), &mut current)
                        [span.clone()];
                match toggles.get(r + 1) {
                    Some(next) => {
                        let v = &lanes.weights[r + 1];
                        let next = &expand_cycles(
                            next,
                            &mut pulses[r + 1],
                            cycles.clone(),
                            &mut next_current,
                        )[span.clone()];
                        for ((f, &i), &j) in flux.iter_mut().zip(wave).zip(next) {
                            for s in 0..L {
                                f[s] = (f[s] + w[s] * i) + v[s] * j;
                            }
                        }
                    }
                    None => {
                        for (f, &i) in flux.iter_mut().zip(wave) {
                            for s in 0..L {
                                f[s] += w[s] * i;
                            }
                        }
                    }
                }
            }
            // 2. EMF and noise. Each window of three flux samples centres
            // an interior sample; the record's ends are one-sided.
            let x = &mut tile[..t1 - t0];
            let edge = |a: &[f64; L], b: &[f64; L]| -> [f64; L] {
                std::array::from_fn(|s| emf_one_sided(a[s], b[s], fs))
            };
            let body = if t0 == 0 {
                x[0] = edge(&flux[0], &flux[1]);
                &mut x[1..]
            } else {
                &mut x[..]
            };
            for (x, w) in body.iter_mut().zip(flux.windows(3)) {
                *x = std::array::from_fn(|s| emf_central(w[0][s], w[2][s], fs));
            }
            if t1 == n {
                x[t1 - t0 - 1] = edge(&flux[hi - lo - 2], &flux[hi - lo - 1]);
            }
            let z = &mut z[..t1 - t0];
            if let Some(noise) = &mut noise {
                noise.fill(z);
            }
            for (x, &z) in x.iter_mut().zip(z.iter()) {
                for s in 0..L {
                    x[s] = noisy_input(x[s], z, sigma[s]);
                }
            }
            // 3. The op-amp states, all lanes in lockstep.
            for x in x.iter_mut() {
                for s in 0..L {
                    y[s] = amp.step(y[s], x[s]);
                    x[s] = y[s];
                }
            }
            // 4. Rails and ADC, then each lane's codes into its record.
            let tile_codes = &mut tile_codes[..t1 - t0];
            for (code, &y) in tile_codes
                .as_flattened_mut()
                .iter_mut()
                .zip(x.as_flattened())
            {
                *code = pack(adc.code(amp.output(y)));
            }
            for (s, codes) in self.codes.chunks_exact_mut(n).enumerate() {
                for (code, c) in codes[t0..t1].iter_mut().zip(tile_codes.iter()) {
                    *code = c[s];
                }
            }
        }
        // A NaN or infinite state stays non-finite to the record's end,
        // so finite end states rule out a NaN code anywhere.
        if y.iter().all(|y| y.is_finite()) {
            Ok(())
        } else {
            Err(CoreError::InvalidParameter {
                what: "record EMF must stay finite",
            })
        }
    }

    /// Lane `lane`'s record of the last [`sense`](Self::sense), as the
    /// ADC's quantized samples, into `out` (cleared first).
    fn record_into<const L: usize>(&self, lanes: &Lanes<L>, lane: usize, out: &mut Vec<f64>) {
        let n = self.codes.len() / L;
        out.clear();
        out.resize(n, 0.0);
        let codes = &self.codes[lane * n..(lane + 1) * n];
        for (sample, &code) in out.iter_mut().zip(codes) {
            *sample = lanes.adc.level(unpack(code));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_analog::opamp::OpAmp;
    use psa_field::induction::induced_emf_into;
    use psa_gatesim::current::{toggles_to_current_into, trace_to_currents_into};
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
        let mut currents = Vec::new();
        let mut sim = start_activity(&scenario);
        let mut sum = vec![0.0; sweep[SENSOR].len()];
        let (mut flux, mut emf) = (Vec::new(), Vec::new());
        for rec in 0..n_records {
            let trace = sim.advance(record_cycles);
            trace_to_currents_into(&trace, chip().charges_fc(), calib::CLK_HZ, &mut currents);
            // The chain's weights are flux weights already: a unit area
            // keeps them exactly.
            let pairs: Vec<(&[f64], f64)> = currents
                .iter()
                .zip(&chain.weights)
                .map(|((_, wave), &w)| (wave.as_slice(), w))
                .collect();
            induced_emf_into(&pairs, 1.0, calib::sample_rate_hz(), &mut flux, &mut emf).unwrap();
            let record =
                streaming_capture(scenario.seed ^ 0xFE, &emf, chain.noise_vrms, rec as u64);
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

    /// Deterministic toggle counts per cycle: up to 1 023 toggles, in
    /// runs of repeated counts, with `+0.0` and `−0.0` side by side.
    fn synthetic_toggles(cycles: usize, row: u64) -> Vec<f64> {
        let mut state = 0x9E37_79B9_7F4A_7C15 ^ row.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut count = 0.0;
        (0..cycles)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match (i + row as usize) % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    2 | 3 => count,
                    _ => {
                        count = (state >> 54) as f64;
                        count
                    }
                }
            })
            .collect()
    }

    /// Charge per toggle of toggle row `r`, fC: every fourth negative,
    /// so `+0.0` and `−0.0` counts give pulses of opposite sign.
    fn row_charge_fc(r: usize) -> f64 {
        if r % 4 == 3 {
            -1.5
        } else {
            1.5 + r as f64 / 4.0
        }
    }

    /// Each toggle row's current through [`toggles_to_current_into`].
    fn currents(rows: &[Vec<f64>], charges_fc: &[f64]) -> Vec<Vec<f64>> {
        rows.iter()
            .zip(charges_fc)
            .map(|(row, &q)| {
                let mut current = Vec::new();
                toggles_to_current_into(row, q, calib::CLK_HZ, &mut current);
                current
            })
            .collect()
    }

    /// One sensor's record through the layer functions: the EMF of
    /// `rows` under `couplings` (`induced_emf_into`), then the front
    /// end's capture. `noise_vrms: None` is a σ = 0 capture: the EMF
    /// through the op-amp and the ADC with no noise.
    fn layered_record(
        rows: &[&[f64]],
        couplings: &[f64],
        frontend: &AnalogFrontEnd,
        noise_vrms: Option<f64>,
        rec_idx: usize,
    ) -> Vec<f64> {
        let fs = calib::sample_rate_hz();
        let pairs: Vec<(&[f64], f64)> = rows
            .iter()
            .copied()
            .zip(couplings.iter().copied())
            .collect();
        let (mut flux, mut emf) = (Vec::new(), Vec::new());
        induced_emf_into(
            &pairs,
            calib::EFFECTIVE_MOMENT_AREA_M2,
            fs,
            &mut flux,
            &mut emf,
        )
        .unwrap();
        match noise_vrms {
            Some(noise) => {
                let mut out = Vec::new();
                frontend
                    .capture_record_into(&emf, fs, noise, rec_idx as u64, &mut out)
                    .unwrap();
                out
            }
            None => {
                OpAmp::ths4504().amplify_in_place(&mut emf, fs);
                Adc::rasc().quantize_in_place(&mut emf);
                emf
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the kernel with `L` lanes over the toggle rows `rows` (the
    /// first seven as the chip's sources), row `r` switching
    /// `charges_fc[r]` per toggle, and checks every lane against
    /// [`layered_record`] of the rows' currents. Lane `s` couples row `r`
    /// with `couplings[s][r]`; a `None` noise floor runs the lane at
    /// σ = 0.
    fn assert_kernel_matches_layers<const L: usize>(
        rows: &[Vec<f64>],
        charges_fc: &[f64],
        couplings: &[Vec<f64>],
        noise: &[Option<f64>],
        rec_idx: usize,
    ) {
        let frontend = AnalogFrontEnd::date24(0x5EED ^ 0xFE);
        let chains: Vec<SensorChain> = (0..L)
            .map(|s| SensorChain {
                weights: couplings[s]
                    .iter()
                    .map(|&k| flux_weight(k, calib::EFFECTIVE_MOMENT_AREA_M2))
                    .collect(),
                noise_vrms: noise[s].unwrap_or(0.0),
            })
            .collect();
        let mut lanes = Lanes::<L>::new(frontend.clone(), &chains).unwrap();
        for (sigma, noise) in lanes.sigma.iter_mut().zip(noise) {
            if noise.is_none() {
                *sigma = 0.0;
            }
        }
        let mut scratch = RecordScratch {
            toggles: rows.to_vec(),
            pulses: charges_fc
                .iter()
                .map(|&q| CyclePulse::new(q, calib::CLK_HZ))
                .collect(),
            ..RecordScratch::default()
        };
        scratch.sense(&lanes, rec_idx).unwrap();
        let currents = currents(rows, charges_fc);
        let views: Vec<&[f64]> = currents.iter().map(Vec::as_slice).collect();
        let mut got = Vec::new();
        for s in 0..L {
            scratch.record_into(&lanes, s, &mut got);
            let want = layered_record(&views, &couplings[s], &frontend, noise[s], rec_idx);
            assert_eq!(
                bits(&got),
                bits(&want),
                "cycles {} rows {} lane {s} of {L} noise {:?}",
                rows[0].len(),
                rows.len(),
                noise[s]
            );
        }
    }

    /// Expands `toggles` tile by tile as the kernel does, the memo
    /// carried across tiles, and checks each tile's current, halo
    /// included, against cycle-at-a-time [`toggles_to_current_into`]
    /// (no memo) and the whole row's.
    fn assert_tiles_match_current(toggles: &[f64], charge_fc: f64) {
        let whole = &currents(&[toggles.to_vec()], &[charge_fc])[0];
        let mut one = Vec::new();
        let fresh: Vec<f64> = toggles
            .iter()
            .flat_map(|&t| {
                toggles_to_current_into(&[t], charge_fc, calib::CLK_HZ, &mut one);
                one.clone()
            })
            .collect();
        assert_eq!(bits(whole), bits(&fresh), "{charge_fc} fC");
        let n = fresh.len();
        let mut pulses = CyclePulse::new(charge_fc, calib::CLK_HZ);
        let mut buf = [[0.0; calib::SAMPLES_PER_CYCLE]; TILE_CYCLES + 2];
        for t0 in (0..n).step_by(TILE) {
            let lo = t0.saturating_sub(1);
            let hi = (t0 + TILE + 1).min(n);
            let cycles = lo / calib::SAMPLES_PER_CYCLE..hi.div_ceil(calib::SAMPLES_PER_CYCLE);
            let from = cycles.start * calib::SAMPLES_PER_CYCLE;
            let got = expand_cycles(toggles, &mut pulses, cycles, &mut buf);
            assert_eq!(
                bits(&got[lo - from..hi - from]),
                bits(&fresh[lo..hi]),
                "tile at {t0} of {n}, {charge_fc} fC"
            );
        }
    }

    #[test]
    fn record_kernel_matches_layer_functions_bitwise() {
        // Lane s couples every row with the chip's sensor-s coupling
        // scale times a lane factor spanning six decades: the low lanes
        // sit in the ADC's range, the top ones saturate the op-amp and
        // the ADC on both rails. Lanes 1 and 9 run at σ = 0, so their
        // signed zeros reach the IIR untouched.
        let k = chip()
            .couplings_for(SensorSelect::Psa(10))
            .unwrap()
            .iter()
            .fold(0.0f64, |a, b| a.max(b.abs()));
        let couplings: Vec<Vec<f64>> = (0..16)
            .map(|s| {
                let lane = k * 10f64.powf(s as f64 / 3.0 - 3.0);
                (0..10)
                    .map(|r| {
                        lane * if r % 3 == 1 {
                            -0.7
                        } else {
                            1.0 + r as f64 / 10.0
                        }
                    })
                    .collect()
            })
            .collect();
        let noise: Vec<Option<f64>> = (0..16)
            .map(|s| match s {
                1 | 9 => None,
                _ => Some(2e-6 * s as f64),
            })
            .collect();
        let charges: Vec<f64> = (0..10).map(row_charge_fc).collect();
        let mut saturated = false;
        for cycles in [1, TILE_CYCLES - 1, TILE_CYCLES, TILE_CYCLES + 1, 256, 8192] {
            let rows: Vec<Vec<f64>> = (0..10).map(|r| synthetic_toggles(cycles, r)).collect();
            for (row, &q) in rows.iter().zip(&charges) {
                assert_tiles_match_current(row, q);
            }
            // 7 chip sources, then 0–3 emitters.
            for n_rows in 7..=10 {
                let rows = &rows[..n_rows];
                let charges = &charges[..n_rows];
                let couplings: Vec<Vec<f64>> =
                    couplings.iter().map(|c| c[..n_rows].to_vec()).collect();
                assert_kernel_matches_layers::<16>(rows, charges, &couplings, &noise, 3);
                for lane in [0, 1, 15] {
                    assert_kernel_matches_layers::<1>(
                        rows,
                        charges,
                        &couplings[lane..=lane],
                        &noise[lane..=lane],
                        cycles,
                    );
                }
                if cycles >= TILE_CYCLES {
                    let currents = currents(rows, charges);
                    let views: Vec<&[f64]> = currents.iter().map(Vec::as_slice).collect();
                    let top =
                        layered_record(&views, &couplings[15], &AnalogFrontEnd::date24(0), None, 0);
                    let rail = Adc::rasc().level(2048.0);
                    saturated |= top.contains(&rail) && top.contains(&-rail);
                }
            }
        }
        assert!(saturated, "the loudest lane reaches both ADC rails");
    }

    #[test]
    fn acquisition_matches_layer_functions_bitwise() {
        // The context's records against the layer functions on the same
        // chip half, toggles to currents included (as a layer-by-layer
        // replay drives them): a varied die, and 0–3 injected emitters.
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
        let scenario = Scenario::trojan_active(TrojanKind::T3).with_seed(29);
        let fs = calib::sample_rate_hz();
        let mut ctx = AcqContext::new(chip());
        for variation in [None, Some(ChipVariation::new(7))] {
            ctx.set_variation(variation.clone());
            for n_emitters in 0..=3 {
                let emitters: Vec<InjectedEmitter<'_>> = trojans[..n_emitters]
                    .iter()
                    .enumerate()
                    .map(|(j, trojan)| InjectedEmitter {
                        trojan,
                        charge_fc: 2.0 - j as f64 / 2.0,
                        coupling: k * (0.5 - j as f64 / 3.0),
                    })
                    .collect();
                let select = SensorSelect::Psa(6);
                let mut traces = TraceSet::default();
                ctx.acquire_len_with_emitters_into(
                    &scenario,
                    select,
                    2,
                    2048,
                    &emitters,
                    &mut traces,
                )
                .unwrap();
                let (signal_scale, noise_scale) = variation
                    .as_ref()
                    .map_or((1.0, 1.0), |v| (v.signal_scale(&select), v.noise_scale()));
                let mut couplings = chip().couplings_for(select).unwrap();
                couplings.extend(emitters.iter().map(|e| e.coupling));
                for c in &mut couplings {
                    *c *= signal_scale;
                }
                let noise =
                    chip().sensor_noise_vrms(select, fs / 2.0, scenario.vdd, scenario.temp_c)
                        * noise_scale;
                let frontend = AnalogFrontEnd::date24(scenario.seed ^ 0xFE);
                let mut sim = start_activity(&scenario);
                let (mut sources, mut toggles) = (Vec::new(), Vec::new());
                for (rec, record) in traces.records.iter().enumerate() {
                    let start = sim.cycle();
                    let trace = sim.advance(2048);
                    trace_to_currents_into(
                        &trace,
                        chip().charges_fc(),
                        calib::CLK_HZ,
                        &mut sources,
                    );
                    let mut rows: Vec<Vec<f64>> =
                        sources.iter().map(|(_, wave)| wave.clone()).collect();
                    for e in &emitters {
                        e.trojan
                            .toggles_into(start, 2048, calib::CLK_HZ, &mut toggles);
                        let mut wave = Vec::new();
                        toggles_to_current_into(&toggles, e.charge_fc, calib::CLK_HZ, &mut wave);
                        rows.push(wave);
                    }
                    let views: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                    let want = layered_record(&views, &couplings, &frontend, Some(noise), rec);
                    assert_eq!(
                        bits(record),
                        bits(&want),
                        "record {rec}, {n_emitters} emitter(s), variation {variation:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn codes_pack_and_unpack_exactly() {
        for k in -2048..=2048 {
            let code = f64::from(k);
            assert_eq!(unpack(pack(code)).to_bits(), code.to_bits(), "{code}");
        }
        assert_eq!(unpack(pack(-0.0)).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn non_finite_emf_is_rejected() {
        // A coupling that overflows the flux: the op-amp state ends the
        // record non-finite, and the acquisition says so.
        let trojan = SyntheticTrojan::am_reference(800.0);
        let e = InjectedEmitter {
            trojan: &trojan,
            charge_fc: 2.0,
            coupling: f64::MAX,
        };
        let mut traces = TraceSet::default();
        let err = AcqContext::new(chip()).acquire_len_with_emitters_into(
            &Scenario::baseline(),
            SensorSelect::Psa(10),
            1,
            64,
            &[e],
            &mut traces,
        );
        assert!(
            matches!(err, Err(CoreError::InvalidParameter { .. })),
            "{err:?}"
        );
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
    fn streamed_zero_span_matches_the_slice_envelope_bitwise() {
        let scenario = Scenario::trojan_active(TrojanKind::T1).with_seed(0x1D);
        let sensor = SensorSelect::Psa(10);
        let mut ctx = AcqContext::new(chip());
        let capture = ctx
            .acquire(&scenario, sensor, calib::IDENTIFY_RECORDS)
            .unwrap()
            .records
            .concat();
        let zs =
            ZeroSpan::with_rbw(48.0e6, calib::sample_rate_hz(), calib::IDENTIFY_RBW_HZ).unwrap();
        let want = bits(&zs.envelope_trimmed(&capture).unwrap());
        for chunk in [1, 7, 4096, 65_536, capture.len()] {
            let mut stream = zs.stream(capture.len()).unwrap();
            for piece in capture.chunks(chunk) {
                stream.push(piece).unwrap();
            }
            assert_eq!(
                bits(&stream.finish_trimmed().unwrap()),
                want,
                "chunk {chunk}"
            );
        }
        let (envelope, fs) = ctx
            .zero_span_rbw(
                &scenario,
                sensor,
                48.0e6,
                calib::IDENTIFY_RBW_HZ,
                calib::IDENTIFY_RECORDS,
            )
            .unwrap();
        assert_eq!(bits(&envelope), want);
        assert_eq!(fs.to_bits(), zs.output_fs_hz().to_bits());
        assert!(ctx
            .zero_span_rbw(&scenario, sensor, 48.0e6, calib::IDENTIFY_RBW_HZ, 0)
            .is_err());
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

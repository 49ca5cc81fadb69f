//! Layer-by-layer replay of an op's acquisitions, for the traced run.
//!
//! `AcqContext::acquire_*` runs gatesim → currents → EMF → front end in
//! one call. The replay drives the same public layer functions one
//! record at a time — `ActivitySimulator::advance`,
//! `trace_to_currents_into`, `induced_emf_into`,
//! `AnalogFrontEnd::capture_record_into`, then
//! `SpectrumScratch::amplitude_spectrum` — timing each, and asserts that
//! every replayed record is bit-identical to the context's own. The
//! spans stay in memory as [`LayerTimes`].

use crate::workload::timed;
use psa_analog::frontend::AnalogFrontEnd;
use psa_core::acquisition::{AcqContext, InjectedEmitter, TraceSet};
use psa_core::calib;
use psa_core::chip::{ChipVariation, SensorSelect, TestChip};
use psa_core::scenario::Scenario;
use psa_dsp::batch::SpectrumScratch;
use psa_dsp::window::Window;
use psa_field::induction::induced_emf_into;
use psa_gatesim::activity::{ActivitySimulator, Source};
use psa_gatesim::current::{toggles_to_current_into, trace_to_currents_into};
use std::collections::BTreeSet;

/// Host time and work counts of one op's layers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// `ActivitySimulator::advance` (warm-up included), seconds.
    pub advance_s: f64,
    /// Toggle-to-current synthesis (chip sources and emitters), seconds.
    pub current_s: f64,
    /// `induced_emf_into`, seconds.
    pub emf_s: f64,
    /// `AnalogFrontEnd::capture_record_into`, seconds.
    pub frontend_s: f64,
    /// `SpectrumScratch::amplitude_spectrum`, seconds.
    pub fft_s: f64,
    /// Zero-span envelope, seconds.
    pub zero_span_s: f64,
    /// Envelope feature extraction (`identify::extract_features`),
    /// seconds.
    pub features_s: f64,
    /// Template classification, seconds.
    pub classify_s: f64,
    /// `advance` calls (one per record plus one per warm-up).
    pub advance_calls: usize,
    /// Records acquired.
    pub records: usize,
    /// Samples through the front end.
    pub samples: usize,
    /// Amplitude-spectrum transforms.
    pub fft_calls: usize,
    /// Records whose `(scenario, start cycle, length)` activity pass
    /// this op had already simulated.
    pub redundant_passes: usize,
}

impl LayerTimes {
    /// Seconds attributed to a layer.
    pub fn attributed_s(&self) -> f64 {
        self.advance_s
            + self.current_s
            + self.emf_s
            + self.frontend_s
            + self.fft_s
            + self.zero_span_s
            + self.features_s
            + self.classify_s
    }
}

/// One acquisition to replay.
#[derive(Debug, Clone)]
pub struct Acq<'a, 'e> {
    /// The scenario the chip runs.
    pub scenario: &'a Scenario,
    /// PSA sensor index.
    pub sensor: usize,
    /// Records acquired.
    pub records: usize,
    /// Record length, clock cycles.
    pub record_cycles: usize,
    /// Synthetic emitters superposed on the chip's activity.
    pub emitters: &'a [InjectedEmitter<'e>],
    /// Per-die process variation.
    pub variation: Option<&'a ChipVariation>,
    /// Whether the op transforms every record.
    pub fft: bool,
}

/// Replays acquisitions through the layer functions on one chip.
#[derive(Debug)]
pub struct Replayer<'c> {
    chip: &'c TestChip,
    ctx: AcqContext<'c>,
    scratch: SpectrumScratch,
    currents: Vec<(Source, Vec<f64>)>,
    toggles: Vec<f64>,
    extra: Vec<Vec<f64>>,
    flux: Vec<f64>,
    emf: Vec<f64>,
    /// Records of the last replayed acquisition.
    pub records: Vec<Vec<f64>>,
    reference: TraceSet,
    passes: BTreeSet<(String, u64, usize)>,
}

impl<'c> Replayer<'c> {
    /// A replayer bound to `chip`.
    pub fn new(chip: &'c TestChip) -> Self {
        Replayer {
            chip,
            ctx: AcqContext::new(chip),
            scratch: SpectrumScratch::new(Window::Hann),
            currents: Vec::new(),
            toggles: Vec::new(),
            extra: Vec::new(),
            flux: Vec::new(),
            emf: Vec::new(),
            records: Vec::new(),
            reference: TraceSet::default(),
            passes: BTreeSet::new(),
        }
    }

    /// Starts a new op: activity passes are redundant only within one op.
    pub fn begin_op(&mut self) {
        self.passes.clear();
    }

    /// Replays `acq` into [`records`](Self::records), adding its layer
    /// times to `t`.
    ///
    /// # Errors
    ///
    /// A layer error, or a replayed record that differs in any bit from
    /// `AcqContext`'s.
    pub fn acquire(&mut self, acq: &Acq<'_, '_>, t: &mut LayerTimes) -> Result<(), String> {
        let select = SensorSelect::Psa(acq.sensor);
        let fs = calib::sample_rate_hz();
        let couplings = self.chip.couplings_for(select).map_err(|e| e.to_string())?;
        let (signal_scale, noise_scale) = acq
            .variation
            .map_or((1.0, 1.0), |v| (v.signal_scale(&select), v.noise_scale()));
        let noise_vrms =
            self.chip
                .sensor_noise_vrms(select, fs / 2.0, acq.scenario.vdd, acq.scenario.temp_c)
                * noise_scale;
        let frontend = AnalogFrontEnd::date24(acq.scenario.seed ^ 0xFE);
        let scenario_key = format!("{:?}", acq.scenario);

        let mut sim = ActivitySimulator::new(acq.scenario.chip_config());
        if acq.scenario.warmup_cycles > 0 {
            add_time(&mut t.advance_s, || sim.advance(acq.scenario.warmup_cycles));
            t.advance_calls += 1;
        }
        self.extra.resize_with(acq.emitters.len(), Vec::new);
        self.records.resize_with(acq.records, Vec::new);
        for (rec_idx, record) in self.records.iter_mut().enumerate() {
            let start_cycle = sim.cycle();
            let pass = (scenario_key.clone(), start_cycle, acq.record_cycles);
            t.redundant_passes += usize::from(!self.passes.insert(pass));
            let trace = add_time(&mut t.advance_s, || sim.advance(acq.record_cycles));
            t.advance_calls += 1;

            add_time(&mut t.current_s, || {
                trace_to_currents_into(
                    &trace,
                    self.chip.charges_fc(),
                    calib::CLK_HZ,
                    &mut self.currents,
                );
                for (e, out) in acq.emitters.iter().zip(self.extra.iter_mut()) {
                    e.trojan.toggles_into(
                        start_cycle,
                        acq.record_cycles,
                        calib::CLK_HZ,
                        &mut self.toggles,
                    );
                    toggles_to_current_into(&self.toggles, e.charge_fc, calib::CLK_HZ, out);
                }
            });

            let mut pairs: Vec<(&[f64], f64)> = self
                .currents
                .iter()
                .zip(&couplings)
                .map(|((_, wave), &k)| (wave.as_slice(), k * signal_scale))
                .collect();
            for (e, wave) in acq.emitters.iter().zip(&self.extra) {
                pairs.push((wave.as_slice(), e.coupling * signal_scale));
            }
            add_time(&mut t.emf_s, || {
                induced_emf_into(
                    &pairs,
                    calib::EFFECTIVE_MOMENT_AREA_M2,
                    fs,
                    &mut self.flux,
                    &mut self.emf,
                )
            })
            .map_err(|e| e.to_string())?;

            add_time(&mut t.frontend_s, || {
                frontend.capture_record_into(&self.emf, fs, noise_vrms, rec_idx as u64, record)
            })
            .map_err(|e| e.to_string())?;
            t.records += 1;
            t.samples += record.len();

            if acq.fft {
                add_time(&mut t.fft_s, || {
                    self.scratch
                        .amplitude_spectrum(record)
                        .map(|row| std::hint::black_box(row.len()))
                })
                .map_err(|e| e.to_string())?;
                t.fft_calls += 1;
            }
        }
        self.check(acq)
    }

    /// Asserts the replayed records equal `AcqContext`'s bit for bit.
    fn check(&mut self, acq: &Acq<'_, '_>) -> Result<(), String> {
        self.ctx.set_variation(acq.variation.cloned());
        self.ctx
            .acquire_len_with_emitters_into(
                acq.scenario,
                SensorSelect::Psa(acq.sensor),
                acq.records,
                acq.record_cycles,
                acq.emitters,
                &mut self.reference,
            )
            .map_err(|e| e.to_string())?;
        let same = self.reference.records.len() == self.records.len()
            && self
                .reference
                .records
                .iter()
                .zip(&self.records)
                .all(|(a, b)| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                });
        if same {
            Ok(())
        } else {
            Err(format!(
                "replayed records differ from AcqContext (sensor {}, seed {:#x})",
                acq.sensor, acq.scenario.seed
            ))
        }
    }
}

/// Runs `f`, adding its host time to `slot` (a [`LayerTimes`] field).
pub fn add_time<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let (r, seconds) = timed(f);
    *slot += seconds;
    r
}

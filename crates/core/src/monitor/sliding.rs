//! The sliding detector: per-sensor rolling spectra compared against
//! (optionally rolling) baseline envelopes.

use crate::acquisition::AcqContext;
use crate::calib;
use crate::cross_domain::Baseline;
use crate::error::CoreError;
use crate::monitor::stream::StreamSource;
use crate::scenario::Scenario;
use psa_dsp::peak;
use psa_dsp::sliding::SlidingSpectrum;

/// Configuration of the sliding detector.
///
/// The rolling window holds the last [`calib::TRACES_PER_SPECTRUM`]
/// records, the batch detector's per-decision average. The threshold is
/// [`calib::DETECTION_THRESHOLD_DB`] over the baseline's
/// [`calib::ENVELOPE_HALF_WINDOW`] envelope; a hit raises the alarm and
/// the first quiet comparison clears it.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingConfig {
    /// Records the window must hold before comparisons start (warm-fill
    /// suppression): a single-record spectrum compared against an
    /// averaged baseline can flicker past the threshold on a quiet
    /// noise-floor sensor. `1` compares from the very first record —
    /// the setting of the Sec. VI-D MTTD table.
    pub min_window_records: usize,
    /// Quiet ticks between rolling-baseline refreshes; `None` freezes
    /// the learned baseline. Refreshing absorbs slow operating-condition
    /// drift instead of alarming on it.
    pub recalibrate_after: Option<usize>,
}

impl Default for SlidingConfig {
    fn default() -> Self {
        SlidingConfig {
            min_window_records: 1,
            recalibrate_after: None,
        }
    }
}

/// One watched sensor's streaming state.
///
/// A tick transforms only the record it pulls, in the context's one
/// record buffer; the window lives on as cached amplitude rows. So a
/// lane holds no record.
#[derive(Debug)]
struct Lane {
    sensor: usize,
    /// Cached per-record amplitude rows of the last
    /// [`calib::TRACES_PER_SPECTRUM`] pulls, averaged in dB each tick.
    rows: SlidingSpectrum,
    base_env: Vec<f64>,
    /// Whether the lane's alarm is standing: set by a hit, cleared by
    /// the next quiet comparison.
    alarmed: bool,
    quiet_since_recalib: usize,
}

/// What one lane saw during one stream tick.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneObservation {
    /// The lane's sensor.
    pub sensor: usize,
    /// Whether any bin exceeded the threshold this tick.
    pub hit: bool,
    /// Whether this tick started an alarm on this lane.
    pub newly_alarmed: bool,
    /// Whether this tick cleared a standing alarm.
    pub cleared: bool,
    /// Whether the rolling baseline was refreshed this tick.
    pub recalibrated: bool,
    /// Strongest emergent bin, when `hit`.
    pub top_bin: Option<usize>,
    /// Excess of the strongest emergent bin, dB.
    pub top_excess_db: f64,
    /// The tick's full-resolution spectrum (dB), for cross-lane
    /// localization at a common line.
    pub spec: Vec<f64>,
}

/// The streaming detector: a ring-buffered rolling spectrum per watched
/// sensor, compared each tick against that sensor's baseline envelope.
#[derive(Debug)]
pub struct SlidingDetector {
    config: SlidingConfig,
    lanes: Vec<Lane>,
}

impl SlidingDetector {
    /// Builds a detector watching `sensors`, seeded from the learned
    /// run-time `baseline`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `sensors` is empty, the
    /// warm-fill minimum exceeds the window, or the baseline lacks a
    /// watched sensor or holds it at another resolution than a stream
    /// record's spectrum.
    pub fn new(
        baseline: &Baseline,
        sensors: &[usize],
        config: SlidingConfig,
    ) -> Result<Self, CoreError> {
        if sensors.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "monitor needs at least one sensor",
            });
        }
        if config.min_window_records > calib::TRACES_PER_SPECTRUM {
            return Err(CoreError::InvalidParameter {
                what: "warm-fill minimum exceeds the rolling window depth",
            });
        }
        let bins = psa_dsp::fft::one_sided_len(calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE);
        let lanes = sensors
            .iter()
            .map(|&sensor| {
                let base = baseline
                    .per_sensor_db
                    .get(sensor)
                    .filter(|row| row.len() == bins)
                    .ok_or(CoreError::InvalidParameter {
                        what: "baseline missing monitored sensor or not at full resolution",
                    })?;
                Ok(Lane {
                    sensor,
                    rows: SlidingSpectrum::new(calib::TRACES_PER_SPECTRUM)?,
                    base_env: peak::local_max_envelope(base, calib::ENVELOPE_HALF_WINDOW),
                    alarmed: false,
                    quiet_since_recalib: 0,
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(SlidingDetector { config, lanes })
    }

    /// Number of watched sensors.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Whether any lane currently holds a standing alarm.
    pub fn any_alarmed(&self) -> bool {
        self.lanes.iter().any(|l| l.alarmed)
    }

    /// Processes one stream tick for lane `lane_idx`: pull the record,
    /// push its amplitude row into the window, render the window
    /// spectrum, compare, and update the alarm / recalibration state
    /// machine.
    ///
    /// The acquisition→comparison sequence is bit-identical to one
    /// iteration of the historical batch MTTD replay loop.
    ///
    /// # Errors
    ///
    /// Propagates acquisition/DSP errors.
    ///
    /// # Panics
    ///
    /// Panics if `lane_idx` is out of range.
    pub fn observe(
        &mut self,
        ctx: &mut AcqContext<'_>,
        stream: &StreamSource,
        scenario: &Scenario,
        lane_idx: usize,
    ) -> Result<LaneObservation, CoreError> {
        let lane = &mut self.lanes[lane_idx];
        // Transform only the record just pulled; the cached rows of the
        // older records are reused, so a steady-state tick costs one FFT
        // instead of one per windowed record.
        let row = stream.pull_row(ctx, scenario, lane.sensor)?;
        lane.rows.push_row(row)?;
        if lane.rows.len() < self.config.min_window_records {
            // Warm fill: the window is still too shallow for a stable
            // spectrum; no comparison, no state-machine movement.
            return Ok(LaneObservation {
                sensor: lane.sensor,
                hit: false,
                newly_alarmed: false,
                cleared: false,
                recalibrated: false,
                top_bin: None,
                top_excess_db: 0.0,
                spec: Vec::new(),
            });
        }
        // Window average from the cached rows — bit-identical to
        // `ctx.fullres_spectrum_db` over the last `TRACES_PER_SPECTRUM` pulls
        // (a regression test replays whole sessions against that full
        // recompute).
        let spec = lane.rows.averaged_db()?;
        let hits =
            peak::excess_over_baseline_db(&spec, &lane.base_env, calib::DETECTION_THRESHOLD_DB);

        let mut obs = LaneObservation {
            sensor: lane.sensor,
            hit: !hits.is_empty(),
            newly_alarmed: false,
            cleared: false,
            recalibrated: false,
            top_bin: None,
            top_excess_db: 0.0,
            spec: Vec::new(),
        };
        // A tick flips the alarm exactly when its hit disagrees with it.
        let flipped = obs.hit != lane.alarmed;
        lane.alarmed = obs.hit;
        if let Some((bin, excess)) = top_hit(&hits) {
            lane.quiet_since_recalib = 0;
            obs.top_bin = Some(bin);
            obs.top_excess_db = excess;
            obs.newly_alarmed = flipped;
        } else {
            lane.quiet_since_recalib += 1;
            obs.cleared = flipped;
            if let Some(every) = self.config.recalibrate_after {
                if lane.quiet_since_recalib >= every {
                    lane.base_env = peak::local_max_envelope(&spec, calib::ENVELOPE_HALF_WINDOW);
                    lane.quiet_since_recalib = 0;
                    obs.recalibrated = true;
                }
            }
        }
        obs.spec = spec;
        Ok(obs)
    }

    /// Absolute linear-amplitude excess of lane `lane_idx`'s spectrum
    /// over its baseline envelope around `bin` (±3 bins, clamped at
    /// zero) — the cross-lane localization ranking quantity, mirroring
    /// the batch analyzer: the sensor with the strongest *absolute*
    /// coupling to the common emergent line is the closest one,
    /// regardless of how quiet its own floor is.
    ///
    /// # Panics
    ///
    /// Panics if `lane_idx` is out of range.
    pub fn amplitude_excess_at(&self, lane_idx: usize, spec: &[f64], bin: usize) -> f64 {
        crate::localize::amplitude_excess_at_line(spec, &self.lanes[lane_idx].base_env, bin)
    }
}

/// The maximum-excess hit: "top" means the strongest bin, not the
/// lowest-frequency one. [`peak::excess_over_baseline_db`] documents a
/// descending-excess sort, but the report quantity must not silently
/// depend on a neighbour module's ordering contract.
fn top_hit(hits: &[(usize, f64)]) -> Option<(usize, f64)> {
    hits.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_compares_from_the_first_record() {
        let c = SlidingConfig::default();
        assert_eq!(c.min_window_records, 1);
        assert_eq!(c.recalibrate_after, None);
    }

    #[test]
    fn rejects_empty_sensor_list_and_overdeep_warm_fill() {
        let bins = psa_dsp::fft::one_sided_len(calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE);
        let baseline = Baseline {
            per_sensor_db: vec![vec![0.0; bins], vec![0.0; 8]],
        };
        assert!(SlidingDetector::new(&baseline, &[], SlidingConfig::default()).is_err());
        let bad_fill = SlidingConfig {
            min_window_records: calib::TRACES_PER_SPECTRUM + 1,
            ..SlidingConfig::default()
        };
        assert!(SlidingDetector::new(&baseline, &[0], bad_fill).is_err());
        assert!(SlidingDetector::new(&baseline, &[3], SlidingConfig::default()).is_err());
        // A row of another record length: bin k would be another
        // frequency than the stream spectrum's bin k.
        assert!(SlidingDetector::new(&baseline, &[1], SlidingConfig::default()).is_err());
        let ok = SlidingDetector::new(&baseline, &[0], SlidingConfig::default()).unwrap();
        assert_eq!(ok.lanes(), 1);
        assert_eq!(ok.lanes[0].sensor, 0);
        assert!(!ok.any_alarmed());
    }

    #[test]
    fn top_hit_is_max_excess_not_first_listed() {
        // Regression: two hits with the larger excess at the *higher*
        // bin — "top" must follow the excess, in either list order.
        assert_eq!(top_hit(&[(3, 12.0), (90, 25.0)]), Some((90, 25.0)));
        assert_eq!(top_hit(&[(90, 25.0), (3, 12.0)]), Some((90, 25.0)));
        assert_eq!(top_hit(&[]), None);
    }

    #[test]
    fn excess_hits_arrive_sorted_by_descending_excess() {
        // The ordering contract `hits.first()` used to lean on, pinned
        // where the detector consumes it: flat baseline, two emergent
        // bins, the stronger at the higher frequency.
        let baseline = vec![-80.0; 128];
        let mut test = baseline.clone();
        test[10] = -68.0; // 12 dB excess
        test[100] = -55.0; // 25 dB excess
        let hits = peak::excess_over_baseline_db(&test, &baseline, 10.0);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 100, "descending excess puts bin 100 first");
        assert_eq!(top_hit(&hits), Some((100, 25.0)));
    }

    #[test]
    fn pulled_row_matches_acquire_and_fullres_row_bitwise() {
        use crate::acquisition::TraceSet;
        use crate::chip::{ChipVariation, SensorSelect, TestChip};
        use crate::monitor::{ActivationSchedule, StreamSource};
        use psa_array::program::CoilProgram;
        use psa_gatesim::trojan::TrojanKind;

        let chip = TestChip::date24();
        // One context pulls every row, as a monitor worker's does; the
        // reference runs on its own.
        let mut ctx = AcqContext::new(&chip);
        let mut reference = AcqContext::new(&chip);
        let mut traces = TraceSet::default();
        let stream = StreamSource::new(ActivationSchedule::trojan_at(TrojanKind::T1, 1, 3));
        let preset = SensorSelect::Custom(CoilProgram::preset(10).unwrap());
        let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for variation in [None, Some(ChipVariation::new(7))] {
            ctx.set_variation(variation.clone());
            reference.set_variation(variation.clone());
            for record in 0..stream.horizon() {
                let scenario = stream.schedule().scenario_at(record);
                for select in [SensorSelect::Psa(10), preset] {
                    let got = match select {
                        SensorSelect::Psa(s) => {
                            bits(stream.pull_row(&mut ctx, &scenario, s).unwrap())
                        }
                        _ => bits(ctx.acquire_amplitude_row(&scenario, select).unwrap()),
                    };
                    reference
                        .acquire_into(&scenario, select, 1, &mut traces)
                        .unwrap();
                    let want = bits(reference.fullres_amplitude_row(&traces.records[0]).unwrap());
                    assert_eq!(got, want, "record {record} {select:?} {variation:?}");
                }
            }
        }
    }
}

//! The sliding detector: per-sensor rolling spectra compared against
//! (optionally rolling) baseline envelopes.

use crate::acquisition::{AcqContext, TraceSet};
use crate::calib;
use crate::cross_domain::Baseline;
use crate::error::CoreError;
use crate::monitor::stream::StreamSource;
use crate::scenario::Scenario;
use psa_dsp::peak;
use psa_dsp::sliding::SlidingSpectrum;

/// Configuration of the sliding detector.
///
/// The defaults coincide exactly with the batch
/// [`mttd_trial_with`](crate::mttd::mttd_trial_with) comparison
/// (5-record rolling window, 10 dB threshold, 8-bin baseline envelope,
/// immediate clear, frozen baseline), which is what makes the batch path a thin adapter
/// over this one.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingConfig {
    /// Records in the rolling averaging window (ring buffer depth).
    pub window_records: usize,
    /// Records the window must hold before comparisons start (warm-fill
    /// suppression): a single-record spectrum compared against an
    /// averaged baseline can flicker past the threshold on a quiet
    /// noise-floor sensor. `1` compares from the very first record —
    /// the batch-compatible setting.
    pub min_window_records: usize,
    /// Emergent-component threshold, dB over the baseline envelope.
    pub threshold_db: f64,
    /// Half-width of the local-max envelope applied to the baseline
    /// (flicker immunity, as in the batch analyzer).
    pub envelope_half_window: usize,
    /// Consecutive quiet ticks before an alarmed sensor clears.
    pub clear_after_quiet: usize,
    /// Quiet ticks between rolling-baseline refreshes; `None` freezes
    /// the learned baseline (the batch-compatible setting). Refreshing
    /// absorbs slow operating-condition drift instead of alarming on
    /// it.
    pub recalibrate_after: Option<usize>,
}

impl Default for SlidingConfig {
    fn default() -> Self {
        SlidingConfig {
            window_records: calib::TRACES_PER_SPECTRUM,
            min_window_records: 1,
            threshold_db: calib::DETECTION_THRESHOLD_DB,
            envelope_half_window: 8,
            clear_after_quiet: 1,
            recalibrate_after: None,
        }
    }
}

/// One watched sensor's streaming state.
///
/// A tick transforms only the record it pulls; the rest of the window
/// lives on as cached amplitude rows. So no record outlives its tick:
/// `fresh` holds the one just pulled, and its buffer is refilled in
/// place by the next pull.
#[derive(Debug)]
struct Lane {
    sensor: usize,
    fresh: TraceSet,
    /// Cached per-record amplitude rows of the last `window_records`
    /// pulls, averaged in dB each tick.
    rows: SlidingSpectrum,
    base_env: Vec<f64>,
    latch: AlarmLatch,
    quiet_since_recalib: usize,
}

/// The alarm state machine of one watched stream: a hit raises the
/// alarm, and `clear_after_quiet` consecutive quiet ticks clear it.
/// Shared by the [`SlidingDetector`] lanes and the fleet's per-chip
/// lanes.
#[derive(Debug, Clone)]
pub struct AlarmLatch {
    clear_after_quiet: usize,
    alarmed: bool,
    quiet_ticks: usize,
}

impl AlarmLatch {
    /// A quiet latch that clears after `clear_after_quiet` consecutive
    /// quiet ticks.
    pub fn new(clear_after_quiet: usize) -> Self {
        AlarmLatch {
            clear_after_quiet,
            alarmed: false,
            quiet_ticks: 0,
        }
    }

    /// Whether the alarm is standing.
    pub fn alarmed(&self) -> bool {
        self.alarmed
    }

    /// Advances one tick on whether it `hit`; returns whether the tick
    /// raised (a hit) or cleared (no hit) the alarm.
    pub fn update(&mut self, hit: bool) -> bool {
        if hit {
            self.quiet_ticks = 0;
            let raised = !self.alarmed;
            self.alarmed = true;
            raised
        } else {
            self.quiet_ticks += 1;
            let cleared = self.alarmed && self.quiet_ticks >= self.clear_after_quiet;
            self.alarmed &= !cleared;
            cleared
        }
    }
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
    /// window is zero, or the baseline lacks a watched sensor or holds
    /// it at another resolution than a stream record's spectrum.
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
        if config.window_records == 0 {
            return Err(CoreError::InvalidParameter {
                what: "rolling window must hold at least one record",
            });
        }
        if config.min_window_records > config.window_records {
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
                    fresh: TraceSet::default(),
                    rows: SlidingSpectrum::new(config.window_records)?,
                    base_env: peak::local_max_envelope(base, config.envelope_half_window),
                    latch: AlarmLatch::new(config.clear_after_quiet),
                    quiet_since_recalib: 0,
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(SlidingDetector { config, lanes })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SlidingConfig {
        &self.config
    }

    /// Number of watched sensors.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The watched sensor indices, in lane order.
    pub fn sensors(&self) -> Vec<usize> {
        self.lanes.iter().map(|l| l.sensor).collect()
    }

    /// Whether any lane currently holds a standing alarm.
    pub fn any_alarmed(&self) -> bool {
        self.lanes.iter().any(|l| l.latch.alarmed())
    }

    /// Processes one stream tick for lane `lane_idx`: pull the record,
    /// push its amplitude row into the window, render the window
    /// spectrum, compare, and update the alarm / recalibration state
    /// machine.
    ///
    /// The acquisition→comparison sequence is bit-identical to one
    /// iteration of the batch MTTD replay loop.
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
        stream.pull_scenario_into(ctx, scenario, lane.sensor, &mut lane.fresh)?;
        // Transform only the record just pulled; the cached rows of the
        // older records are reused, so a steady-state tick costs one FFT
        // instead of `window_records`.
        let row = ctx.fullres_amplitude_row(&lane.fresh.records[0])?;
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
        // `ctx.fullres_spectrum_db` over the last `window_records` pulls
        // (a regression test replays whole sessions against that full
        // recompute).
        let spec = lane.rows.averaged_db()?;
        let hits = peak::excess_over_baseline_db(&spec, &lane.base_env, self.config.threshold_db);

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
        let flipped = lane.latch.update(obs.hit);
        if let Some((bin, excess)) = top_hit(&hits) {
            lane.quiet_since_recalib = 0;
            obs.top_bin = Some(bin);
            obs.top_excess_db = excess;
            obs.newly_alarmed = flipped;
        } else {
            lane.quiet_since_recalib += 1;
            obs.cleared = flipped;
            if let Some(every) = self.config.recalibrate_after {
                if !lane.latch.alarmed() && lane.quiet_since_recalib >= every {
                    lane.base_env =
                        peak::local_max_envelope(&spec, self.config.envelope_half_window);
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
    fn default_config_coincides_with_batch_mttd() {
        let c = SlidingConfig::default();
        assert_eq!(c.window_records, calib::TRACES_PER_SPECTRUM);
        assert_eq!(c.min_window_records, 1);
        assert_eq!(c.threshold_db, calib::DETECTION_THRESHOLD_DB);
        assert_eq!(c.envelope_half_window, 8);
        assert_eq!(c.clear_after_quiet, 1);
        assert_eq!(c.recalibrate_after, None);
    }

    #[test]
    fn rejects_empty_sensor_list_and_zero_window() {
        let bins = psa_dsp::fft::one_sided_len(calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE);
        let baseline = Baseline {
            per_sensor_db: vec![vec![0.0; bins], vec![0.0; 8]],
        };
        assert!(SlidingDetector::new(&baseline, &[], SlidingConfig::default()).is_err());
        let bad = SlidingConfig {
            window_records: 0,
            ..SlidingConfig::default()
        };
        assert!(SlidingDetector::new(&baseline, &[0], bad).is_err());
        let bad_fill = SlidingConfig {
            min_window_records: 9,
            ..SlidingConfig::default()
        };
        assert!(SlidingDetector::new(&baseline, &[0], bad_fill).is_err());
        assert!(SlidingDetector::new(&baseline, &[3], SlidingConfig::default()).is_err());
        // A row of another record length: bin k would be another
        // frequency than the stream spectrum's bin k.
        assert!(SlidingDetector::new(&baseline, &[1], SlidingConfig::default()).is_err());
        let ok = SlidingDetector::new(&baseline, &[0], SlidingConfig::default()).unwrap();
        assert_eq!(ok.lanes(), 1);
        assert_eq!(ok.sensors(), vec![0]);
        assert!(!ok.any_alarmed());
    }

    #[test]
    fn alarm_latch_raises_once_and_clears_after_a_quiet_run() {
        let mut latch = AlarmLatch::new(2);
        assert!(latch.update(true), "a hit raises");
        assert!(!latch.update(true), "a standing alarm is not raised again");
        // A hit inside the quiet run restarts it.
        assert!(!latch.update(false));
        assert!(!latch.update(true));
        assert!(!latch.update(false));
        assert!(latch.alarmed());
        assert!(latch.update(false), "two quiet ticks clear");
        assert!(!latch.alarmed());
        assert!(!latch.update(false), "quiet while clear changes nothing");
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
    fn steady_state_ticks_refill_the_pulled_record_in_place() {
        use crate::chip::TestChip;
        use crate::monitor::{ActivationSchedule, StreamSource};
        use psa_gatesim::trojan::TrojanKind;

        let chip = TestChip::date24();
        let mut ctx = AcqContext::new(&chip);
        let bins = psa_dsp::fft::one_sided_len(calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE);
        let baseline = Baseline {
            per_sensor_db: vec![vec![0.0; bins]],
        };
        let config = SlidingConfig {
            window_records: 2,
            ..SlidingConfig::default()
        };
        let mut detector = SlidingDetector::new(&baseline, &[0], config).unwrap();
        let stream = StreamSource::new(ActivationSchedule::trojan_at(TrojanKind::T1, 1, 5));
        let mut buffer = None;
        for record in 0..stream.horizon() {
            let scenario = stream.schedule().scenario_at(record);
            let obs = detector.observe(&mut ctx, &stream, &scenario, 0).unwrap();
            assert!(!obs.spec.is_empty(), "record {record}: compared");
            let fresh = &detector.lanes[0].fresh.records[0];
            let now = (fresh.as_ptr() as usize, fresh.capacity());
            // The first pull allocates; every later one, through warm
            // fill and the full window alike, refills that buffer.
            assert_eq!(*buffer.get_or_insert(now), now, "record {record}");
        }
        assert_eq!(detector.lanes[0].rows.len(), 2);
    }
}

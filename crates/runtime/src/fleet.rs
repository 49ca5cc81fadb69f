//! Fleet-scale streaming monitor: 10k+ concurrent chip streams
//! multiplexed through one engine with bounded memory.
//!
//! The paper watches one chip with one sensor array; a production
//! deployment watches a *fleet* of distinct dies. This module scales
//! the PR-6 streaming hot path horizontally:
//!
//! - **Per-die variation** — every stream is a different die: a seeded
//!   [`ChipVariation`] (coupling, gain, thermal noise) derived purely
//!   from `(fleet seed, chip index)`, so no two chips share a baseline
//!   and every worker reconstructs the same die without coordination.
//! - **Sharded baselines** — baselines are learned per chip in fixed
//!   shards of [`FleetConfig::shard_chips`] chips fanned across the
//!   engine, then merged in submission order: the store is
//!   byte-identical at any worker count.
//! - **Decimated sliding rings** — a full-resolution
//!   [`SlidingDetector`](psa_core::monitor::SlidingDetector) caches one
//!   32 769-bin amplitude row per windowed record (~1.3 MB/chip at the
//!   five-record window — over 10 GB for 10k chips). Here each tick's
//!   one-record amplitude row
//!   ([`AcqContext::acquire_amplitude_row`], one cached-plan FFT) is
//!   max-pooled by `DECIMATE` (64) before entering a per-chip
//!   [`SlidingSpectrum`] ring, so per-chip state is a few KB and total
//!   memory is O(chips × window) with a small constant. Max-pooling preserves emergent Trojan lines (the pooled
//!   test bin keeps the peak) while the pooled baseline tracks the
//!   local floor.
//! - **Fixed round-robin multiplexing** — within a shard, records are
//!   pulled chip 0, chip 1, …, chip k, then the next record, on one
//!   recycled per-worker [`AcqContext`]. The interleave order is part
//!   of the determinism contract.
//!
//! Everything downstream of the fleet seed is a pure function of
//! `(chip index, record index)`, so [`Fleet::run`] output — and the
//! `fleet` binary's stdout — is byte-identical at any worker count.

use crate::engine::Engine;
use psa_core::acquisition::{AcqContext, TraceSet};
use psa_core::calib;
use psa_core::chip::{ChipVariation, SensorSelect, TestChip};
use psa_core::error::CoreError;
use psa_core::monitor::ActivationSchedule;
use psa_core::scenario::Scenario;
use psa_dsp::peak;
use psa_dsp::rng::splitmix64;
use psa_dsp::sliding::SlidingSpectrum;
use psa_gatesim::trojan::TrojanKind;
use std::fmt;

/// Fleet shape. Every stream watches PSA sensor 10 and alarms at
/// [`calib::DETECTION_THRESHOLD_DB`] over its pooled baseline's
/// envelope, clearing on the first quiet comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Concurrent chip streams.
    pub chips: usize,
    /// Monitored records pulled per chip stream.
    pub records: usize,
    /// Records averaged into each chip's learned baseline.
    pub baseline_records: usize,
    /// Every `infect_every`-th chip carries a Trojan (index divisible);
    /// the kind cycles through [`TrojanKind::ALL`].
    pub infect_every: usize,
    /// Chips per engine shard. Fixed partition independent of worker
    /// count — part of the determinism contract, and the unit of
    /// transient lane memory.
    pub shard_chips: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            chips: 256,
            records: 6,
            baseline_records: 3,
            infect_every: 8,
            shard_chips: 64,
        }
    }
}

/// The PSA sensor every stream watches (the one over the Trojans).
const SENSOR: usize = 10;

/// Max-pool factor applied to full-resolution amplitude rows before
/// they enter a chip's sliding ring (64 → 513 pooled bins).
const DECIMATE: usize = 64;

/// Sliding-window capacity per chip, in records.
const WINDOW_RECORDS: usize = calib::TRACES_PER_SPECTRUM;

/// Records before a chip's window is compared (warm-fill).
const MIN_WINDOW_RECORDS: usize = 2;

/// Baseline local-max envelope half-width, in *pooled* bins: one pooled
/// bin already spans [`DECIMATE`] full-resolution bins.
const POOLED_ENVELOPE_HALF_WINDOW: usize = 1;

/// Record at which an infected chip's Trojan activates.
const ACTIVATION_RECORD: usize = 1;

/// Fleet seed: every per-chip variation, schedule, and baseline seed
/// derives from it.
const SEED: u64 = 0xF1EE7;

/// Max-pools `row` by [`DECIMATE`] into `out` (reused; cleared first).
/// The last chunk may be shorter. Pooling linear amplitude keeps every
/// emergent line: the pooled test bin is exactly the peak bin's value.
fn decimate_max_into(row: &[f64], out: &mut Vec<f64>) {
    out.clear();
    for chunk in row.chunks(DECIMATE) {
        out.push(chunk.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)));
    }
}

/// The per-chip baseline store: one pooled mean-amplitude spectrum (dB)
/// per die, learned in shards and merged in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBaselines {
    per_chip: Vec<Vec<f64>>,
}

impl FleetBaselines {
    /// Chips covered.
    pub fn chips(&self) -> usize {
        self.per_chip.len()
    }

    /// Pooled baseline spectrum (dB) of chip `c`.
    pub fn chip_db(&self, c: usize) -> &[f64] {
        &self.per_chip[c]
    }

    /// Resident size of the store in bytes (the fleet's only
    /// per-chip state that outlives a shard).
    pub fn approx_bytes(&self) -> usize {
        self.per_chip
            .iter()
            .map(|v| v.len() * std::mem::size_of::<f64>())
            .sum()
    }
}

/// One chip stream's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipOutcome {
    /// Chip index in the fleet.
    pub chip: usize,
    /// Whether this die carries a Trojan.
    pub infected: bool,
    /// Record its Trojan activates (infected chips only).
    pub activation_record: Option<usize>,
    /// First record with an over-threshold excess while the Trojan was
    /// active.
    pub detect_record: Option<usize>,
    /// Alarm-raise transitions.
    pub alarms: usize,
    /// Alarm-raise transitions with no active Trojan.
    pub false_alarms: usize,
    /// Standing alarms cleared after quiet.
    pub clears: usize,
}

impl ChipOutcome {
    /// Whether the chip's Trojan was detected at or after activation.
    pub fn detected(&self) -> bool {
        matches!(
            (self.activation_record, self.detect_record),
            (Some(a), Some(d)) if d >= a
        )
    }

    /// Mean-time-to-detect on the monitor-loop clock: records from
    /// activation through detection, inclusive.
    pub fn mttd_s(&self) -> Option<f64> {
        let a = self.activation_record?;
        let d = self.detect_record?;
        (d >= a).then(|| {
            (d - a + 1) as f64 * (calib::RECORD_ACQUISITION_S + calib::RECORD_PROCESSING_S)
        })
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Cross-fleet aggregation: detection coverage, MTTD distribution,
/// false-alarm percentiles, alarms/sec under the modeled stream clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Chip streams.
    pub chips: usize,
    /// Records per stream.
    pub records_per_chip: usize,
    /// Total monitored records.
    pub records: usize,
    /// Infected dies.
    pub infected: usize,
    /// Infected dies detected at or after activation.
    pub detected: usize,
    /// Alarm-raise transitions fleet-wide.
    pub alarms: usize,
    /// False alarm-raises fleet-wide.
    pub false_alarms: usize,
    /// Alarm clears fleet-wide.
    pub clears: usize,
    /// Modeled stream time: records × per-record monitor-loop cost.
    pub stream_s: f64,
    /// Alarm-raises per modeled second.
    pub alarms_per_s: f64,
    /// MTTD median over detected chips, seconds.
    pub mttd_p50_s: Option<f64>,
    /// MTTD 95th percentile over detected chips, seconds.
    pub mttd_p95_s: Option<f64>,
    /// Worst MTTD over detected chips, seconds.
    pub mttd_max_s: Option<f64>,
    /// Median per-chip false-alarm count.
    pub false_alarm_p50: f64,
    /// 95th-percentile per-chip false-alarm count.
    pub false_alarm_p95: f64,
    /// Worst per-chip false-alarm count.
    pub false_alarm_max: f64,
}

impl FleetReport {
    /// Aggregates chip outcomes under `config`'s shape and the
    /// monitor-loop clock.
    pub fn from_outcomes(outcomes: &[ChipOutcome], config: &FleetConfig) -> Self {
        let per_tick_s = calib::RECORD_ACQUISITION_S + calib::RECORD_PROCESSING_S;
        let records = outcomes.len() * config.records;
        let stream_s = records as f64 * per_tick_s;
        let mut mttds: Vec<f64> = outcomes.iter().filter_map(ChipOutcome::mttd_s).collect();
        mttds.sort_by(f64::total_cmp);
        let mut fas: Vec<f64> = outcomes.iter().map(|o| o.false_alarms as f64).collect();
        fas.sort_by(f64::total_cmp);
        let alarms: usize = outcomes.iter().map(|o| o.alarms).sum();
        FleetReport {
            chips: outcomes.len(),
            records_per_chip: config.records,
            records,
            infected: outcomes.iter().filter(|o| o.infected).count(),
            detected: outcomes.iter().filter(|o| o.detected()).count(),
            alarms,
            false_alarms: outcomes.iter().map(|o| o.false_alarms).sum(),
            clears: outcomes.iter().map(|o| o.clears).sum(),
            stream_s,
            alarms_per_s: if stream_s > 0.0 {
                alarms as f64 / stream_s
            } else {
                0.0
            },
            mttd_p50_s: percentile(&mttds, 50.0),
            mttd_p95_s: percentile(&mttds, 95.0),
            mttd_max_s: mttds.last().copied(),
            false_alarm_p50: percentile(&fas, 50.0).unwrap_or(0.0),
            false_alarm_p95: percentile(&fas, 95.0).unwrap_or(0.0),
            false_alarm_max: fas.last().copied().unwrap_or(0.0),
        }
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} chips x {} records = {} records, modeled stream {:.6} s",
            self.chips, self.records_per_chip, self.records, self.stream_s
        )?;
        writeln!(
            f,
            "alarms: {} ({:.3}/s modeled), false {}, clears {}",
            self.alarms, self.alarms_per_s, self.false_alarms, self.clears
        )?;
        writeln!(
            f,
            "detection: {}/{} infected chips",
            self.detected, self.infected
        )?;
        match (self.mttd_p50_s, self.mttd_p95_s, self.mttd_max_s) {
            (Some(p50), Some(p95), Some(max)) => writeln!(
                f,
                "mttd: p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
                p50 * 1e3,
                p95 * 1e3,
                max * 1e3
            )?,
            _ => writeln!(f, "mttd: no detections")?,
        }
        writeln!(
            f,
            "false alarms/chip: p50 {:.1}, p95 {:.1}, max {:.1}",
            self.false_alarm_p50, self.false_alarm_p95, self.false_alarm_max
        )
    }
}

/// A per-shard monitoring lane: one chip's transient streaming state.
/// Lives only while its shard runs — the only state that outlives a
/// shard is the [`FleetBaselines`] store and the outcomes.
struct Lane {
    variation: ChipVariation,
    schedule: ActivationSchedule,
    rows: SlidingSpectrum,
    base_env: Vec<f64>,
    /// Whether the chip's alarm is standing: set by a hit, cleared by
    /// the next quiet comparison.
    alarmed: bool,
    outcome: ChipOutcome,
}

/// A fleet: one shared [`TestChip`] geometry, many seeded dies.
///
/// # Example
///
/// ```no_run
/// use psa_core::chip::TestChip;
/// use psa_runtime::engine::Engine;
/// use psa_runtime::fleet::{Fleet, FleetConfig, FleetReport};
///
/// let chip = TestChip::date24();
/// let config = FleetConfig {
///     chips: 32,
///     ..FleetConfig::default()
/// };
/// let fleet = Fleet::new(&chip, config).unwrap();
/// let engine = Engine::from_env();
/// let baselines = fleet.learn_baselines(&engine).unwrap();
/// let outcomes = fleet.run(&engine, &baselines).unwrap();
/// let report = FleetReport::from_outcomes(&outcomes, fleet.config());
/// assert_eq!(report.chips, 32);
/// ```
#[derive(Debug)]
pub struct Fleet<'c> {
    chip: &'c TestChip,
    config: FleetConfig,
}

impl<'c> Fleet<'c> {
    /// Validates `config` against the chip.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] on an empty fleet, zero-length
    /// streams, or streams that end before the Trojans activate.
    pub fn new(chip: &'c TestChip, config: FleetConfig) -> Result<Self, CoreError> {
        let invalid = |what: &'static str| Err(CoreError::InvalidParameter { what });
        if config.chips == 0 {
            return invalid("fleet needs at least 1 chip");
        }
        if config.records == 0 || config.baseline_records == 0 {
            return invalid("fleet streams need at least 1 record");
        }
        if config.shard_chips == 0 {
            return invalid("fleet shards need at least 1 chip");
        }
        if config.infect_every == 0 {
            return invalid("fleet infect_every must be at least 1");
        }
        if ACTIVATION_RECORD >= config.records {
            return invalid("fleet activation record must precede stream end");
        }
        Ok(Fleet { chip, config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The die variation of chip `c` — a pure function of
    /// `(fleet seed, c)`, so any worker reconstructs the same die.
    pub fn variation(&self, c: usize) -> ChipVariation {
        ChipVariation::new(splitmix64(SEED.wrapping_add(c as u64)))
    }

    /// Whether chip `c` carries a Trojan (every `infect_every`-th die;
    /// the kind cycles through [`TrojanKind::ALL`]).
    pub fn infected(&self, c: usize) -> bool {
        c % self.config.infect_every == 0
    }

    /// Chip `c`'s activation schedule, seeded from the fleet seed.
    pub fn schedule(&self, c: usize) -> ActivationSchedule {
        let cfg = &self.config;
        let seed = splitmix64(SEED ^ 0x57A6_57A6).wrapping_add(131 * c as u64);
        if self.infected(c) {
            let kind = TrojanKind::ALL[(c / cfg.infect_every) % TrojanKind::ALL.len()];
            ActivationSchedule::trojan_at(kind, ACTIVATION_RECORD, cfg.records).with_seed(seed)
        } else {
            ActivationSchedule::constant(Scenario::baseline(), cfg.records).with_seed(seed)
        }
    }

    /// Chip `c`'s baseline-learning seed.
    fn baseline_seed(&self, c: usize) -> u64 {
        splitmix64(SEED ^ 0xBA5E_F1EE).wrapping_add(257 * c as u64)
    }

    /// Fixed `(start, end)` chip shards — a pure function of the fleet
    /// shape, never of the worker count.
    fn shards(&self) -> Vec<(usize, usize)> {
        let n = self.config.chips;
        let step = self.config.shard_chips;
        (0..n.div_ceil(step))
            .map(|i| (i * step, ((i + 1) * step).min(n)))
            .collect()
    }

    /// Pooled bins per spectrum row.
    fn pooled_bins(&self) -> usize {
        (calib::RECORD_CYCLES * calib::SAMPLES_PER_CYCLE / 2 + 1).div_ceil(DECIMATE)
    }

    /// Learns every die's pooled baseline spectrum, sharded across the
    /// engine and merged in submission order (byte-identical at any
    /// worker count).
    ///
    /// # Errors
    ///
    /// The first failing shard's acquisition error.
    pub fn learn_baselines(&self, engine: &Engine) -> Result<FleetBaselines, CoreError> {
        let shards = self.shards();
        let per_shard: Result<Vec<Vec<Vec<f64>>>, CoreError> = engine
            .map_ctx(
                &shards,
                || AcqContext::new(self.chip),
                |ctx, _, &(start, end)| self.learn_shard(ctx, start, end),
            )
            .into_iter()
            .collect();
        Ok(FleetBaselines {
            per_chip: per_shard?.into_iter().flatten().collect(),
        })
    }

    fn learn_shard(
        &self,
        ctx: &mut AcqContext<'_>,
        start: usize,
        end: usize,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        let cfg = &self.config;
        let mut traces = TraceSet::default();
        let mut pooled = Vec::with_capacity(self.pooled_bins());
        let mut out = Vec::with_capacity(end - start);
        for c in start..end {
            ctx.set_variation(Some(self.variation(c)));
            let scenario = Scenario::baseline().with_seed(self.baseline_seed(c));
            ctx.acquire_into(
                &scenario,
                SensorSelect::Psa(SENSOR),
                cfg.baseline_records,
                &mut traces,
            )?;
            // Same ring math the monitoring lanes use, so a freshly
            // learned baseline and a quiet stream agree bin-for-bin.
            let mut ring = SlidingSpectrum::new(cfg.baseline_records)?;
            for rec in &traces.records {
                let row = ctx.fullres_amplitude_row(rec)?;
                decimate_max_into(row, &mut pooled);
                ring.push_row(&pooled)?;
            }
            let mut avg = Vec::with_capacity(pooled.len());
            ring.averaged_db_into(&mut avg)?;
            out.push(avg);
        }
        ctx.set_variation(None);
        Ok(out)
    }

    /// Streams every chip to its horizon in fixed round-robin order
    /// (within a shard: chip 0 record r, chip 1 record r, …, then
    /// record r+1) and returns per-chip outcomes in chip order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `baselines` does not cover
    /// every chip of the fleet (checked before any acquisition runs), or
    /// the first failing shard's acquisition error.
    pub fn run(
        &self,
        engine: &Engine,
        baselines: &FleetBaselines,
    ) -> Result<Vec<ChipOutcome>, CoreError> {
        if baselines.chips() != self.config.chips {
            return Err(CoreError::InvalidParameter {
                what: "fleet baselines must cover every chip",
            });
        }
        let shards = self.shards();
        let per_shard: Result<Vec<Vec<ChipOutcome>>, CoreError> = engine
            .map_ctx(
                &shards,
                || AcqContext::new(self.chip),
                |ctx, _, &(start, end)| self.run_shard(ctx, start, end, baselines),
            )
            .into_iter()
            .collect();
        Ok(per_shard?.into_iter().flatten().collect())
    }

    fn run_shard(
        &self,
        ctx: &mut AcqContext<'_>,
        start: usize,
        end: usize,
        baselines: &FleetBaselines,
    ) -> Result<Vec<ChipOutcome>, CoreError> {
        let cfg = &self.config;
        let mut lanes = Vec::with_capacity(end - start);
        for c in start..end {
            let infected = self.infected(c);
            let schedule = self.schedule(c);
            lanes.push(Lane {
                variation: self.variation(c),
                rows: SlidingSpectrum::new(WINDOW_RECORDS)?,
                base_env: peak::local_max_envelope(
                    baselines.chip_db(c),
                    POOLED_ENVELOPE_HALF_WINDOW,
                ),
                alarmed: false,
                outcome: ChipOutcome {
                    chip: c,
                    infected,
                    activation_record: schedule.first_activation_record(),
                    detect_record: None,
                    alarms: 0,
                    false_alarms: 0,
                    clears: 0,
                },
                schedule,
            });
        }
        let mut pooled = Vec::with_capacity(self.pooled_bins());
        let mut spec = Vec::with_capacity(self.pooled_bins());
        let sensor = SensorSelect::Psa(SENSOR);
        for r in 0..cfg.records {
            for lane in lanes.iter_mut() {
                ctx.set_variation(Some(lane.variation.clone()));
                let scenario = lane.schedule.scenario_at(r);
                let row = ctx.acquire_amplitude_row(&scenario, sensor)?;
                decimate_max_into(row, &mut pooled);
                lane.rows.push_row(&pooled)?;
                if lane.rows.len() < MIN_WINDOW_RECORDS {
                    continue;
                }
                lane.rows.averaged_db_into(&mut spec)?;
                let hits = peak::excess_over_baseline_db(
                    &spec,
                    &lane.base_env,
                    calib::DETECTION_THRESHOLD_DB,
                );
                let hit = !hits.is_empty();
                let flipped = hit != lane.alarmed;
                lane.alarmed = hit;
                let active = lane.schedule.trojan_active_at(r);
                if hit {
                    if active && lane.outcome.detect_record.is_none() {
                        lane.outcome.detect_record = Some(r);
                    }
                    if flipped {
                        lane.outcome.alarms += 1;
                        lane.outcome.false_alarms += usize::from(!active);
                    }
                } else if flipped {
                    lane.outcome.clears += 1;
                }
            }
        }
        ctx.set_variation(None);
        Ok(lanes.into_iter().map(|l| l.outcome).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_rejects_baselines_that_do_not_match_the_fleet() {
        let chip = TestChip::date24();
        let config = FleetConfig {
            chips: 2,
            ..FleetConfig::default()
        };
        let fleet = Fleet::new(&chip, config.clone()).unwrap();
        // Built directly, so no record is acquired; a mismatch must be
        // rejected before the fleet acquires any either.
        let bad = FleetBaselines {
            per_chip: vec![vec![0.0; fleet.pooled_bins()]; config.chips + 1],
        };
        assert!(matches!(
            fleet.run(&Engine::serial(), &bad),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn decimate_max_pools_peaks() {
        // Two full chunks and a ragged five-bin tail, one peak in each.
        let mut row = vec![0.0; 2 * DECIMATE + 5];
        row[3] = 5.0;
        row[DECIMATE + 40] = 9.0;
        row[2 * DECIMATE + 4] = 7.0;
        let mut out = vec![1.0; 9];
        decimate_max_into(&row, &mut out);
        assert_eq!(out, vec![5.0, 9.0, 7.0]);
        decimate_max_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 50.0), Some(3.0));
        assert_eq!(percentile(&xs, 95.0), Some(5.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn chip_outcome_mttd_counts_inclusive_records() {
        let o = ChipOutcome {
            chip: 0,
            infected: true,
            activation_record: Some(1),
            detect_record: Some(3),
            alarms: 1,
            false_alarms: 0,
            clears: 0,
        };
        assert!(o.detected());
        let mttd = o.mttd_s().unwrap();
        let per_tick = calib::RECORD_ACQUISITION_S + calib::RECORD_PROCESSING_S;
        assert_eq!(mttd, 3.0 * per_tick);
        let clean = ChipOutcome {
            activation_record: None,
            detect_record: None,
            infected: false,
            ..o.clone()
        };
        assert!(!clean.detected());
        assert_eq!(clean.mttd_s(), None);
    }

    #[test]
    fn report_aggregates_and_displays_deterministically() {
        let config = FleetConfig {
            chips: 3,
            records: 4,
            ..FleetConfig::default()
        };
        let outcomes = vec![
            ChipOutcome {
                chip: 0,
                infected: true,
                activation_record: Some(1),
                detect_record: Some(2),
                alarms: 1,
                false_alarms: 0,
                clears: 0,
            },
            ChipOutcome {
                chip: 1,
                infected: false,
                activation_record: None,
                detect_record: None,
                alarms: 1,
                false_alarms: 1,
                clears: 1,
            },
            ChipOutcome {
                chip: 2,
                infected: true,
                activation_record: Some(1),
                detect_record: Some(3),
                alarms: 1,
                false_alarms: 0,
                clears: 0,
            },
        ];
        let report = FleetReport::from_outcomes(&outcomes, &config);
        assert_eq!(report.chips, 3);
        assert_eq!(report.records, 12);
        assert_eq!(report.infected, 2);
        assert_eq!(report.detected, 2);
        assert_eq!(report.alarms, 3);
        assert_eq!(report.false_alarms, 1);
        assert_eq!(report.clears, 1);
        let per_tick = calib::RECORD_ACQUISITION_S + calib::RECORD_PROCESSING_S;
        assert!((report.stream_s - 12.0 * per_tick).abs() < 1e-12);
        assert_eq!(report.mttd_p50_s, Some(2.0 * per_tick));
        assert_eq!(report.mttd_max_s, Some(3.0 * per_tick));
        assert_eq!(report.false_alarm_max, 1.0);
        // Display is part of the byte-identical stdout contract.
        assert_eq!(format!("{report}"), format!("{report}"));
        assert!(format!("{report}").contains("detection: 2/2 infected chips"));
    }

    #[test]
    fn shard_partition_is_fixed_and_total() {
        let chip = FleetConfig {
            chips: 10,
            shard_chips: 4,
            ..FleetConfig::default()
        };
        // Mirror Fleet::shards without a chip: the partition is a pure
        // function of (chips, shard_chips).
        let n = chip.chips;
        let step = chip.shard_chips;
        let shards: Vec<(usize, usize)> = (0..n.div_ceil(step))
            .map(|i| (i * step, ((i + 1) * step).min(n)))
            .collect();
        assert_eq!(shards, vec![(0, 4), (4, 8), (8, 10)]);
    }
}

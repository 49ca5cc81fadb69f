//! `monitor`: the run-time deployment. Several dies, each with its own
//! `ChipVariation` and one-sensor baseline, stream records through a
//! `SlidingDetector`; each op is one `observe` tick (one record, one
//! FFT). Tick `i` belongs to die `i % DIES`; lane `w` owns the dies
//! `d ≡ w (mod lanes)` and ticks them round-robin, so every die's
//! rolling window sees its records in order.
//!
//! A die's stream is cut into episodes. Each episode is Trojan-free or
//! infected with a seeded Trojan activating at a seeded record; half the
//! dies are infected in every episode.

use crate::load::{Claim, LoopRun};
use crate::replay::{Acq, LayerTimes, Replayer};
use crate::workload::{
    finish, repeated_chips, replay_ops, timed, timed_and_serial, Config, Outcome, SetupTimes,
    SimStats,
};
use psa_core::acquisition::AcqContext;
use psa_core::calib;
use psa_core::chip::ChipVariation;
use psa_core::cross_domain::{AnalyzerConfig, Baseline};
use psa_core::monitor::{
    ActivationSchedule, ScheduleChange, SlidingConfig, SlidingDetector, StreamSource,
};
use psa_core::scenario::Scenario;
use psa_dsp::rng::{splitmix64, SmallRng};
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::Campaign;
use std::sync::Mutex;

/// Set-up repetitions.
const SETUP_REPS: usize = 5;
/// Dies streamed.
pub const DIES: usize = 16;
/// The watched sensor: the paper's best-coupled PSA coil.
const SENSOR: usize = 10;
/// Records per episode.
pub const EPISODE: usize = 24;
/// Episodes per die the statistics cover. Each episode round of all
/// dies is one block of the `op_tail_ms` estimate.
const STAT_EPISODES: usize = 11;
/// Ticks the statistics (and the digest) cover.
pub const STAT_OPS: usize = DIES * EPISODE * STAT_EPISODES;
/// Ticks replayed on one worker for the output check (half an episode
/// of every die).
const VERIFY_OPS: usize = DIES * EPISODE / 2;
/// Ticks replayed layer by layer in the traced run: the last ticks
/// the statistics cover.
const TRACE_OPS: usize = 64;
/// Earliest activation record: the rolling window is full by then.
const FIRST_ACTIVATION: usize = 6;

/// One die: its process variation and its learned baseline.
#[derive(Debug)]
pub struct Die {
    variation: ChipVariation,
    baseline: Baseline,
}

/// A die's streaming state within the current episode.
#[derive(Debug)]
struct DieStream {
    detector: SlidingDetector,
    stream: StreamSource,
}

/// The Trojan and activation record of an infected episode.
fn infection(seed: u64, die: usize, episode: usize) -> Option<(TrojanKind, usize)> {
    if (die + episode + (seed % 2) as usize) % 2 == 1 {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(splitmix64(
        seed ^ ((die as u64) << 32) ^ episode as u64 ^ 0x1AFE_C7ED,
    ));
    let kind = TrojanKind::ALL[rng.gen_index(TrojanKind::ALL.len())];
    let at = FIRST_ACTIVATION + rng.gen_index(EPISODE / 2 - FIRST_ACTIVATION);
    Some((kind, at))
}

fn schedule(seed: u64, die: usize, episode: usize) -> ActivationSchedule {
    let base = ActivationSchedule::constant(Scenario::baseline(), EPISODE);
    let schedule = match infection(seed, die, episode) {
        Some((kind, at)) => base.step(at, ScheduleChange::TrojanOn(kind)),
        None => base,
    };
    schedule.with_seed(splitmix64(
        seed ^ 0x5E55_1011 ^ ((die as u64) << 40) ^ episode as u64,
    ))
}

/// `(die, episode, record)` of tick `index`.
fn tick(index: usize) -> (usize, usize, usize) {
    let t = index / DIES;
    (index % DIES, t / EPISODE, t % EPISODE)
}

/// What one tick reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    /// Whether the tick raised an alarm.
    pub alarm: bool,
    /// Strongest emergent bin, when any bin exceeded the threshold.
    pub top_bin: Option<usize>,
}

fn observe(
    seed: u64,
    dies: &[Die],
    streams: &[Mutex<Option<DieStream>>],
    ctx: &mut AcqContext<'_>,
    index: usize,
) -> Result<Tick, String> {
    let (d, episode, record) = tick(index);
    // A tick that panicked leaves the lock poisoned; the episode restarts
    // at its next record 0 either way.
    let mut slot = streams[d].lock().unwrap_or_else(|e| e.into_inner());
    if record == 0 {
        *slot = Some(DieStream {
            detector: SlidingDetector::new(&dies[d].baseline, &[SENSOR], SlidingConfig::default())
                .map_err(|e| e.to_string())?,
            stream: StreamSource::new(schedule(seed, d, episode)),
        });
    }
    let s = slot
        .as_mut()
        .ok_or("die stream lost its episode state after a failed tick")?;
    ctx.set_variation(Some(dies[d].variation.clone()));
    let scenario = s.stream.schedule().scenario_at(record);
    let obs = s
        .detector
        .observe(ctx, &s.stream, &scenario, 0)
        .map_err(|e| e.to_string())?;
    if obs.hit != obs.top_bin.is_some() {
        return Err(format!("tick {index}: hit flag disagrees with its top bin"));
    }
    Ok(Tick {
        alarm: obs.newly_alarmed,
        top_bin: obs.top_bin,
    })
}

/// Runs the `monitor` workload.
pub fn run(config: &Config) -> Outcome {
    let seed = config.seed;
    let mut dies = Vec::new();
    let (chip, setup) = repeated_chips(SETUP_REPS, |chip| {
        let (d, baseline_s) = timed(|| learn_dies(chip, config));
        dies = d;
        SetupTimes {
            baseline_s,
            ..SetupTimes::default()
        }
    });

    let fresh =
        || -> Vec<Mutex<Option<DieStream>>> { (0..DIES).map(|_| Mutex::new(None)).collect() };
    let (run, compared, mismatches) = timed_and_serial(
        config,
        Claim::ByKey(DIES),
        STAT_OPS,
        VERIFY_OPS,
        fresh,
        || AcqContext::new(&chip),
        |streams, ctx, i| observe(seed, &dies, streams, ctx, i),
    );
    let sim = stats(seed, &run);

    let traced = if config.trace {
        let indices: Vec<usize> = (STAT_OPS - TRACE_OPS..STAT_OPS).collect();
        replay_ops(&chip, &config.engine, &run, &indices, |r, i, _, t| {
            replay(r, seed, &dies, i, t)
        })
    } else {
        Ok(Vec::new())
    };
    let (run, digest) = finish("monitor", config, run, STAT_OPS);
    Outcome {
        setup,
        run,
        sim,
        compared,
        mismatches,
        stat_ops: STAT_OPS,
        tail_block: DIES * EPISODE,
        digest,
        traced,
    }
}

/// Draws every die's variation and learns its one-sensor baseline, one
/// engine job per die.
fn learn_dies(chip: &psa_core::chip::TestChip, config: &Config) -> Vec<Die> {
    let ids: Vec<usize> = (0..DIES).collect();
    Campaign::new(chip, config.engine).run(&ids, |ctx, _, &d| {
        let variation = ChipVariation::new(splitmix64(config.seed ^ 0xD1E0_0000 ^ d as u64));
        ctx.set_variation(Some(variation.clone()));
        let mut per_sensor_db = vec![Vec::new(); SENSOR];
        per_sensor_db.push(Baseline::sensor_db_with(
            &AnalyzerConfig::default(),
            ctx,
            splitmix64(config.seed ^ 0xBA5E ^ d as u64),
            SENSOR,
        ));
        Die {
            variation,
            baseline: Baseline { per_sensor_db },
        }
    })
}

/// Accuracy: infected episodes alarmed at or after activation. False
/// alarms: Trojan-free episodes that alarm. MTTD: simulated record time
/// from activation to the end of the alarming record.
fn stats(seed: u64, run: &LoopRun<Tick>) -> SimStats {
    let record_ms = calib::RECORD_CYCLES as f64 / calib::CLK_HZ * 1e3;
    let (mut infected, mut caught, mut clean, mut alarmed) = (0, 0, 0, 0);
    let mut delays_ms = Vec::new();
    for d in 0..DIES {
        for e in 0..STAT_EPISODES {
            let first = |from: usize| {
                (from..EPISODE).find(|&r| {
                    let i = (e * EPISODE + r) * DIES + d;
                    matches!(run.get(i).map(|o| &o.outcome), Some(Ok(t)) if t.alarm)
                })
            };
            match infection(seed, d, e) {
                Some((_, at)) => {
                    infected += 1;
                    if let Some(r) = first(at) {
                        caught += 1;
                        delays_ms.push((r - at + 1) as f64 * record_ms);
                    }
                }
                None => {
                    clean += 1;
                    alarmed += usize::from(first(0).is_some());
                }
            }
        }
    }
    SimStats {
        units: DIES * STAT_EPISODES,
        accuracy: caught as f64 / infected.max(1) as f64,
        false_alarm_rate: alarmed as f64 / clean.max(1) as f64,
        mttd_sim_ms: Some(delays_ms.iter().sum::<f64>() / delays_ms.len().max(1) as f64),
        loc_error_um: None,
    }
}

/// A tick's one record and one FFT through the layers.
fn replay(
    r: &mut Replayer<'_>,
    seed: u64,
    dies: &[Die],
    index: usize,
    t: &mut LayerTimes,
) -> Result<(), String> {
    let (d, episode, record) = tick(index);
    let scenario = schedule(seed, d, episode).scenario_at(record);
    r.acquire(
        &Acq {
            scenario: &scenario,
            sensor: SENSOR,
            records: 1,
            record_cycles: calib::RECORD_CYCLES,
            emitters: &[],
            variation: Some(&dies[d].variation),
            fft: true,
        },
        t,
    )
}

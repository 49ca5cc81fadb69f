//! What every workload hands back to the report, and the steps they
//! share: repeated set-up, the timed loop, the serial cross-check, and
//! the traced layer replay.

use crate::load::{closed_loop, Claim, LoopRun};
use crate::replay::{LayerTimes, Replayer};
use crate::report::digest;
use crate::stats::median;
use psa_core::chip::TestChip;
use psa_runtime::Engine;
use std::fmt::Debug;
use std::time::Instant;

/// What one benchmark invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed closed loop, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The engine the ops fan out on.
    pub engine: Engine,
}

/// Host time of one set-up, seconds, by part.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Layout, sensor array and field coupling (`TestChip::date24`).
    pub chip_s: f64,
    /// Run-time baseline learning.
    pub baseline_s: f64,
    /// Identification template library.
    pub templates_s: f64,
    /// Localizer grid and per-corner calibration.
    pub calibration_s: f64,
}

impl SetupTimes {
    /// All parts together.
    pub fn total_s(&self) -> f64 {
        self.chip_s + self.baseline_s + self.templates_s + self.calibration_s
    }

    /// Part-wise median over repetitions.
    pub fn median_of(reps: &[SetupTimes]) -> SetupTimes {
        let part = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            chip_s: part(|s| s.chip_s),
            baseline_s: part(|s| s.baseline_s),
            templates_s: part(|s| s.templates_s),
            calibration_s: part(|s| s.calibration_s),
        }
    }
}

/// Simulated statistics over a workload's fixed first ops. They are a
/// pure function of the seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Decisions, episodes or tuples the statistics cover.
    pub units: usize,
    /// Share judged correct (definition per workload).
    pub accuracy: f64,
    /// False alarms per negative unit (definition per workload).
    pub false_alarm_rate: f64,
    /// Mean simulated time from activation to alarm, ms (`monitor`).
    pub mttd_sim_ms: Option<f64>,
    /// Mean error per matched source, µm (`localize`).
    pub loc_error_um: Option<f64>,
}

/// One traced op: its host time in the timed loop and its replayed
/// layers.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedOp {
    /// Op index.
    pub index: usize,
    /// Host time of the op's entry point in the timed loop, ms.
    pub op_ms: f64,
    /// The op's replayed layers.
    pub layers: LayerTimes,
}

impl TracedOp {
    /// Op time no replayed layer accounts for, ms.
    pub fn remainder_ms(&self) -> f64 {
        self.op_ms - self.layers.attributed_s() * 1e3
    }
}

/// Everything a workload measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per-repetition set-up times.
    pub setup: Vec<SetupTimes>,
    /// The timed closed loop, outputs reduced to their digests.
    pub run: LoopRun<String>,
    /// Simulated statistics.
    pub sim: SimStats,
    /// Ops compared against the one-worker replay.
    pub compared: usize,
    /// Compared ops whose outputs differ.
    pub mismatches: usize,
    /// Ops every run of a seed executes; the simulated statistics, the
    /// digest and the latency percentiles cover exactly these.
    pub stat_ops: usize,
    /// Consecutive ops per block of the `op_tail_ms` estimate (see
    /// [`crate::stats::block_tail`]); `stat_ops` is a multiple of it.
    pub tail_block: usize,
    /// Digest of the outputs of the first `stat_ops` ops.
    pub digest: u64,
    /// Traced ops (none in the untraced run), or why the replay failed.
    pub traced: Result<Vec<TracedOp>, String>,
}

impl Outcome {
    /// Host times of the first `stat_ops` ops, ms: the same ops on every
    /// run of a seed, so their percentiles compare like for like.
    pub fn stat_op_ms(&self) -> Vec<f64> {
        self.run
            .ops
            .iter()
            .filter(|o| o.index < self.stat_ops)
            .map(crate::load::OpRecord::ms)
            .collect()
    }
}

/// Runs `f` and returns its result with its host time, seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    // psa-lint: allow(wallclock-in-lib): the benchmark's one timing helper; host time is its output
    let s = Instant::now();
    let r = f();
    (r, s.elapsed().as_secs_f64())
}

/// Builds the chip `reps` times (at least once), running `build` on
/// each, and keeps the last repetition's chip. Returns the
/// per-repetition times; `setup_s` is their median.
pub fn repeated_chips(
    reps: usize,
    mut build: impl FnMut(&TestChip) -> SetupTimes,
) -> (TestChip, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(reps);
    loop {
        let (chip, chip_s) = timed(TestChip::date24);
        let mut t = build(&chip);
        t.chip_s = chip_s;
        times.push(t);
        if times.len() >= reps {
            return (chip, times);
        }
    }
}

/// The timed loop on `config.engine`, then the first `verify_ops` ops
/// again on one worker; outputs are compared op by op. `state` builds
/// fresh per-run state (stateful workloads must not share it between
/// the two runs).
#[allow(clippy::too_many_arguments)]
pub fn timed_and_serial<S, C, O, MS, I, F>(
    config: &Config,
    claim: Claim,
    min_ops: usize,
    verify_ops: usize,
    state: MS,
    init: I,
    op: F,
) -> (LoopRun<O>, usize, usize)
where
    O: Send + PartialEq,
    MS: Fn() -> S,
    S: Sync,
    I: Fn() -> C + Sync,
    F: Fn(&S, &mut C, usize) -> Result<O, String> + Sync,
{
    let timed_state = state();
    let run = closed_loop(
        &config.engine,
        claim,
        config.seconds,
        min_ops,
        &init,
        |c, i| op(&timed_state, c, i),
    );
    let serial_state = state();
    let serial = closed_loop(&Engine::serial(), claim, 0.0, verify_ops, &init, |c, i| {
        op(&serial_state, c, i)
    });
    let mut mismatches = 0;
    for s in &serial.ops {
        let same = match (run.get(s.index).map(|o| &o.outcome), &s.outcome) {
            (Some(Ok(a)), Ok(b)) => a == b,
            _ => false,
        };
        if !same {
            mismatches += 1;
        }
    }
    (run, serial.ops.len(), mismatches)
}

/// Reduces op outputs to their `Debug` text (the digest input) and
/// prints every failed op with its replay handle.
pub fn finish<O: Debug>(
    workload: &str,
    config: &Config,
    run: LoopRun<O>,
    digest_ops: usize,
) -> (LoopRun<String>, u64) {
    for o in &run.ops {
        if let Err(e) = &o.outcome {
            eprintln!(
                "op failed: workload {workload}, op {}, seed {}: {e}",
                o.index, config.seed
            );
        }
    }
    let ops: Vec<_> = run
        .ops
        .into_iter()
        .map(|o| crate::load::OpRecord {
            index: o.index,
            lane: o.lane,
            start_s: o.start_s,
            end_s: o.end_s,
            outcome: o.outcome.map(|v| format!("{v:?}")),
        })
        .collect();
    let run = LoopRun {
        ops,
        lanes: run.lanes,
        wall_s: run.wall_s,
    };
    let d = digest(
        run.ops
            .iter()
            .filter(|o| o.index < digest_ops)
            .map(|o| match &o.outcome {
                Ok(s) => s.as_str(),
                Err(_) => "failed",
            }),
    );
    (run, d)
}

/// Replays `indices` on the engine, one [`Replayer`] per worker, and
/// pairs each op's layers with its host time from `run`. Traced ops
/// should come from late in the timed loop, past the lanes' warm-up.
///
/// # Errors
///
/// The first replay error (a layer error or a bit mismatch).
pub fn replay_ops<O, F>(
    chip: &TestChip,
    engine: &Engine,
    run: &LoopRun<O>,
    indices: &[usize],
    replay: F,
) -> Result<Vec<TracedOp>, String>
where
    O: Sync,
    F: Fn(&mut Replayer<'_>, usize, &O, &mut LayerTimes) -> Result<(), String> + Sync,
{
    engine
        .map_ctx(
            indices,
            || (Replayer::new(chip), false),
            |(r, warm), _, &index| {
                let op = run
                    .get(index)
                    .ok_or_else(|| format!("traced op {index} did not run"))?;
                let out = op.outcome.as_ref().map_err(|e| e.clone())?;
                // A worker's first replay sizes its buffers and plans
                // the transforms; it runs once untimed.
                if !*warm {
                    r.begin_op();
                    replay(r, index, out, &mut LayerTimes::default())?;
                    *warm = true;
                }
                let mut layers = LayerTimes::default();
                r.begin_op();
                replay(r, index, out, &mut layers)?;
                Ok(TracedOp {
                    index,
                    op_ms: op.ms(),
                    layers,
                })
            },
        )
        .into_iter()
        .collect()
}

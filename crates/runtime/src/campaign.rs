//! Acquisition-level campaigns: fan `(Scenario, SensorSelect, records,
//! seed)` jobs across the engine against one shared [`TestChip`].
//!
//! The chip is built once (the expensive step: placement + coupling
//! matrices) and borrowed immutably by every worker; each worker owns a
//! private [`AcqContext`] so the per-record scratch never crosses
//! threads. Per-job seeds make every job a pure function of its
//! description, so campaign output is byte-identical at any worker
//! count.

use crate::engine::Engine;
use psa_core::acquisition::{AcqContext, TraceSet};
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::cross_domain::{AnalyzerConfig, Baseline};
use psa_core::error::CoreError;
use psa_core::scenario::Scenario;

/// One acquisition job: a scenario on one sensor for a number of
/// records, with an explicit per-job seed.
#[derive(Debug, Clone, PartialEq)]
pub struct AcquireJob {
    /// What the chip is doing during the measurement.
    pub scenario: Scenario,
    /// The sensing selection measured.
    pub sensor: SensorSelect,
    /// Records to capture.
    pub records: usize,
    /// Per-job seed applied to the scenario (plaintexts and noise);
    /// this is what decouples a job's result from its neighbours and
    /// from execution order.
    pub seed: u64,
}

impl AcquireJob {
    /// A job inheriting the scenario's own seed.
    pub fn new(scenario: Scenario, sensor: SensorSelect, records: usize) -> Self {
        let seed = scenario.seed;
        AcquireJob {
            scenario,
            sensor,
            records,
            seed,
        }
    }

    /// Overrides the per-job seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The scenario actually executed (seed applied).
    pub fn effective_scenario(&self) -> Scenario {
        self.scenario.clone().with_seed(self.seed)
    }
}

/// A campaign: an engine bound to one shared chip.
///
/// # Example
///
/// ```no_run
/// use psa_core::chip::{SensorSelect, TestChip};
/// use psa_core::scenario::Scenario;
/// use psa_runtime::campaign::{AcquireJob, Campaign};
/// use psa_runtime::engine::Engine;
///
/// let chip = TestChip::date24();
/// let campaign = Campaign::new(&chip, Engine::from_env());
/// let jobs: Vec<AcquireJob> = (0..8)
///     .map(|s| {
///         AcquireJob::new(Scenario::baseline(), SensorSelect::Psa(10), 5).with_seed(100 + s)
///     })
///     .collect();
/// let traces = campaign.acquire(&jobs).unwrap();
/// assert_eq!(traces.len(), 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'c> {
    chip: &'c TestChip,
    engine: Engine,
}

impl<'c> Campaign<'c> {
    /// Binds `engine` to a shared chip.
    pub fn new(chip: &'c TestChip, engine: Engine) -> Self {
        Campaign { chip, engine }
    }

    /// The shared chip.
    pub fn chip(&self) -> &'c TestChip {
        self.chip
    }

    /// The engine in use.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Runs arbitrary per-job work with a per-worker [`AcqContext`],
    /// collecting results in submission order. The closure must be
    /// deterministic in `(index, job)` — never in context history.
    pub fn run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&mut AcqContext<'c>, usize, &J) -> R + Sync,
    {
        self.engine.map_ctx(jobs, || AcqContext::new(self.chip), f)
    }

    /// Acquires every job's trace set.
    ///
    /// # Errors
    ///
    /// Returns the first failing job's error (jobs are still attempted
    /// independently).
    pub fn acquire(&self, jobs: &[AcquireJob]) -> Result<Vec<TraceSet>, CoreError> {
        self.run(jobs, |ctx, _, job| {
            ctx.acquire(&job.effective_scenario(), job.sensor, job.records)
        })
        .into_iter()
        .collect()
    }

    /// Learns the 16-sensor run-time baseline in parallel (one job per
    /// sensor). Byte-identical to [`Baseline::learn_with`] at the
    /// default configuration with the same seed, since each sensor's
    /// spectrum depends only on `(seed, sensor)` — and template-free,
    /// so no worker pays for the identification reference library.
    pub fn learn_baseline(&self, seed: u64) -> Baseline {
        let config = AnalyzerConfig::default();
        let sensors: Vec<usize> = (0..self.chip.sensor_bank().len()).collect();
        let per_sensor_db = self.run(&sensors, |ctx, _, &sensor| {
            Baseline::sensor_db_with(&config, ctx, seed, sensor)
        });
        Baseline { per_sensor_db }
    }
}

//! Acquisition-level campaigns: fan arbitrary per-job work across the
//! engine against one shared [`TestChip`].
//!
//! The chip is built once (the expensive step: placement + coupling
//! matrices) and borrowed immutably by every worker; each worker owns a
//! private [`AcqContext`] so the per-record scratch never crosses
//! threads. Per-job seeds make every job a pure function of its
//! description, so campaign output is byte-identical at any worker
//! count.

use crate::engine::Engine;
use psa_core::acquisition::AcqContext;
use psa_core::chip::TestChip;
use psa_core::cross_domain::{AnalyzerConfig, Baseline};

/// A campaign: an engine bound to one shared chip.
///
/// # Example
///
/// ```no_run
/// use psa_core::chip::{SensorSelect, TestChip};
/// use psa_core::scenario::Scenario;
/// use psa_runtime::campaign::Campaign;
/// use psa_runtime::engine::Engine;
///
/// let chip = TestChip::date24();
/// let campaign = Campaign::new(&chip, Engine::from_env());
/// let seeds: Vec<u64> = (100..108).collect();
/// let traces = campaign.run(&seeds, |ctx, _, &seed| {
///     ctx.acquire(&Scenario::baseline().with_seed(seed), SensorSelect::Psa(10), 5)
/// });
/// assert_eq!(traces.len(), 8);
/// assert!(traces.iter().all(Result::is_ok));
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

    /// Learns the 16-sensor run-time baseline in parallel (one job per
    /// sensor). Byte-identical to [`Baseline::learn_with`] with the
    /// same seed, since each sensor's
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

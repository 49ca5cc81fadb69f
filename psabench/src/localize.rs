//! `localize`: seeded multi-emitter tuples, K ∈ {1, 2, 3}, across three
//! VDD/temperature corners, through `MultilocCampaign`. Each op is one
//! tuple: a 16-sensor sweep of short (2048-cycle) records with the
//! emitters superposed, then the hypothesis-grid search.

use crate::load::{Claim, LoopRun};
use crate::replay::{Acq, LayerTimes, Replayer};
use crate::workload::{
    finish, replay_ops, timed, timed_and_serial, Config, Outcome, SetupTimes, SimStats,
};
use psa_core::acquisition::InjectedEmitter;
use psa_core::atlas::SyntheticEmitter;
use psa_core::chip::TestChip;
use psa_core::multiloc::MultiLocConfig;
use psa_dsp::rng::{splitmix64, SmallRng};
use psa_gatesim::synth::SyntheticTrojan;
use psa_layout::emitter::{sweep_grid, validate_separation, EmitterSite};
use psa_runtime::atlas::AtlasCorner;
use psa_runtime::multiloc::{tuple_seed, MultilocCampaign, MultilocJob, MultilocOutcome};
use psa_runtime::Campaign;

/// Set-up repetitions (each well under a second).
const SETUP_REPS: usize = 7;
/// Tuples the statistics (and the digest) cover.
pub const STAT_OPS: usize = 540;
/// Tuples per block of the `op_tail_ms` estimate.
const TAIL_BLOCK: usize = 180;
/// Tuples replayed on one worker for the output check.
const VERIFY_OPS: usize = 6;
/// Tuples replayed layer by layer in the traced run: the last nine the
/// statistics cover, every K at every corner.
const TRACE_OPS: usize = 9;
/// Emitters per tuple cycle through 1..=MAX_K.
const MAX_K: usize = 3;
/// Candidate emitter sites: a `SITE_GRID` × `SITE_GRID` sweep of the die.
const SITE_GRID: usize = 4;
const SITE_MARGIN_UM: f64 = 60.0;
const SITE_EXTENT_UM: f64 = 40.0;
/// Drive of the emitter in each tuple slot, equivalent cells.
const DRIVES: [f64; MAX_K] = [800.0, 1200.0, 500.0];
const CORNERS: [(&str, f64, f64); 3] = [
    ("nominal", 1.0, 25.0),
    ("low-vdd-cold", 0.9, 0.0),
    ("high-vdd-hot", 1.1, 85.0),
];

fn corners(seed: u64) -> Vec<AtlasCorner> {
    CORNERS
        .iter()
        .enumerate()
        .map(|(i, &(label, vdd, temp_c))| {
            AtlasCorner::new(label, vdd, temp_c, splitmix64(seed ^ 0xC0_0000 ^ i as u64))
        })
        .collect()
}

/// The tuple of op `index`: K = `index % 3 + 1` separated emitters at
/// corner `(index / 3) % 3`. The first emitter steps through the sites
/// from a seeded offset, so every run covers the die evenly; the others
/// sit on seeded sites.
pub fn job(seed: u64, index: usize, sites: &[EmitterSite], min_separation_um: f64) -> MultilocJob {
    let k = index % MAX_K + 1;
    let offset = splitmix64(seed ^ 0x5173_0FF5) as usize;
    let first = sites[offset.wrapping_add(index / MAX_K) % sites.len()];
    let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0x7091_E500_0000 ^ index as u64));
    let picked = loop {
        let mut picked = vec![first];
        while picked.len() < k {
            let site = sites[rng.gen_index(sites.len())];
            if !picked.contains(&site) {
                picked.push(site);
            }
        }
        if validate_separation(&picked, min_separation_um).is_ok() {
            break picked;
        }
    };
    MultilocJob {
        corner: (index / MAX_K) % CORNERS.len(),
        emitters: picked
            .into_iter()
            .zip(DRIVES)
            .map(|(site, drive)| SyntheticEmitter {
                trojan: SyntheticTrojan::am_reference(drive),
                ..SyntheticEmitter::reference_at(site)
            })
            .collect(),
    }
}

/// Runs the `localize` workload.
pub fn run(config: &Config) -> Outcome {
    let seed = config.seed;
    // The campaign borrows its chip, so the repetitions are spelled out:
    // the last one's chip and campaign are kept.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let (chip, chip_s) = timed(TestChip::date24);
        let (_, calibration_s) = timed(|| build(&chip, config));
        setup.push(SetupTimes {
            chip_s,
            calibration_s,
            ..SetupTimes::default()
        });
    }
    let (chip, chip_s) = timed(TestChip::date24);
    let (campaign, calibration_s) = timed(|| build(&chip, config));
    setup.push(SetupTimes {
        chip_s,
        calibration_s,
        ..SetupTimes::default()
    });
    let sites = sweep_grid(
        chip.floorplan().die(),
        SITE_GRID,
        SITE_GRID,
        SITE_MARGIN_UM,
        SITE_EXTENT_UM,
    );
    let min_sep = campaign.localizer().config().min_separation_um;
    let max_sources = campaign.localizer().config().max_sources;

    let (run, compared, mismatches) = timed_and_serial(
        config,
        Claim::Shared,
        STAT_OPS,
        VERIFY_OPS,
        || (),
        || (),
        |(), (), i| {
            let job = job(seed, i, &sites, min_sep);
            let mut out = campaign
                .run(std::slice::from_ref(&job))
                .map_err(|e| e.to_string())?;
            let out = out.pop().ok_or("campaign returned no outcome")?;
            check(&chip, &out, max_sources)?;
            Ok(out)
        },
    );
    let sim = stats(&run);

    let traced = if config.trace {
        // The campaign learns its baselines, builds the hypothesis grid
        // and calibrates in one call; replaying the baseline learning
        // from outside splits its set-up time.
        replay_baselines(&chip, config, &campaign).and_then(|baseline_s| {
            for s in &mut setup {
                s.baseline_s = baseline_s;
                s.calibration_s = (s.calibration_s - baseline_s).max(0.0);
            }
            let indices: Vec<usize> = (STAT_OPS - TRACE_OPS..STAT_OPS).collect();
            replay_ops(&chip, &config.engine, &run, &indices, |r, i, _, t| {
                replay(r, &campaign, &job(seed, i, &sites, min_sep), t)
            })
        })
    } else {
        Ok(Vec::new())
    };
    let (run, digest) = finish("localize", config, run, STAT_OPS);
    Outcome {
        setup,
        run,
        sim,
        compared,
        mismatches,
        stat_ops: STAT_OPS,
        tail_block: TAIL_BLOCK,
        digest,
        traced,
    }
}

fn build<'c>(chip: &'c TestChip, config: &Config) -> MultilocCampaign<'c> {
    MultilocCampaign::new(
        chip,
        config.engine,
        MultiLocConfig::default(),
        corners(config.seed),
    )
    .expect("joint-localization campaign builds on the built-in chip")
}

/// A tuple's output check: bounded source count, finite on-die estimates.
fn check(chip: &TestChip, out: &MultilocOutcome, max_sources: usize) -> Result<(), String> {
    let die = chip.floorplan().die().outline();
    let on_die = out.outcome.sources.iter().all(|s| {
        s.x_um.is_finite()
            && s.y_um.is_finite()
            && (die.min().x..=die.max().x).contains(&s.x_um)
            && (die.min().y..=die.max().y).contains(&s.y_um)
    });
    if out.outcome.sources.len() > max_sources || !on_die {
        return Err(format!("implausible sources {:?}", out.outcome.sources));
    }
    Ok(())
}

/// Accuracy: the exact-count rate. False alarms: ghost sources per
/// tuple. Error: mean over matched sources.
fn stats(run: &LoopRun<MultilocOutcome>) -> SimStats {
    let (mut exact, mut ghosts) = (0, 0);
    let mut errors = Vec::new();
    for i in 0..STAT_OPS {
        let Some(Ok(o)) = run.get(i).map(|o| &o.outcome) else {
            continue;
        };
        exact += usize::from(o.outcome.sources.len() == o.true_count);
        ghosts += o.score.false_alarm;
        errors.extend(o.score.pairs.iter().map(|p| p.error_um));
    }
    SimStats {
        units: STAT_OPS,
        accuracy: exact as f64 / STAT_OPS as f64,
        false_alarm_rate: ghosts as f64 / STAT_OPS as f64,
        mttd_sim_ms: None,
        loc_error_um: Some(errors.iter().sum::<f64>() / errors.len().max(1) as f64),
    }
}

/// Re-runs the campaign's per-corner baseline learning from outside,
/// checks it matches the campaign's bit for bit, and returns its host
/// time.
fn replay_baselines(
    chip: &TestChip,
    config: &Config,
    campaign: &MultilocCampaign<'_>,
) -> Result<f64, String> {
    let sweep = campaign.localizer().sweep();
    let corners = campaign.corners();
    let jobs: Vec<(usize, usize)> = (0..corners.len())
        .flat_map(|c| (0..16).map(move |s| (c, s)))
        .collect();
    let (spectra, baseline_s) = timed(|| {
        Campaign::new(chip, config.engine).run(&jobs, |ctx, _, &(c, s)| {
            sweep.baseline_sensor_db_with(ctx, &corners[c].scenario(), s)
        })
    });
    for (&(c, s), spec) in jobs.iter().zip(spectra) {
        let spec = spec.map_err(|e| e.to_string())?;
        if campaign.baseline(c).map(|b| &b.per_sensor_db[s]) != Some(&spec) {
            return Err(format!(
                "replayed baseline differs (corner {c}, sensor {s})"
            ));
        }
    }
    Ok(baseline_s)
}

/// A tuple's 16-sensor sweep with its emitters superposed, through the
/// layers.
fn replay(
    r: &mut Replayer<'_>,
    campaign: &MultilocCampaign<'_>,
    job: &MultilocJob,
    t: &mut LayerTimes,
) -> Result<(), String> {
    let sweep = campaign.localizer().sweep();
    let corner = &campaign.corners()[job.corner];
    let scenario = corner
        .scenario()
        .with_seed(tuple_seed(corner.seed, &job.emitters));
    let rows: Vec<Vec<f64>> = job
        .emitters
        .iter()
        .map(|e| sweep.coupling_row(&e.site))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    for sensor in 0..16 {
        let injected: Vec<InjectedEmitter<'_>> = job
            .emitters
            .iter()
            .zip(&rows)
            .map(|(e, row)| InjectedEmitter {
                trojan: &e.trojan,
                charge_fc: e.charge_fc,
                coupling: row[sensor],
            })
            .collect();
        r.acquire(
            &Acq {
                scenario: &scenario,
                sensor,
                records: sweep.config().records_per_sensor,
                record_cycles: sweep.config().record_cycles,
                emitters: &injected,
                variation: None,
                fft: true,
            },
            t,
        )?;
    }
    Ok(())
}

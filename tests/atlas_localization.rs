//! Integration: the localization-accuracy atlas — synthetic-Trojan
//! placement sweeps scored in µm. Chip-bound edge cases (off-die
//! rejection, zero drive, localization at a sensor site) plus the
//! engine-level invariant: an atlas campaign's grid of errors is
//! identical at any worker count.

use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::atlas::{PlacementSweep, PlacementSweepConfig, SyntheticEmitter};
use psa_repro::core::chip::TestChip;
use psa_repro::core::error::CoreError;
use psa_repro::layout::emitter::{sweep_grid, EmitterSite};
use psa_repro::layout::{LayoutError, Point};
use psa_repro::runtime::{AtlasCampaign, AtlasCorner, AtlasJob, Engine};
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

/// A reduced sweep configuration: one record per sensor keeps each
/// placement cheap while the emitter lines stay far above the floor.
fn fast_config() -> PlacementSweepConfig {
    PlacementSweepConfig {
        records_per_sensor: 1,
        ..PlacementSweepConfig::default()
    }
}

#[test]
fn off_die_placements_are_rejected() {
    let sweep = PlacementSweep::new(chip(), fast_config()).expect("sweep builds");
    // Centre outside the die.
    let outside = EmitterSite::new(Point::new(-50.0, 500.0), 0.0);
    assert!(matches!(
        sweep.coupling_row(&outside),
        Err(CoreError::Layout(LayoutError::OffDie { .. }))
    ));
    // Centre on-die, but the footprint spills over the edge.
    let spilling = EmitterSite::new(Point::new(10.0, 500.0), 40.0);
    assert!(matches!(
        sweep.coupling_row(&spilling),
        Err(CoreError::Layout(LayoutError::OffDie { .. }))
    ));
    // The full evaluation path surfaces the same error.
    let corner = AtlasCorner::new("nominal", 1.0, 25.0, 7);
    let baseline = {
        let mut ctx = AcqContext::new(chip());
        sweep
            .learn_baseline_with(&mut ctx, &corner.scenario())
            .expect("baseline learns")
    };
    let mut ctx = AcqContext::new(chip());
    let err = sweep.evaluate_enveloped_with(
        &mut ctx,
        &corner.scenario(),
        &SyntheticEmitter::reference_at(outside),
        &baseline,
        &sweep.baseline_envelopes(&baseline),
    );
    assert!(matches!(
        err,
        Err(CoreError::Layout(LayoutError::OffDie { .. }))
    ));
}

#[test]
fn zero_drive_emitter_is_not_detected() {
    let sweep = PlacementSweep::new(chip(), fast_config()).expect("sweep builds");
    let corner = AtlasCorner::new("nominal", 1.0, 25.0, 11);
    let mut ctx = AcqContext::new(chip());
    let baseline = sweep
        .learn_baseline_with(&mut ctx, &corner.scenario())
        .expect("baseline learns");
    let site = EmitterSite::new(Point::new(500.0, 500.0), 40.0);
    let mut quiet = SyntheticEmitter::reference_at(site);
    quiet.trojan.drive_cells = 0.0;
    let outcome = sweep
        .evaluate_enveloped_with(
            &mut ctx,
            &corner.scenario(),
            &quiet,
            &baseline,
            &sweep.baseline_envelopes(&baseline),
        )
        .expect("a silent emitter is not an error");
    assert!(!outcome.detected, "zero drive must not alarm");
    assert_eq!(outcome.predicted_sensor, None);
    assert_eq!(outcome.error_um, None);
    assert_eq!(outcome.centroid_error_um, None);
    assert!(outcome.nearest_sensor_um > 0.0);
}

#[test]
fn emitter_at_a_sensor_centre_localizes_to_it() {
    let sweep = PlacementSweep::new(chip(), fast_config()).expect("sweep builds");
    let corner = AtlasCorner::new("nominal", 1.0, 25.0, 13);
    let mut ctx = AcqContext::new(chip());
    let baseline = sweep
        .learn_baseline_with(&mut ctx, &corner.scenario())
        .expect("baseline learns");
    // Place the reference emitter directly under a central sensor: the
    // predicted sensor must be that one, i.e. error ≈ 0 (well inside
    // half the ~250 µm sensor pitch).
    let target = 5usize;
    let centre = chip()
        .sensor_bank()
        .iter()
        .nth(target)
        .unwrap()
        .footprint()
        .center();
    let emitter = SyntheticEmitter::reference_at(EmitterSite::new(centre, 40.0));
    let outcome = sweep
        .evaluate_enveloped_with(
            &mut ctx,
            &corner.scenario(),
            &emitter,
            &baseline,
            &sweep.baseline_envelopes(&baseline),
        )
        .expect("evaluation runs");
    assert!(outcome.detected, "reference emitter must be detected");
    assert_eq!(outcome.predicted_sensor, Some(target));
    let err = outcome.error_um.expect("detected implies an error figure");
    assert!(err < 125.0, "localization error {err} µm");
    assert!(outcome.top_excess_db > 0.0);
    assert!(outcome.prominent_freq_hz.is_some());
}

#[test]
fn atlas_campaign_is_invariant_under_worker_count() {
    let corners = vec![
        AtlasCorner::new("nominal", 1.0, 25.0, 0xA71A),
        AtlasCorner::new("hot", 1.1, 85.0, 0xA71B),
    ];
    let sites = sweep_grid(chip().floorplan().die(), 2, 2, 100.0, 40.0);
    let jobs: Vec<AtlasJob> = (0..corners.len())
        .flat_map(|c| sites.iter().map(move |&s| AtlasJob::reference(s, c)))
        .collect();

    let run = |workers: usize| {
        let campaign =
            AtlasCampaign::new(chip(), Engine::new(workers), fast_config(), corners.clone())
                .expect("campaign builds");
        campaign.run(&jobs).expect("campaign runs")
    };
    let serial = run(1);
    let parallel = run(3);
    assert_eq!(serial.len(), jobs.len());
    // PartialEq over every f64 field: the grids must match exactly, not
    // approximately — the byte-identical stdout of `localize_atlas`
    // rests on this.
    assert_eq!(serial, parallel);
    // And the sweep actually exercises detection somewhere.
    assert!(
        serial.iter().any(|o| o.outcome.detected),
        "no placement detected anywhere in the invariance grid"
    );
}

#[test]
fn atlas_jobs_reject_unknown_corners() {
    let corners = vec![AtlasCorner::new("nominal", 1.0, 25.0, 1)];
    let campaign = AtlasCampaign::new(chip(), Engine::new(1), fast_config(), corners)
        .expect("campaign builds");
    let site = EmitterSite::new(Point::new(500.0, 500.0), 40.0);
    assert!(campaign.run(&[AtlasJob::reference(site, 5)]).is_err());
    assert!(AtlasCampaign::new(chip(), Engine::new(1), fast_config(), Vec::new()).is_err());
}

//! Integration: the localization-accuracy atlas — synthetic-Trojan
//! placements through the joint localizer, one emitter at a time.
//! Chip-bound edge cases: off-die rejection, zero drive, and
//! localization at a sensor site. The campaign-level invariants (worker
//! count, unknown corners) are pinned in `multi_localization.rs`.

use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::atlas::{PlacementSweepConfig, SyntheticEmitter};
use psa_repro::core::chip::TestChip;
use psa_repro::core::error::CoreError;
use psa_repro::core::multiloc::{JointOutcome, MultiLocConfig, MultiLocalizer};
use psa_repro::layout::emitter::EmitterSite;
use psa_repro::layout::{LayoutError, Point};
use psa_repro::runtime::AtlasCorner;
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

/// A localizer with a reduced sensing configuration: one record per
/// sensor keeps each placement cheap while the emitter lines stay far
/// above the floor.
fn localizer() -> MultiLocalizer<'static> {
    let config = MultiLocConfig {
        sweep: PlacementSweepConfig {
            records_per_sensor: 1,
            ..PlacementSweepConfig::default()
        },
        ..MultiLocConfig::default()
    };
    MultiLocalizer::new(chip(), config).expect("localizer builds")
}

/// Learns `corner`'s baseline and localizes `emitter` alone under the
/// corner's own scenario.
fn localize_one(
    localizer: &MultiLocalizer<'_>,
    corner: &AtlasCorner,
    emitter: &SyntheticEmitter,
) -> Result<JointOutcome, CoreError> {
    let mut ctx = AcqContext::new(chip());
    let baseline = localizer
        .sweep()
        .learn_baseline_with(&mut ctx, &corner.scenario())
        .expect("baseline learns");
    localizer.localize_with(
        &mut ctx,
        &corner.scenario(),
        std::slice::from_ref(emitter),
        &baseline,
        &localizer.sweep().baseline_envelopes(&baseline),
        None,
    )
}

#[test]
fn off_die_placements_are_rejected() {
    let localizer = localizer();
    let sweep = localizer.sweep();
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
    // The full localization path surfaces the same error.
    let corner = AtlasCorner::new("nominal", 1.0, 25.0, 7);
    let err = localize_one(
        &localizer,
        &corner,
        &SyntheticEmitter::reference_at(outside),
    );
    assert!(matches!(
        err,
        Err(CoreError::Layout(LayoutError::OffDie { .. }))
    ));
}

#[test]
fn zero_drive_emitter_is_not_detected() {
    let corner = AtlasCorner::new("nominal", 1.0, 25.0, 11);
    let site = EmitterSite::new(Point::new(500.0, 500.0), 40.0);
    let mut quiet = SyntheticEmitter::reference_at(site);
    quiet.trojan.drive_cells = 0.0;
    let outcome =
        localize_one(&localizer(), &corner, &quiet).expect("a silent emitter is not an error");
    assert!(!outcome.detected, "zero drive must not alarm");
    assert!(outcome.sources.is_empty(), "no detection, no sources");
    assert_eq!(outcome.prominent_freq_hz, None);
    assert_eq!(outcome.centroid_um, None);
}

#[test]
fn emitter_at_a_sensor_centre_localizes_to_it() {
    let corner = AtlasCorner::new("nominal", 1.0, 25.0, 13);
    // Place the reference emitter directly under a central sensor: the
    // predicted sensor (the first source's anchor) must be that one.
    let target = 5usize;
    let centre = chip()
        .sensor_bank()
        .iter()
        .nth(target)
        .unwrap()
        .footprint()
        .center();
    let emitter = SyntheticEmitter::reference_at(EmitterSite::new(centre, 40.0));
    let outcome = localize_one(&localizer(), &corner, &emitter).expect("localization runs");
    assert!(outcome.detected, "reference emitter must be detected");
    assert_eq!(outcome.sources.len(), 1, "one emitter, one source");
    assert_eq!(outcome.sources[0].sensor, target);
    // The matched hypothesis site stays well inside half the ~250 µm
    // sensor pitch (the site grid quantizes, so this bound is geometric).
    let source = &outcome.sources[0];
    let err = Point::new(source.x_um, source.y_um).distance_to(centre);
    assert!(err < 125.0, "matched-site error {err} µm");
    assert!(outcome.centroid_um.is_some(), "detected implies a centroid");
    assert!(outcome.top_excess_db > 0.0);
    assert!(outcome.prominent_freq_hz.is_some());
}

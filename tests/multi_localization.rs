//! Integration: multi-emitter joint localization by successive
//! cancellation. Pins the zero-drive no-source path, K∈{2,3} recovery
//! of count/location/power, baseline and tuple validation, and the
//! engine-level invariant: a joint-localization campaign's outcomes
//! are identical at any worker count.

use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::atlas::{PlacementSweepConfig, SyntheticEmitter};
use psa_repro::core::chip::TestChip;
use psa_repro::core::cross_domain::Baseline;
use psa_repro::core::error::CoreError;
use psa_repro::core::multiloc::{score_sources, MultiLocConfig, MultiLocalizer};
use psa_repro::gatesim::synth::SyntheticTrojan;
use psa_repro::layout::emitter::EmitterSite;
use psa_repro::layout::{LayoutError, Point};
use psa_repro::runtime::{AtlasCorner, Engine, MultilocCampaign, MultilocJob};
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

/// A reduced configuration: one record per sensor keeps each tuple
/// cheap while the emitter lines stay far above the floor.
fn fast_config() -> MultiLocConfig {
    MultiLocConfig {
        sweep: PlacementSweepConfig {
            records_per_sensor: 1,
            ..PlacementSweepConfig::default()
        },
        ..MultiLocConfig::default()
    }
}

/// A reference emitter with an explicit drive, cells.
fn emitter_at(x: f64, y: f64, drive_cells: f64) -> SyntheticEmitter {
    SyntheticEmitter {
        trojan: SyntheticTrojan::am_reference(drive_cells),
        ..SyntheticEmitter::reference_at(EmitterSite::new(Point::new(x, y), 40.0))
    }
}

#[test]
fn zero_drive_tuple_reports_no_sources() {
    let localizer = MultiLocalizer::new(chip(), fast_config()).expect("localizer builds");
    let corner = AtlasCorner::new("nominal", 1.0, 25.0, 0xD0D0);
    let mut ctx = AcqContext::new(chip());
    let baseline = localizer
        .sweep()
        .learn_baseline_with(&mut ctx, &corner.scenario())
        .expect("baseline learns");
    let envelopes = localizer.sweep().baseline_envelopes(&baseline);

    let quiet = [emitter_at(300.0, 300.0, 0.0), emitter_at(700.0, 700.0, 0.0)];
    let outcome = localizer
        .localize_with(
            &mut ctx,
            &corner.scenario().with_seed(0x9A17),
            &quiet,
            &baseline,
            &envelopes,
            None,
        )
        .expect("a silent tuple is not an error");
    assert!(!outcome.detected, "zero drive must not alarm");
    assert!(outcome.sources.is_empty(), "no detection, no sources");
    assert_eq!(outcome.prominent_freq_hz, None);
    assert_eq!(outcome.centroid_um, None);

    let report = score_sources(&quiet, &outcome.sources);
    assert_eq!(report.false_alarm, 0, "phantom sources are the failure");
}

#[test]
fn concurrent_sources_are_counted_located_and_powered() {
    let localizer = MultiLocalizer::new(chip(), fast_config()).expect("localizer builds");
    let corner = AtlasCorner::new("nominal", 1.0, 25.0, 0xBEE5);
    let mut ctx = AcqContext::new(chip());
    let baseline = localizer
        .sweep()
        .learn_baseline_with(&mut ctx, &corner.scenario())
        .expect("baseline learns");
    let envelopes = localizer.sweep().baseline_envelopes(&baseline);
    let calibration = localizer
        .calibrate_with(
            &mut ctx,
            &corner.scenario().with_seed(0xCA11),
            &baseline,
            &envelopes,
        )
        .expect("calibration measures a positive instrument constant");

    let tuple = [
        emitter_at(300.0, 300.0, 800.0),
        emitter_at(700.0, 700.0, 1200.0),
        emitter_at(300.0, 700.0, 500.0),
    ];
    for k in 2..=tuple.len() {
        let truth = &tuple[..k];
        let outcome = localizer
            .localize_with(
                &mut ctx,
                &corner.scenario().with_seed(0x7E57 + k as u64),
                truth,
                &baseline,
                &envelopes,
                Some(&calibration),
            )
            .expect("joint localization runs");
        assert!(outcome.detected);
        assert_eq!(
            outcome.sources.len(),
            k,
            "successive cancellation must recover the source count at K={k}"
        );
        let report = score_sources(truth, &outcome.sources);
        assert_eq!((report.miss, report.false_alarm), (0, 0), "K={k}");
        for pair in &report.pairs {
            assert!(
                pair.error_um < 125.0,
                "K={k} per-source error {} µm",
                pair.error_um
            );
            let power = pair.power_error_db.expect("calibrated run estimates power");
            assert!(power.abs() < 3.0, "K={k} power error {power} dB");
        }
    }
}

#[test]
fn campaign_is_invariant_under_worker_count() {
    let corners = vec![
        AtlasCorner::new("nominal", 1.0, 25.0, 0xA71A),
        AtlasCorner::new("hot", 1.1, 85.0, 0xA71B),
    ];
    let tuples = [
        vec![emitter_at(300.0, 300.0, 800.0)],
        vec![
            emitter_at(300.0, 300.0, 800.0),
            emitter_at(700.0, 700.0, 1200.0),
        ],
    ];
    let jobs: Vec<MultilocJob> = (0..corners.len())
        .flat_map(|corner| {
            tuples.iter().map(move |tuple| MultilocJob {
                corner,
                emitters: tuple.clone(),
            })
        })
        .collect();

    let run = |workers: usize| {
        let campaign =
            MultilocCampaign::new(chip(), Engine::new(workers), fast_config(), corners.clone())
                .expect("campaign builds");
        campaign.run(&jobs).expect("campaign runs")
    };
    let serial = run(1);
    let parallel = run(3);
    assert_eq!(serial.len(), jobs.len());
    // PartialEq over every f64 field: outcomes and scores must match
    // exactly, not approximately — the byte-identical stdout of
    // `multi_localize` rests on this.
    assert_eq!(serial, parallel);
    assert!(
        serial.iter().all(|o| o.outcome.detected),
        "every driven tuple detects"
    );
    // K=1 campaign outcomes carry exactly one source per tuple.
    assert!(serial
        .iter()
        .filter(|o| o.true_count == 1)
        .all(|o| o.outcome.sources.len() == 1));
}

#[test]
fn campaigns_reject_bad_corners_and_tuples() {
    let corners = vec![AtlasCorner::new("nominal", 1.0, 25.0, 1)];
    let campaign = MultilocCampaign::new(chip(), Engine::new(1), fast_config(), corners)
        .expect("campaign builds");

    // Unknown corner index.
    let ok_tuple = vec![emitter_at(500.0, 500.0, 800.0)];
    assert!(campaign
        .run(&[MultilocJob {
            corner: 5,
            emitters: ok_tuple,
        }])
        .is_err());

    // A tuple violating the minimum separation surfaces the layout
    // error through the campaign.
    let crowded = MultilocJob {
        corner: 0,
        emitters: vec![
            emitter_at(500.0, 500.0, 800.0),
            emitter_at(530.0, 500.0, 800.0),
        ],
    };
    let err = campaign.run(&[crowded]);
    assert!(matches!(
        err,
        Err(CoreError::Layout(LayoutError::SitesTooClose { .. }))
    ));

    // No corners, no campaign.
    assert!(MultilocCampaign::new(chip(), Engine::new(1), fast_config(), Vec::new()).is_err());
}

#[test]
fn baselines_of_another_record_length_are_rejected() {
    let localizer = MultiLocalizer::new(chip(), fast_config()).expect("localizer builds");
    let corner = AtlasCorner::new("nominal", 1.0, 25.0, 0xB1B5);
    // Sec. VI-length (8192-cycle) rows handed to the 2048-cycle
    // localizer: bin k would compare two different frequencies. Built
    // directly, so the test acquires no baseline record.
    let bins = psa_repro::dsp::fft::one_sided_len(
        psa_repro::core::calib::RECORD_CYCLES * psa_repro::core::calib::SAMPLES_PER_CYCLE,
    );
    let n_sensors = chip().sensor_bank().len();
    let long = Baseline {
        per_sensor_db: vec![vec![-100.0; bins]; n_sensors],
    };
    let envelopes = localizer.sweep().baseline_envelopes(&long);
    let emitters = [emitter_at(500.0, 500.0, 800.0)];
    let mut ctx = AcqContext::new(chip());
    let invalid = |r: Result<(), CoreError>| matches!(r, Err(CoreError::InvalidParameter { .. }));
    assert!(invalid(
        localizer
            .localize_with(
                &mut ctx,
                &corner.scenario(),
                &emitters,
                &long,
                &envelopes,
                None
            )
            .map(drop)
    ));
    assert!(invalid(
        localizer
            .calibrate_with(&mut ctx, &corner.scenario(), &long, &envelopes)
            .map(drop)
    ));
    assert!(invalid(
        localizer
            .sweep()
            .sense_emitters_with(&mut ctx, &corner.scenario(), &emitters, &envelopes)
            .map(drop)
    ));
}

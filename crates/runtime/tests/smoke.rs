//! Crate smoke tests: the campaign engine against the real chip —
//! parallel output must be byte-identical to serial output.

use psa_core::acquisition::{AcqContext, TraceSet};
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::cross_domain::Baseline;
use psa_core::error::CoreError;
use psa_core::scenario::Scenario;
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::{Campaign, Engine};
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

/// One-record acquisition jobs: a scenario, re-seeded per job, on one
/// sensing selection.
fn jobs() -> Vec<(Scenario, SensorSelect)> {
    vec![
        (Scenario::baseline().with_seed(11), SensorSelect::Psa(10)),
        (
            Scenario::trojan_active(TrojanKind::T4).with_seed(12),
            SensorSelect::Psa(10),
        ),
        (Scenario::baseline().with_seed(13), SensorSelect::Psa(0)),
        (Scenario::noise().with_seed(14), SensorSelect::SingleCoil),
    ]
}

fn acquire(
    campaign: &Campaign,
    jobs: &[(Scenario, SensorSelect)],
) -> Result<Vec<TraceSet>, CoreError> {
    campaign
        .run(jobs, |ctx, _, (scenario, sensor)| {
            ctx.acquire(scenario, *sensor, 1)
        })
        .into_iter()
        .collect()
}

#[test]
fn parallel_acquire_is_byte_identical_to_serial() {
    let serial = Campaign::new(chip(), Engine::serial());
    let parallel = Campaign::new(chip(), Engine::new(4));
    let jobs = jobs();
    let a = acquire(&serial, &jobs).expect("serial acquire");
    let b = acquire(&parallel, &jobs).expect("parallel acquire");
    assert_eq!(a, b);
    // And per-job seeding means distinct jobs produce distinct records.
    assert_ne!(a[0].records, a[2].records);
}

#[test]
fn parallel_spectra_are_byte_identical_to_serial() {
    let serial = Campaign::new(chip(), Engine::serial());
    let parallel = Campaign::new(chip(), Engine::new(3));
    let jobs = jobs();
    let spectra = |campaign: &Campaign| {
        campaign
            .run(&jobs, |ctx, _, (scenario, sensor)| {
                ctx.acquire_fullres_spectrum_db(scenario, *sensor, 1)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    };
    let a = spectra(&serial).expect("serial spectra");
    let b = spectra(&parallel).expect("parallel spectra");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert!(x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()));
    }
}

#[test]
fn parallel_baseline_matches_core_serial_baseline() {
    // Campaign::learn_baseline fans sensors across workers; the result
    // must be byte-identical to one context's serial sensor sweep.
    let campaign = Campaign::new(chip(), Engine::new(4));
    let parallel = campaign.learn_baseline(0xB45E);
    let serial = Baseline::learn_with(&mut AcqContext::new(chip()), 0xB45E);
    assert_eq!(parallel.per_sensor_db.len(), serial.per_sensor_db.len());
    for (p, s) in parallel.per_sensor_db.iter().zip(&serial.per_sensor_db) {
        assert!(p.iter().zip(s).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

#[test]
fn invalid_job_surfaces_error() {
    let campaign = Campaign::new(chip(), Engine::new(2));
    let bad = vec![(Scenario::baseline(), SensorSelect::Psa(99))];
    assert!(acquire(&campaign, &bad).is_err());
}

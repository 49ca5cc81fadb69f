//! Integration: the fleet-scale streaming monitor — per-die variation,
//! sharded baselines, and the multiplexed round-robin stream — must be
//! byte-identical at any worker count and must actually detect the
//! infected dies it seeds.

use psa_repro::core::chip::{ChipVariation, TestChip};
use psa_repro::runtime::fleet::{Fleet, FleetConfig, FleetReport};
use psa_repro::runtime::Engine;
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

/// A small fleet that still exercises every moving part: multiple
/// shards, infected and clean dies, more than one Trojan kind.
fn small_config() -> FleetConfig {
    FleetConfig {
        chips: 6,
        records: 3,
        baseline_records: 2,
        infect_every: 3,
        shard_chips: 2,
    }
}

#[test]
fn fleet_run_is_worker_count_invariant() {
    let config = small_config();
    let fleet = Fleet::new(chip(), config).unwrap();

    let serial = Engine::new(1);
    let base_serial = fleet.learn_baselines(&serial).unwrap();
    let out_serial = fleet.run(&serial, &base_serial).unwrap();

    let parallel = Engine::new(3);
    let base_parallel = fleet.learn_baselines(&parallel).unwrap();
    let out_parallel = fleet.run(&parallel, &base_parallel).unwrap();

    // Sharded learning merges in submission order: bit-identical store.
    assert_eq!(base_serial, base_parallel);
    // The multiplexed stream's outcomes are invariant too.
    assert_eq!(out_serial, out_parallel);

    let report = FleetReport::from_outcomes(&out_serial, fleet.config());
    assert_eq!(report.chips, 6);
    assert_eq!(report.records, 18);
    assert_eq!(report.infected, 2);
    // The seeded Trojans are real detections, not a formatting artifact.
    assert!(report.detected >= 1, "report:\n{report}");
    assert_eq!(format!("{report}"), {
        let again = FleetReport::from_outcomes(&out_parallel, fleet.config());
        format!("{again}")
    });
}

#[test]
fn fleet_dies_are_distinct_but_reproducible() {
    let fleet = Fleet::new(chip(), small_config()).unwrap();
    let v0 = fleet.variation(0);
    let v1 = fleet.variation(1);
    assert_ne!(v0, v1, "two dies must not share a variation");
    assert_eq!(v0, fleet.variation(0), "a die must reproduce itself");
    // Infection pattern: every third chip here, kinds cycling.
    assert!(fleet.infected(0) && fleet.infected(3));
    assert!(!fleet.infected(1) && !fleet.infected(2));
    let s0 = fleet.schedule(0);
    let s3 = fleet.schedule(3);
    assert_eq!(s0.first_activation_record(), Some(1));
    assert_eq!(s3.first_activation_record(), Some(1));
    assert!(fleet.schedule(1).first_activation_record().is_none());
    // Nominal variation stays the exact identity the acquisition layer
    // relies on.
    assert_eq!(ChipVariation::nominal().noise_scale(), 1.0);
}

#[test]
fn fleet_validation_rejects_bad_shapes() {
    let bad = |f: fn(&mut FleetConfig)| {
        let mut c = small_config();
        f(&mut c);
        Fleet::new(chip(), c).is_err()
    };
    assert!(bad(|c| c.chips = 0));
    assert!(bad(|c| c.records = 0));
    assert!(bad(|c| c.baseline_records = 0));
    assert!(bad(|c| c.shard_chips = 0));
    assert!(bad(|c| c.infect_every = 0));
    // Trojans activate at record 1: a one-record stream ends first.
    assert!(bad(|c| c.records = 1));

    // Baselines must match the fleet they serve.
    let fleet = Fleet::new(chip(), small_config()).unwrap();
    let other = Fleet::new(
        chip(),
        FleetConfig {
            chips: 2,
            ..small_config()
        },
    )
    .unwrap();
    let engine = Engine::new(1);
    let two_chip_store = other.learn_baselines(&engine).unwrap();
    assert!(fleet.run(&engine, &two_chip_store).is_err());
}

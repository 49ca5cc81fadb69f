//! Integration across the substrate crates: cross-crate invariants that
//! no single crate can check alone.

use psa_repro::array::program::SENSOR_TURNS;
use psa_repro::array::sensors::SensorBank;
use psa_repro::core::acquisition::AcqContext;
use psa_repro::core::chip::{SensorSelect, TestChip};
use psa_repro::core::scenario::Scenario;
use psa_repro::gatesim::activity::Source;
use psa_repro::gatesim::trojan::TrojanKind;
use psa_repro::layout::floorplan::{Floorplan, ModuleKind};
use std::sync::OnceLock;

fn chip() -> &'static TestChip {
    static CHIP: OnceLock<TestChip> = OnceLock::new();
    CHIP.get_or_init(TestChip::date24)
}

#[test]
fn gatesim_and_layout_agree_on_table2() {
    // Trojan cell counts live in two crates (the Trojan models and the
    // floorplan); they must agree with Table II and each other.
    let fp = Floorplan::date24_test_chip();
    for (kind, module) in [
        (TrojanKind::T1, ModuleKind::TrojanT1),
        (TrojanKind::T2, ModuleKind::TrojanT2),
        (TrojanKind::T3, ModuleKind::TrojanT3),
        (TrojanKind::T4, ModuleKind::TrojanT4),
    ] {
        assert_eq!(
            kind.cell_count(),
            fp.module(module).expect("placed").cell_count,
            "{kind} count mismatch between gatesim and layout"
        );
    }
    assert_eq!(fp.total_cells(), 28_806);
}

#[test]
fn sensor_bank_and_couplings_are_consistent() {
    // Every preset sensor extracts as one spiral and has couplings for
    // every activity source.
    let bank = SensorBank::date24_default();
    assert_eq!(bank.len(), 16);
    for (i, s) in bank.iter().enumerate() {
        assert_eq!(s.coil().switch_count(), 4 * SENSOR_TURNS);
        let couplings = chip()
            .couplings_for(SensorSelect::Psa(i))
            .expect("in range");
        assert_eq!(couplings.len(), Source::ALL.len());
        assert!(
            couplings.iter().any(|k| k.abs() > 0.0),
            "sensor {i} couples to nothing"
        );
    }
}

#[test]
fn trojans_sit_under_sensor10_footprint() {
    let bank = SensorBank::date24_default();
    let fp10 = bank.sensor(10).expect("sensor 10").footprint();
    let plan = chip().floorplan();
    for kind in [
        ModuleKind::TrojanT1,
        ModuleKind::TrojanT2,
        ModuleKind::TrojanT3,
        ModuleKind::TrojanT4,
    ] {
        let t = plan.module(kind).expect("Trojan module");
        assert!(
            fp10.contains(t.region.min()) && fp10.contains(t.region.max()),
            "{} outside sensor 10",
            t.kind
        );
    }
}

#[test]
fn acquisition_chain_end_to_end_shapes() {
    // gatesim → field → analog: one acquisition produces the expected
    // record shape and a spectrum with the 33 MHz clock line.
    let mut ctx = AcqContext::new(chip());
    let traces = ctx
        .acquire(&Scenario::baseline().with_seed(5), SensorSelect::Psa(10), 2)
        .expect("acquire");
    assert_eq!(traces.records.len(), 2);
    assert_eq!(traces.records[0].len(), 65_536);
    let spec = ctx.fullres_spectrum_db(&traces).expect("spectrum");
    assert_eq!(spec.len(), 65_536 / 2 + 1);
    let clock_bin = ctx.fullres_freq_bin(33.0e6);
    let floor_bin = ctx.fullres_freq_bin(25.0e6);
    assert!(
        spec[clock_bin] > spec[floor_bin] + 20.0,
        "clock harmonic missing: {} vs {}",
        spec[clock_bin],
        spec[floor_bin]
    );
}

#[test]
fn all_probe_selections_acquire() {
    let mut ctx = AcqContext::new(chip());
    for select in SensorSelect::BASELINES {
        let traces = ctx
            .acquire(&Scenario::baseline().with_seed(6), select, 1)
            .expect("probe acquires");
        assert_eq!(traces.records[0].len(), 65_536);
    }
}

#[test]
fn vt_corners_do_not_break_acquisition() {
    // Sec. VI-C: the chain keeps working across supply and temperature
    // corners (the T-gate model changes impedance, not functionality).
    let mut ctx = AcqContext::new(chip());
    for (vdd, temp) in [(0.8, -40.0), (1.0, 25.0), (1.2, 125.0)] {
        let scenario = Scenario::baseline()
            .with_seed(8)
            .with_vdd(vdd)
            .with_temp_c(temp);
        let traces = ctx
            .acquire(&scenario, SensorSelect::Psa(10), 1)
            .expect("acquire at corner");
        let rms = {
            let r = &traces.records[0];
            (r.iter().map(|v| v * v).sum::<f64>() / r.len() as f64).sqrt()
        };
        assert!(rms > 0.0, "silent at vdd {vdd}, {temp} C");
    }
}

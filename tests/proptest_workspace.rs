//! Workspace-level property tests: invariants that span crates.
//!
//! The container has no network access, so instead of the `proptest`
//! crate these properties are checked over a deterministic seeded sweep:
//! every case derives its inputs from `SmallRng`, which keeps failures
//! reproducible (the failing seed is in the assertion message).

use psa_repro::array::coil::{extract_all_cycles, extract_coil, program_spiral};
use psa_repro::array::lattice::Lattice;
use psa_repro::array::program::SwitchMatrix;
use psa_repro::array::tgate::TGate;
use psa_repro::dsp::rng::SmallRng;
use psa_repro::field::dipole::Dipole;
use psa_repro::gatesim::activity::{ActivitySimulator, ChipConfig, Source};
use psa_repro::layout::{Point, Rect};

const CASES: u64 = 24;

fn in_range(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_f64()
}

fn index_in(rng: &mut SmallRng, lo: usize, hi: usize) -> usize {
    lo + rng.gen_index(hi - lo)
}

/// Any valid rectangle programming extracts exactly one 4-switch
/// coil whose enclosed area matches the node geometry.
#[test]
fn rectangle_programming_roundtrip() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let r0 = index_in(&mut rng, 0, 20);
        let c0 = index_in(&mut rng, 0, 20);
        let dr = index_in(&mut rng, 2, 15);
        let dc = index_in(&mut rng, 2, 15);
        let lattice = Lattice::date24();
        let mut m = SwitchMatrix::new(&lattice);
        m.program_rectangle(r0, c0, r0 + dr, c0 + dc).unwrap();
        let coil = extract_coil(&lattice, &m).unwrap();
        assert_eq!(coil.switch_count(), 4, "seed {case}");
        let expected = (dr as f64 * lattice.pitch_um()) * (dc as f64 * lattice.pitch_um());
        assert!(
            (coil.enclosed_area_um2() - expected).abs() < 1e-6,
            "seed {case}"
        );
    }
}

/// Any spiral programming with valid extent extracts exactly one
/// cycle of 4·turns switches.
#[test]
fn spiral_programming_roundtrip() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let r0 = index_in(&mut rng, 0, 8);
        let c0 = index_in(&mut rng, 0, 8);
        let extent = index_in(&mut rng, 12, 27);
        let turns = index_in(&mut rng, 1, 6);
        let lattice = Lattice::date24();
        let mut m = SwitchMatrix::new(&lattice);
        program_spiral(&mut m, r0, c0, r0 + extent, c0 + extent, turns).unwrap();
        let cycles = extract_all_cycles(&lattice, &m).unwrap();
        assert_eq!(cycles.len(), 1, "seed {case}");
        assert_eq!(cycles[0].switch_count(), 4 * turns, "seed {case}");
    }
}

/// T-gate resistance is monotone in both supply and temperature
/// across the whole operating envelope.
#[test]
fn tgate_monotonicity() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let v = in_range(&mut rng, 0.8, 1.25);
        let dv = in_range(&mut rng, 0.01, 0.2);
        let t = in_range(&mut rng, -40.0, 110.0);
        let dt = in_range(&mut rng, 1.0, 40.0);
        let tg = TGate::date24();
        assert!(tg.r_on_ohm(v + dv, t) < tg.r_on_ohm(v, t), "seed {case}");
        assert!(tg.r_on_ohm(v, t + dt) > tg.r_on_ohm(v, t), "seed {case}");
    }
}

/// Dipole flux through a loop directly above always beats the same
/// loop shifted far to the side (localization invariant).
#[test]
fn flux_locality() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let x = in_range(&mut rng, 100.0, 900.0);
        let y = in_range(&mut rng, 100.0, 900.0);
        let side = in_range(&mut rng, 50.0, 250.0);
        let d = Dipole::new(Point::new(x, y), 1.0e-12);
        let square = |cx: f64| {
            Rect::new(
                cx - side / 2.0,
                y - side / 2.0,
                cx + side / 2.0,
                y + side / 2.0,
            )
        };
        let over = square(x);
        let away = square(if x < 500.0 { x + 600.0 } else { x - 600.0 });
        let k_over = d.flux_through_polygon(&over.to_polygon(), 4.8).abs();
        let k_away = d.flux_through_polygon(&away.to_polygon(), 4.8).abs();
        assert!(k_over > 5.0 * k_away, "seed {case}");
    }
}

/// The activity simulator is deterministic and continuous for any
/// window split.
#[test]
fn activity_window_split() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let total = index_in(&mut rng, 24, 200);
        let split = index_in(&mut rng, 1, 23).min(total - 1);
        let mut one = ActivitySimulator::new(ChipConfig::default());
        let whole = one.advance(total);
        let mut two = ActivitySimulator::new(ChipConfig::default());
        let first = two.advance(split);
        let second = two.advance(total - split);
        for s in Source::ALL {
            let joined: Vec<f64> = first.per_source[&s]
                .iter()
                .chain(&second.per_source[&s])
                .copied()
                .collect();
            assert_eq!(&joined, &whole.per_source[&s], "seed {case}");
        }
    }
}

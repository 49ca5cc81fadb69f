//! Ablation study for the design choices DESIGN.md calls out:
//!
//! 1. **Sensor turn count** — single-turn loops vs the 6-turn spirals of
//!    the test chip: coupling uniformity across the footprint and the
//!    coupling contrast sensor 10 enjoys over its neighbours.
//! 2. **Detection RBW** — how the small-Trojan (T3) sideband excess
//!    grows as records lengthen (the reason the monitor uses 65 536-
//!    sample records).
//!
//! ```text
//! cargo run --release -p psa-bench --bin ablation
//! ```

use psa_array::coil::{extract_coil, program_spiral};
use psa_array::lattice::Lattice;
use psa_array::program::{date24_sensor_nodes, SwitchMatrix};
use psa_core::report::Table;
use psa_field::dipole::Dipole;
use psa_layout::Point;

fn main() {
    turn_count_ablation();
    println!();
    rbw_ablation();
}

/// Couples a probe dipole at several positions inside sensor 10's
/// footprint into coils of 1..6 turns and reports uniformity.
fn turn_count_ablation() {
    println!("== Ablation 1: sensor turn count (coupling uniformity) ==");
    let lattice = Lattice::date24();
    let (r0, c0, r1, c1) = date24_sensor_nodes()[10];
    let center = Point::new(628.6, 628.6);
    let edge = Point::new(480.0, 628.6); // near the footprint's left edge
    let outside = Point::new(350.0, 628.6); // a sensor pitch away

    let mut t = Table::new(vec![
        "turns".into(),
        "k(center)".into(),
        "k(edge)".into(),
        "k(outside)".into(),
        "edge/center".into(),
        "outside/center".into(),
    ]);
    for turns in [1usize, 2, 4, 6] {
        let mut m = SwitchMatrix::new(&lattice);
        program_spiral(&mut m, r0, c0, r1, c1, turns).expect("programs");
        let coil = extract_coil(&lattice, &m).expect("extracts");
        let poly = coil.to_polygon().expect("polygon");
        let k = |p: Point| Dipole::new(p, 1.0).flux_through_polygon(&poly, 4.8).abs();
        let (kc, ke, ko) = (k(center), k(edge), k(outside));
        t.row(vec![
            turns.to_string(),
            format!("{kc:.2e}"),
            format!("{ke:.2e}"),
            format!("{ko:.2e}"),
            format!("{:.2}", ke / kc),
            format!("{:.3}", ko / kc),
        ]);
    }
    print!("{}", t.render());
    println!(
        "(multi-turn winding raises in-footprint coupling and its uniformity,\n\
         which is what makes footprint-based localization work — DESIGN.md)"
    );
}

/// Measures T3's 48 MHz excess at several record lengths.
fn rbw_ablation() {
    use psa_core::chip::{SensorSelect, TestChip};
    use psa_core::scenario::Scenario;
    use psa_dsp::spectrum;
    use psa_gatesim::trojan::TrojanKind;

    println!("== Ablation 2: detection RBW vs T3 sideband visibility ==");
    let chip = TestChip::date24();
    // One long acquisition per condition (two engine jobs), re-analyzed
    // at different window lengths.
    let engine =
        psa_bench::harness::engine_from_cli(&std::env::args().skip(1).collect::<Vec<String>>());
    let campaign = psa_runtime::Campaign::new(&chip, engine);
    let jobs = [
        (Scenario::baseline(), 61),
        (Scenario::trojan_active(TrojanKind::T3), 62),
    ];
    let mut acquired = campaign
        .run(&jobs, |ctx, _, (scenario, seed)| {
            ctx.acquire(&scenario.clone().with_seed(*seed), SensorSelect::Psa(10), 5)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("ablation traces");
    let act = acquired.pop().expect("two jobs");
    let base = acquired.pop().expect("two jobs");

    let mut t = Table::new(vec![
        "window (samples)".into(),
        "RBW".into(),
        "T3 excess @48 MHz".into(),
    ]);
    let fs = psa_core::calib::sample_rate_hz();
    for exp in [12u32, 13, 14, 15, 16] {
        let n = 1usize << exp;
        let spec_of = |records: &[Vec<f64>]| {
            let windows: Vec<Vec<f64>> = records
                .iter()
                .flat_map(|r| r.chunks_exact(n).map(|c| c.to_vec()))
                .collect();
            let linear: Vec<Vec<f64>> = windows
                .iter()
                .map(|w| spectrum::amplitude_spectrum(w, psa_dsp::window::Window::Hann))
                .collect();
            spectrum::average_traces(&linear).expect("windows align")
        };
        let b = spec_of(&base.records);
        let a = spec_of(&act.records);
        let bin = psa_dsp::fft::freq_bin(48.0e6, n, fs);
        let excess = (bin.saturating_sub(2)..=bin + 2)
            .map(|k| spectrum::amplitude_db(a[k]) - spectrum::amplitude_db(b[k]))
            .fold(f64::MIN, f64::max);
        t.row(vec![
            n.to_string(),
            format!("{:.1} kHz", fs / n as f64 / 1e3),
            format!("{excess:+.1} dB"),
        ]);
    }
    print!("{}", t.render());
    println!("(finer RBW lifts the coherent T3 line out of the AES data noise)");
}

//! Detection probability vs trace budget — the experiment behind
//! Table I's "Measurement #" row.
//!
//! ```text
//! cargo run --release -p psa-bench --bin traces_sweep [--jobs N]
//! ```
//!
//! The PSA detector is run with 1–5 traces; the single-coil Euclidean
//! baseline with growing trace budgets. The PSA detects every Trojan at
//! its smallest budget, while the baseline's verdict on the small Trojan
//! T3 stays negative no matter how many traces it spends (its per-trace
//! discriminability, not statistics, is the binding constraint).
//!
//! Every `(budget, Trojan)` cell is one engine job.

use psa_core::calib;
use psa_core::chip::{SensorSelect, TestChip};
use psa_core::detector::{Detector, EuclideanDetector};
use psa_core::report::Table;
use psa_core::scenario::Scenario;
use psa_dsp::peak;
use psa_gatesim::trojan::TrojanKind;
use psa_runtime::{Campaign, Engine};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = psa_bench::harness::engine_from_cli(&args);
    println!("== Detection vs trace budget (Table I, 'Measurement #') ==");
    let chip = TestChip::date24();
    psa_sweep(&chip, &engine);
    println!();
    baseline_sweep(&chip, &engine);
}

/// PSA: single-sensor detection decision with 1..=5 traces.
fn psa_sweep(chip: &TestChip, engine: &Engine) {
    let campaign = Campaign::new(chip, *engine);
    let baseline = campaign.learn_baseline(0xBA5E);
    let base_env =
        peak::local_max_envelope(&baseline.per_sensor_db[10], calib::ENVELOPE_HALF_WINDOW);

    let budgets = [1usize, 2, 3, 5];
    let mut jobs: Vec<(usize, TrojanKind)> = Vec::new();
    for &n in &budgets {
        for kind in TrojanKind::ALL {
            jobs.push((n, kind));
        }
    }
    let verdicts = campaign.run(&jobs, |ctx, _, &(n, kind)| {
        let scenario = Scenario::trojan_active(kind).with_seed(600);
        let spec = ctx
            .acquire_fullres_spectrum_db(&scenario, SensorSelect::Psa(10), n)
            .expect("spectrum");
        !peak::excess_over_baseline_db(&spec, &base_env, calib::DETECTION_THRESHOLD_DB).is_empty()
    });

    let mut t = Table::new(vec![
        "traces".into(),
        "T1".into(),
        "T2".into(),
        "T3".into(),
        "T4".into(),
    ]);
    for (row_idx, &n) in budgets.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for col in 0..TrojanKind::ALL.len() {
            let hit = verdicts[row_idx * TrojanKind::ALL.len() + col];
            row.push(if hit { "DETECT" } else { "miss" }.into());
        }
        t.row(row);
    }
    println!("PSA (sensor 10 watch):");
    print!("{}", t.render());
}

/// Single-coil Euclidean baseline with growing budgets.
fn baseline_sweep(chip: &TestChip, engine: &Engine) {
    let campaign = Campaign::new(chip, *engine);
    let budgets = [10usize, 30, 60, 120];
    let mut jobs: Vec<(usize, TrojanKind)> = Vec::new();
    for &per_side in &budgets {
        for kind in TrojanKind::ALL {
            jobs.push((per_side, kind));
        }
    }
    let verdicts = campaign.run(&jobs, |ctx, _, &(per_side, kind)| {
        let det = EuclideanDetector::single_coil(per_side);
        det.detect_with(ctx, &Scenario::trojan_active(kind).with_seed(600))
            .expect("detect")
            .detected
    });

    let mut t = Table::new(vec![
        "traces (ref+test)".into(),
        "T1".into(),
        "T2".into(),
        "T3".into(),
        "T4".into(),
    ]);
    for (row_idx, &per_side) in budgets.iter().enumerate() {
        let mut row = vec![format!("{}", 2 * per_side)];
        for col in 0..TrojanKind::ALL.len() {
            let hit = verdicts[row_idx * TrojanKind::ALL.len() + col];
            row.push(if hit { "DETECT" } else { "miss" }.into());
        }
        t.row(row);
    }
    println!("single on-chip coil + Euclidean statistics:");
    print!("{}", t.render());
    println!(
        "(T3 stays undetected once the reference spread is well estimated —\n \
         per-trace SNR, not statistics, is the binding constraint; verdicts at\n \
         tiny budgets are unstable because the 3-sigma threshold itself is\n \
         noisy. The paper's Table I reports the same shape.)"
    );
}

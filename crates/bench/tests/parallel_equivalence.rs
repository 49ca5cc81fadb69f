//! The engine's core guarantee, asserted end to end: the Table I
//! campaign run with one worker and with several workers produces
//! bit-identical `MethodSummary` rows (and therefore byte-identical
//! rendered tables).

use psa_bench::experiments::{self, MethodSummary, SharedArtifacts, RUNTIME_BASELINE_SEED};
use psa_core::chip::TestChip;
use psa_runtime::{Campaign, Engine};

/// The Table I campaign with its run-time baseline learned on `engine`
/// (the self-contained path the `table1` binary takes).
fn table1(chip: &TestChip, engine: &Engine) -> Vec<MethodSummary> {
    let baseline = Campaign::new(chip, *engine).learn_baseline(RUNTIME_BASELINE_SEED);
    experiments::table1_campaign_with(chip, 1, engine, &SharedArtifacts::lazy(baseline))
}

fn assert_bitwise_equal(a: &[MethodSummary], b: &[MethodSummary]) {
    assert_eq!(a.len(), b.len(), "row count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name);
        assert_eq!(
            x.detection_rate.to_bits(),
            y.detection_rate.to_bits(),
            "{}: detection rate {} vs {}",
            x.name,
            x.detection_rate,
            y.detection_rate
        );
        assert_eq!(x.localization, y.localization, "{}", x.name);
        assert_eq!(x.measurements, y.measurements, "{}", x.name);
        // NaN-safe: backscatter's SNR column is n/a (NaN) by design.
        assert_eq!(x.snr_db.to_bits(), y.snr_db.to_bits(), "{}", x.name);
        assert_eq!(x.runtime, y.runtime, "{}", x.name);
    }
}

#[test]
// Timing here is log-only context for the bitwise comparison; the
// wall-clock contract (clippy.toml) does not gate test diagnostics.
#[allow(clippy::disallowed_methods)]
fn table1_campaign_parallel_matches_serial_bitwise() {
    let chip = experiments::build_chip();
    let t_serial = std::time::Instant::now();
    let serial = table1(&chip, &Engine::serial());
    let serial_s = t_serial.elapsed().as_secs_f64();
    let t_parallel = std::time::Instant::now();
    let parallel = table1(&chip, &Engine::new(3));
    let parallel_s = t_parallel.elapsed().as_secs_f64();
    // The logged timing comparison (speedup shows up on multi-core
    // runners; on a single core the engine must merely not corrupt
    // results).
    eprintln!(
        "[parallel-equivalence] table1 campaign: serial {serial_s:.2} s, 3 workers {parallel_s:.2} s"
    );
    assert_bitwise_equal(&serial, &parallel);
    // Sanity on campaign content: all four Table I methods are present.
    assert_eq!(serial.len(), 4);
    assert!(serial.iter().any(|m| m.name.contains("PSA")));
    // The PSA method detects everything in this regime.
    let psa = serial.iter().find(|m| m.name.contains("PSA")).unwrap();
    assert_eq!(psa.detection_rate, 1.0);
}

//! Regenerates Table I — comparison of EM side-channel methods.
//!
//! The campaign runs on the parallel engine (`--jobs N` / `PSA_JOBS`);
//! output is byte-identical at any worker count, and the timing line
//! goes to stderr so serial/parallel stdout can be diffed directly.

use psa_bench::experiments;
use psa_runtime::Campaign;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = psa_bench::harness::engine_from_cli(&args);
    println!("== Table I: comparison of EM side-channel data collection methods ==");
    let chip = experiments::build_chip();
    // Sanctioned wall-clock read: feeds the stderr timing line only,
    // never a byte-compared artifact (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let baseline = Campaign::new(&chip, engine).learn_baseline(experiments::RUNTIME_BASELINE_SEED);
    print!(
        "{}",
        experiments::table1(&chip, 2, &engine, &baseline).render()
    );
    eprintln!(
        "[psa-runtime] table1 campaign: {} worker(s), wall {:.2} s",
        engine.workers(),
        t0.elapsed().as_secs_f64()
    );
}

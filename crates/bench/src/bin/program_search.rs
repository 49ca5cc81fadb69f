//! SNR-driven programming search: custom switch-matrix sensors vs the
//! 16 presets and the commercial-probe baselines (Sec. V, made
//! searchable).
//!
//! ```text
//! program_search [--jobs N] [--rounds R] [--beam B] [--trojan T] [--bench-json [PATH]]
//! ```
//!
//! For each Trojan kind (or just `--trojan T3`), seeds a deterministic
//! beam search with the 16 preset programmings, expands node-rectangle
//! neighbourhoods for up to `R` rounds (default 4, beam default 4), and
//! prints the searched-vs-preset detection-SNR table plus the fixed
//! probe baselines measured under the identical statistic. Stdout is
//! byte-identical at any worker count — CI `cmp`s `--jobs 1` against
//! `PSA_JOBS=2`; timing/engine chatter goes to stderr, and
//! `--bench-json` writes the per-stage wall times (default path
//! `BENCH_program_search.json`).

use psa_bench::experiments;
use psa_bench::harness::{bench_json_path, engine_from_cli, positive_usize_arg, ArtifactTimer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = engine_from_cli(&args);
    let json_path = bench_json_path(&args, "BENCH_program_search.json");
    let rounds = positive_usize_arg(&args, "--rounds", 4);
    let beam = positive_usize_arg(&args, "--beam", 4);
    let kinds = experiments::trojan_kinds_from_cli(&args);
    let config = experiments::search_config(rounds, beam);
    let mut timer = ArtifactTimer::new();

    println!("== Programming search: searched custom sensors vs presets (Sec. V) ==");
    let chip = timer.time("build_chip", None, experiments::build_chip);
    let outcomes = timer.time("program_search", None, || {
        experiments::search_outcomes(&chip, &engine, &kinds, &config)
    });
    print!("{}", experiments::search_report_text(&config, &outcomes));

    let evaluated: usize = outcomes.iter().map(|o| o.report.evaluated).sum();
    eprintln!(
        "[psa-runtime] program_search: {} worker(s), {} programming(s) evaluated, total wall {:.2} s",
        engine.workers(),
        evaluated,
        timer.total_s()
    );
    for (name, secs, _) in timer.entries() {
        eprintln!("[psa-runtime]   {name:<16} {secs:>9.3} s");
    }
    if let Some(path) = json_path {
        timer
            .write_json(&path, engine.workers())
            .expect("bench-json path is writable");
        eprintln!("[psa-runtime] wrote {}", path.display());
    }
}

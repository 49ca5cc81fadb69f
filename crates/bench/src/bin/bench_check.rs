//! The CI bench-regression gate: fails when a fresh `BENCH_*.json`
//! timing artifact regresses beyond a ratio of its committed seed.
//!
//! ```text
//! bench_check <seed.json> <current.json>
//! ```
//!
//! Every stage is gated on its cost per unit — seconds per record when
//! it carries a record count, its wall time otherwise — which must stay
//! within [`regress::MAX_RATIO`] (2.5×, loose enough for shared-runner
//! jitter) of its seed's. A wall-only stage whose seed ran under
//! [`regress::MIN_SEED_S`] (50 ms) is noise and never gated; an unseeded
//! wall-only stage is forgiven only with a clear margin under that
//! floor (measured under 25 ms), so a stage hovering at the floor fails
//! consistently instead of flapping. A counted stage is always gated.
//! Exit status: 0 pass; 1 when a stage regressed, vanished from the
//! current run, or has no seed counterpart; 2 usage/parse error
//! (including any flag, and a missing seed file under
//! `benchmarks/seed/`).

use psa_bench::regress;

const USAGE: &str = "usage: bench_check <seed.json> <current.json>";

/// The two paths, or a usage error: the gate takes no flags.
fn parse_args(args: &[String]) -> Result<(&str, &str), String> {
    match args {
        [seed, current] if !seed.starts_with('-') && !current.starts_with('-') => {
            Ok((seed, current))
        }
        _ => Err(USAGE.to_string()),
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (seed_path, current_path) = parse_args(&args)?;

    let seed_text =
        std::fs::read_to_string(seed_path).map_err(|e| format!("read {seed_path}: {e}"))?;
    let current_text =
        std::fs::read_to_string(current_path).map_err(|e| format!("read {current_path}: {e}"))?;
    let seed = regress::parse_bench_json(&seed_text).map_err(|e| format!("{seed_path}: {e}"))?;
    let current =
        regress::parse_bench_json(&current_text).map_err(|e| format!("{current_path}: {e}"))?;

    println!(
        "bench_check: seed {seed_path} ({} workers) vs current {current_path} ({} workers), \
         max-ratio {} on cost per unit, noise floor {} s for wall-only stages",
        seed.workers.map_or("?".into(), |w| w.to_string()),
        current.workers.map_or("?".into(), |w| w.to_string()),
        regress::MAX_RATIO,
        regress::MIN_SEED_S,
    );
    if let Some(note) = workers_mismatch_note(seed.workers, current.workers) {
        println!("{note}");
    }
    let (report, pass) = regress::render_report(&regress::compare(&seed, &current));
    print!("{report}");
    Ok(pass)
}

/// A visible (non-fatal) note when the seed document was captured at a
/// different worker count than the current run — the gates compare
/// machine shapes, so a mismatch is the first thing to rule out when a
/// ratio looks surprising.
fn workers_mismatch_note(seed: Option<u64>, current: Option<u64>) -> Option<String> {
    match (seed, current) {
        (Some(s), Some(c)) if s != c => Some(format!(
            "note: worker-count mismatch (seed captured at {s}, current run at {c}) — \
             ratios compare different machine shapes"
        )),
        _ => None,
    }
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn notes_worker_count_mismatch_only() {
        assert!(workers_mismatch_note(Some(4), Some(1))
            .unwrap()
            .contains("seed captured at 4, current run at 1"));
        assert_eq!(workers_mismatch_note(Some(2), Some(2)), None);
        assert_eq!(workers_mismatch_note(None, Some(2)), None);
        assert_eq!(workers_mismatch_note(Some(2), None), None);
    }

    #[test]
    fn accepts_exactly_two_paths() {
        let a = args(&["a.json", "b.json"]);
        assert_eq!(parse_args(&a), Ok(("a.json", "b.json")));
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            &["a.json"][..],
            &["a.json", "b.json", "c.json"],
            &["a.json", "b.json", "--max-ratio", "3.0"],
            &["--min-seed-s=0.2", "a.json", "b.json"],
            &["a.json", "b.json", "--rates"],
            &["--rates", "b.json"],
            &["a.json", "--bogus"],
        ] {
            assert_eq!(parse_args(&args(bad)), Err(USAGE.to_string()), "{bad:?}");
        }
    }
}

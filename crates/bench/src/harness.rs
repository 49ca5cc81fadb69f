//! Minimal wall-clock micro-benchmark harness.
//!
//! The container that builds this workspace has no network access, so
//! Criterion is unavailable; this std-only harness keeps the
//! `cargo bench` entry points alive with the same shape: named
//! benchmarks, warm-up, multiple timed samples, and a median/min/mean
//! report. Registered via `harness = false` in the bench target.

// This module is the workspace's one sanctioned wall-clock reader: it
// exists to time artifacts, so the clippy leg of the wallclock-in-lib
// contract is lifted for the whole file (psa-lint carves out the same
// exception by path).
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Builds the campaign engine from CLI arguments and the `PSA_JOBS`
/// environment variable, exiting with status 2 and a clear message on a
/// malformed `--jobs` flag (`--jobs 0`, a missing value, or a
/// non-integer) — the shared configuration front door of every
/// chip-bound binary in this crate.
pub fn engine_from_cli(args: &[String]) -> psa_runtime::Engine {
    match psa_runtime::Engine::from_args_and_env(args) {
        Ok(engine) => engine,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    }
}

/// Parses a positive-integer flag (`--seeds K` / `--seeds=K` style)
/// from an argument list, exiting with status 2 and a clear message on
/// a missing, zero, or non-integer value — the same contract `--jobs`
/// has. Returns `default` when the flag is absent.
pub fn positive_usize_arg(args: &[String], flag: &str, default: usize) -> usize {
    match parse_positive_usize(args, flag) {
        Ok(Some(v)) => v,
        Ok(None) => default,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// The fallible core of [`positive_usize_arg`], separated for tests.
fn parse_positive_usize(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let value = if arg == flag {
            iter.next()
                .map(|v| v.as_str())
                .ok_or_else(|| format!("{flag} requires a value (e.g. {flag} 2)"))?
        } else {
            match arg.strip_prefix(&format!("{flag}=")) {
                Some(v) => v,
                None => continue,
            }
        };
        return match value.parse::<usize>() {
            Ok(0) | Err(_) => Err(format!(
                "invalid {flag} value `{value}`: expected a positive integer"
            )),
            Ok(k) => Ok(Some(k)),
        };
    }
    Ok(None)
}

/// Parses `--bench-json [PATH]` / `--bench-json=PATH` from an argument
/// list; a bare flag selects `default`. `None` when the flag is absent.
pub fn bench_json_path(args: &[String], default: &str) -> Option<PathBuf> {
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--bench-json" {
            let explicit = iter
                .peek()
                .filter(|next| !next.starts_with('-'))
                .map(|next| PathBuf::from(next.as_str()));
            return Some(explicit.unwrap_or_else(|| PathBuf::from(default)));
        }
        if let Some(path) = arg.strip_prefix("--bench-json=") {
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Deterministic digest of a float series, printed on stdout so the
/// serial-vs-parallel byte-compare checks the computation itself: FNV-1a
/// over each value's `f64::to_bits` (the hash psabench's output digest
/// uses), so a one-ulp change or a reordering moves it.
pub fn digest(xs: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in xs.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Runs named closures and prints per-iteration timings.
///
/// Honors CLI conventions `cargo bench` relies on: a positional filter
/// argument restricts which benchmarks run, and `--bench`/`--test` flags
/// passed by cargo are accepted and ignored. Set `PSA_BENCH_FAST=1` to
/// cut sample counts (used by the CI smoke job).
pub struct Harness {
    filter: Option<String>,
    samples: usize,
    target_sample: Duration,
    warm_up: Duration,
}

impl Harness {
    /// Creates a harness configured from `std::env::args` and
    /// `PSA_BENCH_FAST`.
    pub fn from_env() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        let fast = std::env::var("PSA_BENCH_FAST").is_ok_and(|v| v != "0");
        Harness {
            filter,
            samples: if fast { 3 } else { 10 },
            target_sample: if fast {
                Duration::from_millis(30)
            } else {
                Duration::from_millis(300)
            },
            warm_up: if fast {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(500)
            },
        }
    }

    /// Times `f`, printing `name` with median/min/mean per-iteration
    /// nanoseconds. Skipped when a CLI filter is set and doesn't match.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }

        // Warm-up, and calibrate how many iterations fill one sample.
        let warm_start = Instant::now();
        let mut iters_done: u64 = 0;
        while warm_start.elapsed() < self.warm_up || iters_done == 0 {
            f();
            iters_done += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / iters_done as f64;
        let iters_per_sample =
            ((self.target_sample.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24);

        let mut sample_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            sample_ns.push(t0.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        sample_ns.sort_by(f64::total_cmp);
        let median = sample_ns[sample_ns.len() / 2];
        let min = sample_ns[0];
        let mean = sample_ns.iter().sum::<f64>() / sample_ns.len() as f64;
        // psa-lint: allow(stdout-in-lib): the micro-bench report line IS the
        // harness's stdout contract; no deterministic artifact shares it
        println!(
            "bench {name:<32} median {:>12} min {:>12} mean {:>12} ({} samples x {} iters)",
            fmt_ns(median),
            fmt_ns(min),
            fmt_ns(mean),
            self.samples,
            iters_per_sample,
        );
    }
}

/// Wall-clock timer for artifacts and pipeline stages, with JSON export
/// — the writer of every `BENCH_*.json` timing document.
///
/// An entry records a stage's wall time and, for throughput stages, how
/// many records it processed. `repro_all --bench-json [path]` writes
/// per-artifact wall times this way; `throughput --bench-json` adds the
/// record counts, and the export then carries `records` and
/// `records_per_s` fields per stage. [`crate::regress::compare`] gates
/// a counted stage on its seconds per record.
#[derive(Debug, Default)]
pub struct ArtifactTimer {
    entries: Vec<(String, f64, Option<u64>)>,
}

impl ArtifactTimer {
    /// An empty timer.
    pub fn new() -> Self {
        ArtifactTimer::default()
    }

    /// Runs `f`, recording its wall time under `name` with the
    /// `records` it processed (`None` for a wall-only stage); returns
    /// `f`'s result.
    pub fn time<T>(&mut self, name: &str, records: Option<u64>, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0.elapsed().as_secs_f64(), records);
        out
    }

    /// Records an externally measured interval under `name`: `records`
    /// processed in `wall_s` seconds. Lets a binary express one measured
    /// wall in several units (e.g. a fleet pass as both records/sec and
    /// chips/sec); every entry counts toward [`total_s`](Self::total_s),
    /// so re-recorded walls appear once per unit there.
    pub fn record(&mut self, name: &str, wall_s: f64, records: Option<u64>) {
        self.entries.push((name.to_string(), wall_s, records));
    }

    /// Recorded `(stage, wall_seconds, records)` entries, in execution
    /// order.
    pub fn entries(&self) -> &[(String, f64, Option<u64>)] {
        &self.entries
    }

    /// Total recorded wall time, seconds.
    pub fn total_s(&self) -> f64 {
        self.entries.iter().map(|(_, s, _)| s).sum()
    }

    /// Records/sec for one entry (0 when the stage took no measurable
    /// time).
    pub fn rate(wall_s: f64, records: u64) -> f64 {
        if wall_s > 0.0 {
            records as f64 / wall_s
        } else {
            0.0
        }
    }

    /// Renders the timing report as JSON (std-only, no serde). Every
    /// entry carries `wall_s`; entries with a record count add `records`
    /// and `records_per_s`:
    ///
    /// ```json
    /// {"schema":"psa-bench-json/1","workers":4,"total_s":12.3,
    ///  "artifacts":[{"name":"table1","wall_s":2.5},
    ///               {"name":"acquire","wall_s":0.5,"records":32,"records_per_s":64.0}]}
    /// ```
    pub fn to_json(&self, workers: usize) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"psa-bench-json/1\",\n");
        out.push_str(&format!("  \"workers\": {workers},\n"));
        out.push_str(&format!("  \"total_s\": {:.6},\n", self.total_s()));
        out.push_str("  \"artifacts\": [\n");
        for (i, (name, secs, records)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let rate = records.map_or(String::new(), |n| {
                format!(
                    ", \"records\": {n}, \"records_per_s\": {:.6}",
                    Self::rate(*secs, n)
                )
            });
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_s\": {secs:.6}{rate}}}{comma}\n",
                json_escape(name),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`to_json`](Self::to_json) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &std::path::Path, workers: usize) -> std::io::Result<()> {
        std::fs::write(path, self.to_json(workers))
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1.0e9 {
        format!("{:.3} s", ns / 1.0e9)
    } else if ns >= 1.0e6 {
        format!("{:.3} ms", ns / 1.0e6)
    } else if ns >= 1.0e3 {
        format!("{:.3} us", ns / 1.0e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let xs = [0.5, 1.25, -3.0, 1.0e-11];
        let base = digest(&xs);
        assert_eq!(base.len(), 16);
        assert_eq!(base, digest(&xs));
        // One ulp on one input.
        let mut ulp = xs;
        ulp[1] = f64::from_bits(ulp[1].to_bits() + 1);
        assert_ne!(base, digest(&ulp));
        // A reordering that leaves the sum unchanged.
        let swapped = [1.25, 0.5, -3.0, 1.0e-11];
        assert_eq!(
            xs.iter().sum::<f64>().to_bits(),
            swapped.iter().sum::<f64>().to_bits()
        );
        assert_ne!(base, digest(&swapped));
    }

    #[test]
    fn formats_time_scales() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(1.5e3), "1.500 us");
        assert_eq!(fmt_ns(2.5e6), "2.500 ms");
        assert_eq!(fmt_ns(3.25e9), "3.250 s");
    }

    #[test]
    fn bench_runs_closure() {
        let harness = Harness {
            filter: None,
            samples: 2,
            target_sample: Duration::from_micros(100),
            warm_up: Duration::from_micros(100),
        };
        let mut count = 0u64;
        harness.bench("smoke", || count += 1);
        assert!(count > 0);
    }

    #[test]
    fn artifact_timer_records_and_exports_json() {
        let mut timer = ArtifactTimer::new();
        let v = timer.time("table\"1\"", None, || 42);
        assert_eq!(v, 42);
        timer.time("fig3", None, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert_eq!(timer.entries().len(), 2);
        assert!(timer.entries()[1].1 >= 0.002);
        assert!(timer.total_s() >= timer.entries()[1].1);
        let json = timer.to_json(4);
        assert!(json.contains("\"schema\": \"psa-bench-json/1\""));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("table\\\"1\\\""));
        assert!(json.contains("\"fig3\""));
        // Wall-only entries carry no record fields.
        assert!(!json.contains("records"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn counted_entries_export_rates() {
        let mut timer = ArtifactTimer::new();
        timer.time("acquire", Some(10), || {
            std::thread::sleep(Duration::from_millis(2))
        });
        timer.time("instant", Some(5), || ());
        let json = timer.to_json(1);
        let parsed = crate::regress::parse_bench_json(&json).expect("parses");
        assert_eq!(parsed.workers, Some(1));
        assert!(json.contains("\"records_per_s\": "));
        assert_eq!(parsed.artifacts.len(), 2);
        assert_eq!(parsed.artifacts[0].name, "acquire");
        assert_eq!(parsed.artifacts[0].records, Some(10));
        assert_eq!(parsed.artifacts[1].records, Some(5));
        // At most 5000 records/sec: at least 0.2 ms per record.
        assert!(parsed.artifacts[0].cost() >= 2.0e-4);
        assert_eq!(ArtifactTimer::rate(0.0, 100), 0.0);
    }

    #[test]
    fn timer_records_external_walls() {
        // `record` expresses one measured interval in several units —
        // the fleet binary logs the same pass as records/sec and
        // chips/sec — and the export carries the resolved worker count
        // so seed files document the machine shape they came from.
        let mut timer = ArtifactTimer::new();
        timer.record("fleet_stream", 2.0, Some(1000));
        timer.record("fleet_chips", 2.0, Some(100));
        let json = timer.to_json(2);
        let parsed = crate::regress::parse_bench_json(&json).expect("parses");
        assert_eq!(parsed.workers, Some(2));
        assert!(json.contains("\"records_per_s\": 500.000000"));
        assert!(json.contains("\"records_per_s\": 50.000000"));
        assert_eq!(parsed.artifacts[0].cost(), 2.0 / 1000.0);
        assert_eq!(parsed.artifacts[1].cost(), 2.0 / 100.0);
        assert!((timer.total_s() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn json_escape_handles_control_chars() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\t"), "x\\ny\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn bench_json_path_variants() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(bench_json_path(&args(&[]), "D.json"), None);
        assert_eq!(
            bench_json_path(&args(&["--bench-json"]), "D.json"),
            Some(PathBuf::from("D.json"))
        );
        assert_eq!(
            bench_json_path(&args(&["--bench-json", "out.json"]), "D.json"),
            Some(PathBuf::from("out.json"))
        );
        assert_eq!(
            bench_json_path(&args(&["--bench-json=x.json"]), "D.json"),
            Some(PathBuf::from("x.json"))
        );
        // A following flag is not a path.
        assert_eq!(
            bench_json_path(&args(&["--bench-json", "--jobs"]), "D.json"),
            Some(PathBuf::from("D.json"))
        );
    }

    #[test]
    fn positive_usize_arg_variants() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_positive_usize(&args(&[]), "--seeds"), Ok(None));
        assert_eq!(
            parse_positive_usize(&args(&["--seeds", "3"]), "--seeds"),
            Ok(Some(3))
        );
        assert_eq!(
            parse_positive_usize(&args(&["--seeds=7"]), "--seeds"),
            Ok(Some(7))
        );
        // Other flags pass through untouched.
        assert_eq!(
            parse_positive_usize(&args(&["--jobs", "2", "--grid=5"]), "--grid"),
            Ok(Some(5))
        );
        for bad in [&["--seeds"][..], &["--seeds", "0"], &["--seeds=x"]] {
            assert!(
                parse_positive_usize(&args(bad), "--seeds").is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn filter_skips_nonmatching() {
        let harness = Harness {
            filter: Some("nomatch".into()),
            samples: 1,
            target_sample: Duration::from_micros(100),
            warm_up: Duration::from_micros(100),
        };
        let mut ran = false;
        harness.bench("other", || ran = true);
        assert!(!ran);
    }
}

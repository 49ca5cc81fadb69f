//! The bench-regression gate: compares a fresh `BENCH_*.json` timing
//! artifact against a committed seed and fails on cost blow-ups.
//!
//! Std-only (the build container has no serde): the parser reads
//! exactly the `psa-bench-json/1` format
//! [`ArtifactTimer::to_json`](crate::harness::ArtifactTimer::to_json)
//! writes. Every stage is gated on its **cost per unit**: seconds per
//! record for a stage that carries a record count, its wall time
//! otherwise. A stage regresses when its cost exceeds [`MAX_RATIO`] ×
//! its seed's — for a counted stage that is exactly its records/sec
//! falling below seed / [`MAX_RATIO`]. The bound is deliberately loose
//! (shared CI runners jitter), and each stage's own data picks the rest
//! of its rule:
//!
//! * a **wall-only** stage is gated only when its seed wall time is at
//!   least [`MIN_SEED_S`] (the noise floor);
//! * a **counted** stage is always gated, unless its seed cost is not
//!   finite and positive (a broken measurement); a current cost that is
//!   not finite and positive regresses.
//!
//! The gate is two-sided: a current stage without a seed counterpart
//! fails — a counted one always, a wall-only one unless it ran in under
//! half the floor — so a new bench stage cannot ride along ungated
//! until its seed is committed.

use std::collections::{BTreeMap, BTreeSet};

/// A stage regresses when its cost exceeds this multiple of its seed's.
pub const MAX_RATIO: f64 = 2.5;

/// Noise floor, seconds: a wall-only stage whose seed wall time is
/// under this is never gated.
pub const MIN_SEED_S: f64 = 0.05;

/// One timed stage of a `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name.
    pub name: String,
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Records the stage processed (`None` for a wall-only stage).
    pub records: Option<u64>,
}

impl Stage {
    /// Cost per unit: seconds per record for a counted stage, the wall
    /// time for a wall-only one.
    pub fn cost(&self) -> f64 {
        match self.records {
            Some(n) => self.wall_s / n as f64,
            None => self.wall_s,
        }
    }
}

/// A parsed `BENCH_*.json` artifact file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchJson {
    /// Worker count recorded by the run.
    pub workers: Option<u64>,
    /// Total wall time, seconds.
    pub total_s: Option<f64>,
    /// Per-stage timings, in file order.
    pub artifacts: Vec<Stage>,
}

/// Parses a `psa-bench-json/1` document.
///
/// # Errors
///
/// A human-readable message when the schema marker is missing, an
/// artifact entry is malformed, a number parses to a non-finite value
/// (`NaN`, `inf`, or an overflowing literal such as `1e999`), which no
/// timer writes, or a record count is not a non-negative integer.
pub fn parse_bench_json(text: &str) -> Result<BenchJson, String> {
    if !text.contains("\"schema\": \"psa-bench-json/1\"") {
        return Err("not a psa-bench-json/1 document (schema marker missing)".into());
    }
    let mut out = BenchJson {
        workers: None,
        total_s: None,
        artifacts: Vec::new(),
    };
    for line in text.lines() {
        if out.workers.is_none() {
            if let Some(v) = field_number(line, "workers")? {
                out.workers = Some(v as u64);
            }
        }
        if out.total_s.is_none() && !line.contains("\"wall_s\"") {
            out.total_s = field_number(line, "total_s")?;
        }
        if line.contains("\"name\"") {
            let name = field_string(line, "name")
                .ok_or_else(|| format!("malformed artifact entry: {}", line.trim()))?;
            let wall_s = field_number(line, "wall_s")?
                .ok_or_else(|| format!("artifact `{name}` is missing wall_s"))?;
            let records = match field_number(line, "records")? {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
                Some(_) => return Err(format!("artifact `{name}` has a bad record count")),
                None => None,
            };
            out.artifacts.push(Stage {
                name,
                wall_s,
                records,
            });
        }
    }
    if out.artifacts.is_empty() {
        return Err("no artifacts found".into());
    }
    Ok(out)
}

fn field_string(line: &str, key: &str) -> Option<String> {
    let rest = after_key(line, key)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// The number after `"key":` on `line`: `None` when the key is absent
/// or its value is not a number, an error when the value is not finite.
fn field_number(line: &str, key: &str) -> Result<Option<f64>, String> {
    let Some(rest) = after_key(line, key) else {
        return Ok(None);
    };
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    match rest[..end].trim().parse::<f64>() {
        Ok(v) if !v.is_finite() => Err(format!("non-finite {key}: {}", line.trim())),
        parsed => Ok(parsed.ok()),
    }
}

fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let pos = line.find(&needle)?;
    Some(&line[pos + needle.len()..])
}

/// One stage's comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Current cost is within [`MAX_RATIO`] of the seed's.
    Ok,
    /// Not gated: a wall-only seed under the noise floor, a counted
    /// seed whose cost is not finite and positive, or a trivial
    /// unseeded wall-only stage.
    Skipped,
    /// Stage present in the seed but absent from the current run (or
    /// present with a record count where the seed has none, or the
    /// reverse).
    Missing,
    /// Current cost exceeds [`MAX_RATIO`] × the seed's, or is not
    /// finite (nor, for a counted stage, positive).
    Regressed,
    /// Stage present in the current run but absent from the seed — an
    /// ungated stage that would silently escape the trajectory; the
    /// seed file must be regenerated and committed.
    Unseeded,
}

/// One row of the regression report.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Stage name.
    pub name: String,
    /// Whether the stage carries a record count (its cost is then
    /// seconds per record).
    pub counted: bool,
    /// Seed cost (`None` when the stage has no seed counterpart).
    pub seed_cost: Option<f64>,
    /// Current cost (`None` when missing).
    pub current_cost: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares `current` against `seed`, stage by stage, on cost per
/// unit (see the [module docs](self) for each stage kind's rule).
pub fn compare(seed: &BenchJson, current: &BenchJson) -> Vec<Comparison> {
    let current_by_name: BTreeMap<&str, &Stage> = current
        .artifacts
        .iter()
        .map(|s| (s.name.as_str(), s))
        .collect();
    let mut comparisons: Vec<Comparison> = seed
        .artifacts
        .iter()
        .map(|stage| {
            let counted = stage.records.is_some();
            let seed_cost = stage.cost();
            let current_cost = current_by_name
                .get(stage.name.as_str())
                .filter(|c| c.records.is_some() == counted)
                .map(|c| c.cost());
            // Noise-floored and degenerate seeds are never gated — not
            // even when their stage disappears from the current run.
            let verdict = match current_cost {
                _ if counted && !(seed_cost > 0.0 && seed_cost.is_finite()) => Verdict::Skipped,
                _ if !counted && seed_cost < MIN_SEED_S => Verdict::Skipped,
                None => Verdict::Missing,
                Some(cost)
                    if !cost.is_finite()
                        || (counted && cost <= 0.0)
                        || cost > seed_cost * MAX_RATIO =>
                {
                    Verdict::Regressed
                }
                Some(_) => Verdict::Ok,
            };
            Comparison {
                name: stage.name.clone(),
                counted,
                seed_cost: Some(seed_cost),
                current_cost,
                verdict,
            }
        })
        .collect();
    let seeded: BTreeSet<&str> = seed.artifacts.iter().map(|s| s.name.as_str()).collect();
    for stage in &current.artifacts {
        if seeded.contains(stage.name.as_str()) {
            continue;
        }
        // A trivial new wall-only stage is not worth failing the gate
        // over, but unlike the seeded side there is no committed wall
        // time to key the skip on — only this run's jittery
        // measurement. Demand a clear margin under the floor so a stage
        // that hovers *at* the floor fails consistently instead of
        // flapping run to run. There is no trivial counted stage.
        let counted = stage.records.is_some();
        let verdict = if !counted && stage.wall_s < MIN_SEED_S / 2.0 {
            Verdict::Skipped
        } else {
            Verdict::Unseeded
        };
        comparisons.push(Comparison {
            name: stage.name.clone(),
            counted,
            seed_cost: None,
            current_cost: Some(stage.cost()),
            verdict,
        });
    }
    comparisons
}

/// Renders the comparison table plus a pass/fail tail line; the bool is
/// `true` when the gate passes. Costs are seconds (`s`) or seconds per
/// record (`s/rec`); the ratio is `now / seed`, failing above
/// [`MAX_RATIO`].
pub fn render_report(comparisons: &[Comparison]) -> (String, bool) {
    let mut out = format!(
        "{:<20} {:>5} {:>10} {:>10} {:>7}  verdict\n",
        "stage", "unit", "seed cost", "now cost", "ratio"
    );
    let mut failures = 0usize;
    for c in comparisons {
        let unit = if c.counted { "s/rec" } else { "s" };
        let cost = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.6}"));
        let ratio = match (c.current_cost, c.seed_cost) {
            (Some(now), Some(seed)) if seed > 0.0 => format!("{:.2}x", now / seed),
            _ => "-".into(),
        };
        let verdict = match c.verdict {
            Verdict::Ok => "ok",
            Verdict::Skipped if c.counted => "skipped (degenerate seed cost)",
            Verdict::Skipped => "skipped (below noise floor)",
            Verdict::Missing => "MISSING from current run",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unseeded => "NO SEED counterpart (regenerate and commit the seed)",
        };
        if !matches!(c.verdict, Verdict::Ok | Verdict::Skipped) {
            failures += 1;
        }
        out.push_str(&format!(
            "{:<20} {unit:>5} {:>10} {:>10} {ratio:>7}  {verdict}\n",
            c.name,
            cost(c.seed_cost),
            cost(c.current_cost),
        ));
    }
    let pass = failures == 0;
    if pass {
        out.push_str(&format!(
            "bench gate: OK ({} stage(s) within {MAX_RATIO}x of seed cost)\n",
            comparisons.len()
        ));
    } else {
        out.push_str(&format!(
            "bench gate: FAILED ({failures} stage(s) costlier than {MAX_RATIO}x seed, \
             missing, or unseeded)\n"
        ));
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ArtifactTimer;

    /// A document in the exact shape `ArtifactTimer::to_json` writes
    /// (the round-trip test below covers the real writer): each entry
    /// is `(name, wall_s, records)`.
    fn stages(entries: &[(&str, f64, Option<u64>)]) -> BenchJson {
        let mut timer = ArtifactTimer::new();
        for &(name, wall_s, records) in entries {
            timer.record(name, wall_s, records);
        }
        parse_bench_json(&timer.to_json(4)).expect("well-formed")
    }

    /// Wall-only stages.
    fn doc(entries: &[(&str, f64)]) -> BenchJson {
        let entries: Vec<_> = entries.iter().map(|&(n, w)| (n, w, None)).collect();
        stages(&entries)
    }

    /// Counted stages, each over 4 records (so costs are exact
    /// quarters of the wall times below).
    fn counted(entries: &[(&str, f64)]) -> BenchJson {
        let entries: Vec<_> = entries.iter().map(|&(n, w)| (n, w, Some(4))).collect();
        stages(&entries)
    }

    fn verdicts(seed: &BenchJson, current: &BenchJson) -> Vec<Verdict> {
        compare(seed, current)
            .into_iter()
            .map(|c| c.verdict)
            .collect()
    }

    /// Every committed seed document, by file name.
    fn committed_seeds() -> Vec<(String, String)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/seed");
        let mut seeds: Vec<(String, String)> = std::fs::read_dir(dir)
            .expect("seed directory")
            .map(|e| e.expect("seed entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| {
                let text = std::fs::read_to_string(&p).expect("seed document");
                (p.display().to_string(), text)
            })
            .collect();
        seeds.sort();
        assert!(!seeds.is_empty(), "no seed documents under {dir}");
        seeds
    }

    #[test]
    fn parses_artifact_timer_output() {
        let mut timer = ArtifactTimer::new();
        timer.time("table1", None, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        timer.time("fig3", None, || ());
        let parsed = parse_bench_json(&timer.to_json(3)).expect("parses");
        assert_eq!(parsed.workers, Some(3));
        assert!(parsed.total_s.is_some());
        assert_eq!(parsed.artifacts.len(), 2);
        assert_eq!(parsed.artifacts[0].name, "table1");
        assert!(parsed.artifacts[0].wall_s >= 0.001);
        assert_eq!(parsed.artifacts[0].records, None);
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json("{\"schema\": \"psa-bench-json/1\"}").is_err());
    }

    #[test]
    fn parses_records_alongside_wall_times() {
        let parsed = stages(&[("acquire", 0.5, Some(32)), ("table1", 2.0, None)]);
        assert_eq!(parsed.artifacts[0].records, Some(32));
        assert_eq!(parsed.artifacts[0].cost(), 0.5 / 32.0);
        assert_eq!(parsed.artifacts[1].records, None);
        assert_eq!(parsed.artifacts[1].cost(), 2.0);
        // A record count must be a non-negative integer.
        for bad in ["-1", "2.5"] {
            let text = format!(
                "{{\n  \"schema\": \"psa-bench-json/1\",\n  \"artifacts\": [\n    \
                 {{\"name\": \"acquire\", \"wall_s\": 1.0, \"records\": {bad}}}\n  ]\n}}\n"
            );
            assert!(parse_bench_json(&text).is_err(), "{bad}");
        }
    }

    #[test]
    fn gate_passes_within_ratio_and_skips_noise() {
        let seed = doc(&[("build_chip", 2.0), ("table1", 1.0), ("tiny", 0.001)]);
        let current = doc(&[("build_chip", 4.5), ("table1", 1.2), ("tiny", 0.5)]);
        // build_chip 2.25x < 2.5x; tiny's seed is under the floor.
        let want = [Verdict::Ok, Verdict::Ok, Verdict::Skipped];
        assert_eq!(verdicts(&seed, &current), want);
        let (report, pass) = render_report(&compare(&seed, &current));
        assert!(pass, "{report}");
        assert!(report.contains("bench gate: OK"));
    }

    #[test]
    fn gate_fails_on_regression_and_missing() {
        let seed = doc(&[("table1", 1.0), ("fig5", 2.0)]);
        let current = doc(&[("table1", 2.6)]);
        assert_eq!(
            verdicts(&seed, &current),
            [Verdict::Regressed, Verdict::Missing]
        );
        let (report, pass) = render_report(&compare(&seed, &current));
        assert!(!pass);
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("MISSING"));
        assert!(report.contains("bench gate: FAILED"));
    }

    #[test]
    fn missing_noise_floor_artifact_is_still_skipped() {
        // A sub-floor artifact is never gated, even when it vanishes
        // from the current run (e.g. a renamed trivial stage).
        let seed = doc(&[("tiny", 0.001), ("table1", 1.0)]);
        let current = doc(&[("table1", 1.0)]);
        assert_eq!(verdicts(&seed, &current), [Verdict::Skipped, Verdict::Ok]);
        assert!(render_report(&compare(&seed, &current)).1);
    }

    #[test]
    fn unseeded_artifacts_fail_the_gate() {
        // A non-trivial current artifact without a seed counterpart
        // fails loudly, so new bench stages cannot ride along ungated.
        let seed = doc(&[("table1", 1.0)]);
        let current = doc(&[("table1", 1.0), ("brand_new", 99.0)]);
        let cmp = compare(&seed, &current);
        assert_eq!(cmp.len(), 2);
        assert_eq!(cmp[1].verdict, Verdict::Unseeded);
        assert_eq!(cmp[1].seed_cost, None);
        let (report, pass) = render_report(&cmp);
        assert!(!pass);
        assert!(report.contains("NO SEED counterpart"));
        assert!(report.contains("bench gate: FAILED"));
    }

    #[test]
    fn trivial_unseeded_artifacts_stay_below_the_floor() {
        // The noise floor applies symmetrically: a sub-floor new stage
        // is skipped, not failed.
        let seed = doc(&[("table1", 1.0)]);
        let current = doc(&[("table1", 1.0), ("tiny_new", 0.001)]);
        assert_eq!(verdicts(&seed, &current)[1], Verdict::Skipped);
        assert!(render_report(&compare(&seed, &current)).1);
    }

    #[test]
    fn counted_gate_fails_on_slowdown_not_speedup() {
        let seed = counted(&[("acquire", 1.0), ("rfft", 1.0)]);
        // acquire got 10x cheaper per record (fine); rfft costs more
        // than 2.5x its seed, i.e. its records/sec fell below seed/2.5.
        let current = counted(&[("acquire", 0.1), ("rfft", 2.75)]);
        assert_eq!(verdicts(&seed, &current), [Verdict::Ok, Verdict::Regressed]);
        let (report, pass) = render_report(&compare(&seed, &current));
        assert!(!pass);
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("bench gate: FAILED"));
        // Exactly at the boundary passes (strict `>` comparison).
        let boundary = counted(&[("acquire", 2.5), ("rfft", 2.5)]);
        assert_eq!(verdicts(&seed, &boundary), [Verdict::Ok, Verdict::Ok]);
    }

    #[test]
    fn counted_gate_fails_missing_and_unseeded_stages() {
        let seed = counted(&[("acquire", 1.0)]);
        // No noise floor on counted stages: even a 1 ms new stage fails
        // unseeded, and a tiny seeded one is still gated.
        let current = counted(&[("brand_new", 0.001)]);
        assert_eq!(
            verdicts(&seed, &current),
            [Verdict::Missing, Verdict::Unseeded]
        );
        let (report, pass) = render_report(&compare(&seed, &current));
        assert!(!pass);
        assert!(report.contains("MISSING"));
        assert!(report.contains("NO SEED counterpart"));
        let tiny = counted(&[("tiny", 0.001)]);
        let slower = counted(&[("tiny", 0.003)]);
        assert_eq!(verdicts(&tiny, &slower), [Verdict::Regressed]);
    }

    #[test]
    fn degenerate_seed_costs_are_skipped() {
        // A zero or infinite seed cost (no measurable time, or no
        // records) is a broken measurement, not a target: gating
        // against it would fail forever or never.
        let seed = stages(&[
            ("instant", 0.0, Some(4)),
            ("empty", 1.0, Some(0)),
            ("acquire", 1.0, Some(4)),
        ]);
        let current = counted(&[("instant", 1.0), ("empty", 1.0), ("acquire", 1.0)]);
        assert_eq!(
            verdicts(&seed, &current),
            [Verdict::Skipped, Verdict::Skipped, Verdict::Ok]
        );
        let (report, pass) = render_report(&compare(&seed, &current));
        assert!(pass, "{report}");
        assert!(report.contains("degenerate seed cost"));
    }

    #[test]
    fn non_finite_current_wall_time_regresses() {
        // Built in code: the parser itself rejects non-finite numbers.
        let seed = doc(&[("table1", 1.0)]);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut current = seed.clone();
            current.artifacts[0].wall_s = bad;
            assert_eq!(verdicts(&seed, &current), [Verdict::Regressed], "{bad}");
            assert!(!render_report(&compare(&seed, &current)).1);
        }
    }

    #[test]
    fn non_finite_or_zero_current_cost_regresses() {
        // A counted stage with no records or no measurable time has no
        // finite, positive cost: like its zero or infinite rate, it
        // regresses.
        let seed = counted(&[("acquire", 1.0)]);
        for (wall_s, records) in [(f64::NAN, 4), (f64::INFINITY, 4), (1.0, 0), (0.0, 4)] {
            let mut current = seed.clone();
            current.artifacts[0].wall_s = wall_s;
            current.artifacts[0].records = Some(records);
            assert_eq!(
                verdicts(&seed, &current),
                [Verdict::Regressed],
                "{wall_s} s over {records} records"
            );
            assert!(!render_report(&compare(&seed, &current)).1);
        }
    }

    #[test]
    fn each_stage_keeps_its_own_rule_in_a_mixed_document() {
        // One document with both kinds side by side. `tiny` and
        // `acquire` share a sub-floor wall time; only the counted one
        // is gated.
        let seed = stages(&[
            ("table1", 1.0, None),
            ("tiny", 0.02, None),
            ("acquire", 0.02, Some(4)),
            ("fleet_stream", 8.0, Some(4)),
        ]);
        let slower = stages(&[
            ("table1", 3.0, None),
            ("tiny", 0.06, None),
            ("acquire", 0.06, Some(4)),
            ("fleet_stream", 24.0, Some(4)),
        ]);
        assert_eq!(
            verdicts(&seed, &slower),
            [
                Verdict::Regressed,
                Verdict::Skipped,
                Verdict::Regressed,
                Verdict::Regressed
            ]
        );
        // The same 3x wall times over twice the records: a counted
        // stage is judged per record (1.5x), a wall-only one per run.
        let more_records = stages(&[
            ("table1", 3.0, None),
            ("tiny", 0.06, None),
            ("acquire", 0.06, Some(8)),
            ("fleet_stream", 24.0, Some(8)),
        ]);
        assert_eq!(
            verdicts(&seed, &more_records),
            [
                Verdict::Regressed,
                Verdict::Skipped,
                Verdict::Ok,
                Verdict::Ok
            ]
        );
        // New stages: a trivial wall-only one is forgiven, a counted one
        // of the same wall time is not.
        let extra = stages(&[
            ("table1", 1.0, None),
            ("tiny", 0.02, None),
            ("acquire", 0.02, Some(4)),
            ("fleet_stream", 8.0, Some(4)),
            ("new_wall", 0.01, None),
            ("new_counted", 0.01, Some(4)),
        ]);
        assert_eq!(
            verdicts(&seed, &extra)[4..],
            [Verdict::Skipped, Verdict::Unseeded]
        );
        // A stage that gains or loses its record count is no longer the
        // seeded stage.
        let recast = stages(&[
            ("table1", 1.0, Some(4)),
            ("tiny", 0.02, None),
            ("acquire", 0.02, None),
            ("fleet_stream", 8.0, Some(4)),
        ]);
        assert_eq!(
            verdicts(&seed, &recast),
            [
                Verdict::Missing,
                Verdict::Skipped,
                Verdict::Missing,
                Verdict::Ok
            ]
        );
    }

    #[test]
    fn committed_seeds_pass_against_themselves() {
        for (path, text) in committed_seeds() {
            let seed = parse_bench_json(&text).expect("committed seeds parse");
            let cmp = compare(&seed, &seed);
            assert_eq!(cmp.len(), seed.artifacts.len(), "{path}");
            let (report, pass) = render_report(&cmp);
            assert!(pass, "{path}:\n{report}");
            // Every counted stage is gated, not skipped.
            for c in cmp.iter().filter(|c| c.counted) {
                assert_eq!(c.verdict, Verdict::Ok, "{path}: {}", c.name);
            }
        }
    }

    #[test]
    fn parser_rejects_non_finite_numbers() {
        let text = |wall: &str| {
            format!(
                "{{\n  \"schema\": \"psa-bench-json/1\",\n  \"artifacts\": [\n    \
                 {{\"name\": \"table1\", \"wall_s\": {wall}}}\n  ]\n}}\n"
            )
        };
        assert!(parse_bench_json(&text("1.5")).is_ok());
        for bad in ["NaN", "inf", "-inf", "1e999"] {
            assert!(parse_bench_json(&text(bad)).is_err(), "{bad}");
        }
    }

    /// Mutates every committed seed document (character replacement,
    /// truncation, dropped or duplicated lines) and feeds the result to
    /// the parser: it must never panic, and whatever it accepts must
    /// hold at least one artifact and only finite numbers.
    #[test]
    fn parser_survives_mutated_seed_documents() {
        const ALPHABET: &[char] = &[
            '0', '1', '9', '.', '-', '+', 'e', 'E', 'N', 'a', 'i', 'n', 'f', '"', ',', ':', '{',
            '}', '[', ']', ' ', '\n', '\\', 'µ',
        ];
        let mut rng = psa_dsp::rng::SmallRng::seed_from_u64(0xF022);
        let mut accepted = 0usize;
        for (_, original) in committed_seeds() {
            parse_bench_json(&original).expect("committed seeds parse");
            for _ in 0..300 {
                let mut lines: Vec<String> = original.lines().map(str::to_string).collect();
                for _ in 0..=rng.gen_index(3) {
                    let at = rng.gen_index(lines.len());
                    match rng.gen_index(4) {
                        0 => {
                            let mut chars: Vec<char> = lines[at].chars().collect();
                            if !chars.is_empty() {
                                let i = rng.gen_index(chars.len());
                                chars[i] = ALPHABET[rng.gen_index(ALPHABET.len())];
                            }
                            lines[at] = chars.into_iter().collect();
                        }
                        1 => {
                            let keep = rng.gen_index(lines[at].chars().count() + 1);
                            lines[at] = lines[at].chars().take(keep).collect();
                            lines.truncate(at + 1);
                        }
                        2 if lines.len() > 1 => {
                            lines.remove(at);
                        }
                        _ => {
                            let copy = lines[at].clone();
                            lines.insert(at, copy);
                        }
                    }
                }
                let text = lines.join("\n");
                let parsed = std::panic::catch_unwind(|| parse_bench_json(&text))
                    .unwrap_or_else(|_| panic!("parser panicked on:\n{text}"));
                if let Ok(doc) = parsed {
                    accepted += 1;
                    assert!(!doc.artifacts.is_empty(), "{text}");
                    let walls = doc.artifacts.iter().map(|s| s.wall_s);
                    assert!(
                        walls.chain(doc.total_s).all(f64::is_finite),
                        "non-finite number accepted from:\n{text}"
                    );
                }
            }
        }
        // The mutations must leave the parser something to accept, or
        // the finiteness check above checks nothing.
        assert!(accepted > 0);
    }

    #[test]
    fn unseeded_skip_needs_a_clear_margin_under_the_floor() {
        // The unseeded skip keys on this run's jittery measurement, not
        // a committed seed time — a stage that hovers *at* the floor
        // must fail on both sides of its jitter, not flap between
        // Skipped and Unseeded across CI runs.
        let seed = doc(&[("table1", 1.0)]);
        for wall in [0.030, 0.045, 0.050, 0.055] {
            let current = doc(&[("table1", 1.0), ("hovering", wall)]);
            assert_eq!(
                verdicts(&seed, &current)[1],
                Verdict::Unseeded,
                "wall {wall}"
            );
        }
        let current = doc(&[("table1", 1.0), ("hovering", 0.020)]);
        assert_eq!(verdicts(&seed, &current)[1], Verdict::Skipped);
    }
}

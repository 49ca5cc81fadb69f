//! The bench-regression gate: compares a fresh `BENCH_*.json` timing
//! artifact against a committed seed and fails on wall-time blow-ups.
//!
//! Std-only (the build container has no serde): the parser reads
//! exactly the `psa-bench-json/1` format
//! [`ArtifactTimer::to_json`](crate::harness::ArtifactTimer::to_json)
//! writes. The comparison is deliberately loose — shared CI runners
//! jitter — so only a large ratio over the seed (default 2.5×) on a
//! non-trivial artifact (seed wall ≥ 50 ms) counts as a regression.
//! The gate is two-sided: a non-trivial *current* artifact without a
//! seed counterpart also fails, so a new bench stage cannot ride along
//! ungated until its seed is committed.

use std::collections::BTreeMap;

/// A parsed `BENCH_*.json` artifact file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchJson {
    /// Worker count recorded by the run.
    pub workers: Option<u64>,
    /// Total wall time, seconds.
    pub total_s: Option<f64>,
    /// Per-artifact wall times, in file order.
    pub artifacts: Vec<(String, f64)>,
    /// Per-artifact throughput (records per second), in file order —
    /// present only for entries that carry a `records_per_s` field
    /// (the `throughput` binary's output). Gated by [`compare_rates`]
    /// with inverted semantics: *lower* is a regression.
    pub rates: Vec<(String, f64)>,
}

/// Parses a `psa-bench-json/1` document.
///
/// # Errors
///
/// A human-readable message when the schema marker is missing, an
/// artifact entry is malformed, or a number parses to a non-finite
/// value (`NaN`, `inf`, or an overflowing literal such as `1e999`),
/// which no timer writes.
pub fn parse_bench_json(text: &str) -> Result<BenchJson, String> {
    if !text.contains("\"schema\": \"psa-bench-json/1\"") {
        return Err("not a psa-bench-json/1 document (schema marker missing)".into());
    }
    let mut out = BenchJson {
        workers: None,
        total_s: None,
        artifacts: Vec::new(),
        rates: Vec::new(),
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
            let wall = field_number(line, "wall_s")?
                .ok_or_else(|| format!("artifact `{name}` is missing wall_s"))?;
            if let Some(rate) = field_number(line, "records_per_s")? {
                out.rates.push((name.clone(), rate));
            }
            out.artifacts.push((name, wall));
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

/// One artifact's comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Current wall time is within `max_ratio` of the seed.
    Ok,
    /// Wall time is under the noise floor; not gated.
    Skipped,
    /// Artifact present in the seed but absent from the current run.
    Missing,
    /// Current wall time exceeds `max_ratio ×` seed (or, for a rate,
    /// falls below `seed / max_ratio`), or is not finite.
    Regressed,
    /// Artifact present in the current run but absent from the seed —
    /// an ungated stage that would silently escape the trajectory; the
    /// seed file must be regenerated and committed.
    Unseeded,
}

/// One row of the regression report.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Artifact name.
    pub name: String,
    /// Seed wall time, seconds (`None` when the artifact has no seed
    /// counterpart).
    pub seed_s: Option<f64>,
    /// Current wall time, seconds (`None` when missing).
    pub current_s: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares `current` against `seed`: every seed artifact with wall
/// time ≥ `min_seed_s` must exist in `current` and run within
/// `max_ratio ×` its seed time (a non-finite current time regresses),
/// and every non-trivial current artifact
/// must have a seed counterpart (no stage rides along ungated).
pub fn compare(
    seed: &BenchJson,
    current: &BenchJson,
    max_ratio: f64,
    min_seed_s: f64,
) -> Vec<Comparison> {
    let current_by_name: BTreeMap<&str, f64> = current
        .artifacts
        .iter()
        .map(|(n, w)| (n.as_str(), *w))
        .collect();
    let mut comparisons: Vec<Comparison> = seed
        .artifacts
        .iter()
        .map(|(name, seed_s)| {
            let current_s = current_by_name.get(name.as_str()).copied();
            // Noise-floored artifacts are never gated — not even when
            // they disappear from the current run.
            let verdict = match current_s {
                _ if *seed_s < min_seed_s => Verdict::Skipped,
                None => Verdict::Missing,
                Some(cur) if !cur.is_finite() || cur > seed_s * max_ratio => Verdict::Regressed,
                Some(_) => Verdict::Ok,
            };
            Comparison {
                name: name.clone(),
                seed_s: Some(*seed_s),
                current_s,
                verdict,
            }
        })
        .collect();
    let seeded: std::collections::BTreeSet<&str> =
        seed.artifacts.iter().map(|(n, _)| n.as_str()).collect();
    for (name, current_s) in &current.artifacts {
        if seeded.contains(name.as_str()) {
            continue;
        }
        // A trivial new stage is not worth failing the gate over, but
        // unlike the seeded side there is no committed wall time to key
        // the skip on — only this run's jittery measurement. Demand a
        // clear margin under the floor so a stage that hovers *at* the
        // floor fails consistently instead of flapping run to run.
        let verdict = if *current_s < min_seed_s / 2.0 {
            Verdict::Skipped
        } else {
            Verdict::Unseeded
        };
        comparisons.push(Comparison {
            name: name.clone(),
            seed_s: None,
            current_s: Some(*current_s),
            verdict,
        });
    }
    comparisons
}

/// Compares throughput rates with *inverted* semantics: records/sec is
/// higher-is-better, so an artifact regresses when its current rate
/// drops below `seed / max_ratio` or is not finite. Every finite,
/// positive seed rate must exist in `current`; a degenerate seed rate
/// (zero, negative, or non-finite — a bad seed measurement) is skipped
/// rather than gated.
/// Current-side rates without a seed counterpart fail as
/// [`Verdict::Unseeded`] unconditionally — unlike wall times there is
/// no "trivial" rate, so a new stage can never ride along ungated.
pub fn compare_rates(seed: &BenchJson, current: &BenchJson, max_ratio: f64) -> Vec<Comparison> {
    let current_by_name: BTreeMap<&str, f64> = current
        .rates
        .iter()
        .map(|(n, r)| (n.as_str(), *r))
        .collect();
    let mut comparisons: Vec<Comparison> = seed
        .rates
        .iter()
        .map(|(name, seed_rate)| {
            let current_rate = current_by_name.get(name.as_str()).copied();
            let verdict = match current_rate {
                _ if !(*seed_rate > 0.0 && seed_rate.is_finite()) => Verdict::Skipped,
                None => Verdict::Missing,
                Some(cur) if !cur.is_finite() || cur < seed_rate / max_ratio => Verdict::Regressed,
                Some(_) => Verdict::Ok,
            };
            Comparison {
                name: name.clone(),
                seed_s: Some(*seed_rate),
                current_s: current_rate,
                verdict,
            }
        })
        .collect();
    let seeded: std::collections::BTreeSet<&str> =
        seed.rates.iter().map(|(n, _)| n.as_str()).collect();
    for (name, rate) in &current.rates {
        if seeded.contains(name.as_str()) {
            continue;
        }
        comparisons.push(Comparison {
            name: name.clone(),
            seed_s: None,
            current_s: Some(*rate),
            verdict: Verdict::Unseeded,
        });
    }
    comparisons
}

/// Renders the [`compare_rates`] table plus a pass/fail tail line; the
/// bool is `true` when the gate passes. The `Comparison.seed_s` /
/// `current_s` fields hold records/sec here, and the ratio column is
/// `now / seed` — below `1/max_ratio` is the failing direction.
pub fn render_rate_report(comparisons: &[Comparison], max_ratio: f64) -> (String, bool) {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>7}  verdict\n",
        "stage", "seed rec/s", "now rec/s", "ratio"
    ));
    let mut failures = 0usize;
    for c in comparisons {
        let seed = match c.seed_s {
            Some(s) => format!("{s:.2}"),
            None => "-".into(),
        };
        let (now, ratio) = match (c.current_s, c.seed_s) {
            (Some(cur), Some(seed_r)) if seed_r > 0.0 => {
                (format!("{cur:.2}"), format!("{:.2}x", cur / seed_r))
            }
            (Some(cur), _) => (format!("{cur:.2}"), "-".into()),
            (None, _) => ("-".into(), "-".into()),
        };
        let verdict = match c.verdict {
            Verdict::Ok => "ok",
            Verdict::Skipped => "skipped (degenerate seed rate)",
            Verdict::Missing => {
                failures += 1;
                "MISSING from current run"
            }
            Verdict::Regressed => {
                failures += 1;
                "REGRESSED (slower than seed / max-ratio)"
            }
            Verdict::Unseeded => {
                failures += 1;
                "NO SEED counterpart (regenerate and commit the seed)"
            }
        };
        out.push_str(&format!(
            "{:<20} {:>12} {:>12} {:>7}  {}\n",
            c.name, seed, now, ratio, verdict
        ));
    }
    let pass = failures == 0;
    if pass {
        out.push_str(&format!(
            "rate gate: OK ({} stage(s) within {max_ratio}x of seed throughput)\n",
            comparisons.len()
        ));
    } else {
        out.push_str(&format!(
            "rate gate: FAILED ({failures} stage(s) slower than seed/{max_ratio}, \
             missing, or unseeded)\n"
        ));
    }
    (out, pass)
}

/// Renders the comparison table plus a pass/fail tail line; the bool is
/// `true` when the gate passes.
pub fn render_report(comparisons: &[Comparison], max_ratio: f64) -> (String, bool) {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>10} {:>10} {:>7}  verdict\n",
        "artifact", "seed (s)", "now (s)", "ratio"
    ));
    let mut failures = 0usize;
    for c in comparisons {
        let seed = match c.seed_s {
            Some(s) => format!("{s:.3}"),
            None => "-".into(),
        };
        let (now, ratio) = match (c.current_s, c.seed_s) {
            (Some(cur), Some(seed_s)) if seed_s > 0.0 => {
                (format!("{cur:.3}"), format!("{:.2}x", cur / seed_s))
            }
            (Some(cur), _) => (format!("{cur:.3}"), "-".into()),
            (None, _) => ("-".into(), "-".into()),
        };
        let verdict = match c.verdict {
            Verdict::Ok => "ok",
            Verdict::Skipped => "skipped (below noise floor)",
            Verdict::Missing => {
                failures += 1;
                "MISSING from current run"
            }
            Verdict::Regressed => {
                failures += 1;
                "REGRESSED"
            }
            Verdict::Unseeded => {
                failures += 1;
                "NO SEED counterpart (regenerate and commit the seed)"
            }
        };
        out.push_str(&format!(
            "{:<20} {:>10} {:>10} {:>7}  {}\n",
            c.name, seed, now, ratio, verdict
        ));
    }
    let pass = failures == 0;
    if pass {
        out.push_str(&format!(
            "bench gate: OK ({} artifacts within {max_ratio}x of seed)\n",
            comparisons.len()
        ));
    } else {
        out.push_str(&format!(
            "bench gate: FAILED ({failures} artifact(s) regressed beyond {max_ratio}x, \
             missing, or unseeded)\n"
        ));
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ArtifactTimer;

    fn doc(entries: &[(&str, f64)]) -> BenchJson {
        // Built in the exact shape ArtifactTimer::to_json writes (the
        // round-trip test below covers the real writer).
        let mut json = String::from("{\n  \"schema\": \"psa-bench-json/1\",\n");
        json.push_str("  \"workers\": 4,\n  \"total_s\": 1.0,\n  \"artifacts\": [\n");
        for (i, (n, w)) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"name\": \"{n}\", \"wall_s\": {w:.6}}}{comma}\n"
            ));
        }
        json.push_str("  ]\n}\n");
        parse_bench_json(&json).expect("well-formed")
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
        assert_eq!(parsed.artifacts[0].0, "table1");
        assert!(parsed.artifacts[0].1 >= 0.001);
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json("{\"schema\": \"psa-bench-json/1\"}").is_err());
    }

    #[test]
    fn gate_passes_within_ratio_and_skips_noise() {
        let seed = doc(&[("build_chip", 2.0), ("table1", 1.0), ("tiny", 0.001)]);
        let current = doc(&[("build_chip", 4.5), ("table1", 1.2), ("tiny", 0.5)]);
        let cmp = compare(&seed, &current, 2.5, 0.05);
        assert_eq!(cmp[0].verdict, Verdict::Ok); // 2.25x < 2.5x
        assert_eq!(cmp[1].verdict, Verdict::Ok);
        assert_eq!(cmp[2].verdict, Verdict::Skipped); // seed below floor
        let (report, pass) = render_report(&cmp, 2.5);
        assert!(pass, "{report}");
        assert!(report.contains("bench gate: OK"));
    }

    #[test]
    fn gate_fails_on_regression_and_missing() {
        let seed = doc(&[("table1", 1.0), ("fig5", 2.0)]);
        let current = doc(&[("table1", 2.6)]);
        let cmp = compare(&seed, &current, 2.5, 0.05);
        assert_eq!(cmp[0].verdict, Verdict::Regressed);
        assert_eq!(cmp[1].verdict, Verdict::Missing);
        let (report, pass) = render_report(&cmp, 2.5);
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
        let cmp = compare(&seed, &current, 2.5, 0.05);
        assert_eq!(cmp[0].verdict, Verdict::Skipped);
        assert!(render_report(&cmp, 2.5).1);
    }

    #[test]
    fn unseeded_artifacts_fail_the_gate() {
        // A non-trivial current artifact without a seed counterpart used
        // to pass silently; it must now fail loudly so new bench stages
        // cannot ride along ungated.
        let seed = doc(&[("table1", 1.0)]);
        let current = doc(&[("table1", 1.0), ("brand_new", 99.0)]);
        let cmp = compare(&seed, &current, 2.5, 0.05);
        assert_eq!(cmp.len(), 2);
        assert_eq!(cmp[1].verdict, Verdict::Unseeded);
        assert_eq!(cmp[1].seed_s, None);
        let (report, pass) = render_report(&cmp, 2.5);
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
        let cmp = compare(&seed, &current, 2.5, 0.05);
        assert_eq!(cmp[1].verdict, Verdict::Skipped);
        assert!(render_report(&cmp, 2.5).1);
    }

    fn rate_doc(entries: &[(&str, f64)]) -> BenchJson {
        // Shape of the throughput binary's JSON: wall_s plus a
        // records_per_s field per stage (rates derived arbitrarily from
        // a fixed wall here; only the rate field matters to the gate).
        let mut json = String::from("{\n  \"schema\": \"psa-bench-json/1\",\n");
        json.push_str("  \"workers\": 1,\n  \"total_s\": 1.0,\n  \"artifacts\": [\n");
        for (i, (n, r)) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"name\": \"{n}\", \"wall_s\": 1.000000, \"records\": 10, \
                 \"records_per_s\": {r:.6}}}{comma}\n"
            ));
        }
        json.push_str("  ]\n}\n");
        parse_bench_json(&json).expect("well-formed")
    }

    #[test]
    fn parses_rates_alongside_wall_times() {
        let parsed = rate_doc(&[("acquire", 25.0), ("rfft", 900.0)]);
        assert_eq!(parsed.artifacts.len(), 2); // wall times still parsed
        assert_eq!(
            parsed.rates,
            vec![("acquire".into(), 25.0), ("rfft".into(), 900.0)]
        );
        // Plain wall-time documents carry no rates.
        assert!(doc(&[("table1", 1.0)]).rates.is_empty());
    }

    #[test]
    fn rate_gate_fails_on_slowdown_not_speedup() {
        let seed = rate_doc(&[("acquire", 100.0), ("rfft", 1000.0)]);
        // acquire got 10x faster (fine); rfft dropped below seed/2.5.
        let current = rate_doc(&[("acquire", 1000.0), ("rfft", 399.0)]);
        let cmp = compare_rates(&seed, &current, 2.5);
        assert_eq!(cmp[0].verdict, Verdict::Ok);
        assert_eq!(cmp[1].verdict, Verdict::Regressed);
        let (report, pass) = render_rate_report(&cmp, 2.5);
        assert!(!pass);
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("rate gate: FAILED"));
        // Exactly at the boundary passes (strict `<` comparison).
        let boundary = rate_doc(&[("acquire", 40.0), ("rfft", 400.0)]);
        let cmp = compare_rates(&seed, &boundary, 2.5);
        assert!(cmp.iter().all(|c| c.verdict == Verdict::Ok));
    }

    #[test]
    fn rate_gate_fails_missing_and_unseeded_stages() {
        let seed = rate_doc(&[("acquire", 100.0)]);
        let current = rate_doc(&[("brand_new", 5.0)]);
        let cmp = compare_rates(&seed, &current, 2.5);
        assert_eq!(cmp[0].verdict, Verdict::Missing);
        // No noise floor on rates: even a slow new stage fails unseeded.
        assert_eq!(cmp[1].verdict, Verdict::Unseeded);
        let (report, pass) = render_rate_report(&cmp, 2.5);
        assert!(!pass);
        assert!(report.contains("MISSING"));
        assert!(report.contains("NO SEED counterpart"));
    }

    #[test]
    fn degenerate_seed_rates_are_skipped() {
        // A zero/NaN seed rate is a broken measurement, not a target;
        // gating against it would divide by zero or fail forever.
        let seed = rate_doc(&[("broken", 0.0), ("acquire", 100.0)]);
        let current = rate_doc(&[("broken", 50.0), ("acquire", 100.0)]);
        let cmp = compare_rates(&seed, &current, 2.5);
        assert_eq!(cmp[0].verdict, Verdict::Skipped);
        assert_eq!(cmp[1].verdict, Verdict::Ok);
        assert!(render_rate_report(&cmp, 2.5).1);
    }

    #[test]
    fn non_finite_current_wall_time_regresses() {
        // Built in code: the parser itself rejects non-finite numbers.
        let seed = doc(&[("table1", 1.0)]);
        for bad in [f64::NAN, f64::INFINITY] {
            let current = BenchJson {
                artifacts: vec![("table1".into(), bad)],
                ..seed.clone()
            };
            let cmp = compare(&seed, &current, 2.5, 0.05);
            assert_eq!(cmp[0].verdict, Verdict::Regressed, "{bad}");
            assert!(!render_report(&cmp, 2.5).1);
        }
    }

    #[test]
    fn non_finite_current_rate_regresses() {
        let seed = rate_doc(&[("acquire", 100.0)]);
        for bad in [f64::NAN, f64::INFINITY] {
            let current = BenchJson {
                rates: vec![("acquire".into(), bad)],
                ..seed.clone()
            };
            let cmp = compare_rates(&seed, &current, 2.5);
            assert_eq!(cmp[0].verdict, Verdict::Regressed, "{bad}");
            assert!(!render_rate_report(&cmp, 2.5).1);
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
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/seed");
        let mut seeds: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .expect("seed directory")
            .map(|e| e.expect("seed entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        seeds.sort();
        assert!(!seeds.is_empty(), "no seed documents under {dir}");
        let mut rng = psa_dsp::rng::SmallRng::seed_from_u64(0xF022);
        let mut accepted = 0usize;
        for path in &seeds {
            let original = std::fs::read_to_string(path).expect("seed document");
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
                    let numbers = doc.artifacts.iter().chain(&doc.rates).map(|(_, v)| *v);
                    assert!(
                        numbers.chain(doc.total_s).all(f64::is_finite),
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
            let cmp = compare(&seed, &current, 2.5, 0.05);
            assert_eq!(cmp[1].verdict, Verdict::Unseeded, "wall {wall}");
        }
        let current = doc(&[("table1", 1.0), ("hovering", 0.020)]);
        let cmp = compare(&seed, &current, 2.5, 0.05);
        assert_eq!(cmp[1].verdict, Verdict::Skipped);
    }
}

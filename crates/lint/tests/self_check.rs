//! The linter's own acceptance gate: the committed workspace must be
//! clean, and a seeded violation must fail — run here exactly as the CI
//! `lint` job runs it, so the job can never silently pass on a tree the
//! engine doesn't actually check.

use psa_lint::lint_tree;
use psa_lint::rules::RuleId;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn committed_workspace_is_lint_clean() {
    let findings = lint_tree(&workspace_root()).expect("workspace tree is readable");
    assert!(
        findings.is_empty(),
        "the committed workspace must carry zero unsuppressed findings:\n{}",
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_scan_covers_every_crate() {
    // Guard against the walker silently skipping the tree it is
    // supposed to police: every workspace crate's src must contribute
    // files to the scan.
    let root = workspace_root();
    let files = psa_lint::engine::collect_rs_files(&root).expect("walkable tree");
    for krate in [
        "dsp", "ml", "layout", "gatesim", "field", "array", "analog", "core", "runtime", "bench",
        "lint",
    ] {
        let prefix = root.join("crates").join(krate).join("src");
        assert!(
            files.iter().any(|f| f.starts_with(&prefix)),
            "no files scanned under {}",
            prefix.display()
        );
    }
    // And the walker must skip build artifacts.
    assert!(files
        .iter()
        .all(|f| !f.components().any(|c| c.as_os_str() == "target")));
}

#[test]
fn seeded_violation_fails_the_tree_scan() {
    // The negative control for the CI job: drop one nondeterministic
    // map into a scratch tree and the scan must report it.
    let dir = std::env::temp_dir().join(format!("psa-lint-seeded-{}", std::process::id()));
    let src_dir = dir.join("src");
    std::fs::create_dir_all(&src_dir).expect("temp dir is writable");
    std::fs::write(
        src_dir.join("lib.rs"),
        "use std::collections::HashMap;\npub fn f() { println!(\"x\"); }\n",
    )
    .expect("temp file is writable");

    let findings = lint_tree(&dir).expect("scratch tree is readable");
    let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&RuleId::NondetMapIter), "{findings:?}");
    assert!(rules.contains(&RuleId::StdoutInLib), "{findings:?}");

    // And the binary itself must exit nonzero on it — this is exactly
    // what makes the CI `lint` job fail.
    let out = Command::new(env!("CARGO_BIN_EXE_psa-lint"))
        .arg(&dir)
        .output()
        .expect("psa-lint binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1 on a seeded violation"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("nondet-map-iter"), "{stdout}");

    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
}

#[test]
fn clean_tree_exits_zero_and_json_is_empty() {
    let dir = std::env::temp_dir().join(format!("psa-lint-clean-{}", std::process::id()));
    let src_dir = dir.join("src");
    std::fs::create_dir_all(&src_dir).expect("temp dir is writable");
    std::fs::write(
        src_dir.join("lib.rs"),
        "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u8, u8> { BTreeMap::new() }\n",
    )
    .expect("temp file is writable");

    let out = Command::new(env!("CARGO_BIN_EXE_psa-lint"))
        .arg(&dir)
        .output()
        .expect("psa-lint binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let json_out = Command::new(env!("CARGO_BIN_EXE_psa-lint"))
        .arg("--json")
        .arg(&dir)
        .output()
        .expect("psa-lint binary runs");
    assert_eq!(String::from_utf8_lossy(&json_out.stdout).trim(), "[]");

    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
}

#[test]
fn every_allow_in_the_workspace_is_justified() {
    // bad-allow findings surface malformed or unjustified suppressions;
    // a clean tree therefore proves every committed allow carries its
    // justification. This test makes that implication explicit (and
    // keeps failing loudly even if other rules are ever relaxed).
    let findings = lint_tree(&workspace_root()).expect("workspace tree is readable");
    let bad: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == RuleId::BadAllow)
        .collect();
    assert!(bad.is_empty(), "unjustified or malformed allows: {bad:?}");
}

#[test]
fn reach_report_lists_exactly_the_documented_survivors() {
    // The `--reach` fixpoint: every library `pub fn` no non-test code
    // names is one of the survivors in DESIGN.md "Public surface". New
    // unreached surface fails here; so does a survivor that is deleted
    // or starts being reached without its table row going too.
    let unreached: Vec<(String, String)> = psa_lint::reach::reach_tree(&workspace_root())
        .expect("workspace tree is readable")
        .into_iter()
        .map(|u| (u.path, u.name))
        .collect();
    let survivors = [
        ("crates/analog/src/opamp.rs", "gain_at_hz"),
        ("crates/bench/src/harness.rs", "bench"),
        ("crates/core/src/chip.rs", "nominal"),
        ("crates/field/src/dipole.rs", "on_axis_circle_flux"),
        ("crates/gatesim/src/aes.rs", "encrypt_block"),
        ("crates/gatesim/src/trojan.rs", "is_triggered"),
        ("crates/layout/src/geom.rs", "intersects"),
    ]
    .map(|(path, name)| (path.to_string(), name.to_string()));
    assert_eq!(unreached, survivors);
}

//! `psa-lint` CLI: lint the workspace for determinism & hot-path
//! contract violations.
//!
//! ```text
//! psa-lint [--json] [--rules] [--reach] [ROOT]
//! ```
//!
//! Lints every `.rs` file under `ROOT` (default: the current
//! directory), printing `file:line: [rule] message` diagnostics, or a
//! JSON array with `--json`. Exits 0 when clean, 1 on unsuppressed
//! findings, 2 on usage or I/O errors.
//!
//! `--reach` prints the advisory reachability report instead: one
//! `path:line name` line per library `pub fn` that no non-test code
//! names (see [`psa_lint::reach`]). It exits 0 whatever it lists.

use psa_lint::engine::findings_to_json;
use psa_lint::rules::RuleId;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut reach = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--reach" => reach = true,
            "--rules" => {
                for rule in RuleId::ALL {
                    println!("{:<24} {}", rule.name(), rule.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("usage: psa-lint [--json] [--rules] [--reach] [ROOT]");
                println!("  lints every .rs file under ROOT (default .) for determinism");
                println!("  & hot-path contract violations; exit 1 on findings.");
                println!("  --reach lists library pub fns no non-test code names; exit 0.");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag `{flag}` (try --help)");
                return ExitCode::from(2);
            }
            path => {
                if root.is_some() {
                    eprintln!("error: more than one ROOT argument (try --help)");
                    return ExitCode::from(2);
                }
                root = Some(PathBuf::from(path));
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    if reach {
        return match psa_lint::reach::reach_tree(&root) {
            Ok(unreached) => {
                for u in &unreached {
                    println!("{}", u.render());
                }
                eprintln!("psa-lint --reach: {} unreached pub fn(s)", unreached.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let findings = match psa_lint::lint_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", findings_to_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        if findings.is_empty() {
            eprintln!("psa-lint: clean");
        } else {
            eprintln!("psa-lint: {} unsuppressed finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

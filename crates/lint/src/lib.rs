//! `psa-lint` — the determinism & hot-path contract linter for the PSA
//! workspace.
//!
//! Every layer of this reproduction rests on one load-bearing
//! invariant: **byte-identical output at any worker count**. The
//! campaign engine, the fleet monitor, and the joint localizer are all
//! `cmp`-gated on it in CI — but a convention is only a contract once a
//! machine checks it. This crate is that machine: a std-only Rust lexer
//! (comments, strings, raw strings, and lifetimes handled correctly)
//! feeding a rule engine that produces `file:line` diagnostics, with
//! comment suppressions that *must* carry a justification, `--json`
//! output, and a nonzero exit on unsuppressed findings.
//!
//! The rules (see [`rules::RuleId`]):
//!
//! | rule | contract |
//! |------|----------|
//! | `nondet-map-iter` | no `HashMap`/`HashSet` in lib/bin code — iteration order is per-process random |
//! | `panic-in-lib` | no `unwrap`/`panic!`-family in lib code; `expect` needs a literal proof string |
//! | `wallclock-in-lib` | `Instant::now`/`SystemTime` only in `psa_bench::harness` |
//! | `thread-outside-runtime` | thread spawning only in `psa-runtime` |
//! | `stdout-in-lib` | `print!`/`println!` only in binaries — stdout is a byte-compared artifact |
//! | `float-partial-cmp` | never `partial_cmp(..).unwrap()`; use `total_cmp` |
//! | `bad-allow` | suppressions must name known rules and justify themselves |
//!
//! Suppression syntax, on the offending line or the line above:
//!
//! ```text
//! // psa-lint: allow(nondet-map-iter): keys are sorted before iteration
//! ```
//!
//! Scope model: paths classify as library, binary (`src/bin/`,
//! `examples/`), or test (`tests/`, `benches/`) code, and `#[cfg(test)]`
//! items inside library files are test scope — most rules gate library
//! code only, because that is what the deterministic artifacts link.
//!
//! [`reach`] is a separate, advisory report over the same lexer and
//! scope model: the library `pub fn`s that no non-test code names
//! (`psa-lint --reach`).
//!
//! Deliberate limits: this is a lexer, not a compiler. It cannot see
//! through type aliases, `use ... as` renames, or macro expansion, and
//! doc-comment code blocks are comments to it (rustdoc compiles those
//! as test scope anyway). The `clippy.toml` `disallowed-types` /
//! `disallowed-methods` lists provide the type-resolved defense in
//! depth behind it.

pub mod engine;
pub mod error;
pub mod lexer;
pub mod reach;
pub mod rules;

pub use engine::{lint_source, lint_tree, FileClass, Finding};
pub use error::LintError;
pub use rules::RuleId;

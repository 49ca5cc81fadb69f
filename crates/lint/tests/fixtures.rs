//! Fixture-driven coverage for every lint rule: positive snippets (the
//! rule fires), negative snippets (it stays quiet), suppressed
//! snippets (a justified allow silences it), and the lexer traps —
//! violations spelled inside raw strings and comments must never fire.

use psa_lint::engine::lint_source;
use psa_lint::rules::RuleId;
use psa_lint::FileClass;

const LIB: &str = "crates/x/src/lib.rs";

fn findings(src: &str) -> Vec<(RuleId, u32)> {
    lint_source(LIB, FileClass::Lib, src)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

fn rules_fired(src: &str) -> Vec<RuleId> {
    findings(src).into_iter().map(|(r, _)| r).collect()
}

// --- nondet-map-iter --------------------------------------------------

#[test]
fn nondet_map_iter_positive() {
    let src = "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { HashMap::new() }\n";
    let fired = findings(src);
    assert!(fired.iter().all(|(r, _)| *r == RuleId::NondetMapIter));
    assert_eq!(fired.len(), 3);
    assert!(
        rules_fired("fn f() { let _ = std::collections::HashSet::<u32>::new(); }")
            .contains(&RuleId::NondetMapIter)
    );
    // The random-state machinery counts too.
    assert!(rules_fired("use std::collections::hash_map::RandomState;")
        .contains(&RuleId::NondetMapIter));
}

#[test]
fn nondet_map_iter_negative() {
    let src = "use std::collections::{BTreeMap, BTreeSet};\nfn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
    assert!(findings(src).is_empty());
}

#[test]
fn nondet_map_iter_suppressed() {
    let src = "// psa-lint: allow(nondet-map-iter): values drained into a sorted Vec before use\n\
               use std::collections::HashMap;\n";
    assert!(findings(src).is_empty(), "{:?}", findings(src));
}

#[test]
fn nondet_map_iter_applies_to_bins_but_not_tests() {
    // Bench binaries print byte-compared artifacts, so the rule covers
    // them as well as libraries.
    let bin = lint_source(
        "crates/bench/src/bin/table9.rs",
        FileClass::Bin,
        "use std::collections::HashMap;\n",
    );
    assert_eq!(bin.len(), 1);
    let test = lint_source(
        "tests/foo.rs",
        FileClass::Test,
        "use std::collections::HashMap;\n",
    );
    assert!(test.is_empty());
}

// --- panic-in-lib -----------------------------------------------------

#[test]
fn panic_in_lib_positive() {
    assert_eq!(
        rules_fired("fn f(x: Option<u32>) -> u32 { x.unwrap() }"),
        vec![RuleId::PanicInLib]
    );
    assert_eq!(
        rules_fired("fn f() { panic!(\"boom\"); }"),
        vec![RuleId::PanicInLib]
    );
    assert_eq!(
        rules_fired("fn f() { unreachable!() }"),
        vec![RuleId::PanicInLib]
    );
    assert_eq!(rules_fired("fn f() { todo!() }"), vec![RuleId::PanicInLib]);
    // expect with a non-literal message is not a proof string.
    assert_eq!(
        rules_fired("fn f(x: Option<u32>, m: &str) -> u32 { x.expect(m) }"),
        vec![RuleId::PanicInLib]
    );
}

#[test]
fn panic_in_lib_negative() {
    // The sanctioned de-panicked form: a literal proof of the invariant.
    assert!(
        rules_fired("fn f(x: Option<u32>) -> u32 { x.expect(\"validated above\") }").is_empty()
    );
    // unwrap_or and friends are fine.
    assert!(rules_fired("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }").is_empty());
    assert!(rules_fired("fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }").is_empty());
    // `panic` as an identifier (e.g. a bool) is not the macro.
    assert!(rules_fired("fn f(panic: bool) -> bool { panic != false }").is_empty());
    // Bins and tests may unwrap.
    assert!(lint_source(
        "crates/b/src/bin/m.rs",
        FileClass::Bin,
        "fn f(x: Option<u32>) { x.unwrap(); }"
    )
    .is_empty());
    assert!(lint_source(
        "tests/t.rs",
        FileClass::Test,
        "fn f() { panic!(\"in tests\") }"
    )
    .is_empty());
}

#[test]
fn panic_in_lib_cfg_test_region_exempt() {
    let src = "fn lib_fn() -> u32 { 1 }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { Some(1).unwrap(); panic!(\"ok in tests\"); }\n\
               }\n";
    assert!(findings(src).is_empty(), "{:?}", findings(src));
}

#[test]
fn panic_in_lib_suppressed() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               \x20   // psa-lint: allow(panic-in-lib): slot was filled by the loop above\n\
               \x20   x.unwrap()\n\
               }\n";
    assert!(findings(src).is_empty());
}

// --- wallclock-in-lib -------------------------------------------------

#[test]
fn wallclock_positive() {
    assert_eq!(
        rules_fired("fn f() { let _t = std::time::Instant::now(); }"),
        vec![RuleId::WallclockInLib]
    );
    assert_eq!(
        rules_fired("use std::time::SystemTime;"),
        vec![RuleId::WallclockInLib]
    );
}

#[test]
fn wallclock_negative_and_harness_exempt() {
    // Storing or diffing an Instant passed in is fine — only reading
    // the clock is gated.
    assert!(
        rules_fired("fn f(t: std::time::Instant) -> u128 { t.elapsed().as_nanos() }").is_empty()
    );
    let harness = lint_source(
        "crates/bench/src/harness.rs",
        FileClass::Lib,
        "fn f() { let _ = std::time::Instant::now(); }",
    );
    assert!(harness.is_empty());
    // Bins time their own walls.
    assert!(lint_source(
        "crates/bench/src/bin/table9.rs",
        FileClass::Bin,
        "fn f() { let _ = std::time::Instant::now(); }"
    )
    .is_empty());
}

// --- thread-outside-runtime -------------------------------------------

#[test]
fn thread_positive() {
    assert_eq!(
        rules_fired("fn f() { std::thread::spawn(|| {}); }"),
        vec![RuleId::ThreadOutsideRuntime]
    );
    assert_eq!(
        rules_fired("fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }").len(),
        2 // the scope call and the scoped spawn
    );
}

#[test]
fn thread_negative_and_runtime_exempt() {
    // Sleeping is not spawning.
    assert!(
        rules_fired("fn f() { std::thread::sleep(std::time::Duration::from_millis(1)); }")
            .is_empty()
    );
    let engine = lint_source(
        "crates/runtime/src/engine.rs",
        FileClass::Lib,
        "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }",
    );
    assert!(engine.is_empty());
}

// --- stdout-in-lib ----------------------------------------------------

#[test]
fn stdout_positive() {
    assert_eq!(
        rules_fired("fn f() { println!(\"hi\"); }"),
        vec![RuleId::StdoutInLib]
    );
    assert_eq!(
        rules_fired("fn f() { print!(\"hi\"); }"),
        vec![RuleId::StdoutInLib]
    );
}

#[test]
fn stdout_negative() {
    // stderr is not an artifact.
    assert!(rules_fired("fn f() { eprintln!(\"timing: 3s\"); }").is_empty());
    // Binaries own stdout.
    assert!(lint_source(
        "crates/bench/src/bin/table9.rs",
        FileClass::Bin,
        "fn main() { println!(\"table\"); }"
    )
    .is_empty());
}

#[test]
fn stdout_suppressed_through_comment_block() {
    // The allow may sit atop a multi-line comment directly above the
    // offending line — continuation comment lines don't break it.
    let src = "fn f() {\n\
               \x20   // psa-lint: allow(stdout-in-lib): this report line is the\n\
               \x20   // harness's own stdout contract\n\
               \x20   println!(\"report\");\n\
               }\n";
    assert!(findings(src).is_empty(), "{:?}", findings(src));
}

// --- float-partial-cmp ------------------------------------------------

#[test]
fn float_partial_cmp_positive() {
    // In lib scope the `.unwrap()` itself also trips panic-in-lib;
    // both diagnostics point at the same line.
    assert_eq!(
        rules_fired("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"),
        vec![RuleId::PanicInLib, RuleId::FloatPartialCmp]
    );
    // expect is no better than unwrap here.
    assert_eq!(
        rules_fired("fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b).expect(\"no NaN\"); }"),
        // The expect also fires panic-in-lib? No: a literal proof string
        // is sanctioned there — only float-partial-cmp fires.
        vec![RuleId::FloatPartialCmp]
    );
    // This one applies even in tests.
    assert_eq!(
        lint_source(
            "tests/t.rs",
            FileClass::Test,
            "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"
        )
        .len(),
        1
    );
}

#[test]
fn float_partial_cmp_negative() {
    assert!(rules_fired("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }").is_empty());
    // partial_cmp handled as an Option is legitimate.
    assert!(rules_fired(
        "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal) }"
    )
    .is_empty());
}

// --- lexer traps: strings & comments must never fire ------------------

#[test]
fn violations_inside_strings_do_not_fire() {
    let src = r##"
fn f() -> String {
    let a = "HashMap::new() and x.unwrap() and println!";
    let b = r#"Instant::now() inside a "raw" string: std::thread::spawn"#;
    format!("{a}{b}")
}
"##;
    assert!(findings(src).is_empty(), "{:?}", findings(src));
}

#[test]
fn violations_inside_comments_do_not_fire() {
    let src = "fn f() {}\n\
               // dead code kept for reference: let m = HashMap::new();\n\
               /* multi-line: x.unwrap(); println!(\"t\"); Instant::now()\n\
               \x20  still comment: std::thread::spawn(|| {}); */\n";
    assert!(findings(src).is_empty(), "{:?}", findings(src));
}

#[test]
fn raw_string_ending_trap_does_not_desync_the_lexer() {
    // A raw string whose body contains quote-hash sequences: if the
    // lexer closed early, the HashMap after it would vanish or the one
    // inside would fire.
    let src = r###"
fn f() -> &'static str {
    let s = r##"decoys: HashMap "# x.unwrap() "quoted" println!"## ;
    let _m: std::collections::HashMap<u8, u8> = Default::default();
    s
}
"###;
    // The decoys inside the raw string are invisible; the real HashMap
    // AFTER it must fire exactly once — proof the lexer closed the raw
    // string at `"##` and not at the embedded `"#` or `"`.
    let fired = findings(src);
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0].0, RuleId::NondetMapIter);
}

// --- suppression hygiene ----------------------------------------------

#[test]
fn unjustified_allow_does_not_suppress_and_reports_bad_allow() {
    let src = "// psa-lint: allow(nondet-map-iter):\nuse std::collections::HashMap;\n";
    let fired = rules_fired(src);
    assert!(fired.contains(&RuleId::NondetMapIter), "{fired:?}");
    assert!(fired.contains(&RuleId::BadAllow), "{fired:?}");
}

#[test]
fn unknown_rule_allow_reports_bad_allow() {
    let fired = rules_fired("// psa-lint: allow(no-such-rule): because\nfn f() {}\n");
    assert_eq!(fired, vec![RuleId::BadAllow]);
}

#[test]
fn allow_only_covers_adjacent_line() {
    // An allow can't blanket a whole file: two lines down it no longer
    // applies.
    let src = "// psa-lint: allow(nondet-map-iter): only covers the next code line\n\
               fn ok() {}\n\
               use std::collections::HashMap;\n";
    assert_eq!(rules_fired(src), vec![RuleId::NondetMapIter]);
}

#[test]
fn trailing_same_line_allow_works() {
    let src =
        "use std::collections::HashMap; // psa-lint: allow(nondet-map-iter): re-sorted on drain\n";
    assert!(findings(src).is_empty());
}

#[test]
fn multi_rule_allow_works() {
    let src = "// psa-lint: allow(nondet-map-iter, panic-in-lib): fixture exercising both\n\
               fn f(m: std::collections::HashMap<u8, u8>) -> u8 { m.get(&0).copied().unwrap() }\n";
    assert!(findings(src).is_empty(), "{:?}", findings(src));
}

#[test]
fn prose_mentions_of_the_marker_are_not_directives() {
    // Mid-sentence mentions (like documentation describing the syntax)
    // are prose, not directives.
    let src = "/// Suppress with a psa-lint: allow line when justified.\nfn f() {}\n";
    assert!(findings(src).is_empty(), "{:?}", findings(src));
}

// --- diagnostics surface ----------------------------------------------

#[test]
fn findings_carry_file_line_and_render_stably() {
    let src = "fn a() {}\nfn b() { println!(\"x\"); }\n";
    let out = lint_source("crates/x/src/lib.rs", FileClass::Lib, src);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].line, 2);
    let rendered = out[0].render();
    assert!(
        rendered.starts_with("crates/x/src/lib.rs:2: [stdout-in-lib]"),
        "{rendered}"
    );
}

#[test]
fn json_output_is_wellformed() {
    let src = "fn b() { println!(\"x\"); }\n";
    let out = lint_source("crates/x/src/lib.rs", FileClass::Lib, src);
    let json = psa_lint::engine::findings_to_json(&out);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"rule\": \"stdout-in-lib\""));
    assert!(json.contains("\"line\": 1"));
}

// --- reach report -----------------------------------------------------

/// Names the reach report lists over in-memory `(path, source)` files.
fn unreached(files: &[(&str, &str)]) -> Vec<String> {
    psa_lint::reach::reach_sources(files)
        .into_iter()
        .map(|u| u.name)
        .collect()
}

const REACH_LIB: &str = "crates/x/src/lib.rs";
const ORPHAN_LIB: &str = "pub fn orphan() -> u32 { 1 }\npub fn helper() -> u32 { 2 }\n";

#[test]
fn reach_reports_a_seeded_unreached_pub_fn() {
    let lib =
        "pub fn used() -> u32 { 1 }\n\n/// Nobody calls this.\npub fn orphan() -> u32 { 2 }\n";
    let bin = "fn main() { println!(\"{}\", x::used()); }\n";
    let out = psa_lint::reach::reach_sources(&[(REACH_LIB, lib), ("crates/x/src/bin/m.rs", bin)]);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].render(), "crates/x/src/lib.rs:4 orphan");
    // Only `pub fn`s in a crate's library source are candidates: private
    // and restricted items are rustc's `dead_code` business, and other
    // trees (a facade, psabench, binaries) are roots only.
    let private = "fn a() {}\npub(crate) fn b() {}\n";
    assert!(unreached(&[(REACH_LIB, private)]).is_empty());
    for root in ["src/lib.rs", "psabench/src/lib.rs", "crates/x/src/bin/m.rs"] {
        assert!(unreached(&[(root, ORPHAN_LIB)]).is_empty(), "{root}");
    }
}

#[test]
fn reach_ignores_callers_in_test_scope() {
    let unit = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::orphan(); }\n}\n";
    let lib = format!("{ORPHAN_LIB}{unit}");
    assert_eq!(unreached(&[(REACH_LIB, &lib)]), ["orphan", "helper"]);
    for test_file in [
        "crates/x/tests/smoke.rs",
        "tests/it.rs",
        "crates/x/benches/b.rs",
    ] {
        let caller = "fn t() { x::orphan(); x::helper(); }\n";
        assert_eq!(
            unreached(&[(REACH_LIB, ORPHAN_LIB), (test_file, caller)]),
            ["orphan", "helper"],
            "{test_file}"
        );
    }
}

#[test]
fn reach_counts_callers_in_bins_examples_and_psabench() {
    for root in [
        "crates/bench/src/bin/table1.rs",
        "examples/quickstart.rs",
        "psabench/src/main.rs",
    ] {
        let caller = "fn main() { let _ = x::orphan(); }\n";
        assert_eq!(
            unreached(&[(REACH_LIB, ORPHAN_LIB), (root, caller)]),
            ["helper"],
            "{root}"
        );
    }
    // Other library code is a root too.
    let other = "pub fn wrap() -> u32 { x::helper() }\n";
    let reached = unreached(&[(REACH_LIB, ORPHAN_LIB), ("crates/y/src/lib.rs", other)]);
    assert_eq!(reached, ["orphan", "wrap"]);
}

#[test]
fn reach_ignores_doc_comment_and_string_mentions() {
    let caller = "/// Calls [`orphan`] and `helper()`.\n\
                  // orphan(); helper();\n\
                  fn main() { println!(\"orphan helper\"); let _ = r#\"orphan\"#; }\n";
    assert_eq!(
        unreached(&[(REACH_LIB, ORPHAN_LIB), ("crates/x/src/bin/m.rs", caller)]),
        ["orphan", "helper"]
    );
}

#[test]
fn reach_ignores_a_functions_own_recursive_call() {
    let lib =
        "pub fn countdown(n: u32) -> u32 {\n    if n == 0 { 0 } else { countdown(n - 1) }\n}\n\
               pub fn table(x: [f64; 4]) -> f64 { x[0] }\n";
    assert_eq!(unreached(&[(REACH_LIB, lib)]), ["countdown", "table"]);
    // A second function of the same name is a definition, not a caller.
    assert_eq!(
        unreached(&[(REACH_LIB, ORPHAN_LIB), ("crates/y/src/lib.rs", ORPHAN_LIB)]),
        ["orphan", "helper", "orphan", "helper"]
    );
    // A call from anywhere else does reach it.
    let caller = "fn main() { x::countdown(3); }\n";
    assert_eq!(
        unreached(&[(REACH_LIB, lib), ("crates/x/src/bin/m.rs", caller)]),
        ["table"]
    );
}

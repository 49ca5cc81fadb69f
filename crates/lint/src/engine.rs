//! The lint engine: file classification, `#[cfg(test)]` region
//! tracking, suppression directives, and the workspace walker.
//!
//! The core entry point is [`lint_source`], a pure function from
//! `(path, class, source)` to findings — the fixture tests drive it on
//! in-memory snippets, and [`lint_tree`] drives it over the real tree.

use crate::error::LintError;
use crate::lexer::{self, Comment, Tok, TokKind};
use crate::rules::{self, RawFinding, RuleId, Scope};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// How a file is linted, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code (a crate's `src/` outside `src/bin/`).
    Lib,
    /// Binary or example code (`src/bin/`, `examples/`, `main.rs`).
    Bin,
    /// Test code (`tests/`, `benches/`).
    Test,
}

impl FileClass {
    /// Classifies a `/`-separated workspace-relative path.
    pub fn classify(path: &str) -> FileClass {
        let components: Vec<&str> = path.split('/').collect();
        if components.iter().any(|c| *c == "tests" || *c == "benches") {
            return FileClass::Test;
        }
        if components.contains(&"examples") {
            return FileClass::Bin;
        }
        if path.contains("src/bin/") || path.ends_with("main.rs") || path.ends_with("build.rs") {
            return FileClass::Bin;
        }
        FileClass::Lib
    }

    fn base_scope(self) -> Scope {
        match self {
            FileClass::Lib => Scope::Lib,
            FileClass::Bin => Scope::Bin,
            FileClass::Test => Scope::Test,
        }
    }
}

/// One diagnostic, after suppression processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// `/`-separated workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: RuleId,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// Renders the standard `path:line: [rule] message` diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// A parsed suppression directive: the comment-leading marker followed
/// by `allow(rule, ...): justification`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Directive {
    line: u32,
    rules: Vec<RuleId>,
    /// `Some(problem)` when the directive is malformed; such directives
    /// never suppress anything and produce a `bad-allow` finding.
    problem: Option<String>,
}

const DIRECTIVE_MARKER: &str = "psa-lint:";

/// Parses suppression directives out of the comment side channel.
///
/// A directive must *lead* its comment (`// psa-lint: allow(..): ..`);
/// the marker mid-sentence is prose, not a directive, so documentation
/// can talk about the syntax without tripping `bad-allow`.
fn parse_directives(comments: &[Comment]) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        // Normalize doc-comment sigils: `//!`/`/**` bodies arrive with a
        // leading `!`/`*` after the lexer strips the slashes.
        let text = c.text.trim_start_matches(['!', '*']).trim_start();
        let Some(rest) = text.strip_prefix(DIRECTIVE_MARKER) else {
            continue;
        };
        out.push(parse_one_directive(c.line, rest.trim_start()));
    }
    out
}

fn parse_one_directive(line: u32, rest: &str) -> Directive {
    let malformed = |problem: &str| Directive {
        line,
        rules: Vec::new(),
        problem: Some(problem.to_string()),
    };
    let Some(rest) = rest.strip_prefix("allow") else {
        return malformed("expected `allow(<rule>, ...): <justification>`");
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return malformed("expected `(` after `allow`");
    };
    let Some(close) = rest.find(')') else {
        return malformed("unclosed `allow(`");
    };
    let (list, tail) = rest.split_at(close);
    let mut rules = Vec::new();
    for name in list.split(',') {
        let name = name.trim();
        if name.is_empty() {
            return malformed("empty rule name in `allow(..)`");
        }
        match RuleId::from_name(name) {
            Some(r) => rules.push(r),
            None => {
                return Directive {
                    line,
                    rules: Vec::new(),
                    problem: Some(format!("unknown rule `{name}` in `allow(..)`")),
                };
            }
        }
    }
    if rules.is_empty() {
        return malformed("`allow()` lists no rules");
    }
    let tail = tail.trim_start_matches(')').trim_start();
    let Some(justification) = tail.strip_prefix(':') else {
        return Directive {
            line,
            rules,
            problem: Some("missing `: <justification>` after `allow(..)`".to_string()),
        };
    };
    if justification.trim().is_empty() {
        return Directive {
            line,
            rules,
            problem: Some("empty justification — say *why* the contract is safe here".to_string()),
        };
    }
    Directive {
        line,
        rules,
        problem: None,
    }
}

/// Computes per-token scopes: the file's base scope, overridden to
/// [`Scope::Test`] inside `#[cfg(test)]` items (attribute + the item's
/// balanced `{..}` block or terminating `;`).
pub(crate) fn token_scopes(toks: &[Tok], class: FileClass) -> Vec<Scope> {
    let base = class.base_scope();
    let mut scopes = vec![base; toks.len()];
    if base == Scope::Test {
        return scopes;
    }
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let attr_end = i + 7; // '#' '[' cfg '(' test ')' ']'
            let item_end = cfg_item_end(toks, attr_end);
            for s in scopes.iter_mut().take(item_end).skip(i) {
                *s = Scope::Test;
            }
            i = item_end;
        } else {
            i += 1;
        }
    }
    scopes
}

/// `#[cfg(test)]` starting exactly at `i`.
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct('#'))
        && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('['))
        && matches!(toks.get(i + 2), Some(t) if t.kind == TokKind::Ident && t.text == "cfg")
        && matches!(toks.get(i + 3), Some(t) if t.kind == TokKind::Punct('('))
        && matches!(toks.get(i + 4), Some(t) if t.kind == TokKind::Ident && t.text == "test")
        && matches!(toks.get(i + 5), Some(t) if t.kind == TokKind::Punct(')'))
        && matches!(toks.get(i + 6), Some(t) if t.kind == TokKind::Punct(']'))
}

/// End (exclusive token index) of the item following a `#[cfg(test)]`
/// attribute at `start`: skips further attributes, then consumes either
/// a `;`-terminated item or a braced item with balanced `{}`.
fn cfg_item_end(toks: &[Tok], mut start: usize) -> usize {
    // Skip any further attributes.
    while matches!(toks.get(start), Some(t) if t.kind == TokKind::Punct('#'))
        && matches!(toks.get(start + 1), Some(t) if t.kind == TokKind::Punct('['))
    {
        let mut depth = 0usize;
        let mut j = start + 1;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        start = j + 1;
    }
    // Consume the item: first `{` balances to its close; a top-level `;`
    // before any `{` ends the item (e.g. `#[cfg(test)] use helpers;`).
    let mut j = start;
    let mut brace_depth = 0usize;
    let mut saw_brace = false;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('{') => {
                brace_depth += 1;
                saw_brace = true;
            }
            TokKind::Punct('}') => {
                brace_depth = brace_depth.saturating_sub(1);
                if saw_brace && brace_depth == 0 {
                    return j + 1;
                }
            }
            TokKind::Punct(';') if !saw_brace => return j + 1,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Lints one file's source text. Pure: no filesystem access.
///
/// `path` must be `/`-separated and workspace-relative — rule path
/// exceptions (`psa_bench::harness`, `psa-runtime`) match on it.
pub fn lint_source(path: &str, class: FileClass, source: &str) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let scopes = token_scopes(&lexed.tokens, class);
    let raw = rules::scan(path, &lexed.tokens, &scopes);
    let directives = parse_directives(&lexed.comments);

    // A directive covers its own line (trailing form) and the next
    // *code* line after it (comment-above form — continuation comment
    // lines in between don't break the link).
    let next_code_line =
        |after: u32| -> Option<u32> { lexed.tokens.iter().map(|t| t.line).find(|&l| l > after) };
    let mut findings: Vec<Finding> = Vec::new();
    for RawFinding {
        rule,
        line,
        message,
    } in raw
    {
        let suppressed = directives.iter().any(|d| {
            d.problem.is_none()
                && d.rules.contains(&rule)
                && (d.line == line || next_code_line(d.line) == Some(line))
        });
        if !suppressed {
            findings.push(Finding {
                path: path.to_string(),
                line,
                rule,
                message,
            });
        }
    }
    for d in &directives {
        if let Some(problem) = &d.problem {
            findings.push(Finding {
                path: path.to_string(),
                line: d.line,
                rule: RuleId::BadAllow,
                message: problem.clone(),
            });
        }
    }
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(&b.rule)));
    findings
}

/// Recursively collects `.rs` files under `root`, skipping `target`,
/// VCS metadata, and hidden directories. Paths come back sorted so
/// diagnostics are deterministic.
pub fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = BTreeSet::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| LintError::io(&dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| LintError::io(&dir, &e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.insert(path);
            }
        }
    }
    Ok(out.into_iter().collect())
}

/// Lints every `.rs` file under `root` and returns all findings, sorted
/// by path then line.
pub fn lint_tree(root: &Path) -> Result<Vec<Finding>, LintError> {
    let mut findings = Vec::new();
    for file in collect_rs_files(root)? {
        let rel = relative_label(root, &file);
        let class = FileClass::classify(&rel);
        let source = std::fs::read_to_string(&file).map_err(|e| LintError::io(&file, &e))?;
        findings.extend(lint_source(&rel, class, &source));
    }
    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
    });
    Ok(findings)
}

/// `/`-separated path of `file` relative to `root` (falls back to the
/// full path when `file` is not under `root`).
pub(crate) fn relative_label(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Serializes findings as a JSON array (std-only writer).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.rule.name(),
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        s.push('\n');
    }
    s.push(']');
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_paths() {
        assert_eq!(FileClass::classify("crates/ml/src/knn.rs"), FileClass::Lib);
        assert_eq!(
            FileClass::classify("crates/bench/src/bin/table1.rs"),
            FileClass::Bin
        );
        assert_eq!(FileClass::classify("tests/atlas.rs"), FileClass::Test);
        assert_eq!(
            FileClass::classify("crates/core/tests/monitor.rs"),
            FileClass::Test
        );
        assert_eq!(FileClass::classify("examples/probe.rs"), FileClass::Bin);
        assert_eq!(FileClass::classify("src/lib.rs"), FileClass::Lib);
    }

    #[test]
    fn cfg_test_region_is_test_scope() {
        let src = "use std::collections::BTreeMap;\n\
                   #[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let findings = lint_source("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_test_on_semicolon_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn f() {}\n";
        let findings = lint_source("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn directive_parsing_accepts_good_and_rejects_bad() {
        let good = parse_one_directive(1, "allow(nondet-map-iter): keys are pre-sorted");
        assert!(good.problem.is_none());
        assert_eq!(good.rules, vec![RuleId::NondetMapIter]);

        let two = parse_one_directive(1, "allow(stdout-in-lib, panic-in-lib): bench harness");
        assert!(two.problem.is_none());
        assert_eq!(two.rules.len(), 2);

        for bad in [
            "deny(nondet-map-iter): nope",
            "allow nondet-map-iter: no parens",
            "allow(nondet-map-iter)",
            "allow(nondet-map-iter):   ",
            "allow(made-up-rule): whatever",
            "allow(): empty",
        ] {
            assert!(
                parse_one_directive(1, bad).problem.is_some(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let f = Finding {
            path: "a.rs".into(),
            line: 3,
            rule: RuleId::StdoutInLib,
            message: "say \"hi\"\nthere".into(),
        };
        let json = findings_to_json(&[f]);
        assert!(json.contains("say \\\"hi\\\"\\nthere"));
        assert_eq!(findings_to_json(&[]), "[]");
    }
}

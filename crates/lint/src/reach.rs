//! `--reach`: a name-level reachability report over the library surface.
//!
//! Lists every `pub fn` defined in library scope of `crates/*/src` whose
//! name no non-test token outside its own `fn` item mentions. The roots
//! are whatever non-test code is in the tree — binaries, examples, the
//! facade, other library code — and test scope is the same scope model
//! the rules use: `tests/`, `benches/` and `#[cfg(test)]` items.
//!
//! The report is one pass with no call graph: a function mentioned only
//! by another unreached function stays off the list until that caller
//! goes. Iterating delete-and-rerun reaches the transitive fixpoint.
//! Being name-level, it over-approximates reach: any mention of the
//! name (a same-named method elsewhere, a `use`) keeps a function
//! alive, while a function's own definition and recursive calls do not.
//! Comments and string literals are not tokens, so a doc mention never
//! counts either. The report is advisory and never fails a run.

use crate::engine::{collect_rs_files, relative_label, token_scopes, FileClass};
use crate::error::LintError;
use crate::lexer::{self, Tok, TokKind};
use crate::rules::Scope;
use std::collections::BTreeMap;
use std::path::Path;

/// One library `pub fn` that no non-test code outside itself names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Unreached {
    /// `/`-separated workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// The function name.
    pub name: String,
}

impl Unreached {
    /// Renders the `path:line name` report line.
    pub fn render(&self) -> String {
        format!("{}:{} {}", self.path, self.line, self.name)
    }
}

/// A `pub fn` definition: its name token and the token span of the item.
struct Def {
    name: usize,
    item: std::ops::Range<usize>,
}

/// Whether `path` lies in a crate's `src/` tree (`crates/<name>/src/..`).
fn in_crate_src(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

fn is_ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

/// Whether token `i` mentions a name: a non-test identifier that is not
/// the name of a `fn` being defined.
fn is_mention(toks: &[Tok], scopes: &[Scope], i: usize) -> bool {
    toks[i].kind == TokKind::Ident
        && scopes[i] != Scope::Test
        && !(i > 0 && is_ident(&toks[i - 1], "fn"))
}

/// Index of the `fn` keyword of a `pub fn` item starting at `i`, skipping
/// the qualifiers that may sit between (`const`, `unsafe`, `async`,
/// `extern "C"`). `pub(crate)` and other restricted visibilities are not
/// `pub` here: rustc's `dead_code` already polices those.
fn pub_fn_keyword(toks: &[Tok], i: usize) -> Option<usize> {
    if !is_ident(&toks[i], "pub") {
        return None;
    }
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        match t.kind {
            TokKind::Ident if t.text == "fn" => return Some(j),
            TokKind::Ident
                if matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern") => {}
            TokKind::Literal => {}
            _ => return None,
        }
        j += 1;
    }
    None
}

/// End (exclusive) of the `fn` item whose name token is at `name`: the
/// balanced body block, or the `;` of a bodiless declaration. Brackets
/// and parentheses are tracked so `[f64; 4]` in a signature does not end
/// the item.
fn fn_item_end(toks: &[Tok], name: usize) -> usize {
    let mut nest = 0usize;
    let mut j = name + 1;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('(' | '[') => nest += 1,
            TokKind::Punct(')' | ']') => nest = nest.saturating_sub(1),
            TokKind::Punct(';') if nest == 0 => return j + 1,
            TokKind::Punct('{') if nest == 0 => {
                let mut depth = 0usize;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return j + 1;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return toks.len();
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Runs the report over in-memory `(path, source)` pairs. Pure: no
/// filesystem access. Paths are `/`-separated and workspace-relative;
/// they decide both the scope ([`FileClass::classify`]) and whether a
/// file's `pub fn`s are candidates (`crates/*/src`, library class).
pub fn reach_sources<P: AsRef<str>, S: AsRef<str>>(files: &[(P, S)]) -> Vec<Unreached> {
    let mut lexed = Vec::with_capacity(files.len());
    for (path, source) in files {
        let path = path.as_ref();
        let class = FileClass::classify(path);
        let toks = lexer::lex(source.as_ref()).tokens;
        let scopes = token_scopes(&toks, class);
        lexed.push((path, class, toks, scopes));
    }
    // Non-test mentions per name, and the candidate definitions.
    let mut mentions: BTreeMap<&str, usize> = BTreeMap::new();
    let mut defs: Vec<(usize, Def)> = Vec::new();
    for (f, (path, class, toks, scopes)) in lexed.iter().enumerate() {
        let candidates = *class == FileClass::Lib && in_crate_src(path);
        for (i, t) in toks.iter().enumerate() {
            if scopes[i] == Scope::Test {
                continue;
            }
            if is_mention(toks, scopes, i) {
                *mentions.entry(t.text.as_str()).or_default() += 1;
            }
            if candidates {
                if let Some(kw) = pub_fn_keyword(toks, i) {
                    if toks.get(kw + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                        let name = kw + 1;
                        let item = i..fn_item_end(toks, name);
                        defs.push((f, Def { name, item }));
                    }
                }
            }
        }
    }
    let mut out: Vec<Unreached> = defs
        .into_iter()
        .filter_map(|(f, def)| {
            let (path, _, toks, scopes) = &lexed[f];
            let name = toks[def.name].text.as_str();
            let own = def
                .item
                .filter(|&k| is_mention(toks, scopes, k) && toks[k].text == name)
                .count();
            let total = mentions.get(name).copied().unwrap_or(0);
            (total == own).then(|| Unreached {
                path: (*path).to_string(),
                line: toks[def.name].line,
                name: name.to_string(),
            })
        })
        .collect();
    out.sort();
    out
}

/// Runs the report over every `.rs` file under `root` (the same walk as
/// [`crate::lint_tree`]), sorted by path then line.
pub fn reach_tree(root: &Path) -> Result<Vec<Unreached>, LintError> {
    let mut files = Vec::new();
    for file in collect_rs_files(root)? {
        let source = std::fs::read_to_string(&file).map_err(|e| LintError::io(&file, &e))?;
        files.push((relative_label(root, &file), source));
    }
    Ok(reach_sources(&files))
}

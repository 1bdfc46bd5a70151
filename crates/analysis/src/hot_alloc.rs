//! hot-path-alloc: the manifest names the functions that sit on the
//! per-row serving path (`forward_into`, the fused passes,
//! `push_chunk`, the engine worker loop). Their bodies must not
//! allocate — allocation there is a per-request cost the scratch-reuse
//! architecture exists to avoid.
//!
//! A listed function that no longer exists in its file is itself a
//! finding (anchored at line 1): a renamed or deleted hot function must
//! not silently drop out of the check, so the manifest cannot rot.

use crate::lexer::Tok;
use crate::manifest::HotPath;
use crate::scan::SourceFile;
use crate::{Lint, Violation};

/// `Type::constructor` pairs that allocate.
const ALLOC_PATHS: &[(&str, &[&str])] = &[
    ("Vec", &["new", "with_capacity", "from"]),
    ("Box", &["new"]),
    ("String", &["new", "with_capacity", "from"]),
    ("VecDeque", &["new", "with_capacity"]),
    ("HashMap", &["new", "with_capacity"]),
    ("BTreeMap", &["new"]),
];

/// Allocating method calls (`.x()` form).
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone_from"];

/// Allocating macros (`x!` form).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Scans the manifest-listed hot functions of one file.
pub fn run(file: &SourceFile, hot: &HotPath, out: &mut Vec<Violation>) {
    let bodies = hot_bodies(file, &hot.functions);
    for name in &hot.functions {
        if !bodies.iter().any(|(_, _, found)| found == name) {
            out.push(Violation {
                lint: Lint::HotPathAlloc,
                file: file.rel_path.clone(),
                line: 1,
                message: format!(
                    "the manifest lists hot function `{name}`, which has no body in this \
                     file: drop or rename the stale manifest entry"
                ),
            });
        }
    }
    for (start, end, name) in bodies {
        scan_body(file, start, end, name, out);
    }
}

/// Finds `(body_start, body_end, fn_name)` token ranges for every
/// non-test occurrence of the listed function names. Bodiless trait
/// declarations (`fn f(...);`) are skipped.
fn hot_bodies<'a>(file: &'a SourceFile, names: &[String]) -> Vec<(usize, usize, &'a str)> {
    let toks = &file.tokens;
    let mut found = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if file.mask[i] || toks[i].ident() != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks[i + 1].ident() else {
            i += 1;
            continue;
        };
        if !names.iter().any(|n| n == name) {
            i += 1;
            continue;
        }
        // Walk the signature: `;` at bracket depth 0 = no body.
        let mut j = i + 2;
        let mut depth = 0isize;
        let mut body = None;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('(' | '[') => depth += 1,
                Tok::Punct(')' | ']') => depth -= 1,
                Tok::Punct(';') if depth == 0 => break,
                Tok::Punct('{') if depth == 0 => {
                    body = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = body {
            let mut braces = 1usize;
            let mut k = open + 1;
            while k < toks.len() && braces > 0 {
                if toks[k].is_punct('{') {
                    braces += 1;
                } else if toks[k].is_punct('}') {
                    braces -= 1;
                }
                k += 1;
            }
            found.push((open, k, name));
            i = open + 1;
        } else {
            i = j + 1;
        }
    }
    found
}

fn scan_body(file: &SourceFile, start: usize, end: usize, fn_name: &str, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    for i in start..end.min(toks.len()) {
        let line = toks[i].line;
        let Some(id) = toks[i].ident() else { continue };
        // `Type::method` constructor form.
        if let Some((_, methods)) = ALLOC_PATHS.iter().find(|(ty, _)| *ty == id) {
            let is_path = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
            if is_path {
                if let Some(method) = toks.get(i + 3).and_then(|t| t.ident()) {
                    if methods.contains(&method) {
                        out.push(violation(file, line, fn_name, &format!("{id}::{method}")));
                        continue;
                    }
                }
            }
        }
        // `.method()` form.
        if ALLOC_METHODS.contains(&id)
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is_punct('(') || t.is_punct(':'))
        {
            out.push(violation(file, line, fn_name, &format!(".{id}()")));
            continue;
        }
        // `macro!` form.
        if ALLOC_MACROS.contains(&id) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(violation(file, line, fn_name, &format!("{id}!")));
        }
    }
}

fn violation(file: &SourceFile, line: u32, fn_name: &str, what: &str) -> Violation {
    Violation {
        lint: Lint::HotPathAlloc,
        file: file.rel_path.clone(),
        line,
        message: format!(
            "`{what}` allocates inside hot function `{fn_name}`: reuse caller-provided \
             scratch or hoist the allocation out of the per-row path"
        ),
    }
}

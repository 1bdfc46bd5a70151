//! dead-pub: a `pub` item of a library crate that no code outside
//! tests names. Public API that only tests call is dead weight the
//! workspace keeps compiling, documenting and reviewing.
//!
//! The check is lexical. It builds one index of every identifier in
//! the non-test token streams of the workspace (library and binary
//! `src/`, `examples/`, `perfbench/src`, the shims), leaving out files
//! under a `tests/` directory, test-masked regions and the tokens of
//! `pub use …;` re-exports (a re-export is not a caller). A `pub fn`,
//! `struct`, `enum`, `trait`, `type`, `const` or `static` in a library
//! crate's `crates/*/src/` (outside `main.rs`, `src/bin/` and test
//! regions) is flagged when its name occurs in that index only at its
//! own definition. Matching by name can only miss dead code (another
//! item of the same name keeps it alive); it never flags live code.
//! `shims/` is out of scope: it mirrors crates.io APIs.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Tok, Token};
use crate::scan::SourceFile;
use crate::{Lint, Violation};

/// Item keywords whose name the lint checks.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Scans the whole file set at once: the index spans every file.
pub fn run(files: &[SourceFile], out: &mut Vec<Violation>) {
    let mut index: HashMap<&str, usize> = HashMap::new();
    for file in files.iter().filter(|f| !in_tests_dir(&f.rel_path)) {
        let reexport = reexport_mask(&file.tokens);
        for (i, t) in file.tokens.iter().enumerate() {
            if let Some(id) = t.ident() {
                if !file.mask[i] && !reexport[i] {
                    *index.entry(id).or_default() += 1;
                }
            }
        }
    }

    let libs: HashSet<&str> = files
        .iter()
        .filter_map(|f| f.rel_path.strip_suffix("/src/lib.rs"))
        .filter(|c| c.starts_with("crates/"))
        .collect();
    for file in files.iter().filter(|f| in_library_src(&f.rel_path, &libs)) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.mask[i] || toks[i].ident() != Some("pub") {
                continue;
            }
            let Some((kind, name, line)) = pub_item(&toks[i + 1..]) else {
                continue;
            };
            if index.get(name) == Some(&1) {
                out.push(Violation {
                    lint: Lint::DeadPub,
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "`pub {kind} {name}` is named nowhere outside its definition and \
                         test code: delete it, make it private, or keep it with \
                         `// analysis:allow(dead-pub): <reason>`"
                    ),
                });
            }
        }
    }
}

fn in_tests_dir(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests")
}

/// A library crate's source, outside its binaries.
fn in_library_src(rel: &str, libs: &HashSet<&str>) -> bool {
    let Some((krate, path)) = rel.split_once("/src/") else {
        return false;
    };
    libs.contains(krate) && path != "main.rs" && !path.starts_with("bin/")
}

/// The item kind, name and line after a `pub`, for the kinds in
/// [`ITEM_KINDS`]. `pub(crate)` and other restricted visibilities,
/// fields and `pub mod`/`pub use` yield `None`.
fn pub_item(after: &[Token]) -> Option<(&'static str, &str, u32)> {
    let mut i = 0;
    loop {
        let id = after.get(i)?.ident()?;
        let next_is_fn_qualifier = after
            .get(i + 1)
            .and_then(Token::ident)
            .is_some_and(|n| matches!(n, "fn" | "unsafe" | "async" | "extern"));
        match id {
            "unsafe" | "async" => i += 1,
            "extern" => {
                i += if matches!(after.get(i + 1)?.tok, Tok::Str(_)) {
                    2
                } else {
                    1
                }
            }
            "const" if next_is_fn_qualifier => i += 1,
            _ => {
                let kind = ITEM_KINDS.iter().find(|k| **k == id)?;
                let mut name = after.get(i + 1)?;
                if name.ident() == Some("mut") {
                    name = after.get(i + 2)?;
                }
                return Some((kind, name.ident()?, name.line));
            }
        }
    }
}

/// True for the tokens of `pub use …;` and `pub(…) use …;` statements.
fn reexport_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].ident() != Some("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            while j < toks.len() && !toks[j].is_punct(')') {
                j += 1;
            }
            j += 1;
        }
        if toks.get(j).and_then(Token::ident) != Some("use") {
            i += 1;
            continue;
        }
        while j < toks.len() && !toks[j].is_punct(';') {
            j += 1;
        }
        let end = j.min(toks.len() - 1);
        mask[i..=end].fill(true);
        i = end + 1;
    }
    mask
}

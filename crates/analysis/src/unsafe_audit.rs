//! unsafe-audit: every `unsafe` block, function, impl, or trait must
//! carry a `// SAFETY:` comment within the preceding few lines, and
//! every site is recorded for `docs/UNSAFE_INVENTORY.md` so new unsafe
//! cannot land without a visible diff.
//!
//! An `unsafe` token inside a `macro_rules!` body is a finding whatever
//! its comment says: the macro expands it into the *calling* crate,
//! where that crate's `#![forbid(unsafe_code)]` does not fire inside an
//! external macro's expansion.

use crate::items::ItemTracker;
use crate::scan::SourceFile;
use crate::{Lint, Violation};

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit
/// (multi-line rationales and a shared comment over adjacent sites are
/// normal; anything further away has drifted from the code).
const SAFETY_WINDOW: u32 = 8;

/// One audited `unsafe` occurrence.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub file: String,
    pub line: u32,
    /// `"block"`, `"fn"`, `"impl"`, or `"trait"`.
    pub kind: &'static str,
    /// Human context: the enclosing function for blocks, the item's
    /// own signature for fns/impls.
    pub context: String,
    /// The SAFETY rationale, when present.
    pub rationale: Option<String>,
}

/// Scans one file for `unsafe` sites; appends to `sites` (for the
/// inventory) and to `out` (for missing rationales).
pub fn run(file: &SourceFile, sites: &mut Vec<UnsafeSite>, out: &mut Vec<Violation>) {
    let macros = macro_bodies(file);
    let mut tracker = ItemTracker::new();
    for (i, token) in file.tokens.iter().enumerate() {
        if token.ident() != Some("unsafe") {
            tracker.observe(token);
            continue;
        }
        let line = token.line;
        let next = file.tokens.get(i + 1);
        let (kind, context) = match next.and_then(|t| t.ident()) {
            Some("fn") => {
                let name = file
                    .tokens
                    .get(i + 2)
                    .and_then(|t| t.ident())
                    .unwrap_or("<anonymous>");
                ("fn", format!("`fn {name}`"))
            }
            Some("impl") => {
                let mut sig = String::from("impl");
                for t in &file.tokens[i + 2..] {
                    if t.is_punct('{') || t.is_punct(';') {
                        break;
                    }
                    if let Some(id) = t.ident() {
                        sig.push(' ');
                        sig.push_str(id);
                    }
                }
                ("impl", format!("`{sig}`"))
            }
            Some("trait") => {
                let name = file
                    .tokens
                    .get(i + 2)
                    .and_then(|t| t.ident())
                    .unwrap_or("<anonymous>");
                ("trait", format!("`trait {name}`"))
            }
            _ => ("block", tracker.context()),
        };
        let rationale = file.safety_rationale(line, SAFETY_WINDOW);
        if rationale.is_none() {
            out.push(Violation {
                lint: Lint::UnsafeAudit,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "unsafe {kind} in {context} has no `// SAFETY:` comment within \
                     {SAFETY_WINDOW} lines"
                ),
            });
        }
        if let Some((_, _, name)) = macros
            .iter()
            .find(|(start, end, _)| (*start..*end).contains(&i))
        {
            out.push(Violation {
                lint: Lint::UnsafeAudit,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "unsafe {kind} inside `macro_rules! {name}` expands into its callers, \
                     where `#![forbid(unsafe_code)]` cannot see it"
                ),
            });
        }
        sites.push(UnsafeSite {
            file: file.rel_path.clone(),
            line,
            kind,
            context,
            rationale,
        });
        tracker.observe(token);
    }
}

/// `(first body token, one past the closing delimiter, macro name)` for
/// every `macro_rules! name { ... }` definition in the file.
fn macro_bodies(file: &SourceFile) -> Vec<(usize, usize, &str)> {
    let toks = &file.tokens;
    let mut bodies = Vec::new();
    for i in 0..toks.len() {
        if toks[i].ident() != Some("macro_rules")
            || !toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            continue;
        }
        let Some(name) = toks.get(i + 2).and_then(|t| t.ident()) else {
            continue;
        };
        let mut depth = 0usize;
        for (j, t) in toks.iter().enumerate().skip(i + 3) {
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    bodies.push((i + 3, j + 1, name));
                    break;
                }
            }
        }
    }
    bodies
}

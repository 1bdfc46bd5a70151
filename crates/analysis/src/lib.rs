//! `softermax-analysis` — the workspace's static-analysis suite.
//!
//! The serving stack's correctness rests on invariants that `rustc`
//! cannot see: every `unsafe` needs a written justification, the
//! remotely reachable wire/server/client code must not panic, the hot
//! per-row path must not allocate, locks must be taken in one declared
//! order with condvar waits in predicate loops, the wire format's tags
//! and error codes must match their golden documentation, and public
//! API must have a caller outside tests. This crate lexes the workspace
//! honestly (see [`lexer`]) and enforces all six as a lint catalog:
//!
//! | lint | what it denies |
//! |------|----------------|
//! | `unsafe-audit` | `unsafe` without a `// SAFETY:` comment; drift against `docs/UNSAFE_INVENTORY.md` |
//! | `panic-surface` | `unwrap`/`expect`/panicking macros/indexing in no-panic zones |
//! | `hot-path-alloc` | allocating calls inside manifest-listed hot functions |
//! | `lock-discipline` | undeclared or stale locks, out-of-order acquisition, condvar waits outside `while`/`loop` |
//! | `wire-stability` | frame tags / error codes unmatched by `docs/PROTOCOL.md` |
//! | `dead-pub` | a library `pub` item whose name no non-test code uses |
//! | `bad-suppression` | `analysis:allow` without a lint name and reason |
//!
//! Findings are suppressed — one at a time, with a mandatory reason —
//! by `// analysis:allow(<lint>): <reason>` on the same line or the
//! line above. See `docs/ANALYSIS.md` for the full catalog and the
//! manifest format.

#![forbid(unsafe_code)]

pub mod dead_pub;
pub mod hot_alloc;
pub mod inventory;
pub mod items;
pub mod lexer;
pub mod lock_discipline;
pub mod manifest;
pub mod panic_surface;
pub mod scan;
pub mod unsafe_audit;
pub mod wire_stability;

use std::path::Path;

use manifest::Manifest;
use scan::SourceFile;
use unsafe_audit::UnsafeSite;

/// The lint catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    UnsafeAudit,
    PanicSurface,
    HotPathAlloc,
    LockDiscipline,
    WireStability,
    DeadPub,
    BadSuppression,
}

impl Lint {
    /// The stable name used in output and `analysis:allow` comments.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Lint::UnsafeAudit => "unsafe-audit",
            Lint::PanicSurface => "panic-surface",
            Lint::HotPathAlloc => "hot-path-alloc",
            Lint::LockDiscipline => "lock-discipline",
            Lint::WireStability => "wire-stability",
            Lint::DeadPub => "dead-pub",
            Lint::BadSuppression => "bad-suppression",
        }
    }

    /// All lint names (for validating suppression comments).
    #[must_use]
    pub const fn all() -> &'static [Lint] {
        &[
            Lint::UnsafeAudit,
            Lint::PanicSurface,
            Lint::HotPathAlloc,
            Lint::LockDiscipline,
            Lint::WireStability,
            Lint::DeadPub,
            Lint::BadSuppression,
        ]
    }
}

/// One finding: a lint, a location, and what to do about it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub lint: Lint,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.message
        )
    }
}

/// The result of a full analysis pass.
#[derive(Debug)]
pub struct Analysis {
    /// Surviving findings (suppressed ones removed), sorted by file
    /// then line.
    pub violations: Vec<Violation>,
    /// Every `unsafe` site found, for the inventory.
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// Runs the whole catalog over pre-loaded `(rel_path, contents)`
/// sources. `protocol_md` is the text of `docs/PROTOCOL.md`; when
/// `None`, the wire-stability lint reports that the document is
/// missing (if any wire source is present).
#[must_use]
pub fn analyze_sources(
    sources: &[(String, String)],
    manifest: &Manifest,
    protocol_md: Option<&str>,
) -> Analysis {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, text)| SourceFile::parse(rel, text))
        .collect();
    let mut violations = Vec::new();
    let mut unsafe_sites = Vec::new();
    dead_pub::run(&files, &mut violations);

    for file in &files {
        let rel = &file.rel_path;
        unsafe_audit::run(file, &mut unsafe_sites, &mut violations);
        if manifest.in_no_panic_zone(rel) {
            panic_surface::run(file, &mut violations);
        }
        if let Some(hot) = manifest.hot_path_for(rel) {
            hot_alloc::run(file, hot, &mut violations);
        }
        if let Some(scope) = manifest.lock_scope_for(rel) {
            lock_discipline::run(file, scope, &mut violations);
        }
        if rel == "crates/wire/src/frame.rs" {
            match protocol_md {
                Some(md) => wire_stability::run(file, md, &mut violations),
                None => violations.push(Violation {
                    lint: Lint::WireStability,
                    file: rel.clone(),
                    line: 1,
                    message: "docs/PROTOCOL.md is missing: the wire format has no golden \
                              documentation to check against"
                        .to_owned(),
                }),
            }
        }

        apply_suppressions(file, &mut violations);
    }
    for scope in &manifest.lock_scopes {
        let in_scope: Vec<&SourceFile> = files
            .iter()
            .filter(|file| file.rel_path.starts_with(&scope.scope))
            .collect();
        // A scope none of whose files is analyzed here is not judged.
        if !in_scope.is_empty() {
            lock_discipline::stale_entries(&in_scope, scope, &mut violations);
        }
    }

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Analysis {
        violations,
        unsafe_sites,
    }
}

/// Removes findings covered by a well-formed suppression on the same
/// line or the line above, and emits `bad-suppression` findings for
/// malformed or unknown-lint suppressions in `file`.
fn apply_suppressions(file: &SourceFile, violations: &mut Vec<Violation>) {
    for s in &file.suppressions {
        if s.malformed {
            violations.push(Violation {
                lint: Lint::BadSuppression,
                file: file.rel_path.clone(),
                line: s.line,
                message: format!(
                    "malformed suppression ({}): the form is \
                     `// analysis:allow(<lint>): <reason>` and the reason is mandatory",
                    s.reason
                ),
            });
        } else if !Lint::all().iter().any(|l| l.name() == s.lint) {
            violations.push(Violation {
                lint: Lint::BadSuppression,
                file: file.rel_path.clone(),
                line: s.line,
                message: format!(
                    "suppression names unknown lint `{}` (known: {})",
                    s.lint,
                    Lint::all()
                        .iter()
                        .map(|l| l.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }
    violations.retain(|v| {
        if v.file != file.rel_path {
            return true;
        }
        !file.suppressions.iter().any(|s| {
            !s.malformed && s.lint == v.lint.name() && (s.line == v.line || s.line + 1 == v.line)
        })
    });
}

/// Walks `root` and runs the full catalog with the given manifest.
///
/// # Errors
///
/// Returns the first I/O error from walking or reading sources.
pub fn analyze_workspace(root: &Path, manifest: &Manifest) -> std::io::Result<Analysis> {
    let sources = scan::collect_sources(root)?;
    let protocol_md = std::fs::read_to_string(root.join("docs/PROTOCOL.md")).ok();
    Ok(analyze_sources(&sources, manifest, protocol_md.as_deref()))
}

/// The workspace root this binary was built in: `crates/analysis/../..`.
#[must_use]
pub fn default_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

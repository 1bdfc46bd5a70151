//! The analysis manifest: which paths are no-panic and no-sleep zones,
//! which functions are hot paths, and what the declared lock order is.
//!
//! The manifest is data, not code, so growing a zone or declaring a
//! new lock is a one-line JSON edit reviewed like any other invariant
//! change. The workspace's own manifest is embedded at compile time
//! ([`Manifest::workspace`]); tests build bespoke manifests from
//! strings to aim the lints at fixture files.

use serde_json::{from_str_value, Value};

/// A set of hot functions inside one file: allocation is denied in
/// their bodies.
#[derive(Debug, Clone)]
pub struct HotPath {
    /// Workspace-relative file path.
    pub file: String,
    /// Function names whose bodies must not allocate.
    pub functions: Vec<String>,
}

/// Lock discipline for every file under one path prefix.
#[derive(Debug, Clone)]
pub struct LockScope {
    /// Workspace-relative path prefix, e.g. `crates/serve/src`.
    pub scope: String,
    /// Total acquisition order: a lock may only be taken while locks
    /// strictly earlier in this list are held. Every `Mutex` field
    /// declared in the scope must appear here.
    pub order: Vec<String>,
    /// Declared `Condvar` field names: every `.wait()` on one of these
    /// must sit directly in a `while`/`loop` body (the predicate-loop
    /// idiom), and every `Condvar` field must be declared.
    pub condvars: Vec<String>,
}

/// The full lint configuration.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Path prefixes where `unwrap`/`expect`/`panic!`/indexing are
    /// denied outside test code.
    pub no_panic_zones: Vec<String>,
    /// Path prefixes where `sleep(` calls are denied outside test code.
    pub no_sleep_zones: Vec<String>,
    /// Files × function names where allocation is denied.
    pub hot_paths: Vec<HotPath>,
    /// Lock-order and condvar declarations per path prefix.
    pub lock_scopes: Vec<LockScope>,
}

/// Manifest parse failure: the offending key and what was wrong.
#[derive(Debug)]
pub struct ManifestError(pub String);

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manifest error: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

fn string_list(v: &Value, key: &str) -> Result<Vec<String>, ManifestError> {
    let arr = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| ManifestError(format!("`{key}` must be an array of strings")))?;
    arr.iter()
        .map(|e| {
            e.as_str()
                .map(str::to_owned)
                .ok_or_else(|| ManifestError(format!("`{key}` entries must be strings")))
        })
        .collect()
}

impl Manifest {
    /// Parses a manifest from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] on malformed JSON or a missing /
    /// mistyped key.
    pub fn from_json(text: &str) -> Result<Self, ManifestError> {
        let root = from_str_value(text).map_err(|e| ManifestError(format!("bad JSON: {e:?}")))?;
        let no_panic_zones = string_list(&root, "no_panic_zones")?;
        let no_sleep_zones = string_list(&root, "no_sleep_zones")?;

        let mut hot_paths = Vec::new();
        let hp = root
            .get("hot_paths")
            .and_then(Value::as_array)
            .ok_or_else(|| ManifestError("`hot_paths` must be an array".into()))?;
        for entry in hp {
            let file = entry
                .get("file")
                .and_then(Value::as_str)
                .ok_or_else(|| ManifestError("hot_paths entry needs a `file` string".into()))?
                .to_owned();
            let functions = string_list(entry, "functions")?;
            hot_paths.push(HotPath { file, functions });
        }

        let mut lock_scopes = Vec::new();
        let ls = root
            .get("lock_scopes")
            .and_then(Value::as_array)
            .ok_or_else(|| ManifestError("`lock_scopes` must be an array".into()))?;
        for entry in ls {
            let scope = entry
                .get("scope")
                .and_then(Value::as_str)
                .ok_or_else(|| ManifestError("lock_scopes entry needs a `scope` string".into()))?
                .to_owned();
            let order = string_list(entry, "order")?;
            let condvars = string_list(entry, "condvars")?;
            lock_scopes.push(LockScope {
                scope,
                order,
                condvars,
            });
        }

        Ok(Manifest {
            no_panic_zones,
            no_sleep_zones,
            hot_paths,
            lock_scopes,
        })
    }

    /// The workspace's own manifest, embedded at compile time from
    /// `crates/analysis/manifest.json`.
    ///
    /// # Panics
    ///
    /// Panics if the embedded JSON is malformed — a build artifact
    /// problem, caught by any test run, never a runtime input.
    #[must_use]
    pub fn workspace() -> Self {
        Self::from_json(include_str!("../manifest.json"))
            .expect("embedded manifest.json must parse")
    }

    /// True when `path` (workspace-relative, `/`-separated) lies in a
    /// declared no-panic zone.
    #[must_use]
    pub fn in_no_panic_zone(&self, path: &str) -> bool {
        self.no_panic_zones.iter().any(|z| path.starts_with(z))
    }

    /// True when `path` (workspace-relative, `/`-separated) lies in a
    /// declared no-sleep zone.
    #[must_use]
    pub fn in_no_sleep_zone(&self, path: &str) -> bool {
        self.no_sleep_zones.iter().any(|z| path.starts_with(z))
    }

    /// The lock scope covering `path`, if any.
    #[must_use]
    pub fn lock_scope_for(&self, path: &str) -> Option<&LockScope> {
        self.lock_scopes.iter().find(|s| path.starts_with(&s.scope))
    }

    /// Hot-path function names declared for `path`, if any.
    #[must_use]
    pub fn hot_path_for(&self, path: &str) -> Option<&HotPath> {
        self.hot_paths.iter().find(|h| h.file == path)
    }
}

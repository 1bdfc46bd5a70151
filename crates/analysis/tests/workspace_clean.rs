//! The workspace's own gate, as a plain test: running the full lint
//! catalog over the repository must produce zero findings, and the
//! committed `docs/UNSAFE_INVENTORY.md` must match what the audit
//! would regenerate. `cargo test` is therefore itself the
//! static-analysis gate — CI's dedicated job just surfaces the
//! findings with better formatting.

use softermax_analysis::manifest::Manifest;
use softermax_analysis::{analyze_sources, analyze_workspace, default_root, inventory, Lint};

#[test]
fn workspace_has_zero_violations() {
    let analysis = analyze_workspace(&default_root(), &Manifest::workspace())
        .expect("workspace sources readable");
    assert!(
        analysis.violations.is_empty(),
        "the workspace must stay lint-clean; run \
         `cargo run -p softermax-analysis -- check`:\n{}",
        analysis
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every crate is `#![forbid(unsafe_code)]`; that the scanner still
    // inventories an audited block is proven on a fixture
    // (`fixtures_selftest.rs`, `clean_fixture_has_zero_findings`).
    assert!(
        analysis.unsafe_sites.is_empty(),
        "the workspace has no unsafe; found {:?}",
        analysis.unsafe_sites
    );
}

#[test]
fn committed_unsafe_inventory_matches_the_code() {
    let root = default_root();
    let analysis =
        analyze_workspace(&root, &Manifest::workspace()).expect("workspace sources readable");
    let rendered = inventory::render(&analysis.unsafe_sites);
    let committed = std::fs::read_to_string(root.join("docs/UNSAFE_INVENTORY.md"))
        .expect("docs/UNSAFE_INVENTORY.md is committed");
    assert!(
        rendered == committed,
        "docs/UNSAFE_INVENTORY.md is stale; regenerate with \
         `cargo run -p softermax-analysis -- inventory --write`"
    );
}

/// A sleep-poll planted in the server's accept loop fails the check:
/// the server's sources are a no-sleep zone of the workspace manifest.
#[test]
fn a_sleep_poll_planted_in_the_accept_loop_is_flagged() {
    let rel = "crates/server/src/lib.rs";
    let source = std::fs::read_to_string(default_root().join(rel)).expect("server source");
    let body = source
        .find("fn accept_loop(")
        .and_then(|at| source[at..].find('{').map(|open| at + open + 1))
        .expect("the accept loop");
    let planted = format!(
        "{}\n    thread::sleep(Duration::from_millis(5));{}",
        &source[..body],
        &source[body..]
    );
    let line = source[..body].lines().count() as u32 + 1;
    let analysis = analyze_sources(&[(rel.to_owned(), planted)], &Manifest::workspace(), None);
    let sleeps: Vec<u32> = analysis
        .violations
        .iter()
        .filter(|v| v.lint == Lint::PollSleep)
        .map(|v| v.line)
        .collect();
    assert_eq!(sleeps, [line], "{:?}", analysis.violations);
}

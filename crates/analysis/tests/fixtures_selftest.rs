//! Golden-fixture self-test: the analyzer must flag exactly the
//! `//~ <lint>` marked lines in `fixtures/violations.rs`, nothing in
//! `fixtures/clean.rs` (a catalog of near-misses), and nothing in
//! `fixtures/suppressed.rs` (real findings covered by well-formed
//! suppressions). The markers live in the fixtures themselves, so the
//! expectation table cannot drift from the file it describes. The
//! `dead-pub` lint spans files, so its fixture is a small workspace
//! (`fixtures/dead_pub/`) analyzed as one file set.

use softermax_analysis::manifest::Manifest;
use softermax_analysis::{analyze_sources, Lint};

const VIOLATIONS: &str = include_str!("../fixtures/violations.rs");
const CLEAN: &str = include_str!("../fixtures/clean.rs");
const SUPPRESSED: &str = include_str!("../fixtures/suppressed.rs");
const STALE_LOCKS: &str = include_str!("../fixtures/stale_locks.rs");
const POLL_SLEEP: &str = include_str!("../fixtures/poll_sleep.rs");
const WIRE_FRAME: &str = include_str!("../fixtures/wire_frame.rs");
const WIRE_PROTOCOL: &str = include_str!("../fixtures/wire_protocol.md");

/// The `dead-pub` file set, under the workspace paths it is analyzed at.
const DEAD_PUB: &[(&str, &str)] = &[
    (
        "crates/a/src/lib.rs",
        include_str!("../fixtures/dead_pub/crates/a/src/lib.rs"),
    ),
    (
        "crates/a/tests/it.rs",
        include_str!("../fixtures/dead_pub/crates/a/tests/it.rs"),
    ),
    (
        "crates/b/src/lib.rs",
        include_str!("../fixtures/dead_pub/crates/b/src/lib.rs"),
    ),
    (
        "crates/b/src/main.rs",
        include_str!("../fixtures/dead_pub/crates/b/src/main.rs"),
    ),
    (
        "examples/demo.rs",
        include_str!("../fixtures/dead_pub/examples/demo.rs"),
    ),
    (
        "perfbench/src/main.rs",
        include_str!("../fixtures/dead_pub/perfbench/src/main.rs"),
    ),
];

/// A manifest aimed at the fixture files: the whole `fixtures/` prefix
/// is a no-panic zone and a lock scope, and both `hot_fn`s are hot. The
/// violations fixture also lists `gone_fn`, which it never defines: a
/// stale entry.
fn fixture_manifest() -> Manifest {
    Manifest::from_json(
        r#"{
            "no_panic_zones": ["fixtures"],
            "no_sleep_zones": [],
            "hot_paths": [
                {"file": "fixtures/violations.rs", "functions": ["hot_fn", "gone_fn"]},
                {"file": "fixtures/clean.rs", "functions": ["hot_fn"]}
            ],
            "lock_scopes": [
                {"scope": "fixtures", "order": ["first", "second"], "condvars": ["work"]}
            ]
        }"#,
    )
    .expect("fixture manifest parses")
}

/// Parses `//~ <lint>` markers: `(1-based line, lint name)` pairs,
/// sorted. Unknown lint names are a test bug and panic immediately.
fn expected_markers(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("//~ ") {
            let tail = &rest[pos + 4..];
            let name = tail
                .split_whitespace()
                .next()
                .expect("a `//~` marker must name a lint");
            assert!(
                Lint::all().iter().any(|l| l.name() == name),
                "fixture marker names unknown lint `{name}`"
            );
            out.push((i as u32 + 1, name.to_owned()));
            rest = tail;
        }
    }
    out.sort();
    out
}

#[test]
fn violations_fixture_flags_exactly_the_marked_lines() {
    let sources = vec![("fixtures/violations.rs".to_owned(), VIOLATIONS.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest(), None);

    let mut actual: Vec<(u32, String)> = analysis
        .violations
        .iter()
        .map(|v| (v.line, v.lint.name().to_owned()))
        .collect();
    actual.sort();

    let expected = expected_markers(VIOLATIONS);
    assert!(!expected.is_empty(), "fixture must plant violations");
    assert_eq!(
        actual,
        expected,
        "analyzer findings must match the //~ markers exactly\n\
         findings:\n{}",
        analysis
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn condvar_wait_outside_loop_is_flagged_like_the_pr8_bug() {
    // The acceptance-critical case: `if !pred { wait() }` — the exact
    // lost-wakeup shape PR 8 fixed — must be flagged...
    let wait_line = VIOLATIONS
        .lines()
        .position(|l| l.contains("shared.work.wait(guard)"))
        .expect("violations fixture plants a wait") as u32
        + 1;
    let sources = vec![("fixtures/violations.rs".to_owned(), VIOLATIONS.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest(), None);
    assert!(
        analysis
            .violations
            .iter()
            .any(|v| v.lint == Lint::LockDiscipline && v.line == wait_line),
        "wait outside a predicate loop must be a lock-discipline finding"
    );

    // ...while the `while`/`loop` predicate forms in the clean fixture
    // must not be.
    let waits = CLEAN.matches(".wait(").count();
    assert!(
        waits >= 2,
        "clean fixture must exercise both predicate-loop wait forms"
    );
}

#[test]
fn clean_fixture_has_zero_findings() {
    let sources = vec![("fixtures/clean.rs".to_owned(), CLEAN.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest(), None);
    assert!(
        analysis.violations.is_empty(),
        "clean fixture must produce no findings, got:\n{}",
        analysis
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The audited unsafe block is still *inventoried* — auditing is
    // not suppression.
    assert_eq!(analysis.unsafe_sites.len(), 1);
    assert!(analysis.unsafe_sites[0].rationale.is_some());
}

#[test]
fn suppressed_fixture_survives_with_zero_findings() {
    let sources = vec![("fixtures/suppressed.rs".to_owned(), SUPPRESSED.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest(), None);
    assert!(
        analysis.violations.is_empty(),
        "well-formed suppressions must cover every planted finding, got:\n{}",
        analysis
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Manifest entries that no field of their kind declares are findings,
/// anchored at the scope: the `gone` lock, and the `slot` condvar even
/// though a `slot` mutex exists.
#[test]
fn stale_lock_manifest_entries_are_flagged_by_kind() {
    let manifest = Manifest::from_json(
        r#"{
            "no_panic_zones": [],
            "no_sleep_zones": [],
            "hot_paths": [],
            "lock_scopes": [
                {"scope": "fixtures", "order": ["intake", "slot", "gone"],
                 "condvars": ["work", "slot"]}
            ]
        }"#,
    )
    .expect("stale-lock manifest parses");
    let sources = vec![("fixtures/stale_locks.rs".to_owned(), STALE_LOCKS.to_owned())];
    let analysis = analyze_sources(&sources, &manifest, None);
    let found: Vec<String> = analysis
        .violations
        .iter()
        .map(ToString::to_string)
        .collect();
    let findings = found.join("\n");
    assert_eq!(found.len(), 2, "findings:\n{findings}");
    for v in &analysis.violations {
        assert_eq!(
            (v.file.as_str(), v.line, v.lint),
            ("fixtures", 1, Lint::LockDiscipline)
        );
    }
    assert!(findings.contains("`gone: Mutex`"), "findings:\n{findings}");
    assert!(
        findings.contains("`slot: Condvar`"),
        "findings:\n{findings}"
    );
}

/// Sleeps called outside test code in a no-sleep zone are flagged,
/// unless suppressed; the same file outside every zone is not judged.
#[test]
fn poll_sleep_flags_exactly_the_marked_sleeps() {
    let manifest = Manifest::from_json(
        r#"{
            "no_panic_zones": [],
            "no_sleep_zones": ["fixtures"],
            "hot_paths": [],
            "lock_scopes": []
        }"#,
    )
    .expect("poll-sleep manifest parses");
    let analyze = |path: &str| {
        let sources = vec![(path.to_owned(), POLL_SLEEP.to_owned())];
        analyze_sources(&sources, &manifest, None).violations
    };
    let found = analyze("fixtures/poll_sleep.rs");
    let mut actual: Vec<(u32, String)> = found
        .iter()
        .map(|v| (v.line, v.lint.name().to_owned()))
        .collect();
    actual.sort();
    assert_eq!(
        actual,
        expected_markers(POLL_SLEEP),
        "findings:\n{}",
        found
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(analyze("elsewhere/poll_sleep.rs").is_empty());
}

#[test]
fn wire_stability_flags_code_tag_and_doc_drift() {
    let frame_src = r#"
pub enum ErrorCode {
    BadInput = 1,
    Internal = 9,
}

impl Frame {
    pub fn tag(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "hello",
            Frame::Submit(_) => "submit",
        }
    }
}
"#;
    let protocol = "| code | meaning |\n| --- | --- |\n| 1 | bad input |\n| 7 | reserved |\n\n\
                    `{\"type\":\"hello\"}`\n";
    let sources = vec![("crates/wire/src/frame.rs".to_owned(), frame_src.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest(), Some(protocol));

    let msgs: Vec<&str> = analysis
        .violations
        .iter()
        .map(|v| {
            assert_eq!(v.lint, Lint::WireStability);
            v.message.as_str()
        })
        .collect();
    assert_eq!(msgs.len(), 3, "findings: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("`Internal = 9`")));
    assert!(msgs.iter().any(|m| m.contains("error code 7")));
    assert!(msgs.iter().any(|m| m.contains("\"submit\"")));
}

#[test]
fn wire_fixture_flags_exactly_the_kind_drift() {
    // Analyzed under the real frame.rs path, against the fixture's own
    // protocol document.
    let sources = vec![("crates/wire/src/frame.rs".to_owned(), WIRE_FRAME.to_owned())];
    let analysis = analyze_sources(&sources, &fixture_manifest(), Some(WIRE_PROTOCOL));
    let mut actual: Vec<(u32, String)> = analysis
        .violations
        .iter()
        .map(|v| (v.line, v.lint.name().to_owned()))
        .collect();
    actual.sort();
    assert_eq!(
        actual,
        expected_markers(WIRE_FRAME),
        "findings:\n{}",
        analysis
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn missing_protocol_doc_is_itself_a_finding() {
    let sources = vec![(
        "crates/wire/src/frame.rs".to_owned(),
        "pub enum ErrorCode { A = 1 }".to_owned(),
    )];
    let analysis = analyze_sources(&sources, &fixture_manifest(), None);
    assert_eq!(analysis.violations.len(), 1);
    assert!(analysis.violations[0].message.contains("PROTOCOL.md"));
}

#[test]
fn dead_pub_flags_exactly_the_items_only_tests_name() {
    let mut sources: Vec<(String, String)> = DEAD_PUB
        .iter()
        .map(|(path, text)| ((*path).to_owned(), (*text).to_owned()))
        .collect();
    let analysis = analyze_sources(&sources, &fixture_manifest(), None);
    let mut actual: Vec<(String, u32, String)> = analysis
        .violations
        .iter()
        .map(|v| (v.file.clone(), v.line, v.lint.name().to_owned()))
        .collect();
    actual.sort();
    let expected: Vec<(String, u32, String)> = expected_markers(DEAD_PUB[0].1)
        .into_iter()
        .map(|(line, lint)| (DEAD_PUB[0].0.to_owned(), line, lint))
        .collect();
    assert_eq!(
        actual,
        expected,
        "findings:\n{}",
        analysis
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The suppression is what keeps the oracle: without it, it is dead.
    sources[0].1 = sources[0].1.replace("analysis:allow(dead-pub)", "kept");
    let analysis = analyze_sources(&sources, &fixture_manifest(), None);
    assert!(analysis
        .violations
        .iter()
        .any(|v| v.message.contains("kept_as_a_test_oracle")));
}

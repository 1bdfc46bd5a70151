//! Golden-fixture self-test: the analyzer must flag exactly the
//! `//~ <lint>` marked lines in `fixtures/violations.rs`, nothing in
//! `fixtures/clean.rs` (a catalog of near-misses), and nothing in
//! `fixtures/suppressed.rs` (real findings covered by well-formed
//! suppressions). The markers live in the fixtures themselves, so the
//! expectation table cannot drift from the file it describes.

use softermax_analysis::manifest::Manifest;
use softermax_analysis::{analyze_sources, Lint};

const VIOLATIONS: &str = include_str!("../fixtures/violations.rs");
const CLEAN: &str = include_str!("../fixtures/clean.rs");
const SUPPRESSED: &str = include_str!("../fixtures/suppressed.rs");
const WIRE_FRAME: &str = include_str!("../fixtures/wire_frame.rs");
const WIRE_PROTOCOL: &str = include_str!("../fixtures/wire_protocol.md");

/// A manifest aimed at the fixture files: the whole `fixtures/` prefix
/// is a no-panic zone and a lock scope, and both `hot_fn`s are hot. The
/// violations fixture also lists `gone_fn`, which it never defines: a
/// stale entry.
fn fixture_manifest() -> Manifest {
    Manifest::from_json(
        r#"{
            "no_panic_zones": ["fixtures"],
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

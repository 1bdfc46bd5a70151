//! Property tests for the token scanner: random interleavings of code
//! fragments and decoy-bearing literals/comments must yield exactly
//! the planted identifiers — never a decoy buried in a string, raw
//! string, char literal, or comment — with correct line numbers. A
//! second property drives the same fragments through the panic-surface
//! lint end-to-end.

use proptest::collection::vec;
use proptest::prelude::*;
use softermax_analysis::lexer::{lex, Tok};
use softermax_analysis::manifest::Manifest;
use softermax_analysis::{analyze_sources, Lint};

/// One newline-free source fragment plus the identifiers the lexer
/// must surface from it (in order). Decoy fragments bury panic-ish
/// identifiers inside literals and comments and must surface nothing.
const FRAGMENTS: &[(&str, &[&str])] = &[
    ("alpha", &["alpha"]),
    ("let beta = 1;", &["let", "beta"]),
    ("r#match", &["match"]),
    ("gamma_7(delta)", &["gamma_7", "delta"]),
    ("&'static life_ty", &["life_ty"]),
    ("\"unwrap() panic! expect decoy\"", &[]),
    ("// unwrap expect panic decoy", &[]),
    ("/* outer /* unwrap nested */ expect */", &[]),
    (r###"r##"decoy "# unwrap inside"##"###, &[]),
    ("b\"SMAX unwrap bytes\"", &[]),
    ("'u'", &[]),
    ("'\\n'", &[]),
    ("0..10", &[]),
    ("1.5e-3 + 0x1F", &[]),
    ("=> ; , .", &[]),
];

/// Identifiers that appear *only* inside decoy literals/comments and
/// must never come back as `Tok::Ident`.
const DECOYS: &[&str] = &["unwrap", "expect", "panic", "decoy"];

/// Builds one source line per chosen fragment.
fn build(choices: &[u64]) -> (String, Vec<(&'static str, u32)>) {
    let mut src = String::new();
    let mut expected = Vec::new();
    for (line0, c) in choices.iter().enumerate() {
        let (text, idents) = FRAGMENTS[(*c as usize) % FRAGMENTS.len()];
        src.push_str(text);
        src.push('\n');
        for id in idents.iter() {
            expected.push((*id, line0 as u32 + 1));
        }
    }
    (src, expected)
}

proptest! {
    #[test]
    fn planted_idents_surface_exactly(choices in vec(0u64..1_000, 0..40)) {
        let (src, expected) = build(&choices);
        let actual: Vec<(String, u32)> = lex(&src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some((s, t.line)),
                _ => None,
            })
            .collect();
        let want: Vec<(String, u32)> = expected
            .iter()
            .map(|(s, l)| ((*s).to_owned(), *l))
            .collect();
        prop_assert_eq!(&actual, &want);
        for (id, _) in &actual {
            prop_assert!(!DECOYS.contains(&id.as_str()), "decoy `{}` escaped a literal", id);
        }
    }

    #[test]
    fn lexer_is_total_on_arbitrary_ascii(bytes in vec(32u64..127, 0..200)) {
        // Unterminated strings, stray fences, lone quotes: the scanner
        // must terminate without panicking and keep line numbers sane.
        let src: String = bytes.iter().map(|b| *b as u8 as char).collect();
        let toks = lex(&src);
        let mut prev = 1;
        for t in &toks {
            prop_assert!(t.line >= prev, "line numbers must be nondecreasing");
            prev = t.line;
        }
    }

    #[test]
    fn decoys_never_reach_the_panic_lint(choices in vec(0u64..1_000, 0..40)) {
        // End-to-end: a no-panic zone built purely from decoy-laden
        // fragments has zero findings; appending one real `.unwrap()`
        // yields exactly one, on the right line.
        let (src, _) = build(&choices);
        let manifest = Manifest::from_json(
            r#"{"no_panic_zones": ["gen"], "no_sleep_zones": [], "hot_paths": [], "lock_scopes": []}"#,
        ).expect("manifest parses");

        let clean = vec![("gen/fuzz.rs".to_owned(), src.clone())];
        let analysis = analyze_sources(&clean, &manifest, None);
        prop_assert_eq!(analysis.violations.len(), 0);

        let unwrap_line = src.lines().count() as u32 + 1;
        let dirty = vec![("gen/fuzz.rs".to_owned(), format!("{src}result.unwrap();\n"))];
        let analysis = analyze_sources(&dirty, &manifest, None);
        prop_assert_eq!(analysis.violations.len(), 1);
        prop_assert_eq!(analysis.violations[0].lint, Lint::PanicSurface);
        prop_assert_eq!(analysis.violations[0].line, unwrap_line);
    }
}

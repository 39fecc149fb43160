//! Fixtures for the token rules (`relaxed-atomics`,
//! `persisted-wall-field`) and the marker syntax: each rule has a
//! violating snippet that produces an exact finding count, a clean
//! variant that passes, and a suppressed variant
//! (`// lint: allow(<rule>, <reason>)`) that passes with the suppression
//! recorded.

use abonn_lint::lint_source;

/// Asserts `src` at `path` yields exactly the findings named in `rules`
/// (in line order) and no suppressions.
fn expect_findings(path: &str, src: &str, rules: &[&str]) {
    let out = lint_source(path, src);
    let got: Vec<&str> = out.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(
        got, rules,
        "findings for {path}:\n{src}\n{:#?}",
        out.findings
    );
}

/// Asserts `src` at `path` is fully clean (no findings, no suppressions).
fn expect_clean(path: &str, src: &str) {
    let out = lint_source(path, src);
    assert!(
        out.findings.is_empty() && out.suppressed.is_empty(),
        "expected clean for {path}:\n{src}\n{:#?}\n{:#?}",
        out.findings,
        out.suppressed
    );
}

/// Asserts `src` at `path` has zero active findings and exactly one
/// suppression of `rule`.
fn expect_suppressed(path: &str, src: &str, rule: &str) {
    let out = lint_source(path, src);
    assert!(
        out.findings.is_empty(),
        "suppression failed for {path}:\n{src}\n{:#?}",
        out.findings
    );
    assert_eq!(out.suppressed.len(), 1, "{:#?}", out.suppressed);
    assert_eq!(out.suppressed[0].rule, rule);
    assert!(!out.suppressed[0].reason.is_empty());
}

// ------------------------------------------------------- relaxed-atomics

#[test]
fn relaxed_atomics_violating() {
    expect_findings(
        "crates/core/src/x.rs",
        "counter.fetch_add(1, Ordering::Relaxed);\n",
        &["relaxed-atomics"],
    );
}

#[test]
fn relaxed_atomics_clean() {
    expect_clean(
        "crates/core/src/x.rs",
        "counter.fetch_add(1, Ordering::SeqCst);\nflag.store(true, Ordering::Release);\n",
    );
}

#[test]
fn relaxed_atomics_suppressed() {
    expect_suppressed(
        "crates/core/src/x.rs",
        "n.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed-atomics, fixture: monotonic counter never gating a verdict)\n",
        "relaxed-atomics",
    );
}

// -------------------------------------------------- persisted-wall-field

#[test]
fn persisted_wall_field_violating() {
    expect_findings(
        "crates/bench/src/x.rs",
        "#[derive(Debug, Serialize, Deserialize)]\n\
         pub struct Record {\n\
             pub verdict: String,\n\
             pub wall_secs: f64,\n\
             pub setup_ms: u64,\n\
         }\n",
        &["persisted-wall-field", "persisted-wall-field"],
    );
}

#[test]
fn persisted_wall_field_clean_with_skip() {
    expect_clean(
        "crates/bench/src/x.rs",
        "#[derive(Debug, Serialize, Deserialize)]\n\
         pub struct Record {\n\
             pub verdict: String,\n\
             #[serde(skip)]\n\
             pub wall_secs: f64,\n\
         }\n",
    );
}

#[test]
fn persisted_wall_field_ignores_non_serde_structs_and_locals() {
    // No Serialize derive: wall fields may live in memory freely.
    expect_clean(
        "crates/core/src/x.rs",
        "#[derive(Debug, Clone)]\npub struct Stats {\n    pub wall_secs: f64,\n}\n",
    );
    // Struct-literal initializers are not definitions.
    expect_clean(
        "crates/bench/src/x.rs",
        "let r = Record {\n    wall_secs: 0.25,\n};\n",
    );
    // Serde enums have no named fields to audit.
    expect_clean(
        "crates/bench/src/x.rs",
        "#[derive(Serialize)]\npub enum Kind {\n    Fast,\n    Slow,\n}\n",
    );
}

#[test]
fn persisted_wall_field_suppressed() {
    expect_suppressed(
        "crates/bench/src/x.rs",
        "#[derive(Serialize)]\n\
         pub struct Record {\n\
             // lint: allow(persisted-wall-field, fixture: this artefact is explicitly a timing log)\n\
             pub wall_secs: f64,\n\
         }\n",
        "persisted-wall-field",
    );
}

// ------------------------------------------------------- suppression meta

#[test]
fn suppression_without_reason_is_a_finding() {
    expect_findings(
        "crates/core/src/x.rs",
        "let t = 1; // lint: allow(relaxed-atomics)\n",
        &["suppression-syntax"],
    );
}

#[test]
fn suppression_reason_may_contain_parentheses() {
    expect_suppressed(
        "crates/core/src/x.rs",
        "n.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed-atomics, fixture (see DESIGN.md section 5e) counter)\n",
        "relaxed-atomics",
    );
}

#[test]
fn one_marker_does_not_blanket_a_whole_file() {
    let src = "// lint: allow(relaxed-atomics, fixture: first counter only)\n\
               a.fetch_add(1, Ordering::Relaxed);\n\
               b.fetch_add(1, Ordering::Relaxed);\n";
    let out = lint_source("crates/core/src/x.rs", src);
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
    assert_eq!(out.findings[0].line, 3);
    assert_eq!(out.suppressed.len(), 1);
}

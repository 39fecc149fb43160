#![forbid(unsafe_code)]
//! `abonn-lint` — a determinism & soundness static-analysis pass over the
//! workspace's Rust sources.
//!
//! The reproduction's north-star invariant is that verdicts, stats, and
//! every persisted report byte are a pure function of `(scale, seed)` —
//! independent of wall clock, thread count, cache mode, and machine.
//! `scripts/ci.sh` checks that *dynamically* (report diffs, the
//! differential fuzzer); the workspace's clippy configuration
//! (`clippy.toml`, `[workspace.lints]`, the wire-path `#![deny(..)]`
//! lists) and this crate check it *statically*, at the source level, so
//! a regression is caught the moment it is written rather than the first
//! time it happens to change a byte. This crate holds only the four
//! invariants clippy cannot express (see [`rules::default_rules`]).
//!
//! Four pieces:
//!
//! * [`lexer`] — a comment-, string- and char-literal-aware scanner, so
//!   rules only ever fire on code (never on `"Ordering::Relaxed"` in a
//!   string or in a doc comment) while `// lint: allow(...)` markers are
//!   still found.
//! * [`syntax`] — a brace-matched block tree and binding table over the
//!   lexed tokens.
//! * [`rules`] — the rule set, each rule scoped to the paths where its
//!   invariant applies.
//! * [`passes`] — the two rules that need scopes and one hop of data
//!   flow: `lock-discipline` and `float-reduction-order`.
//!
//! # Suppressions
//!
//! A finding is suppressed by an inline marker comment
//!
//! ```text
//! // lint: allow(<rule>, <why this specific site is sound>)
//! ```
//!
//! placed either at the end of the offending line or on its own line
//! directly above (blank and comment-only lines in between are skipped).
//! The reason is mandatory — it is the audit trail — and markers with a
//! missing reason or an unknown rule name are themselves findings under
//! the [`rules::SUPPRESSION_SYNTAX`] meta-rule.
//!
//! # Scope
//!
//! [`lint_workspace`] scans `crates/`, `src/`, `tests/`, and `examples/`
//! under the workspace root. `compat/` is deliberately excluded: the
//! shims there vendor external crates' APIs, so the repo's own
//! invariants do not apply to them (they stay out of
//! `[workspace.lints]` for the same reason).

pub mod lexer;
pub mod passes;
pub mod rules;
pub mod syntax;

use lexer::classify;
use rules::{default_rules, Finding, Rule, Severity, SourceFile, SUPPRESSION_SYNTAX};
use std::fmt;
use std::path::{Path, PathBuf};

/// A `lint: allow(...)` marker that matched (and silenced) a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Rule being allowed.
    pub rule: String,
    /// Workspace-relative path of the marker.
    pub path: String,
    /// 1-based line the marker applies to (the code line, not the
    /// comment line).
    pub line: usize,
    /// The mandatory justification text.
    pub reason: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings that survive suppression filtering.
    pub findings: Vec<Finding>,
    /// Findings silenced by a `lint: allow(...)` marker.
    pub suppressed: Vec<Suppression>,
}

/// Result of linting a whole tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Active findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Matched suppressions, sorted by `(path, line, rule)`.
    pub suppressed: Vec<Suppression>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// `true` when the tree is clean (no active findings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The terminal report: one `path:line: severity [rule] message` per
/// finding, then a summary line.
impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for x in &self.findings {
            writeln!(
                f,
                "{}:{}: {} [{}] {}",
                x.path,
                x.line,
                x.severity.as_str(),
                x.rule,
                x.message
            )?;
        }
        if !self.findings.is_empty() {
            writeln!(f)?;
        }
        writeln!(
            f,
            "abonn-lint: {} finding(s), {} suppression(s) in {} file(s)",
            self.findings.len(),
            self.suppressed.len(),
            self.files_scanned
        )
    }
}

/// A parsed `lint: allow(<rule>, <reason>)` marker.
struct AllowMarker {
    rule: String,
    reason: String,
    /// 1-based line the marker suppresses.
    target_line: usize,
}

/// Is `s` a plausible rule name (kebab-case ASCII)? Anything else after
/// `lint: allow(` is prose *mentioning* the marker, not a marker.
fn is_rule_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// Index of the `)` closing the marker whose `(` was just consumed,
/// tolerating balanced parentheses inside the reason text.
fn closing_paren(body: &str) -> Option<usize> {
    let mut depth = 1usize;
    for (i, c) in body.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts every `lint: allow(...)` marker from the classified lines.
/// Malformed markers become findings.
fn collect_markers(
    path: &str,
    lines: &[lexer::SourceLine],
    findings: &mut Vec<Finding>,
) -> Vec<AllowMarker> {
    let mut markers = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let mut rest = line.comment.as_str();
        while let Some(pos) = rest.find("lint: allow(") {
            let body = &rest[pos + "lint: allow(".len()..];
            rest = body;
            // Prose like "a `lint: allow(...)` marker" must not parse as
            // a marker: the rule segment has to look like a rule name.
            let seg_end = body.find([',', ')']).unwrap_or(body.len());
            if !is_rule_name(body[..seg_end].trim()) {
                continue;
            }
            let Some(close) = closing_paren(body) else {
                findings.push(Finding {
                    rule: SUPPRESSION_SYNTAX.to_string(),
                    path: path.to_string(),
                    line: idx + 1,
                    message: "unterminated `lint: allow(` marker".to_string(),
                    severity: Severity::Error,
                });
                continue;
            };
            let inner = &body[..close];
            let Some((rule, reason)) = inner.split_once(',') else {
                findings.push(Finding {
                    rule: SUPPRESSION_SYNTAX.to_string(),
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!(
                        "`lint: allow({inner})` is missing its mandatory reason: use \
                         `lint: allow(rule-name, why this site is sound)`"
                    ),
                    severity: Severity::Error,
                });
                continue;
            };
            let (rule, reason) = (rule.trim().to_string(), reason.trim().to_string());
            if reason.is_empty() {
                findings.push(Finding {
                    rule: SUPPRESSION_SYNTAX.to_string(),
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!("`lint: allow({rule}, )` has an empty reason"),
                    severity: Severity::Error,
                });
                continue;
            }
            // The marker guards its own line if it carries code, else the
            // next line that does.
            let target = if line.has_code() {
                Some(idx)
            } else {
                (idx + 1..lines.len()).find(|&j| lines[j].has_code())
            };
            let Some(target) = target else {
                findings.push(Finding {
                    rule: SUPPRESSION_SYNTAX.to_string(),
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!("`lint: allow({rule}, ...)` guards no code line"),
                    severity: Severity::Error,
                });
                continue;
            };
            markers.push(AllowMarker {
                rule,
                reason,
                target_line: target + 1,
            });
        }
    }
    markers
}

/// Lints one file's text against `rules`.
#[must_use]
pub fn lint_text(path: &str, text: &str, rules: &[Rule]) -> FileOutcome {
    let lines = classify(text);
    let index = syntax::index(&lines);
    let file = SourceFile {
        path,
        lines: &lines,
        syntax: &index,
    };
    let mut raw = Vec::new();
    for rule in rules {
        if rule.in_scope(path) {
            rule.check(&file, &mut raw);
        }
    }
    let mut findings = Vec::new();
    let markers = collect_markers(path, &lines, &mut findings);
    let known: Vec<&str> = rules.iter().map(|r| r.name).collect();
    for m in &markers {
        if m.rule != SUPPRESSION_SYNTAX && !known.contains(&m.rule.as_str()) {
            findings.push(Finding {
                rule: SUPPRESSION_SYNTAX.to_string(),
                path: path.to_string(),
                line: m.target_line,
                message: format!(
                    "`lint: allow({}, ...)` names an unknown rule (known: {})",
                    m.rule,
                    known.join(", ")
                ),
                severity: Severity::Error,
            });
        }
    }
    let mut suppressed = Vec::new();
    for f in raw {
        let hit = markers
            .iter()
            .find(|m| m.rule == f.rule && m.target_line == f.line);
        match hit {
            Some(m) => suppressed.push(Suppression {
                rule: f.rule,
                path: f.path,
                line: f.line,
                reason: m.reason.clone(),
            }),
            None => findings.push(f),
        }
    }
    findings.sort_by(|a, b| (a.line, &a.rule, &a.message).cmp(&(b.line, &b.rule, &b.message)));
    FileOutcome {
        findings,
        suppressed,
    }
}

/// Lints one file's text against the default rule set.
#[must_use]
pub fn lint_source(path: &str, text: &str) -> FileOutcome {
    lint_text(path, text, &default_rules())
}

/// The root directories scanned by [`lint_workspace`], relative to the
/// workspace root.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Recursively collects `.rs` files under `dir`, as workspace-relative
/// `/`-separated paths, sorted for deterministic reports.
fn collect_rs_files(root: &Path, rel: &str, out: &mut Vec<String>) -> std::io::Result<()> {
    let dir = root.join(rel);
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(&dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    for name in entries {
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let child_rel = format!("{rel}/{name}");
        let child = root.join(&child_rel);
        if child.is_dir() {
            collect_rs_files(root, &child_rel, out)?;
        } else if name.ends_with(".rs") {
            out.push(child_rel);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under the workspace `root`'s scan roots with
/// the default rules.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal or file reads.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    lint_tree(root, &default_rules())
}

/// Lints every `.rs` file under `root`'s scan roots against `rules`.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal or file reads.
pub fn lint_tree(root: &Path, rules: &[Rule]) -> std::io::Result<LintReport> {
    let mut paths = Vec::new();
    for scan_root in SCAN_ROOTS {
        collect_rs_files(root, scan_root, &mut paths)?;
    }
    let mut report = LintReport::default();
    for rel in paths {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let outcome = lint_text(&rel, &text, rules);
        report.findings.extend(outcome.findings);
        report.suppressed.extend(outcome.suppressed);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok(report)
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`; falls back to `start` itself.
#[must_use]
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_require_reasons() {
        let out = lint_source(
            "crates/core/src/x.rs",
            "// lint: allow(relaxed-atomics)\nlet a = 1;\n",
        );
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, SUPPRESSION_SYNTAX);
    }

    #[test]
    fn markers_reject_unknown_rules() {
        let out = lint_source(
            "crates/core/src/x.rs",
            "// lint: allow(no-such-rule, because reasons)\nlet a = 1;\n",
        );
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].message.contains("unknown rule"));
    }

    #[test]
    fn trailing_marker_guards_its_own_line() {
        let src = "use std::sync::atomic::Ordering;\n\
                   n.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed-atomics, test fixture)\n";
        let out = lint_source("crates/core/src/x.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].reason, "test fixture");
    }

    #[test]
    fn standalone_marker_guards_next_code_line() {
        let src = "// lint: allow(relaxed-atomics, test fixture)\n\
                   // another comment between marker and code\n\
                   n.fetch_add(1, Ordering::Relaxed);\n";
        let out = lint_source("crates/core/src/x.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn marker_for_wrong_rule_does_not_suppress() {
        let src =
            "n.fetch_add(1, Ordering::Relaxed); // lint: allow(lock-discipline, wrong rule)\n";
        let out = lint_source("crates/core/src/x.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "relaxed-atomics");
    }

    #[test]
    fn workspace_root_discovery_finds_manifest() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/lint").is_dir());
    }
}

//! The rule set: the four workspace invariants clippy cannot express
//! (`DESIGN.md` §5e), each scoped to the paths where it applies.

use crate::lexer::{is_ident, SourceLine};
use crate::passes;
use crate::syntax::FileIndex;

/// How bad a finding is. Both severities fail the CI gate; the tier
/// only feeds the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Should-fix: the invariant violation is not locally provable but
    /// may be sound; type the code so the pass can see it, or allow.
    Warning,
    /// Must-fix: a proven invariant violation.
    Error,
}

impl Severity {
    /// Lowercase name, as used in reports and `--list-rules`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A finding produced by a rule (before suppression filtering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (kebab-case, matches the `lint: allow(...)` argument).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Severity tier.
    pub severity: Severity,
}

/// A classified source file handed to rule checks.
pub struct SourceFile<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Lexed lines (see [`crate::lexer::classify`]).
    pub lines: &'a [SourceLine],
    /// The brace-matched syntax index (see [`crate::syntax::index`]).
    pub syntax: &'a FileIndex,
}

/// One static-analysis rule.
pub struct Rule {
    /// Kebab-case name used in reports and `lint: allow(...)`.
    pub name: &'static str,
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
    /// Path prefixes (or exact `.rs` paths) the rule applies to; empty
    /// means the whole scanned tree.
    pub scopes: &'static [&'static str],
    /// The severity the rule reports at (the float pass downgrades
    /// locally-unprovable sites to [`Severity::Warning`] per finding).
    pub severity: Severity,
    check: fn(&SourceFile<'_>, &mut Vec<Finding>),
}

impl Rule {
    /// Does the rule apply to `path`?
    #[must_use]
    pub fn in_scope(&self, path: &str) -> bool {
        self.scopes.is_empty()
            || self.scopes.iter().any(|s| {
                if s.ends_with(".rs") {
                    path == *s
                } else {
                    path.starts_with(s)
                }
            })
    }

    /// Runs the rule over `file`, appending findings.
    pub fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        (self.check)(file, out);
    }
}

/// The full rule set, in the order findings are reported.
#[must_use]
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "relaxed-atomics",
            summary: "Ordering::Relaxed only on justified monotonic counters",
            scopes: &["crates/"],
            severity: Severity::Error,
            check: check_relaxed_atomics,
        },
        Rule {
            name: "persisted-wall-field",
            summary: "time-like fields of serde-derived structs must be #[serde(skip)]",
            scopes: &[],
            severity: Severity::Error,
            check: check_persisted_wall_field,
        },
        Rule {
            name: "lock-discipline",
            summary: "a Mutex/RwLock guard must not be live across blocking I/O, \
                      waits, or pool fan-out: render under the lock, then block",
            scopes: &["crates/"],
            severity: Severity::Error,
            check: passes::check_lock_discipline,
        },
        Rule {
            name: "float-reduction-order",
            summary: "f32/f64 sum/product/fold need a totally ordered source: \
                      float addition is not associative, bytes must not drift",
            scopes: passes::FLOAT_ORDER_SCOPE,
            severity: Severity::Error,
            check: passes::check_float_reduction_order,
        },
    ]
}

/// The meta-rule name for malformed or unknown `lint: allow(...)` markers
/// (emitted by the engine, not by a check function).
pub const SUPPRESSION_SYNTAX: &str = "suppression-syntax";

/// Finds `needle` in `code` at identifier boundaries (the chars adjacent
/// to the match must not be identifier chars). `needle` may itself span
/// `::`, e.g. `Ordering::Relaxed`.
#[must_use]
pub fn has_token(code: &str, needle: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    let pat: Vec<char> = needle.chars().collect();
    if pat.is_empty() || chars.len() < pat.len() {
        return false;
    }
    for start in 0..=(chars.len() - pat.len()) {
        if chars[start..start + pat.len()] != pat[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident(chars[start - 1]);
        let end = start + pat.len();
        let after_ok = end >= chars.len() || !is_ident(chars[end]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

fn check_relaxed_atomics(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if has_token(&line.code, "Ordering::Relaxed") {
            out.push(Finding {
                rule: "relaxed-atomics".to_string(),
                path: file.path.to_string(),
                line: idx + 1,
                message: "`Ordering::Relaxed` permits unsynchronised reordering; only monotonic \
                          counters whose value never gates a verdict may use it, under a \
                          justifying `lint: allow`"
                    .to_string(),
                severity: Severity::Error,
            });
        }
    }
}

/// Field names that smell like wall-clock measurements.
fn time_like(name: &str) -> bool {
    name.starts_with("wall")
        || name.starts_with("elapsed")
        || name.ends_with("_secs")
        || name.ends_with("_ms")
        || name.ends_with("_millis")
        || name.ends_with("_micros")
        || name.ends_with("_nanos")
}

/// Extracts `name` from a struct-field line like `pub wall_secs: f64,`.
fn field_name(code: &str) -> Option<&str> {
    let mut rest = code.trim_start();
    if let Some(r) = rest.strip_prefix("pub") {
        // `pub`, `pub(crate)`, `pub(super)`, ... — but not `publish_at`.
        if !r.starts_with(|c: char| is_ident(c)) {
            rest = r.trim_start();
            if let Some(close) = rest
                .strip_prefix('(')
                .and_then(|r| r.find(')').map(|i| &r[i + 1..]))
            {
                rest = close.trim_start();
            }
        }
    }
    let end = rest.find(|c: char| !is_ident(c))?;
    let name = &rest[..end];
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return None;
    }
    rest[end..].trim_start().starts_with(':').then_some(name)
}

/// State machine for `persisted-wall-field`: find `#[derive(.. Serialize ..)]`
/// structs and require `#[serde(skip)]` on every time-like named field.
fn check_persisted_wall_field(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let mut derive_serialize = false;
    let mut in_struct = false;
    let mut depth = 0isize;
    let mut field_attrs = String::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let code = line.code.trim();
        if !in_struct {
            if code.starts_with("#[") && code.contains("derive") && has_token(code, "Serialize") {
                derive_serialize = true;
                continue;
            }
            if derive_serialize && has_token(code, "struct") {
                if code.contains(';') && !code.contains('{') {
                    // Unit or tuple struct: no named fields to check.
                    derive_serialize = false;
                    continue;
                }
                in_struct = true;
                derive_serialize = false;
                depth = brace_delta(code);
                field_attrs.clear();
                continue;
            }
            if !code.is_empty() && !code.starts_with("#[") && !code.starts_with("#![") {
                // The derive applied to an enum/union or something else.
                derive_serialize = false;
            }
            continue;
        }
        // Inside a serde struct body.
        if depth == 0 {
            // `struct Foo {` spilled the `{` to a later line.
            depth += brace_delta(code);
            continue;
        }
        if depth == 1 {
            if code.starts_with("#[") {
                field_attrs.push_str(code);
                depth += brace_delta(code);
                continue;
            }
            if let Some(name) = field_name(code) {
                let skipped = field_attrs.contains("serde") && field_attrs.contains("skip");
                if time_like(name) && !skipped {
                    out.push(Finding {
                        rule: "persisted-wall-field".to_string(),
                        path: file.path.to_string(),
                        line: idx + 1,
                        message: format!(
                            "serde-derived struct persists time-like field `{name}`; mark it \
                             `#[serde(skip)]` so artefacts stay machine- and load-independent"
                        ),
                        severity: Severity::Error,
                    });
                }
            }
            if !code.is_empty() {
                field_attrs.clear();
            }
        }
        depth += brace_delta(code);
        if depth <= 0 {
            in_struct = false;
        }
    }
}

/// Net brace nesting change of a code line.
fn brace_delta(code: &str) -> isize {
    let mut d = 0;
    for c in code.chars() {
        if c == '{' {
            d += 1;
        } else if c == '}' {
            d -= 1;
        }
    }
    d
}

//! Workspace determinism & soundness lint front-end (see `abonn-lint`).
//!
//! ```text
//! cargo run -p abonn-bench --bin lint                # report, exit 1 on findings
//! cargo run -p abonn-bench --bin lint -- --root DIR  # scan another checkout
//! cargo run -p abonn-bench --bin lint -- --list-rules
//! ```
//!
//! The binary is the CI gate: it exits non-zero iff the scan produced at
//! least one finding not suppressed by an inline `lint: allow` marker.
//! The invariants clippy can express live in `clippy.toml` and
//! `[workspace.lints]` instead (see `DESIGN.md` §5e).

use abonn_lint::{find_workspace_root, lint_workspace, rules::default_rules};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: lint [--root DIR] [--list-rules]";

fn main() -> ExitCode {
    let mut list_rules = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--list-rules" => list_rules = true,
            "--root" => match args.next() {
                Some(value) => root = Some(PathBuf::from(value)),
                None => {
                    eprintln!("--root needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if list_rules {
        for rule in default_rules() {
            println!(
                "{:<26} {:<8} {}",
                rule.name,
                rule.severity.as_str(),
                rule.summary
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        return ExitCode::SUCCESS;
    }

    // Default to the workspace root: walk up from the current directory
    // (covers `cargo run` from anywhere inside the repo), falling back to
    // the compile-time manifest location for out-of-tree invocations.
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let found = find_workspace_root(&cwd);
        if found.join("crates").is_dir() {
            found
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    print!("{report}");

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

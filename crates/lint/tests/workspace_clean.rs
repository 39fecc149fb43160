//! The gates the CI script relies on: a full scan of this workspace's
//! sources must come back clean — every intentional deviation visible as
//! an audited inline suppression — and the clippy configuration that
//! carries the rest of the determinism rules must stay wired in.

use abonn_lint::lint_workspace;
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel))
        .unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The panic lints every wire-facing module denies: daemons return
/// structured errors, they do not unwind. Each file in
/// [`WIRE_PATH_FILES`] must open with exactly this block.
const WIRE_PATH_DENY: &str = "#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::panic_in_result_fn
)]
";

/// Request decode (and the JSON parser under it), scheduling, model
/// resolution, response encode, persistence, the VNN-LIB crate fed with
/// client bytes, and the tensor hot kernels.
const WIRE_PATH_FILES: &[&str] = &[
    "compat/serde_json/src/lib.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/scheduler.rs",
    "crates/serve/src/model_cache.rs",
    "crates/serve/src/persist.rs",
    "crates/vnnlib/src/lib.rs",
    "crates/tensor/src/kernels.rs",
];

#[test]
fn workspace_scan_is_clean() {
    let rep = lint_workspace(workspace_root()).expect("scan workspace");
    assert!(rep.is_clean(), "workspace lint found violations:\n{rep}");
}

#[test]
fn workspace_scan_covers_the_tree() {
    let rep = lint_workspace(workspace_root()).expect("scan workspace");
    assert!(
        rep.files_scanned >= 90,
        "expected to scan the whole workspace, got {} files",
        rep.files_scanned
    );
}

#[test]
fn audited_sites_are_suppressed_not_silent() {
    // The known atomics / condvar sites must show up as suppressions
    // with reasons — if a refactor moves or removes them, this test
    // documents where the audit trail went.
    let rep = lint_workspace(workspace_root()).expect("scan workspace");
    let has = |rule: &str, path: &str| {
        rep.suppressed
            .iter()
            .any(|s| s.rule == rule && s.path == path && !s.reason.is_empty())
    };
    assert!(has("relaxed-atomics", "crates/core/src/pool.rs"));
    // The condvar waits hold their mutex by protocol.
    assert!(has("lock-discipline", "crates/core/src/pool.rs"));
}

#[test]
fn wire_path_files_deny_the_panic_lints() {
    for path in WIRE_PATH_FILES {
        assert!(
            read(path).starts_with(WIRE_PATH_DENY),
            "{path} must open with the wire-path deny list:\n{WIRE_PATH_DENY}"
        );
    }
}

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    // `unsafe_code`, `undocumented_unsafe_blocks` and the reason-carrying
    // `#[expect]` discipline reach a crate only through this opt-in.
    let mut manifests = vec!["Cargo.toml".to_string()];
    for entry in std::fs::read_dir(workspace_root().join("crates")).expect("list crates/") {
        let name = entry.expect("dir entry").file_name();
        manifests.push(format!("crates/{}/Cargo.toml", name.to_string_lossy()));
    }
    for manifest in &manifests {
        assert!(
            read(manifest).contains("\n[lints]\nworkspace = true\n"),
            "{manifest} must opt into [workspace.lints]"
        );
    }
}

#[test]
fn daemon_sources_are_covered_by_the_determinism_rules() {
    // lock-discipline and float-reduction-order cover the serve daemon
    // and the engine crates through directory prefixes, so new files
    // are covered without a rules edit.
    let rules = abonn_lint::rules::default_rules();
    let rule = |name: &str| {
        rules
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("rule {name} exists"))
    };
    for path in [
        "crates/serve/src/scheduler.rs",
        "crates/core/src/pool.rs",
        "crates/bench/src/bin/serve.rs",
    ] {
        assert!(
            workspace_root().join(path).is_file(),
            "{path} moved; update the daemon determinism scopes"
        );
        assert!(
            rule("lock-discipline").in_scope(path),
            "{path} must be in scope of lock-discipline"
        );
    }
    for path in [
        "crates/bound/src/lib.rs",
        "crates/lp/src/simplex.rs",
        "crates/tensor/src/vecops.rs",
        "crates/serve/src/server.rs",
    ] {
        assert!(
            rule("float-reduction-order").in_scope(path),
            "{path} must be in scope of float-reduction-order"
        );
    }
}

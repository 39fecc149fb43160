//! Violating fixtures for the determinism rules that clippy enforces:
//! one non-test `fn` per construct, each under the `#[expect]` of the
//! lint that must reject it. `cargo clippy --all-targets -- -D warnings`
//! compiles this file, so deleting a `clippy.toml` entry, or a lint
//! losing its reach, leaves an expectation unfulfilled and fails the
//! build. Disallowed types are spelled as full paths in the signatures,
//! because a `use` line is itself flagged. The panic lints are the
//! wire-path deny list (`workspace_clean.rs` pins where it applies).
#![expect(dead_code, reason = "fixtures are compiled and linted, never called")]

#[expect(clippy::disallowed_methods, reason = "fixture: wall-clock-in-engine")]
fn instant_now() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_types, reason = "fixture: wall-clock-in-engine")]
fn system_time() -> std::time::SystemTime {
    std::time::UNIX_EPOCH
}

#[expect(clippy::disallowed_types, reason = "fixture: unordered-iteration")]
fn hash_map(m: &std::collections::HashMap<u32, u32>) -> usize {
    m.len()
}

#[expect(clippy::disallowed_types, reason = "fixture: unordered-iteration")]
fn hash_set(s: &std::collections::HashSet<u32>) -> usize {
    s.len()
}

#[expect(clippy::disallowed_methods, reason = "fixture: nondeterministic-api")]
fn topology() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[expect(clippy::unwrap_used, reason = "fixture: panic-path")]
fn unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

#[expect(clippy::expect_used, reason = "fixture: panic-path")]
fn expect(x: Option<u8>) -> u8 {
    x.expect("present")
}

#[expect(clippy::panic, reason = "fixture: panic-path")]
fn panics() {
    panic!("boom");
}

#[expect(clippy::unreachable, reason = "fixture: panic-path")]
fn unreachable() {
    unreachable!();
}

#[expect(clippy::todo, reason = "fixture: panic-path")]
fn todo() {
    todo!();
}

#[expect(clippy::unimplemented, reason = "fixture: panic-path")]
fn unimplemented() {
    unimplemented!();
}

#[expect(clippy::indexing_slicing, reason = "fixture: panic-path")]
fn slice_index(xs: &[u8], i: usize) -> u8 {
    xs[i]
}

#[expect(clippy::string_slice, reason = "fixture: panic-path")]
fn str_slice(s: &str) -> &str {
    &s[1..]
}

#[expect(clippy::panic_in_result_fn, reason = "fixture: panic-path")]
fn assert_in_result_fn(x: u8) -> Result<u8, String> {
    assert!(x > 0, "positive");
    Ok(x)
}

#[expect(
    unsafe_code,
    clippy::undocumented_unsafe_blocks,
    reason = "fixture: unsafe-outside-allowlist"
)]
fn unsafe_without_safety_comment() -> &'static str {
    unsafe { std::str::from_utf8_unchecked(b"fixture") }
}

//! Property tests of store snapshot persistence.
//!
//! Round trip: any store reachable through the public API snapshots to
//! canonical JSON, loads back to a store that answers every probe the
//! same way, and re-snapshots to byte-identical text. Rejection: any
//! single-bit corruption, any strict truncation, and any version bump
//! is a *structured* [`SnapshotError`] — never a panic, never a
//! silently wrong store.

use abonn_core::{Certificate, ProofNode};
use abonn_serve::{CachedVerdict, FamilyMeta, ResultStore, SnapshotError, StoreCounters};
use proptest::prelude::*;

fn unsat() -> CachedVerdict {
    CachedVerdict::Unsat {
        certificate: Certificate::new(ProofNode::root_leaf()),
    }
}

fn sat(witness: Vec<f64>) -> CachedVerdict {
    CachedVerdict::Sat { witness }
}

/// Family index → fixed identity: key, cohort (shared across pairs of
/// indices so cross-center scans have something to find), center.
fn family_key(idx: u8) -> u64 {
    1000 + u64::from(idx)
}

fn family_meta(idx: u8) -> FamilyMeta {
    FamilyMeta {
        cohort: Some(u64::from(idx / 2)),
        center: Some(vec![
            0.1 + 0.08 * f64::from(idx),
            0.9 - 0.08 * f64::from(idx),
        ]),
    }
}

/// One generated store-building op: insert or recency-bumping lookup.
/// (The vendored proptest has no `any::<bool>()`; the `u8` flag stands
/// in for SAT-vs-UNSAT.)
type Op = (u8, u8, f64, u8, (f64, f64));

/// Builds a store through the public API only, so every generated state
/// is one the daemon could actually reach.
fn build_store(ops: &[Op]) -> ResultStore {
    let mut store = ResultStore::new();
    for &(action, idx, eps, sat_flag, (wx, wy)) in ops {
        let idx = idx % 8;
        let meta = family_meta(idx);
        if action % 3 == 0 {
            let verdict = if sat_flag == 1 {
                sat(vec![wx, wy])
            } else {
                unsat()
            };
            store.insert(family_key(idx), eps, &meta, verdict);
        } else {
            store.lookup(family_key(idx), eps, meta.cohort, meta.center.as_deref());
        }
    }
    store
}

/// Probe grid compared between the original and the loaded store.
fn probe_answers(store: &ResultStore) -> Vec<Option<(&'static str, u64, f64)>> {
    let mut answers = Vec::new();
    for idx in 0..10u8 {
        let meta = family_meta(idx % 8);
        for step in 0..8 {
            let eps = 0.05 + 0.125 * f64::from(step);
            let hit = store.peek(family_key(idx), eps, meta.cohort, meta.center.as_deref());
            // `needs_reaudit` is deliberately *not* compared: loading
            // marks every UNSAT entry for re-audit.
            answers.push(hit.map(|h| (h.kind.as_str(), h.family, h.entry.epsilon)));
        }
    }
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// snapshot → load → snapshot is the identity on bytes, resets the
    /// counters, and preserves every probe answer.
    #[test]
    fn snapshots_round_trip(
        ops in proptest::collection::vec(
            (0u8..6, 0u8..8, 0.001..1.0_f64, 0u8..2,
             (0.0..1.0_f64, 0.0..1.0_f64)),
            0..40,
        ),
    ) {
        let store = build_store(&ops);
        let text = store.snapshot_string();
        let (loaded, report) = ResultStore::from_snapshot_str(&text, store.capacity())
            .expect("own snapshot loads");
        prop_assert_eq!(report.families, store.num_families());
        prop_assert_eq!(report.entries, store.num_entries());
        prop_assert_eq!(loaded.num_families(), store.num_families());
        prop_assert_eq!(loaded.num_entries(), store.num_entries());
        // Counters describe a serving process, not the store: reset.
        prop_assert_eq!(loaded.counters(), StoreCounters::default());
        prop_assert_eq!(probe_answers(&loaded), probe_answers(&store));
        prop_assert_eq!(loaded.snapshot_string(), text, "re-snapshot must be byte-identical");
    }

    /// Any single flipped bit is rejected with a structured error.
    /// (Flips may also break UTF-8; that too must reject, not panic.)
    #[test]
    fn single_bit_flips_are_rejected(
        ops in proptest::collection::vec(
            (0u8..6, 0u8..8, 0.001..1.0_f64, 0u8..2,
             (0.0..1.0_f64, 0.0..1.0_f64)),
            1..20,
        ),
        position in 0.0..1.0_f64,
        bit in 0u8..8,
    ) {
        let text = build_store(&ops).snapshot_string();
        let mut bytes = text.clone().into_bytes();
        let at = ((position * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[at] ^= 1 << bit;
        match String::from_utf8(bytes) {
            Err(_) => {} // no longer UTF-8: unreadable, trivially rejected
            Ok(corrupt) => {
                let got = ResultStore::from_snapshot_str(&corrupt, None);
                prop_assert!(
                    got.is_err(),
                    "flip of bit {} at byte {} went unnoticed", bit, at
                );
            }
        }
    }

    /// Any strict truncation (dropping at least one byte of the JSON
    /// document) is rejected with a structured error.
    #[test]
    fn truncations_are_rejected(
        ops in proptest::collection::vec(
            (0u8..6, 0u8..8, 0.001..1.0_f64, 0u8..2,
             (0.0..1.0_f64, 0.0..1.0_f64)),
            1..20,
        ),
        position in 0.0..1.0_f64,
    ) {
        let text = build_store(&ops).snapshot_string();
        // Snapshot text is `doc + "\n"`; cut strictly inside the doc.
        let mut cut = ((position * (text.len() - 1) as f64) as usize).min(text.len() - 2);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let got = ResultStore::from_snapshot_str(&text[..cut], None);
        prop_assert!(got.is_err(), "truncation to {} bytes went unnoticed", cut);
    }
}

#[test]
fn version_bump_is_a_structured_version_error() {
    let mut store = ResultStore::new();
    store.insert(family_key(0), 0.25, &family_meta(0), unsat());
    let text = store.snapshot_string();
    assert!(
        text.contains("\"version\":1"),
        "snapshot layout changed: {text}"
    );
    let bumped = text.replace("\"version\":1", "\"version\":99");
    match ResultStore::from_snapshot_str(&bumped, None) {
        Err(SnapshotError::Version { found }) => assert_eq!(found, 99),
        other => panic!("version bump must fail as Version, got {other:?}"),
    }
}

#[test]
fn foreign_engine_config_is_rejected() {
    let store = build_store(&[(0, 0, 0.5, 0, (0.5, 0.5))]);
    let text = store.snapshot_string();
    let swapped = text.replace("abonn/planet/v1", "abonn/other/v9");
    assert!(
        matches!(
            ResultStore::from_snapshot_str(&swapped, None),
            Err(SnapshotError::Checksum) | Err(SnapshotError::EngineConfig { .. })
        ),
        "a snapshot from a different engine configuration must not load"
    );
}

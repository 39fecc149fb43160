//! Deterministic eviction tests: the size-bounded store against a
//! reference LRU simulation.
//!
//! The store evicts *whole families* in logical-tick LRU order — victim
//! = minimum `(last_used, key)` — never the family being inserted into
//! and never a pinned family. The simulation below re-implements that
//! policy over plain maps; after every op the store's shape and
//! counters must match it exactly, and replaying the same op sequence
//! must reproduce the same counters bit-for-bit.

use abonn_core::{Certificate, ProofNode};
use abonn_serve::{CachedVerdict, FamilyMeta, ResultStore};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};

fn unsat() -> CachedVerdict {
    CachedVerdict::Unsat {
        certificate: Certificate::new(ProofNode::root_leaf()),
    }
}

fn family_key(idx: u8) -> u64 {
    100 + u64::from(idx)
}

/// Distinct per-slot radius; the probe radius below all of them.
fn slot_eps(slot: u8) -> f64 {
    0.01 * (f64::from(slot) + 1.0)
}

const PROBE_EPS: f64 = 0.005;

/// Reference simulation of the documented eviction policy.
#[derive(Default)]
struct Sim {
    families: BTreeMap<u64, (u64, BTreeSet<u64>)>, // key → (last_used, slots)
    pinned: BTreeSet<u64>,
    clock: u64,
    cap: usize,
    inserts: usize,
    reuse_unsat: usize,
    misses: usize,
    evicted_families: usize,
    evicted_entries: usize,
}

impl Sim {
    fn insert(&mut self, key: u64, slot: u8) {
        self.clock += 1;
        let state = self.families.entry(key).or_default();
        state.0 = self.clock;
        if state.1.insert(u64::from(slot)) {
            self.inserts += 1;
        }
        // Evict LRU whole families while over capacity, skipping the
        // inserting family and every pinned one.
        loop {
            let total: usize = self.families.values().map(|(_, s)| s.len()).sum();
            if total <= self.cap {
                break;
            }
            let victim = self
                .families
                .iter()
                .filter(|(k, _)| **k != key && !self.pinned.contains(k))
                .min_by_key(|(k, (used, _))| (*used, **k))
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            let (_, slots) = self.families.remove(&victim).expect("victim exists");
            self.evicted_families += 1;
            self.evicted_entries += slots.len();
        }
    }

    /// The probe lookup: radius below every stored one, so it hits
    /// (reuse-unsat) iff the family is present.
    fn probe(&mut self, key: u64) {
        self.clock += 1;
        match self.families.get_mut(&key) {
            Some(state) => {
                state.0 = self.clock;
                self.reuse_unsat += 1;
            }
            None => self.misses += 1,
        }
    }
}

/// Applies one op to both store and simulation.
fn apply(store: &mut ResultStore, sim: &mut Sim, op: (u8, u8, u8)) {
    let (action, idx, slot) = op;
    let idx = idx % 6;
    let key = family_key(idx);
    match action % 4 {
        0 | 1 => {
            store.insert(key, slot_eps(slot % 5), &FamilyMeta::default(), unsat());
            sim.insert(key, slot % 5);
        }
        2 => {
            store.lookup(key, PROBE_EPS, None, None);
            sim.probe(key);
        }
        _ => {
            if slot % 2 == 0 {
                store.pin(key);
                sim.pinned.insert(key);
            } else {
                store.unpin(key);
                sim.pinned.remove(&key);
            }
        }
    }
}

fn assert_matches(store: &ResultStore, sim: &Sim) -> Result<(), TestCaseError> {
    let counters = store.counters();
    prop_assert_eq!(store.num_families(), sim.families.len());
    let total: usize = sim.families.values().map(|(_, s)| s.len()).sum();
    prop_assert_eq!(store.num_entries(), total);
    prop_assert_eq!(counters.inserts, sim.inserts);
    prop_assert_eq!(counters.reuse_unsat, sim.reuse_unsat);
    prop_assert_eq!(counters.misses, sim.misses);
    prop_assert_eq!(counters.evicted_families, sim.evicted_families);
    prop_assert_eq!(counters.evicted_entries, sim.evicted_entries);
    prop_assert_eq!(counters.expunged, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Store ≡ simulation after every op, for random op sequences over a
    /// range of capacities; a replay reproduces identical counters.
    #[test]
    fn bounded_store_matches_the_reference_simulation(
        cap in 1usize..8,
        ops in proptest::collection::vec((0u8..8, 0u8..8, 0u8..8), 1..80),
    ) {
        let mut store = ResultStore::with_capacity(Some(cap));
        let mut sim = Sim { cap, ..Sim::default() };
        for &op in &ops {
            apply(&mut store, &mut sim, op);
            assert_matches(&store, &sim)?;
        }
        // Determinism: the same op sequence replays to the same state.
        let mut store2 = ResultStore::with_capacity(Some(cap));
        let mut sim2 = Sim { cap, ..Sim::default() };
        for &op in &ops {
            apply(&mut store2, &mut sim2, op);
        }
        prop_assert_eq!(store2.counters(), store.counters());
        prop_assert_eq!(store2.num_entries(), store.num_entries());
    }
}

#[test]
fn victim_is_the_least_recent_family_with_key_tiebreak() {
    let mut store = ResultStore::with_capacity(Some(3));
    for idx in 0..3 {
        store.insert(
            family_key(idx),
            slot_eps(0),
            &FamilyMeta::default(),
            unsat(),
        );
    }
    // Touch family 0: families 1 and 2 are now the stalest, and between
    // equally-stale candidates the smaller key loses.
    store.lookup(family_key(0), PROBE_EPS, None, None);
    store.insert(family_key(3), slot_eps(0), &FamilyMeta::default(), unsat());
    assert!(
        store.peek(family_key(1), PROBE_EPS, None, None).is_none(),
        "family 1 evicted"
    );
    assert!(store.peek(family_key(0), PROBE_EPS, None, None).is_some());
    assert!(store.peek(family_key(2), PROBE_EPS, None, None).is_some());
    assert!(store.peek(family_key(3), PROBE_EPS, None, None).is_some());
    assert_eq!(store.counters().evicted_families, 1);
    assert_eq!(store.counters().evicted_entries, 1);
}

#[test]
fn pinned_family_survives_an_insert_flood() {
    let mut store = ResultStore::with_capacity(Some(2));
    store.insert(family_key(0), slot_eps(0), &FamilyMeta::default(), unsat());
    store.pin(family_key(0));
    for idx in 1..20 {
        store.insert(
            family_key(idx),
            slot_eps(0),
            &FamilyMeta::default(),
            unsat(),
        );
        assert!(
            store.peek(family_key(0), PROBE_EPS, None, None).is_some(),
            "pinned family dropped at flood step {idx}"
        );
    }
    store.unpin(family_key(0));
    // Once unpinned, the (stalest) family is fair game again.
    store.insert(family_key(50), slot_eps(0), &FamilyMeta::default(), unsat());
    assert!(store.peek(family_key(0), PROBE_EPS, None, None).is_none());
}

#[test]
fn an_insert_never_evicts_its_own_family() {
    let mut store = ResultStore::with_capacity(Some(1));
    for slot in 0..4 {
        store.insert(
            family_key(0),
            slot_eps(slot),
            &FamilyMeta::default(),
            unsat(),
        );
    }
    // The only family is the one being inserted into: over capacity but
    // untouchable, so everything stays.
    assert_eq!(store.num_entries(), 4);
    assert_eq!(store.counters().evicted_families, 0);
}

//! Content-addressed result store with ε-monotonic, cross-center, and
//! persistent reuse.
//!
//! Entries are grouped into *families*: queries that differ only in the
//! perturbation radius ε (same model, center, label, adversarial set,
//! engine config). Within a family, conclusive verdicts form a lattice:
//!
//! * UNSAT (verified) at ε answers every ε′ ≤ ε — the clamped L∞ balls
//!   nest, so a proof for the larger region covers the smaller one.
//! * SAT (falsified) at ε answers every ε′ ≥ ε — the witness lies inside
//!   the smaller ball, hence inside every larger one. The server still
//!   replays the witness against the query's own region before serving.
//!
//! Families probing the same model/label/adversarial set additionally
//! share a *cohort*, and every SAT witness is indexed by cohort: a
//! concrete counterexample falsifies **any** cohort query whose clamped
//! ball contains it, wherever that query is centered. The index is
//! scanned in witness insertion order (a deterministic logical sequence
//! number), so the same store state answers the same query with the same
//! witness on every machine.
//!
//! The store is size-bounded: when a capacity (total entries) is set,
//! whole least-recently-used families are evicted in logical-tick order
//! — recency is the count of store operations, never wall time — and a
//! pinned family (one currently being replayed or audited) is never the
//! victim.
//!
//! Only conclusive verdicts are stored: `Verified` and `Falsified` are
//! budget-independent mathematical facts, while `Timeout` merely says a
//! particular budget ran dry and would poison reuse.

use abonn_core::Certificate;
use std::collections::{BTreeMap, BTreeSet};

/// A stored conclusive verdict.
#[derive(Debug, Clone)]
pub enum CachedVerdict {
    /// Verified: the certificate the engine produced, kept so every cache
    /// hit can be independently re-audited.
    Unsat {
        /// The complete branch-tree proof.
        certificate: Certificate,
    },
    /// Falsified: the concrete counterexample.
    Sat {
        /// The witness input.
        witness: Vec<f64>,
    },
}

/// One lattice point: a conclusive verdict established at a radius.
#[derive(Debug, Clone)]
pub struct CachedEntry {
    /// The radius the verdict was established at.
    pub epsilon: f64,
    /// The verdict and its evidence.
    pub verdict: CachedVerdict,
    /// The entry was loaded from a snapshot and its certificate has not
    /// yet survived a re-audit in this process; the server audits it
    /// before first reuse regardless of the query's audit flag. Witness
    /// entries are replayed on every serve anyway, so the flag only
    /// gates certificates.
    pub needs_reaudit: bool,
}

/// How a lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitKind {
    /// Same family, same ε (bit-exact).
    Exact,
    /// Served from an UNSAT entry at a larger or equal radius.
    ReuseUnsat,
    /// Served from a SAT entry at a smaller or equal radius.
    ReuseSat,
    /// Served from another family's witness contained in the query's
    /// clamped ball (cross-center reuse within a cohort).
    ReuseCross,
}

impl HitKind {
    /// Wire label for the `store` response field.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HitKind::Exact => "exact",
            HitKind::ReuseUnsat => "reuse-unsat",
            HitKind::ReuseSat => "reuse-sat",
            HitKind::ReuseCross => "reuse-cross",
        }
    }
}

/// A store hit: the serving entry, how it applies, and which family it
/// came from (the query's own family except for cross-center hits).
#[derive(Debug, Clone)]
pub struct Hit {
    /// How the entry answers the query.
    pub kind: HitKind,
    /// The serving entry (cloned so the caller can replay/audit it
    /// without holding a borrow).
    pub entry: CachedEntry,
    /// The family the entry lives in.
    pub family: u64,
}

/// The ε-lattice of one family: entries sorted by radius.
#[derive(Debug, Clone, Default)]
pub struct EpsLattice {
    entries: Vec<CachedEntry>,
}

impl EpsLattice {
    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the lattice is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a conclusive verdict at `epsilon`. A bit-exact duplicate
    /// radius keeps the existing entry (first proof wins — re-inserting
    /// cannot flip a verdict, since both were sound).
    pub fn insert(&mut self, epsilon: f64, verdict: CachedVerdict) -> bool {
        self.insert_entry(CachedEntry {
            epsilon,
            verdict,
            needs_reaudit: false,
        })
    }

    /// Inserts a full entry (snapshot loading preserves `needs_reaudit`).
    pub fn insert_entry(&mut self, entry: CachedEntry) -> bool {
        match self
            .entries
            .binary_search_by(|e| e.epsilon.total_cmp(&entry.epsilon))
        {
            Ok(_) => false,
            Err(pos) => {
                self.entries.insert(pos, entry);
                true
            }
        }
    }

    /// Removes the entry at bit-exact radius `epsilon`, if present.
    pub fn remove(&mut self, epsilon: f64) -> bool {
        match self
            .entries
            .binary_search_by(|e| e.epsilon.total_cmp(&epsilon))
        {
            Ok(pos) => {
                self.entries.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The entry at bit-exact radius `epsilon`, if present.
    #[must_use]
    pub fn get(&self, epsilon: f64) -> Option<&CachedEntry> {
        self.entries
            .binary_search_by(|e| e.epsilon.total_cmp(&epsilon))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Clears the re-audit flag on the entry at radius `epsilon`.
    pub fn mark_audited(&mut self, epsilon: f64) {
        if let Ok(i) = self
            .entries
            .binary_search_by(|e| e.epsilon.total_cmp(&epsilon))
        {
            self.entries[i].needs_reaudit = false;
        }
    }

    /// Looks up the best entry answering a query at `epsilon`.
    ///
    /// Preference order: bit-exact radius, then the smallest dominating
    /// UNSAT (ε′ ≥ ε), then the largest dominated SAT (ε′ ≤ ε). UNSAT
    /// wins over SAT when both apply because serving it needs no replay;
    /// with sound inserts the two can never genuinely conflict.
    #[must_use]
    pub fn lookup(&self, epsilon: f64) -> Option<(HitKind, &CachedEntry)> {
        let split = match self
            .entries
            .binary_search_by(|e| e.epsilon.total_cmp(&epsilon))
        {
            Ok(i) => return Some((HitKind::Exact, &self.entries[i])),
            Err(i) => i,
        };
        // Smallest UNSAT at a radius above the query.
        if let Some(e) = self.entries[split..]
            .iter()
            .find(|e| matches!(e.verdict, CachedVerdict::Unsat { .. }))
        {
            return Some((HitKind::ReuseUnsat, e));
        }
        // Largest SAT at a radius below the query.
        if let Some(e) = self.entries[..split]
            .iter()
            .rev()
            .find(|e| matches!(e.verdict, CachedVerdict::Sat { .. }))
        {
            return Some((HitKind::ReuseSat, e));
        }
        None
    }

    /// Iterates entries in increasing-ε order.
    pub fn entries(&self) -> impl Iterator<Item = &CachedEntry> {
        self.entries.iter()
    }
}

/// What identifies a family beyond its key: the cohort it belongs to and
/// the center it is keyed by (ε-monotone families only; exact-match
/// families carry neither).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FamilyMeta {
    /// Cross-center reuse cohort (model/label/adversarial/config hash).
    pub cohort: Option<u64>,
    /// The perturbation center the family's radii are measured from.
    pub center: Option<Vec<f64>>,
}

/// One family: its lattice, identity metadata, and LRU recency.
#[derive(Debug, Clone)]
pub(crate) struct FamilyState {
    pub(crate) lattice: EpsLattice,
    pub(crate) meta: FamilyMeta,
    pub(crate) last_used: u64,
}

/// A SAT witness in the cohort index: `(seq, family, epsilon)` locates
/// the entry; `seq` is the deterministic insertion order cross-center
/// lookups scan in (earliest witness wins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WitnessRef {
    pub(crate) seq: u64,
    pub(crate) family: u64,
    pub(crate) epsilon: f64,
}

/// Store hit/miss counters, serialised into the stats artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Bit-exact radius hits.
    pub exact_hits: usize,
    /// Queries answered by a dominating UNSAT entry.
    pub reuse_unsat: usize,
    /// Queries answered by a dominated SAT entry.
    pub reuse_sat: usize,
    /// Queries answered by a cross-center witness from the cohort index.
    pub reuse_cross: usize,
    /// Queries that fell through to the engine.
    pub misses: usize,
    /// Conclusive verdicts inserted.
    pub inserts: usize,
    /// Families dropped by capacity eviction.
    pub evicted_families: usize,
    /// Entries dropped by capacity eviction.
    pub evicted_entries: usize,
    /// Entries expunged after failing replay or audit.
    pub expunged: usize,
}

/// The content-addressed result store: family key → ε-lattice, plus the
/// cohort witness index and the LRU bookkeeping.
#[derive(Debug, Default)]
pub struct ResultStore {
    families: BTreeMap<u64, FamilyState>,
    /// Cohort → witness refs, each Vec ascending in `seq`.
    witnesses: BTreeMap<u64, Vec<WitnessRef>>,
    /// Maximum total entries (`None` = unbounded).
    capacity: Option<usize>,
    /// Families eviction must never touch (mid-replay/audit).
    pinned: BTreeSet<u64>,
    /// Logical clock: bumped once per lookup/insert, orders recency.
    clock: u64,
    /// Next witness sequence number.
    next_seq: u64,
    counters: StoreCounters,
}

impl ResultStore {
    /// Fresh empty unbounded store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh empty store bounded to `capacity` total entries (`None` =
    /// unbounded).
    #[must_use]
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// The configured entry bound.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Read-only lookup: same answer [`ResultStore::lookup`] would give,
    /// with no counter or recency effects. The wave scheduler plans from
    /// peeks and applies the real lookups in input order at flush time,
    /// which keeps the effect order identical to a sequential daemon.
    #[must_use]
    pub fn peek(
        &self,
        family: u64,
        epsilon: f64,
        cohort: Option<u64>,
        center: Option<&[f64]>,
    ) -> Option<Hit> {
        if let Some(state) = self.families.get(&family) {
            if let Some((kind, entry)) = state.lattice.lookup(epsilon) {
                return Some(Hit {
                    kind,
                    entry: entry.clone(),
                    family,
                });
            }
        }
        // Cross-center: the earliest cohort witness contained in the
        // query's clamped ball. Insertion order (seq) makes the choice
        // deterministic; the lattice was preferred above because a
        // same-family answer never needs the containment scan.
        let (cohort, center) = (cohort?, center?);
        for witness_ref in self.witnesses.get(&cohort)? {
            let state = self.families.get(&witness_ref.family)?;
            let Some(entry) = state.lattice.get(witness_ref.epsilon) else {
                continue;
            };
            let CachedVerdict::Sat { witness } = &entry.verdict else {
                continue;
            };
            if ball_contains(center, epsilon, witness) {
                return Some(Hit {
                    kind: HitKind::ReuseCross,
                    entry: entry.clone(),
                    family: witness_ref.family,
                });
            }
        }
        None
    }

    /// Looks up a query, bumping hit/miss counters and the serving
    /// family's recency.
    pub fn lookup(
        &mut self,
        family: u64,
        epsilon: f64,
        cohort: Option<u64>,
        center: Option<&[f64]>,
    ) -> Option<Hit> {
        let hit = self.peek(family, epsilon, cohort, center);
        self.clock += 1;
        match &hit {
            Some(h) => {
                match h.kind {
                    HitKind::Exact => self.counters.exact_hits += 1,
                    HitKind::ReuseUnsat => self.counters.reuse_unsat += 1,
                    HitKind::ReuseSat => self.counters.reuse_sat += 1,
                    HitKind::ReuseCross => self.counters.reuse_cross += 1,
                }
                if let Some(state) = self.families.get_mut(&h.family) {
                    state.last_used = self.clock;
                }
            }
            None => self.counters.misses += 1,
        }
        hit
    }

    /// Records a fresh conclusive verdict, then evicts least-recently-used
    /// families while over capacity. The family being inserted into is
    /// implicitly pinned for the sweep — an insert never evicts its own
    /// family.
    pub fn insert(&mut self, family: u64, epsilon: f64, meta: &FamilyMeta, verdict: CachedVerdict) {
        self.clock += 1;
        let state = self.families.entry(family).or_insert_with(|| FamilyState {
            lattice: EpsLattice::default(),
            meta: meta.clone(),
            last_used: 0,
        });
        debug_assert_eq!(state.meta, *meta, "one key, one meta");
        state.last_used = self.clock;
        let is_sat = matches!(verdict, CachedVerdict::Sat { .. });
        if state.lattice.insert(epsilon, verdict) {
            self.counters.inserts += 1;
            if is_sat {
                if let Some(cohort) = meta.cohort {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.witnesses.entry(cohort).or_default().push(WitnessRef {
                        seq,
                        family,
                        epsilon,
                    });
                }
            }
        }
        self.evict_to_capacity(family);
    }

    /// Whether inserting up to `extra` entries could trigger an eviction.
    /// The scheduler uses this to decide when a planned store hit must
    /// wait behind in-flight inserts to stay sequentially equivalent.
    #[must_use]
    pub fn may_evict(&self, extra: usize) -> bool {
        self.capacity
            .is_some_and(|cap| self.num_entries() + extra > cap)
    }

    /// Pins `family`: eviction sweeps skip it until [`ResultStore::unpin`].
    /// Pin around replay/audit of a served entry so the evidence backing
    /// an in-flight response can never be dropped mid-use.
    pub fn pin(&mut self, family: u64) {
        self.pinned.insert(family);
    }

    /// Releases a pin taken with [`ResultStore::pin`].
    pub fn unpin(&mut self, family: u64) {
        self.pinned.remove(&family);
    }

    /// Removes the entry at `(family, epsilon)` — evidence that failed
    /// replay or audit must not shadow a future sound insert at the same
    /// radius. Drops the family when its lattice empties.
    pub fn expunge(&mut self, family: u64, epsilon: f64) {
        let Some(state) = self.families.get_mut(&family) else {
            return;
        };
        if !state.lattice.remove(epsilon) {
            return;
        }
        self.counters.expunged += 1;
        if let Some(cohort) = state.meta.cohort {
            if let Some(refs) = self.witnesses.get_mut(&cohort) {
                refs.retain(|r| !(r.family == family && r.epsilon.to_bits() == epsilon.to_bits()));
                if refs.is_empty() {
                    self.witnesses.remove(&cohort);
                }
            }
        }
        if state.lattice.is_empty() {
            self.families.remove(&family);
        }
    }

    /// Clears the re-audit flag on a loaded entry after its certificate
    /// survived a fresh audit.
    pub fn mark_audited(&mut self, family: u64, epsilon: f64) {
        if let Some(state) = self.families.get_mut(&family) {
            state.lattice.mark_audited(epsilon);
        }
    }

    fn evict_to_capacity(&mut self, inserting: u64) {
        let Some(cap) = self.capacity else { return };
        while self.num_entries() > cap {
            let victim = self
                .families
                .iter()
                .filter(|(key, _)| **key != inserting && !self.pinned.contains(key))
                .min_by_key(|(key, state)| (state.last_used, **key))
                .map(|(key, _)| *key);
            let Some(victim) = victim else { break };
            self.evict_family(victim);
        }
    }

    fn evict_family(&mut self, family: u64) {
        let Some(state) = self.families.remove(&family) else {
            return;
        };
        self.counters.evicted_families += 1;
        self.counters.evicted_entries += state.lattice.len();
        if let Some(cohort) = state.meta.cohort {
            if let Some(refs) = self.witnesses.get_mut(&cohort) {
                refs.retain(|r| r.family != family);
                if refs.is_empty() {
                    self.witnesses.remove(&cohort);
                }
            }
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Number of distinct families.
    #[must_use]
    pub fn num_families(&self) -> usize {
        self.families.len()
    }

    /// Total entries across all families.
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.families.values().map(|s| s.lattice.len()).sum()
    }

    // ---- snapshot plumbing (crate-internal, used by `persist`) ----

    pub(crate) fn families_iter(&self) -> impl Iterator<Item = (&u64, &FamilyState)> {
        self.families.iter()
    }

    /// All witness refs in global `seq` order.
    pub(crate) fn witness_refs_ordered(&self) -> Vec<(u64, WitnessRef)> {
        let mut refs: Vec<(u64, WitnessRef)> = self
            .witnesses
            .iter()
            .flat_map(|(cohort, refs)| refs.iter().map(|r| (*cohort, *r)))
            .collect();
        refs.sort_by_key(|(_, r)| r.seq);
        refs
    }

    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub(crate) fn restore_clocks(&mut self, clock: u64, next_seq: u64) {
        self.clock = clock;
        self.next_seq = next_seq;
    }

    pub(crate) fn restore_family(&mut self, key: u64, state: FamilyState) -> Result<(), String> {
        if self.families.insert(key, state).is_some() {
            return Err(format!("duplicate family key {key}"));
        }
        Ok(())
    }

    pub(crate) fn restore_witness(
        &mut self,
        cohort: u64,
        witness: WitnessRef,
    ) -> Result<(), String> {
        let Some(state) = self.families.get(&witness.family) else {
            return Err(format!(
                "witness ref points at missing family {}",
                witness.family
            ));
        };
        if state.meta.cohort != Some(cohort) {
            return Err(format!(
                "witness ref cohort {cohort} disagrees with family {}",
                witness.family
            ));
        }
        match state.lattice.get(witness.epsilon) {
            Some(CachedEntry {
                verdict: CachedVerdict::Sat { .. },
                ..
            }) => {}
            _ => {
                return Err(format!(
                    "witness ref does not locate a SAT entry in family {}",
                    witness.family
                ))
            }
        }
        let refs = self.witnesses.entry(cohort).or_default();
        if refs.last().is_some_and(|last| last.seq >= witness.seq) {
            return Err("witness refs out of seq order".into());
        }
        refs.push(witness);
        Ok(())
    }
}

/// Whether the clamped L∞ ball of radius `epsilon` around `center`
/// (domain `[0, 1]`) contains `point`. Exact comparisons: containment is
/// a store-key-level decision and must be bit-deterministic; the
/// tolerance-bearing forward-pass check happens at replay time.
#[must_use]
pub fn ball_contains(center: &[f64], epsilon: f64, point: &[f64]) -> bool {
    center.len() == point.len()
        && center.iter().zip(point).all(|(&c, &p)| {
            let lo = (c - epsilon).max(0.0);
            let hi = (c + epsilon).min(1.0);
            lo <= p && p <= hi
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat(w: &[f64]) -> CachedVerdict {
        CachedVerdict::Sat {
            witness: w.to_vec(),
        }
    }

    fn unsat() -> CachedVerdict {
        CachedVerdict::Unsat {
            certificate: Certificate::new(abonn_core::ProofNode::root_leaf()),
        }
    }

    fn meta(cohort: u64, center: &[f64]) -> FamilyMeta {
        FamilyMeta {
            cohort: Some(cohort),
            center: Some(center.to_vec()),
        }
    }

    #[test]
    fn exact_hit_beats_reuse() {
        let mut l = EpsLattice::default();
        l.insert(0.1, unsat());
        l.insert(0.2, unsat());
        let (kind, e) = l.lookup(0.1).unwrap();
        assert_eq!(kind, HitKind::Exact);
        assert_eq!(e.epsilon, 0.1);
    }

    #[test]
    fn unsat_dominates_downward_sat_dominates_upward() {
        let mut l = EpsLattice::default();
        l.insert(0.2, unsat());
        l.insert(0.5, sat(&[0.0]));
        // Below the UNSAT radius: covered by it.
        let (kind, e) = l.lookup(0.05).unwrap();
        assert_eq!(kind, HitKind::ReuseUnsat);
        assert_eq!(e.epsilon, 0.2);
        // Above the SAT radius: covered by the witness.
        let (kind, e) = l.lookup(0.9).unwrap();
        assert_eq!(kind, HitKind::ReuseSat);
        assert_eq!(e.epsilon, 0.5);
        // Strictly between: no reuse applies.
        assert!(l.lookup(0.3).is_none());
    }

    #[test]
    fn tightest_dominating_entry_is_chosen() {
        let mut l = EpsLattice::default();
        l.insert(0.3, unsat());
        l.insert(0.6, unsat());
        l.insert(0.05, sat(&[0.0]));
        l.insert(0.01, sat(&[1.0]));
        let (_, e) = l.lookup(0.2).unwrap();
        assert_eq!(e.epsilon, 0.3, "smallest dominating UNSAT");
        // SAT reuse picks the largest dominated radius... after UNSAT
        // entries are exhausted above the query.
        let mut s = EpsLattice::default();
        s.insert(0.05, sat(&[0.0]));
        s.insert(0.01, sat(&[1.0]));
        let (kind, e) = s.lookup(0.2).unwrap();
        assert_eq!(kind, HitKind::ReuseSat);
        assert_eq!(e.epsilon, 0.05, "largest dominated SAT");
    }

    #[test]
    fn unsat_preferred_when_both_apply() {
        let mut l = EpsLattice::default();
        l.insert(0.1, sat(&[0.0]));
        l.insert(0.5, unsat());
        // 0.3 is above the SAT and below the UNSAT; both apply, UNSAT
        // needs no replay so it wins.
        let (kind, _) = l.lookup(0.3).unwrap();
        assert_eq!(kind, HitKind::ReuseUnsat);
    }

    #[test]
    fn store_counts_every_outcome() {
        let mut s = ResultStore::new();
        let m = FamilyMeta::default();
        assert!(s.lookup(1, 0.1, None, None).is_none());
        s.insert(1, 0.1, &m, unsat());
        s.insert(1, 0.1, &m, unsat()); // duplicate radius: ignored
        assert!(s.lookup(1, 0.1, None, None).is_some());
        assert!(s.lookup(1, 0.05, None, None).is_some());
        assert!(s.lookup(2, 0.1, None, None).is_none());
        let c = s.counters();
        assert_eq!(
            (
                c.exact_hits,
                c.reuse_unsat,
                c.reuse_sat,
                c.misses,
                c.inserts
            ),
            (1, 1, 0, 2, 1)
        );
        assert_eq!(s.num_families(), 1);
        assert_eq!(s.num_entries(), 1);
    }

    #[test]
    fn cross_center_witness_serves_containing_balls() {
        let mut s = ResultStore::new();
        // Family 1: witness at [0.5, 0.5], established at radius 0.1.
        s.insert(1, 0.1, &meta(9, &[0.5, 0.5]), sat(&[0.5, 0.5]));
        // A query centered elsewhere whose ball contains the witness...
        let hit = s.lookup(2, 0.2, Some(9), Some(&[0.6, 0.6])).unwrap();
        assert_eq!(hit.kind, HitKind::ReuseCross);
        assert_eq!(hit.family, 1);
        // ...a ball that misses it...
        assert!(s.lookup(3, 0.05, Some(9), Some(&[0.9, 0.9])).is_none());
        // ...and a different cohort never matches.
        assert!(s.lookup(4, 0.2, Some(8), Some(&[0.6, 0.6])).is_none());
        let c = s.counters();
        assert_eq!((c.reuse_cross, c.misses), (1, 2));
    }

    #[test]
    fn earliest_inserted_witness_wins() {
        let mut s = ResultStore::new();
        s.insert(1, 0.1, &meta(9, &[0.4, 0.4]), sat(&[0.45, 0.45]));
        s.insert(2, 0.1, &meta(9, &[0.6, 0.6]), sat(&[0.55, 0.55]));
        // Both witnesses sit inside this query ball; insertion order picks.
        let hit = s.peek(3, 0.2, Some(9), Some(&[0.5, 0.5])).unwrap();
        assert_eq!(hit.family, 1);
        let CachedVerdict::Sat { witness } = &hit.entry.verdict else {
            panic!("cross hits are SAT")
        };
        assert_eq!(witness, &vec![0.45, 0.45]);
    }

    #[test]
    fn lattice_preferred_over_cross_index() {
        let mut s = ResultStore::new();
        s.insert(1, 0.1, &meta(9, &[0.4, 0.4]), sat(&[0.45, 0.45]));
        // The query's own family has a dominating UNSAT: no cross scan.
        s.insert(2, 0.3, &meta(9, &[0.5, 0.5]), unsat());
        let hit = s.peek(2, 0.2, Some(9), Some(&[0.5, 0.5])).unwrap();
        assert_eq!(hit.kind, HitKind::ReuseUnsat);
        assert_eq!(hit.family, 2);
    }

    #[test]
    fn peek_has_no_effects() {
        let mut s = ResultStore::new();
        s.insert(1, 0.1, &FamilyMeta::default(), unsat());
        let before = s.counters();
        assert!(s.peek(1, 0.1, None, None).is_some());
        assert!(s.peek(2, 0.1, None, None).is_none());
        assert_eq!(s.counters(), before);
    }

    #[test]
    fn capacity_evicts_lru_families_whole() {
        let mut s = ResultStore::with_capacity(Some(2));
        let m = FamilyMeta::default();
        s.insert(1, 0.1, &m, unsat());
        s.insert(2, 0.1, &m, unsat());
        // Touch family 1 so family 2 is least recent.
        assert!(s.lookup(1, 0.1, None, None).is_some());
        s.insert(3, 0.1, &m, unsat());
        assert!(
            s.peek(1, 0.1, None, None).is_some(),
            "recently used survives"
        );
        assert!(s.peek(2, 0.1, None, None).is_none(), "LRU family evicted");
        assert!(
            s.peek(3, 0.1, None, None).is_some(),
            "inserted family survives"
        );
        let c = s.counters();
        assert_eq!((c.evicted_families, c.evicted_entries), (1, 1));
    }

    #[test]
    fn eviction_cleans_the_witness_index() {
        let mut s = ResultStore::with_capacity(Some(1));
        s.insert(1, 0.1, &meta(9, &[0.5, 0.5]), sat(&[0.5, 0.5]));
        // Inserting family 2 evicts family 1 (capacity 1) and must drop
        // its witness ref too.
        s.insert(2, 0.1, &meta(9, &[0.9, 0.9]), unsat());
        assert!(s.peek(3, 0.3, Some(9), Some(&[0.5, 0.5])).is_none());
    }

    #[test]
    fn pinned_family_is_never_the_victim() {
        let mut s = ResultStore::with_capacity(Some(2));
        let m = FamilyMeta::default();
        s.insert(1, 0.1, &m, unsat());
        s.insert(2, 0.1, &m, unsat());
        s.pin(1); // family 1 is LRU but pinned
        s.insert(3, 0.1, &m, unsat());
        assert!(s.peek(1, 0.1, None, None).is_some(), "pinned survives");
        assert!(s.peek(2, 0.1, None, None).is_none(), "next LRU evicted");
        s.unpin(1);
        s.insert(4, 0.1, &m, unsat());
        assert!(s.peek(1, 0.1, None, None).is_none(), "unpinned evictable");
    }

    #[test]
    fn expunge_removes_entry_and_witness_ref() {
        let mut s = ResultStore::new();
        s.insert(1, 0.1, &meta(9, &[0.5, 0.5]), sat(&[0.5, 0.5]));
        s.expunge(1, 0.1);
        assert_eq!(s.num_families(), 0);
        assert!(s.peek(2, 0.3, Some(9), Some(&[0.5, 0.5])).is_none());
        assert_eq!(s.counters().expunged, 1);
        // A later sound insert at the same radius is not shadowed.
        s.insert(1, 0.1, &meta(9, &[0.5, 0.5]), unsat());
        assert_eq!(s.num_entries(), 1);
    }

    #[test]
    fn clamped_ball_containment_is_exact() {
        assert!(ball_contains(&[0.5, 0.5], 0.1, &[0.6, 0.4]));
        assert!(!ball_contains(&[0.5, 0.5], 0.1, &[0.61, 0.4]));
        // Clamping: a ball near the domain edge still contains points
        // inside the clamp.
        assert!(ball_contains(&[0.05, 0.5], 0.1, &[0.0, 0.5]));
        // Dimension mismatch is never contained.
        assert!(!ball_contains(&[0.5], 0.1, &[0.5, 0.5]));
    }
}

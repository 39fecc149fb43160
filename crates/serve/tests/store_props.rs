//! Property tests of the ε-lattice against a naive linear-scan oracle.
//!
//! The lattice in `abonn_serve::store` answers lookups with binary
//! search plus directional scans; the oracle below re-derives every
//! answer from the flat list of inserted entries by exhaustive scan.
//! Both must agree exactly — same hit kind, same source entry — on any
//! *sound* insert sequence, where soundness is modelled by a hidden
//! ground-truth threshold `t`: the true verdict at radius ε is UNSAT iff
//! ε ≤ t (robustness is monotone in ε). Every served answer must also be
//! consistent with that ground truth — the lattice may only ever
//! accelerate, never change, what a sound engine would say.

use abonn_serve::{CachedVerdict, EpsLattice, HitKind};
use proptest::prelude::*;

fn unsat() -> CachedVerdict {
    CachedVerdict::Unsat {
        certificate: abonn_core::Certificate::new(abonn_core::ProofNode::root_leaf()),
    }
}

fn sat() -> CachedVerdict {
    CachedVerdict::Sat { witness: vec![0.0] }
}

fn is_unsat(v: &CachedVerdict) -> bool {
    matches!(v, CachedVerdict::Unsat { .. })
}

/// The oracle: a flat `(epsilon, is_unsat)` list scanned exhaustively
/// with the store's documented preference order.
fn oracle_lookup(entries: &[(f64, bool)], query: f64) -> Option<(HitKind, f64)> {
    if let Some(&(eps, _)) = entries.iter().find(|(eps, _)| *eps == query) {
        return Some((HitKind::Exact, eps));
    }
    // Smallest UNSAT radius at or above the query.
    let best_unsat = entries
        .iter()
        .filter(|(eps, un)| *un && *eps >= query)
        .map(|&(eps, _)| eps)
        .fold(None::<f64>, |acc, eps| {
            Some(acc.map_or(eps, |a| a.min(eps)))
        });
    if let Some(eps) = best_unsat {
        return Some((HitKind::ReuseUnsat, eps));
    }
    // Largest SAT radius at or below the query.
    let best_sat = entries
        .iter()
        .filter(|(eps, un)| !*un && *eps <= query)
        .map(|&(eps, _)| eps)
        .fold(None::<f64>, |acc, eps| {
            Some(acc.map_or(eps, |a| a.max(eps)))
        });
    best_sat.map(|eps| (HitKind::ReuseSat, eps))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Sound insert sequences: lattice ≡ oracle on every query, and no
    /// served answer ever contradicts the ground-truth threshold.
    #[test]
    fn lattice_matches_linear_scan_oracle(
        threshold in 0.05..0.95_f64,
        ops in proptest::collection::vec((0u8..4, 0.001..1.0_f64), 1..60),
    ) {
        let mut lattice = EpsLattice::default();
        let mut flat: Vec<(f64, bool)> = Vec::new();
        for (kind, eps) in ops {
            let truly_unsat = eps <= threshold;
            if kind == 0 {
                // Insert the sound verdict at this radius.
                let verdict = if truly_unsat { unsat() } else { sat() };
                let fresh = lattice.insert(eps, verdict);
                let duplicate = flat.iter().any(|(e, _)| *e == eps);
                prop_assert_eq!(fresh, !duplicate, "insert freshness at {}", eps);
                if !duplicate {
                    flat.push((eps, truly_unsat));
                }
            } else {
                // Three query ops per insert keeps lattices small but
                // well-probed.
                let got = lattice.lookup(eps).map(|(k, e)| (k, e.epsilon));
                let want = oracle_lookup(&flat, eps);
                prop_assert_eq!(got, want, "lookup at {} over {:?}", eps, &flat);
                if let Some((kind, source)) = got {
                    let entry = lattice
                        .entries()
                        .find(|e| e.epsilon == source)
                        .expect("source entry exists");
                    match kind {
                        HitKind::Exact => prop_assert_eq!(
                            is_unsat(&entry.verdict), eps <= threshold
                        ),
                        HitKind::ReuseUnsat => {
                            prop_assert!(is_unsat(&entry.verdict));
                            prop_assert!(source >= eps, "UNSAT must dominate downward");
                            // source sound ⇒ source ≤ t ⇒ query ≤ t.
                            prop_assert!(eps <= threshold,
                                "served UNSAT contradicts ground truth");
                        }
                        HitKind::ReuseSat => {
                            prop_assert!(!is_unsat(&entry.verdict));
                            prop_assert!(source <= eps, "SAT must dominate upward");
                            prop_assert!(eps > threshold,
                                "served SAT contradicts ground truth");
                        }
                        // A single family's lattice never answers with a
                        // cross-center witness: that path lives in the
                        // cohort index, tested in cross_center_props.rs.
                        HitKind::ReuseCross => prop_assert!(
                            false, "lattice lookups cannot produce cross hits"
                        ),
                    }
                }
            }
        }
        // Final sweep: a fixed probe grid after all inserts.
        for i in 0..50 {
            let eps = 0.01 + 0.02 * f64::from(i);
            let got = lattice.lookup(eps).map(|(k, e)| (k, e.epsilon));
            prop_assert_eq!(got, oracle_lookup(&flat, eps), "sweep at {}", eps);
        }
        prop_assert_eq!(lattice.len(), flat.len());
    }

    /// Lookups never mutate: probing in any order leaves answers fixed.
    #[test]
    fn lookups_are_pure(
        radii in proptest::collection::vec(0.001..1.0_f64, 1..20),
        probes in proptest::collection::vec(0.001..1.0_f64, 1..40),
    ) {
        let mut lattice = EpsLattice::default();
        for (i, &eps) in radii.iter().enumerate() {
            lattice.insert(eps, if i % 2 == 0 { unsat() } else { sat() });
        }
        let before: Vec<_> = probes
            .iter()
            .map(|&p| lattice.lookup(p).map(|(k, e)| (k, e.epsilon)))
            .collect();
        let after: Vec<_> = probes
            .iter()
            .rev()
            .map(|&p| lattice.lookup(p).map(|(k, e)| (k, e.epsilon)))
            .collect();
        let rebefore: Vec<_> = before.iter().rev().cloned().collect();
        prop_assert_eq!(rebefore, after);
    }
}

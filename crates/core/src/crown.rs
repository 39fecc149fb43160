//! An αβ-CROWN-style baseline: attack first, then best-first BaB over
//! α-optimised bounds.
//!
//! The real αβ-CROWN combines GPU-batched bound propagation, optimised
//! slopes (α), Lagrangian split multipliers (β), and PGD attacks. This
//! reproduction keeps the algorithmic skeleton on the shared substrate
//! (see `DESIGN.md` §2): a multi-restart PGD pre-attack, the
//! [`AlphaCrown`] bound optimiser, split-constraint bound clamping in
//! place of β, and a most-violated-first priority queue in place of
//! batched frontier expansion.

use crate::bab::{assemble_certificate, ProtoNode};
use crate::certificate::Certificate;
use crate::driver::{
    check_candidate, resolve_exhausted_leaf, Budget, Clock, RunResult, Verdict, Verifier,
};
use crate::heuristics::{BranchContext, HeuristicKind};
use crate::spec::RobustnessProblem;
use abonn_attack::{margin_pgd, Pgd};
use abonn_bound::{AlphaCrown, AppVer, BoundPrefix, SplitSet, SplitSign};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// PGD polish steps spent on each spurious candidate during the search.
const REFINE_STEPS: usize = 5;

/// Priority-queue entry ordered so the most negative `p̂` pops first,
/// with an insertion counter as a deterministic tie-break.
struct Entry {
    p_hat: f64,
    seq: usize,
    splits: SplitSet,
    /// The bound prefix of the sub-problem's own analysis, so the
    /// re-analysis on popping runs no bound pass.
    prefix: Option<Arc<BoundPrefix>>,
    /// Index into the proof-tree bookkeeping for certificate assembly.
    proto: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.p_hat == other.p_hat && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the smallest p̂ wins.
        other
            .p_hat
            .total_cmp(&self.p_hat)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The αβ-CROWN-style verifier.
#[derive(Clone)]
pub struct CrownStyle {
    /// Branching heuristic.
    pub heuristic: HeuristicKind,
    appver: Arc<dyn AppVer>,
}

impl Default for CrownStyle {
    fn default() -> Self {
        Self {
            heuristic: HeuristicKind::DeepSplit,
            appver: Arc::new(AlphaCrown::default()),
        }
    }
}

impl std::fmt::Debug for CrownStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrownStyle")
            .field("heuristic", &self.heuristic)
            .field("appver", &self.appver.name())
            .finish()
    }
}

impl CrownStyle {
    /// Creates a CROWN-style verifier with an explicit bound engine.
    #[must_use]
    pub fn new(heuristic: HeuristicKind, appver: Arc<dyn AppVer>) -> Self {
        Self { heuristic, appver }
    }
}

impl CrownStyle {
    /// Like [`Verifier::verify`], additionally returning a checkable
    /// [`Certificate`] when the verdict is [`Verdict::Verified`], or a
    /// partial certificate with open obligations on timeout. Falsified
    /// runs carry their witness in the verdict instead.
    #[must_use]
    pub fn verify_with_certificate(
        &self,
        problem: &RobustnessProblem,
        budget: &Budget,
    ) -> (RunResult, Option<Certificate>) {
        self.verify_impl(problem, budget, true)
    }

    fn verify_impl(
        &self,
        problem: &RobustnessProblem,
        budget: &Budget,
        want_certificate: bool,
    ) -> (RunResult, Option<Certificate>) {
        let mut clock = Clock::new(*budget);
        let mut nodes_visited = 0usize;
        let mut tree_size = 1usize;
        let mut max_depth = 0usize;

        let mut protos = vec![ProtoNode::pending()];
        let cert = |protos: &[ProtoNode]| {
            want_certificate
                .then(|| Certificate::new(assemble_certificate(protos, 0, &SplitSet::new())))
        };

        // Stage 1: PGD pre-attack on the whole region. Classification
        // problems use the label-guided attack; general margin properties
        // fall back to descent on the margin network itself.
        let pre_attack_hit = match problem.label() {
            Some(label) => Pgd::default().attack(
                problem.network(),
                label,
                problem.region().lo(),
                problem.region().hi(),
            ),
            None => margin_pgd(
                problem.margin_net(),
                &Pgd::default(),
                problem.region().lo(),
                problem.region().hi(),
            ),
        };
        if let Some(w) = pre_attack_hit {
            debug_assert!(problem.validate_witness(&w));
            return (clock.finish(Verdict::Falsified(w), 0, 1, 0), None);
        }

        // Stage 2: best-first BaB, most violated sub-problem first.
        let heuristic = self.heuristic.build(problem.margin_net());
        let mut heap = BinaryHeap::new();
        let mut seq = 0usize;

        // Every analysis threads a bound prefix: children resume from
        // their parent's, and a popped node is re-analysed from its own.
        let analyze = |splits: &SplitSet, prefix: Option<&Arc<BoundPrefix>>, clock: &mut Clock| {
            clock.appver_calls += 1;
            let cached =
                self.appver
                    .analyze_cached(problem.margin_net(), problem.region(), splits, prefix);
            clock.bound_stats.absorb(&cached.stats);
            (cached.analysis, cached.prefix)
        };
        let (root, root_prefix) = analyze(&SplitSet::new(), None, &mut clock);
        if root.verified() {
            protos[0].resolved = true;
            return (clock.finish(Verdict::Verified, 1, 1, 0), cert(&protos));
        }
        if let Some(w) = check_candidate(problem, &root, REFINE_STEPS) {
            return (clock.finish(Verdict::Falsified(w), 1, 1, 0), None);
        }
        heap.push(Entry {
            p_hat: root.p_hat,
            seq,
            splits: SplitSet::new(),
            prefix: root_prefix,
            proto: 0,
        });

        while let Some(entry) = heap.pop() {
            if clock.exhausted() {
                return (
                    clock.finish(Verdict::Timeout, nodes_visited, tree_size, max_depth),
                    cert(&protos),
                );
            }
            nodes_visited += 1;
            max_depth = max_depth.max(entry.splits.len());

            // Re-analyze the popped node to branch on its bounds. From
            // the entry's own prefix, α-CROWN and DeepPoly answer the
            // query whole: the call is counted but runs no bound pass.
            let (analysis, prefix) = analyze(&entry.splits, entry.prefix.as_ref(), &mut clock);
            if analysis.verified() {
                protos[entry.proto].resolved = true;
                continue;
            }
            if let Some(w) = check_candidate(problem, &analysis, REFINE_STEPS) {
                return (
                    clock.finish(Verdict::Falsified(w), nodes_visited, tree_size, max_depth),
                    None,
                );
            }
            let ctx = BranchContext {
                net: problem.margin_net(),
                analysis: &analysis,
                splits: &entry.splits,
            };
            let Some(neuron) = heuristic.select(&ctx) else {
                if let Some(w) = resolve_exhausted_leaf(problem, &entry.splits, &mut clock) {
                    return (
                        clock.finish(Verdict::Falsified(w), nodes_visited, tree_size, max_depth),
                        None,
                    );
                }
                protos[entry.proto].resolved = true;
                continue;
            };
            let pos_idx = protos.len();
            protos.push(ProtoNode::pending());
            protos.push(ProtoNode::pending());
            protos[entry.proto].branch = Some((neuron, pos_idx, pos_idx + 1));
            for (child_idx, sign) in [(pos_idx, SplitSign::Pos), (pos_idx + 1, SplitSign::Neg)] {
                let child = entry.splits.with(neuron, sign);
                let (child_analysis, child_prefix) = analyze(&child, prefix.as_ref(), &mut clock);
                tree_size += 1;
                if child_analysis.verified() {
                    protos[child_idx].resolved = true;
                    continue;
                }
                if let Some(w) = check_candidate(problem, &child_analysis, REFINE_STEPS) {
                    return (
                        clock.finish(Verdict::Falsified(w), nodes_visited, tree_size, max_depth),
                        None,
                    );
                }
                seq += 1;
                heap.push(Entry {
                    p_hat: child_analysis.p_hat,
                    seq,
                    splits: child,
                    prefix: child_prefix,
                    proto: child_idx,
                });
            }
        }
        (
            clock.finish(Verdict::Verified, nodes_visited, tree_size, max_depth),
            cert(&protos),
        )
    }
}

impl Verifier for CrownStyle {
    fn verify(&self, problem: &RobustnessProblem, budget: &Budget) -> RunResult {
        self.verify_impl(problem, budget, false).0
    }

    fn name(&self) -> String {
        format!("alpha-beta-CROWN-style({})", self.appver.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunStats;
    use abonn_nn::{Layer, Network, Shape};
    use abonn_tensor::Matrix;

    fn relu_compare_net() -> Network {
        Network::new(
            Shape::Flat(2),
            vec![
                Layer::dense(
                    Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, -1.0], &[-1.0, 1.0]]),
                    vec![0.0, 0.0, 0.0, 0.0],
                ),
                Layer::relu(),
                Layer::dense(
                    Matrix::from_rows(&[&[1.0, 0.0, 0.5, 0.0], &[0.0, 1.0, 0.0, 0.5]]),
                    vec![0.0, 0.0],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn attack_short_circuits_obvious_violations() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.55, 0.45], 0, 0.3).unwrap();
        let r = CrownStyle::default().verify(&p, &Budget::with_appver_calls(100));
        match r.verdict {
            Verdict::Falsified(w) => {
                assert!(p.validate_witness(&w));
                // The PGD pre-attack should have found it without any
                // bound-propagation call.
                assert_eq!(r.stats.appver_calls, 0);
            }
            v => panic!("expected falsification, got {v:?}"),
        }
    }

    #[test]
    fn verifies_robust_instance() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.02).unwrap();
        let r = CrownStyle::default().verify(&p, &Budget::with_appver_calls(300));
        assert_eq!(r.verdict, Verdict::Verified);
    }

    #[test]
    fn agrees_with_bab_baseline() {
        use crate::bab::BabBaseline;
        let net = relu_compare_net();
        let budget = Budget::with_appver_calls(1_000);
        for (x0, eps) in [(vec![0.7, 0.3], 0.1), (vec![0.6, 0.4], 0.05)] {
            let p = RobustnessProblem::new(&net, x0.clone(), 0, eps).unwrap();
            let a = CrownStyle::default().verify(&p, &budget);
            let b = BabBaseline::default().verify(&p, &budget);
            if a.verdict.is_solved() && b.verdict.is_solved() {
                assert_eq!(
                    matches!(a.verdict, Verdict::Verified),
                    matches!(b.verdict, Verdict::Verified),
                    "disagreement at {x0:?} eps {eps}"
                );
            }
        }
    }

    #[test]
    fn verified_run_emits_checkable_certificate() {
        use abonn_bound::{Cascade, DeepPoly, LpVerifier};
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.02).unwrap();
        let (r, cert) =
            CrownStyle::default().verify_with_certificate(&p, &Budget::with_appver_calls(300));
        assert_eq!(r.verdict, Verdict::Verified);
        let cert = cert.expect("verified run must emit a certificate");
        assert!(cert.is_complete());
        let checker = Cascade::new(vec![Arc::new(DeepPoly::new()), Arc::new(LpVerifier::new())]);
        cert.check(&p, &checker).expect("certificate checks");
        let plain = CrownStyle::default().verify(&p, &Budget::with_appver_calls(300));
        let no_wall = |mut s: RunStats| {
            s.wall = std::time::Duration::ZERO;
            s
        };
        assert_eq!(no_wall(plain.stats), no_wall(r.stats));
    }

    #[test]
    fn reports_the_lp_work_of_resolved_leaves() {
        // Verifying this instance takes an exact LP on one fully-split
        // leaf; its solve must show up in the run's counters.
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.6, 0.4], 0, 0.1).unwrap();
        let r = CrownStyle::default().verify(&p, &Budget::with_appver_calls(300));
        assert_eq!(r.verdict, Verdict::Verified);
        assert!(r.stats.lp_cold_solves >= 1, "{}", r.stats);
        assert!(r.stats.lp_pivots > 0, "{}", r.stats);
    }

    #[test]
    fn timeout_run_emits_partial_certificate() {
        // Same loose-relaxation gate construction as the BaB test: robust,
        // but the subtracted unstable gates force branching.
        let net = Network::new(
            Shape::Flat(2),
            vec![
                Layer::dense(
                    Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]),
                    vec![-1.0, -0.9, 0.0, 0.0],
                ),
                Layer::relu(),
                Layer::dense(
                    Matrix::from_rows(&[&[-0.2, -0.2, 1.0, 0.0], &[0.0, 0.0, 0.0, 1.0]]),
                    vec![0.0, 0.0],
                ),
            ],
        )
        .unwrap();
        let p = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.28).unwrap();
        let (r, cert) =
            CrownStyle::default().verify_with_certificate(&p, &Budget::with_appver_calls(2));
        if r.verdict == Verdict::Timeout {
            let cert = cert.expect("timeout must emit a partial certificate");
            assert!(!cert.is_complete());
            assert!(cert.num_open() >= 1);
        }
    }

    #[test]
    fn entry_ordering_pops_most_violated_first() {
        let mut heap = BinaryHeap::new();
        for (i, p) in [-0.5, -2.0, -1.0].iter().enumerate() {
            heap.push(Entry {
                p_hat: *p,
                seq: i,
                splits: SplitSet::new(),
                prefix: None,
                proto: 0,
            });
        }
        assert_eq!(heap.pop().unwrap().p_hat, -2.0);
        assert_eq!(heap.pop().unwrap().p_hat, -1.0);
        assert_eq!(heap.pop().unwrap().p_hat, -0.5);
    }
}

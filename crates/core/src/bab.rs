//! The BaB-baseline: classical breadth-first branch and bound (§III).
//!
//! Sub-problems are visited strictly first-come-first-served: pop a split
//! set, apply `AppVer`, conclude/skip/split, push the two children at the
//! back of the queue. This reproduces the paper's "naive" exploration
//! order that ABONN improves on.

use crate::certificate::{Certificate, ProofNode};
use crate::driver::{
    check_candidate, resolve_exhausted_leaf, Budget, Clock, RunResult, Verdict, Verifier,
};
use crate::heuristics::{BranchContext, HeuristicKind};
use crate::pool::WorkerPool;
use crate::spec::RobustnessProblem;
use abonn_bound::{AppVer, BoundPrefix, DeepPoly, NeuronId, SplitSet, SplitSign};
use std::collections::VecDeque;
use std::sync::Arc;

/// Proof-tree bookkeeping: one entry per sub-problem the search created.
/// Assembled into a [`Certificate`] when the run ends — terminal split
/// sets are re-derived by walking the branch structure, so nothing but the
/// branch neuron and the resolution state is stored.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProtoNode {
    /// `true` once the sub-problem was concluded safe (verified,
    /// infeasible, or exactly resolved by the LP fallback).
    pub resolved: bool,
    /// Set when the sub-problem was split: `(neuron, pos idx, neg idx)`.
    pub branch: Option<(NeuronId, usize, usize)>,
}

impl ProtoNode {
    pub fn pending() -> Self {
        Self {
            resolved: false,
            branch: None,
        }
    }
}

/// The certificate the bookkeeping describes. Unresolved sub-problems
/// become [`ProofNode::Open`] obligations; every terminal records the
/// split set accumulated along its branch path as provenance.
pub(crate) fn certificate_of(protos: &[ProtoNode]) -> Certificate {
    fn assemble(protos: &[ProtoNode], idx: usize, splits: &SplitSet) -> ProofNode {
        match protos[idx].branch {
            Some((neuron, pos, neg)) => ProofNode::Branch {
                neuron,
                pos: Box::new(assemble(protos, pos, &splits.with(neuron, SplitSign::Pos))),
                neg: Box::new(assemble(protos, neg, &splits.with(neuron, SplitSign::Neg))),
            },
            None if protos[idx].resolved => ProofNode::leaf(splits.iter().collect()),
            None => ProofNode::open(splits.iter().collect()),
        }
    }
    Certificate::new(assemble(protos, 0, &SplitSet::new()))
}

/// Breadth-first BaB, the paper's `BaB-baseline`.
///
/// Shares the approximated verifier and the branching heuristic with
/// [`AbonnVerifier`](crate::AbonnVerifier), so measured differences come
/// from the exploration order alone.
#[derive(Clone)]
pub struct BabBaseline {
    /// Branching heuristic `H` (same default as ABONN).
    pub heuristic: HeuristicKind,
    appver: Arc<dyn AppVer>,
    pool: Arc<WorkerPool>,
}

impl Default for BabBaseline {
    fn default() -> Self {
        Self {
            heuristic: HeuristicKind::DeepSplit,
            appver: Arc::new(DeepPoly::new()),
            pool: Arc::new(WorkerPool::inline()),
        }
    }
}

impl std::fmt::Debug for BabBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BabBaseline")
            .field("heuristic", &self.heuristic)
            .field("appver", &self.appver.name())
            .finish()
    }
}

impl BabBaseline {
    /// Creates a baseline with an explicit verifier and heuristic.
    #[must_use]
    pub fn new(heuristic: HeuristicKind, appver: Arc<dyn AppVer>) -> Self {
        Self {
            heuristic,
            appver,
            pool: Arc::new(WorkerPool::inline()),
        }
    }

    /// Bounds the breadth-first frontier on `pool`: up to
    /// [`WorkerPool::threads`] already-enqueued sub-problems are analyzed
    /// concurrently per round ([`WorkerPool::map`]), but conclusions are
    /// consumed strictly in FIFO order — verdict and `RunStats` are
    /// bit-for-bit identical to the sequential search (analyses past an
    /// early termination are discarded uncounted).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }
}

impl Verifier for BabBaseline {
    /// Runs the breadth-first search. The result carries the proof tree as
    /// its certificate; on timeout every sub-problem still enqueued is an
    /// open obligation.
    fn verify(&self, problem: &RobustnessProblem, budget: &Budget) -> RunResult {
        let mut clock = Clock::new(*budget);
        let heuristic = self.heuristic.build(problem.margin_net());
        // Each queued sub-problem carries its parent's bound prefix so the
        // verifier only back-substitutes the layers after the new split,
        // plus its index into the proof-tree bookkeeping.
        let mut queue: VecDeque<(SplitSet, Option<Arc<BoundPrefix>>, usize)> =
            VecDeque::from([(SplitSet::new(), None, 0)]);
        let mut protos = vec![ProtoNode::pending()];
        let mut nodes_visited = 0usize;
        let mut tree_size = 1usize;
        let mut max_depth = 0usize;

        while !queue.is_empty() {
            // Pop up to `threads` already-enqueued sub-problems and bound
            // them concurrently. Consumption below is strictly FIFO, so
            // the exploration order, verdict, and stats match the
            // sequential search exactly: breadth-first children always go
            // to the back of the queue, behind every batched node.
            let width = self.pool.threads().min(queue.len()).max(1);
            let batch: Vec<(SplitSet, Option<Arc<BoundPrefix>>, usize)> = (0..width)
                .map(|_| queue.pop_front().expect("width <= queue.len()"))
                .collect();
            let analyses = self.pool.map(
                batch.iter().collect(),
                |(splits, parent, _): &(SplitSet, Option<Arc<BoundPrefix>>, usize)| {
                    self.appver.analyze_cached(
                        problem.margin_net(),
                        problem.region(),
                        splits,
                        parent.as_ref(),
                    )
                },
            );
            for ((splits, _, proto), cached) in batch.iter().zip(analyses) {
                // Budget accounting happens here, in consumption order:
                // analyses past an exhausted budget or a found witness are
                // speculative work, discarded without being counted (the
                // bound-work counters included). Sub-problems not consumed
                // remain pending and export as `Open` obligations.
                if clock.exhausted() {
                    return clock.finish(
                        Verdict::Timeout,
                        Some(certificate_of(&protos)),
                        nodes_visited,
                        tree_size,
                        max_depth,
                    );
                }
                nodes_visited += 1;
                max_depth = max_depth.max(splits.len());
                clock.appver_calls += 1;
                clock.bound_stats.absorb(&cached.stats);
                let analysis = cached.analysis;
                if analysis.verified() {
                    protos[*proto].resolved = true;
                    continue;
                }
                if let Some(w) = check_candidate(problem, &analysis, 0) {
                    return clock.finish(
                        Verdict::Falsified(w),
                        None,
                        nodes_visited,
                        tree_size,
                        max_depth,
                    );
                }
                let ctx = BranchContext {
                    net: problem.margin_net(),
                    analysis: &analysis,
                    splits,
                };
                match heuristic.select(&ctx) {
                    Some(neuron) => {
                        tree_size += 2;
                        let pos_idx = protos.len();
                        protos.push(ProtoNode::pending());
                        protos.push(ProtoNode::pending());
                        protos[*proto].branch = Some((neuron, pos_idx, pos_idx + 1));
                        queue.push_back((
                            splits.with(neuron, SplitSign::Pos),
                            cached.prefix.clone(),
                            pos_idx,
                        ));
                        queue.push_back((
                            splits.with(neuron, SplitSign::Neg),
                            cached.prefix,
                            pos_idx + 1,
                        ));
                    }
                    None => {
                        // Fully split: resolve exactly with the LP.
                        if let Some(w) = resolve_exhausted_leaf(problem, splits, &mut clock) {
                            return clock.finish(
                                Verdict::Falsified(w),
                                None,
                                nodes_visited,
                                tree_size,
                                max_depth,
                            );
                        }
                        protos[*proto].resolved = true;
                    }
                }
            }
        }
        clock.finish(
            Verdict::Verified,
            Some(certificate_of(&protos)),
            nodes_visited,
            tree_size,
            max_depth,
        )
    }

    fn name(&self) -> String {
        format!("BaB-baseline({})", self.appver.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn verifies_robust_instance() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.02).unwrap();
        let r = BabBaseline::default().verify(&p, &Budget::with_appver_calls(300));
        assert_eq!(r.verdict, Verdict::Verified);
    }

    #[test]
    fn falsifies_vulnerable_instance_with_valid_witness() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.55, 0.45], 0, 0.2).unwrap();
        let r = BabBaseline::default().verify(&p, &Budget::with_appver_calls(500));
        match r.verdict {
            Verdict::Falsified(w) => assert!(p.validate_witness(&w)),
            v => panic!("expected falsification, got {v:?}"),
        }
    }

    #[test]
    fn agrees_with_abonn_when_both_finish() {
        use crate::mcts::AbonnVerifier;
        let net = relu_compare_net();
        let budget = Budget::with_appver_calls(1_000);
        for (x0, eps) in [
            (vec![0.8, 0.2], 0.02),
            (vec![0.7, 0.3], 0.1),
            (vec![0.55, 0.45], 0.2),
            (vec![0.6, 0.4], 0.05),
        ] {
            let p = RobustnessProblem::new(&net, x0.clone(), 0, eps).unwrap();
            let a = AbonnVerifier::default().verify(&p, &budget);
            let b = BabBaseline::default().verify(&p, &budget);
            if a.verdict.is_solved() && b.verdict.is_solved() {
                assert_eq!(
                    matches!(a.verdict, Verdict::Verified),
                    matches!(b.verdict, Verdict::Verified),
                    "disagreement at x0 = {x0:?}, eps = {eps}"
                );
            }
        }
    }

    #[test]
    fn timeout_reports_partial_stats() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.52, 0.48], 0, 0.06).unwrap();
        let r = BabBaseline::default().verify(&p, &Budget::with_appver_calls(1));
        assert!(r.stats.appver_calls <= 2);
    }

    #[test]
    fn verified_run_emits_checkable_certificate() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.02).unwrap();
        let r = BabBaseline::default().verify(&p, &Budget::with_appver_calls(300));
        assert_eq!(r.verdict, Verdict::Verified);
        let cert = r.certificate.expect("verified run must emit a certificate");
        assert!(cert.is_complete());
        assert!(cert.num_leaves() >= 1);
    }

    /// A net whose margin subtracts ReLU "gates" near their threshold:
    /// out0 = relu(x0) - 0.2 relu(x0+x1-1) - 0.2 relu(x0+x1-0.9),
    /// out1 = relu(x1). Around (0.8, 0.2) with eps 0.28 the instance is
    /// robust (min margin 0.02 at the x0-low/x1-high corner) but the
    /// subtracted unstable gates make the root relaxation loose, forcing
    /// the search to branch.
    fn gate_net() -> Network {
        Network::new(
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
        .unwrap()
    }

    #[test]
    fn timeout_run_emits_partial_certificate_with_open_obligations() {
        // Robust instance (no witness exists) that needs branching, so a
        // one-call budget must time out after expanding the root.
        let p = RobustnessProblem::new(&gate_net(), vec![0.8, 0.2], 0, 0.28).unwrap();
        let r = BabBaseline::default().verify(&p, &Budget::with_appver_calls(1));
        assert_eq!(r.verdict, Verdict::Timeout);
        let cert = r
            .certificate
            .expect("timeout must emit a partial certificate");
        assert!(!cert.is_complete());
        assert!(cert.num_open() >= 1);
    }

    #[test]
    fn falsified_run_carries_witness_not_certificate() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.55, 0.45], 0, 0.2).unwrap();
        let r = BabBaseline::default().verify(&p, &Budget::with_appver_calls(500));
        assert!(matches!(r.verdict, Verdict::Falsified(_)));
        assert!(r.certificate.is_none());
    }
}

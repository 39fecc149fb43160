//! ABONN: the MCTS-style adaptive BaB verification algorithm
//! (Algorithm 1 of the paper).
//!
//! Each iteration walks from the root towards an unexpanded node, choosing
//! among expanded children by UCB1 over counterexample-potentiality
//! rewards, then expands the reached node (two `AppVer` calls, one per
//! ReLU phase), validates any candidate counterexamples, and
//! back-propagates rewards and subtree sizes to the root. Termination:
//! a validated counterexample (`false`), a fully closed root (`true`), or
//! budget exhaustion (`timeout`).
//!
//! Deviations from the paper's pseudocode (reward propagation after the
//! recursive call, skipping closed subtrees, exact-LP leaf resolution) are
//! documented in `DESIGN.md` §3.

use crate::certificate::{Certificate, ProofNode};
use crate::driver::{
    check_candidate, resolve_exhausted_leaf, Budget, Clock, RunResult, Verdict, Verifier,
};
use crate::heuristics::{BranchContext, HeuristicKind};
use crate::pool::WorkerPool;
use crate::potentiality::{potentiality, ucb1, NodeOutcome};
use crate::spec::RobustnessProblem;
use crate::tree::{BabTree, NodeId, NodeState};
use abonn_bound::{
    Analysis, AppVer, BoundComputeStats, BoundPrefix, CachedAnalysis, DeepPoly, SplitSet, SplitSign,
};
use std::sync::Arc;

/// Hyperparameters of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbonnConfig {
    /// λ — weight between node depth and `p̂` in counterexample
    /// potentiality (paper default 0.5).
    pub lambda: f64,
    /// c — UCB1 exploration constant (paper default 0.2).
    pub c: f64,
    /// Branching heuristic `H`.
    pub heuristic: HeuristicKind,
}

impl Default for AbonnConfig {
    fn default() -> Self {
        Self {
            lambda: 0.5,
            c: 0.2,
            heuristic: HeuristicKind::DeepSplit,
        }
    }
}

/// The ABONN verifier.
///
/// See the [crate-level example](crate) for usage.
#[derive(Clone)]
pub struct AbonnVerifier {
    /// Algorithm hyperparameters.
    pub config: AbonnConfig,
    appver: Arc<dyn AppVer>,
    pool: Arc<WorkerPool>,
}

impl Default for AbonnVerifier {
    fn default() -> Self {
        Self {
            config: AbonnConfig::default(),
            appver: Arc::new(DeepPoly::new()),
            pool: Arc::new(WorkerPool::inline()),
        }
    }
}

impl std::fmt::Debug for AbonnVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbonnVerifier")
            .field("config", &self.config)
            .field("appver", &self.appver.name())
            .finish()
    }
}

impl AbonnVerifier {
    /// Creates an ABONN verifier with the given configuration and
    /// approximated verifier.
    #[must_use]
    pub fn new(config: AbonnConfig, appver: Arc<dyn AppVer>) -> Self {
        Self {
            config,
            appver,
            pool: Arc::new(WorkerPool::inline()),
        }
    }

    /// Convenience constructor overriding only λ and c.
    #[must_use]
    pub fn with_hyperparameters(lambda: f64, c: f64) -> Self {
        Self {
            config: AbonnConfig {
                lambda,
                c,
                ..AbonnConfig::default()
            },
            appver: Arc::new(DeepPoly::new()),
            pool: Arc::new(WorkerPool::inline()),
        }
    }

    /// Runs the two `AppVer` calls of each expansion on `pool`
    /// ([`WorkerPool::join2`]). Verdicts, statistics, and certificates are
    /// bit-for-bit identical to the sequential search regardless of the
    /// pool size: the clock is charged up front and the two child results
    /// are applied in fixed (pos, neg) order.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }
}

/// Outcome of evaluating one fresh child node.
enum ChildEval {
    /// Child verified (or infeasible): close it.
    Closed,
    /// Real counterexample found.
    Witness(Vec<f64>),
    /// False alarm: keep exploring below it.
    FalseAlarm(Analysis),
}

/// A child evaluation plus its reusable bound prefix and work counters.
struct ChildOutcome {
    eval: ChildEval,
    prefix: Option<Arc<BoundPrefix>>,
    stats: BoundComputeStats,
}

struct Search<'p> {
    problem: &'p RobustnessProblem,
    config: AbonnConfig,
    appver: Arc<dyn AppVer>,
    pool: Arc<WorkerPool>,
    heuristic: Box<dyn crate::heuristics::BranchingHeuristic>,
    tree: BabTree,
    /// Analyses of open nodes, dropped on expansion.
    analyses: Vec<Option<Analysis>>,
    /// Bound prefixes of open nodes, threaded into their expansions and
    /// dropped afterwards (children carry their own).
    prefixes: Vec<Option<Arc<BoundPrefix>>>,
    clock: Clock,
    nodes_visited: usize,
}

/// Evaluates one fresh child sub-problem (one `AppVer` call). Pure in the
/// inputs — no clock or tree access — so the two children of an expansion
/// can be evaluated concurrently without touching shared search state.
/// The parent's bound prefix lets the verifier skip the back-substitution
/// of the new split's layer and every layer before it; the analysis is
/// bit-for-bit what bounding from scratch returns.
fn evaluate_child(
    appver: &dyn AppVer,
    problem: &RobustnessProblem,
    splits: &SplitSet,
    parent: Option<&Arc<BoundPrefix>>,
) -> ChildOutcome {
    let CachedAnalysis {
        analysis,
        prefix,
        stats,
    } = appver.analyze_cached(problem.margin_net(), problem.region(), splits, parent);
    let eval = if analysis.verified() {
        ChildEval::Closed
    } else if let Some(w) = check_candidate(problem, &analysis, 0) {
        ChildEval::Witness(w)
    } else {
        ChildEval::FalseAlarm(analysis)
    };
    ChildOutcome {
        eval,
        prefix,
        stats,
    }
}

impl<'p> Search<'p> {
    /// The run's result. Unless the verdict is a falsification, the
    /// certificate is the tree as it stands: complete once the root has
    /// closed, with open obligations on timeout.
    fn finish(&self, verdict: Verdict) -> RunResult {
        let certificate =
            (!matches!(verdict, Verdict::Falsified(_))).then(|| certificate_from_tree(&self.tree));
        self.clock.finish(
            verdict,
            certificate,
            self.nodes_visited,
            self.tree.len(),
            self.tree.max_depth(),
        )
    }

    fn k_total(&self) -> usize {
        self.problem.num_relu_neurons().max(1)
    }

    fn reward_of(&self, depth: usize, p_hat: f64) -> f64 {
        potentiality(
            NodeOutcome::FalseAlarm { p_hat },
            depth,
            self.k_total(),
            self.tree.p_hat_min(),
            self.config.lambda,
        )
    }

    /// One MCTS iteration: select → expand → back-propagate.
    ///
    /// Returns `Some(witness)` when a counterexample is confirmed.
    fn step(&mut self) -> Option<Vec<f64>> {
        // Selection: descend through expanded nodes by UCB1.
        let mut cur = NodeId::ROOT;
        while self.tree.node(cur).state == NodeState::Expanded {
            let (a, b) = self.tree.node(cur).children.expect("expanded node");
            let parent_visits = self.tree.node(cur).subtree_size;
            let score = |id: NodeId| {
                let n = self.tree.node(id);
                if n.state == NodeState::Closed {
                    f64::NEG_INFINITY
                } else {
                    ucb1(n.reward, self.config.c, parent_visits, n.subtree_size)
                }
            };
            let (sa, sb) = (score(a), score(b));
            // Both closed would have closed `cur` during back-propagation.
            cur = if sa >= sb { a } else { b };
        }
        self.nodes_visited += 1;

        // Expansion of the reached open node.
        let node_splits = self.tree.node(cur).splits.clone();
        let analysis = self.analyses[cur.index()]
            .take()
            .expect("open node retains its analysis");
        // The node's bound prefix seeds both child evaluations, then is
        // dropped — each surviving child carries its own.
        let parent_prefix = self.prefixes[cur.index()].take();
        let ctx = BranchContext {
            net: self.problem.margin_net(),
            analysis: &analysis,
            splits: &node_splits,
        };
        let Some(neuron) = self.heuristic.select(&ctx) else {
            // Every unstable ReLU on this path is split: resolve exactly.
            if let Some(w) = resolve_exhausted_leaf(self.problem, &node_splits, &mut self.clock) {
                return Some(w);
            }
            self.tree.close(cur);
            if let Some(parent) = self.tree.node(cur).parent {
                self.tree.back_propagate(parent);
            }
            return None;
        };

        // The two phase analyses are independent, so they may run
        // concurrently on the pool; the clock is charged for both up front
        // and the results are applied in fixed (pos, neg) order below,
        // keeping the search identical to a sequential run.
        self.clock.appver_calls += 2;
        let pos_splits = node_splits.with(neuron, SplitSign::Pos);
        let neg_splits = node_splits.with(neuron, SplitSign::Neg);
        let (appver, problem) = (&*self.appver, self.problem);
        let parent = parent_prefix.as_ref();
        let (pos_out, neg_out) = self.pool.join2(
            || evaluate_child(appver, problem, &pos_splits, parent),
            || evaluate_child(appver, problem, &neg_splits, parent),
        );
        drop(parent_prefix);
        // Work counters are merged here on the search thread in fixed
        // (pos, neg) order, so they are invariant to the pool size.
        self.clock.bound_stats.absorb(&pos_out.stats);
        self.clock.bound_stats.absorb(&neg_out.stats);
        let child_results = vec![pos_out, neg_out];
        let p_hat_of = |r: &ChildOutcome| match &r.eval {
            ChildEval::FalseAlarm(a) => a.p_hat,
            _ => f64::INFINITY, // closed/witness children: p̂ unused below
        };
        let (pos_p, neg_p) = (p_hat_of(&child_results[0]), p_hat_of(&child_results[1]));
        let (pos_id, neg_id) = self.tree.expand(cur, neuron, pos_p, neg_p);
        self.analyses.resize(self.tree.len(), None);
        self.prefixes.resize(self.tree.len(), None);

        let mut witness = None;
        for (id, result) in [(pos_id, neg_id), (neg_id, pos_id)]
            .iter()
            .map(|&(id, _)| id)
            .zip(child_results)
        {
            match result.eval {
                ChildEval::Closed => self.tree.close(id),
                ChildEval::Witness(w) => {
                    self.tree.node_mut(id).reward = f64::INFINITY;
                    witness = Some(w);
                }
                ChildEval::FalseAlarm(a) => {
                    let depth = self.tree.node(id).depth;
                    self.tree.node_mut(id).reward = self.reward_of(depth, a.p_hat);
                    self.analyses[id.index()] = Some(a);
                    // Only nodes that stay open can be expanded later and
                    // profit from a cached prefix.
                    self.prefixes[id.index()] = result.prefix;
                }
            }
        }

        // Back-propagation (rewards, visits, and closure) to the root.
        self.tree.back_propagate(cur);
        debug_assert_eq!(self.tree.check_invariants(), None);
        witness
    }
}

impl Verifier for AbonnVerifier {
    /// Runs Algorithm 1. The result carries the branch tree as its
    /// certificate: each leaf is one sub-problem a sound `AppVer`
    /// verified, each branch an exhaustive ReLU case split.
    fn verify(&self, problem: &RobustnessProblem, budget: &Budget) -> RunResult {
        let mut clock = Clock::new(*budget);

        // Initialisation (Lines 1–9): analyze the root problem.
        clock.appver_calls += 1;
        let root_cached = self.appver.analyze_cached(
            problem.margin_net(),
            problem.region(),
            &SplitSet::new(),
            None,
        );
        clock.bound_stats.absorb(&root_cached.stats);
        let root_analysis = root_cached.analysis;
        let root_prefix = root_cached.prefix;
        if root_analysis.verified() {
            let certificate = Certificate::new(ProofNode::root_leaf());
            return clock.finish(Verdict::Verified, Some(certificate), 1, 1, 0);
        }
        if let Some(w) = check_candidate(problem, &root_analysis, 0) {
            return clock.finish(Verdict::Falsified(w), None, 1, 1, 0);
        }

        let tree = BabTree::new(root_analysis.p_hat);
        let heuristic = self.config.heuristic.build(problem.margin_net());
        let mut search = Search {
            problem,
            config: self.config,
            appver: Arc::clone(&self.appver),
            pool: Arc::clone(&self.pool),
            heuristic,
            tree,
            analyses: vec![Some(root_analysis)],
            prefixes: vec![root_prefix],
            clock,
            nodes_visited: 1,
        };
        let k = search.k_total();
        let root_p = search.tree.node(NodeId::ROOT).p_hat;
        search.tree.node_mut(NodeId::ROOT).reward = potentiality(
            NodeOutcome::FalseAlarm { p_hat: root_p },
            0,
            k,
            search.tree.p_hat_min(),
            search.config.lambda,
        );

        // Main loop (Lines 4–7).
        loop {
            if search.tree.node(NodeId::ROOT).state == NodeState::Closed {
                return search.finish(Verdict::Verified);
            }
            if search.clock.exhausted() {
                // The partial proof: closed leaves stand, still-open
                // sub-problems become `ProofNode::Open` obligations.
                return search.finish(Verdict::Timeout);
            }
            if let Some(w) = search.step() {
                return search.finish(Verdict::Falsified(w));
            }
        }
    }

    fn name(&self) -> String {
        format!(
            "ABONN(lambda={}, c={}, {})",
            self.config.lambda,
            self.config.c,
            self.appver.name()
        )
    }
}

/// Converts the BaB tree into a proof tree. Closed childless nodes become
/// verified leaves; nodes the search never resolved (timeout) become
/// [`ProofNode::Open`] obligations, yielding a partial certificate. Each
/// terminal records its own split set (the node's `Γ`) as provenance.
fn certificate_from_tree(tree: &crate::tree::BabTree) -> Certificate {
    fn convert(tree: &crate::tree::BabTree, id: NodeId) -> ProofNode {
        let provenance = || tree.node(id).splits.iter().collect();
        match tree.node(id).children {
            None if tree.node(id).state == NodeState::Closed => ProofNode::leaf(provenance()),
            None => ProofNode::open(provenance()),
            Some((pos, neg)) => ProofNode::Branch {
                neuron: tree
                    .node(id)
                    .branch_neuron
                    .expect("expanded node records its neuron"),
                pos: Box::new(convert(tree, pos)),
                neg: Box::new(convert(tree, neg)),
            },
        }
    }
    Certificate::new(convert(tree, NodeId::ROOT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_nn::{Layer, Network, Shape};
    use abonn_tensor::Matrix;

    /// Classifier with logits (x0, x1): class 0 iff x0 > x1, with one
    /// hidden ReLU layer to give BaB something to split.
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
    fn verifies_a_robust_instance() {
        let net = relu_compare_net();
        // Around (0.8, 0.2) with tiny radius class 0 always wins.
        let p = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.02).unwrap();
        let r = AbonnVerifier::default().verify(&p, &Budget::with_appver_calls(200));
        assert_eq!(r.verdict, Verdict::Verified);
    }

    #[test]
    fn falsifies_a_vulnerable_instance() {
        let net = relu_compare_net();
        // Radius large enough to cross the x0 = x1 boundary.
        let p = RobustnessProblem::new(&net, vec![0.55, 0.45], 0, 0.2).unwrap();
        let r = AbonnVerifier::default().verify(&p, &Budget::with_appver_calls(500));
        match r.verdict {
            Verdict::Falsified(w) => assert!(p.validate_witness(&w)),
            v => panic!("expected falsification, got {v:?}"),
        }
    }

    #[test]
    fn times_out_gracefully_under_tiny_budget() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.52, 0.48], 0, 0.06).unwrap();
        let r = AbonnVerifier::default().verify(&p, &Budget::with_appver_calls(2));
        // With two calls it can at most analyze the root and start one
        // expansion; whatever the verdict, stats must be consistent.
        assert!(r.stats.appver_calls <= 4);
        if r.verdict == Verdict::Timeout {
            assert!(r.stats.tree_size >= 1);
        }
    }

    #[test]
    fn stats_are_populated() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.05).unwrap();
        let r = AbonnVerifier::default().verify(&p, &Budget::with_appver_calls(300));
        assert!(r.stats.appver_calls >= 1);
        assert!(r.stats.nodes_visited >= 1);
    }

    #[test]
    fn hyperparameter_constructor_plumbs_values() {
        let v = AbonnVerifier::with_hyperparameters(0.25, 0.7);
        assert_eq!(v.config.lambda, 0.25);
        assert_eq!(v.config.c, 0.7);
        assert!(v.name().contains("0.25"));
    }

    #[test]
    fn pure_exploitation_and_exploration_both_terminate() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.7, 0.3], 0, 0.1).unwrap();
        for c in [0.0, 1.0] {
            let v = AbonnVerifier::with_hyperparameters(0.5, c);
            let r = v.verify(&p, &Budget::with_appver_calls(400));
            assert!(
                r.verdict.is_solved() || r.stats.appver_calls >= 400,
                "c = {c} stalled"
            );
        }
    }
}

//! The BaB tree: an arena of sub-problems `Γ` with MCTS bookkeeping.

use abonn_bound::{NeuronId, SplitSet, SplitSign};

/// Index of a node in a [`BabTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The root node `ε`.
    pub const ROOT: NodeId = NodeId(0);

    /// Raw arena index (stable for the tree's lifetime).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Lifecycle state of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Evaluated, a false alarm, children not yet created.
    Open,
    /// Children created (the node is internal).
    Expanded,
    /// The node's entire subtree is verified — nothing to find below.
    Closed,
}

/// One BaB sub-problem.
#[derive(Debug, Clone)]
pub struct Node {
    /// The split sequence `Γ` identifying the sub-problem.
    pub splits: SplitSet,
    /// `depth(Γ)` — number of splits on the path.
    pub depth: usize,
    /// The verifier's `p̂` for this node.
    pub p_hat: f64,
    /// The MCTS reward `R(Γ)` (counterexample potentiality, propagated).
    pub reward: f64,
    /// `|T(Γ)|` — number of nodes in the subtree rooted here.
    pub subtree_size: usize,
    /// Lifecycle state.
    pub state: NodeState,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Children `(Γ·r⁺, Γ·r⁻)` once expanded.
    pub children: Option<(NodeId, NodeId)>,
    /// The ReLU this node was expanded on.
    pub branch_neuron: Option<NeuronId>,
}

/// Arena-allocated BaB tree.
///
/// # Examples
///
/// ```
/// use abonn_core::{BabTree, NodeId};
/// use abonn_bound::{NeuronId, SplitSign};
///
/// let mut tree = BabTree::new(-1.5);
/// let (pos, neg) = tree.expand(NodeId::ROOT, NeuronId::new(0, 2), -1.2, -1.4);
/// assert_eq!(tree.node(pos).depth, 1);
/// assert_eq!(tree.node(NodeId::ROOT).subtree_size, 3);
/// assert_ne!(pos, neg);
/// ```
#[derive(Debug, Clone)]
pub struct BabTree {
    nodes: Vec<Node>,
    /// Most negative `p̂` observed anywhere in the tree (the Def. 1
    /// normaliser).
    p_hat_min: f64,
}

impl BabTree {
    /// Creates a tree whose root has the given `p̂`.
    #[must_use]
    pub fn new(root_p_hat: f64) -> Self {
        Self {
            nodes: vec![Node {
                splits: SplitSet::new(),
                depth: 0,
                p_hat: root_p_hat,
                reward: 0.0,
                subtree_size: 1,
                state: NodeState::Open,
                parent: None,
                children: None,
                branch_neuron: None,
            }],
            p_hat_min: root_p_hat.min(0.0),
        }
    }

    /// Total number of nodes ever created.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tree is only the root (never the case after
    /// construction plus an expansion).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// The Def. 1 normaliser: the most negative `p̂` seen so far.
    #[must_use]
    pub fn p_hat_min(&self) -> f64 {
        self.p_hat_min
    }

    /// Records an observed `p̂`, updating the normaliser.
    pub fn observe_p_hat(&mut self, p_hat: f64) {
        if p_hat < self.p_hat_min {
            self.p_hat_min = p_hat;
        }
    }

    /// Expands `parent` on `neuron`, creating the `r⁺` and `r⁻` children
    /// with the given `p̂` values, and updates subtree sizes up to the
    /// root. Returns `(positive_child, negative_child)`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` was already expanded.
    pub fn expand(
        &mut self,
        parent: NodeId,
        neuron: NeuronId,
        p_hat_pos: f64,
        p_hat_neg: f64,
    ) -> (NodeId, NodeId) {
        assert!(
            self.nodes[parent.0].children.is_none(),
            "BabTree::expand: node already expanded"
        );
        let depth = self.nodes[parent.0].depth + 1;
        let base_splits = self.nodes[parent.0].splits.clone();
        let mut make = |sign: SplitSign, p_hat: f64| {
            let id = NodeId(self.nodes.len());
            self.nodes.push(Node {
                splits: base_splits.with(neuron, sign),
                depth,
                p_hat,
                reward: 0.0,
                subtree_size: 1,
                state: NodeState::Open,
                parent: Some(parent),
                children: None,
                branch_neuron: None,
            });
            id
        };
        let pos = make(SplitSign::Pos, p_hat_pos);
        let neg = make(SplitSign::Neg, p_hat_neg);
        self.observe_p_hat(p_hat_pos);
        self.observe_p_hat(p_hat_neg);

        let parent_node = &mut self.nodes[parent.0];
        parent_node.children = Some((pos, neg));
        parent_node.branch_neuron = Some(neuron);
        parent_node.state = NodeState::Expanded;

        // |T(Γ)| grows by two along the whole ancestor path.
        let mut cur = Some(parent);
        while let Some(id) = cur {
            self.nodes[id.0].subtree_size += 2;
            cur = self.nodes[id.0].parent;
        }
        (pos, neg)
    }

    /// Recomputes `R(Γ)` bottom-up from `from` to the root as the maximum
    /// of the children's rewards, and closes nodes whose children are both
    /// closed.
    pub fn back_propagate(&mut self, from: NodeId) {
        let mut cur = Some(from);
        while let Some(id) = cur {
            if let Some((a, b)) = self.nodes[id.0].children {
                let ra = self.nodes[a.0].reward;
                let rb = self.nodes[b.0].reward;
                self.nodes[id.0].reward = ra.max(rb);
                if self.nodes[a.0].state == NodeState::Closed
                    && self.nodes[b.0].state == NodeState::Closed
                {
                    self.nodes[id.0].state = NodeState::Closed;
                }
            }
            cur = self.nodes[id.0].parent;
        }
    }

    /// Marks a node verified: reward `−∞`, state closed.
    pub fn close(&mut self, id: NodeId) {
        let node = &mut self.nodes[id.0];
        node.reward = f64::NEG_INFINITY;
        node.state = NodeState::Closed;
    }

    /// Depth of the deepest node ever created.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Checks the structural invariants of the tree, returning the first
    /// violation found. Used by tests and debug assertions; `None` means
    /// the tree is consistent.
    ///
    /// Invariants checked per node:
    /// * `subtree_size` equals `1 +` the children's sizes;
    /// * children are exactly one deeper than their parent;
    /// * an expanded node's reward is the maximum of its children's;
    /// * a node whose children are both closed is closed;
    /// * children record this node as parent.
    #[must_use]
    pub fn check_invariants(&self) -> Option<String> {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some((a, b)) = node.children {
                let (na, nb) = (&self.nodes[a.0], &self.nodes[b.0]);
                if node.subtree_size != 1 + na.subtree_size + nb.subtree_size {
                    return Some(format!(
                        "node {i}: size {} != 1 + {} + {}",
                        node.subtree_size, na.subtree_size, nb.subtree_size
                    ));
                }
                if na.depth != node.depth + 1 || nb.depth != node.depth + 1 {
                    return Some(format!("node {i}: child depth mismatch"));
                }
                if na.parent != Some(NodeId(i)) || nb.parent != Some(NodeId(i)) {
                    return Some(format!("node {i}: child parent link broken"));
                }
                let max_child = na.reward.max(nb.reward);
                // Rewards are only required to agree after back-propagation;
                // infinite rewards (terminal states) dominate correctly.
                if node.state != NodeState::Open && node.reward < max_child - 1e-12 {
                    return Some(format!(
                        "node {i}: reward {} below children max {max_child}",
                        node.reward
                    ));
                }
                if na.state == NodeState::Closed
                    && nb.state == NodeState::Closed
                    && node.state != NodeState::Closed
                {
                    return Some(format!("node {i}: both children closed but node open"));
                }
            } else if node.subtree_size != 1 {
                return Some(format!("leaf {i}: subtree size {} != 1", node.subtree_size));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_builds_split_sequences() {
        let mut tree = BabTree::new(-2.0);
        let n0 = NeuronId::new(0, 1);
        let (pos, neg) = tree.expand(NodeId::ROOT, n0, -1.0, -1.5);
        assert_eq!(tree.node(pos).splits.sign_of(n0), Some(SplitSign::Pos));
        assert_eq!(tree.node(neg).splits.sign_of(n0), Some(SplitSign::Neg));
        let n1 = NeuronId::new(1, 0);
        let (pp, _) = tree.expand(pos, n1, -0.2, -0.9);
        assert_eq!(tree.node(pp).depth, 2);
        assert_eq!(tree.node(pp).splits.len(), 2);
    }

    #[test]
    fn subtree_sizes_propagate_to_root() {
        let mut tree = BabTree::new(-2.0);
        let (pos, _) = tree.expand(NodeId::ROOT, NeuronId::new(0, 0), -1.0, -1.0);
        tree.expand(pos, NeuronId::new(0, 1), -0.5, -0.5);
        assert_eq!(tree.node(NodeId::ROOT).subtree_size, 5);
        assert_eq!(tree.node(pos).subtree_size, 3);
    }

    #[test]
    fn p_hat_min_tracks_most_negative() {
        let mut tree = BabTree::new(-2.0);
        assert_eq!(tree.p_hat_min(), -2.0);
        tree.expand(NodeId::ROOT, NeuronId::new(0, 0), -3.5, -0.1);
        assert_eq!(tree.p_hat_min(), -3.5);
        tree.observe_p_hat(-1.0);
        assert_eq!(tree.p_hat_min(), -3.5);
    }

    #[test]
    fn back_propagation_takes_max_and_closes() {
        let mut tree = BabTree::new(-2.0);
        let (pos, neg) = tree.expand(NodeId::ROOT, NeuronId::new(0, 0), -1.0, -1.0);
        tree.node_mut(pos).reward = 0.4;
        tree.node_mut(neg).reward = 0.7;
        tree.back_propagate(NodeId::ROOT);
        assert_eq!(tree.node(NodeId::ROOT).reward, 0.7);

        tree.close(pos);
        tree.close(neg);
        tree.back_propagate(NodeId::ROOT);
        assert_eq!(tree.node(NodeId::ROOT).state, NodeState::Closed);
        assert_eq!(tree.node(NodeId::ROOT).reward, f64::NEG_INFINITY);
    }

    #[test]
    fn infinite_reward_propagates_up() {
        let mut tree = BabTree::new(-2.0);
        let (pos, _) = tree.expand(NodeId::ROOT, NeuronId::new(0, 0), -1.0, -1.0);
        let (pp, _) = tree.expand(pos, NeuronId::new(0, 1), -0.5, -0.5);
        tree.node_mut(pp).reward = f64::INFINITY;
        tree.back_propagate(pos);
        assert_eq!(tree.node(NodeId::ROOT).reward, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "already expanded")]
    fn double_expansion_panics() {
        let mut tree = BabTree::new(-1.0);
        tree.expand(NodeId::ROOT, NeuronId::new(0, 0), -1.0, -1.0);
        tree.expand(NodeId::ROOT, NeuronId::new(0, 1), -1.0, -1.0);
    }

    #[test]
    fn invariants_hold_through_random_growth() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        runner
            .run(
                &proptest::collection::vec((0usize..64, -3.0..0.0_f64, -3.0..0.0_f64), 1..40),
                |ops| {
                    let mut tree = BabTree::new(-2.0);
                    let mut frontier = vec![NodeId::ROOT];
                    for (pick, pa, pb) in ops {
                        let node = frontier[pick % frontier.len()];
                        if tree.node(node).children.is_some() {
                            continue;
                        }
                        let neuron = NeuronId::new(0, tree.len());
                        let (a, b) = tree.expand(node, neuron, pa, pb);
                        tree.node_mut(a).reward = 0.5;
                        tree.node_mut(b).reward = 0.25;
                        tree.back_propagate(node);
                        frontier.push(a);
                        frontier.push(b);
                    }
                    prop_assert_eq!(tree.check_invariants(), None);
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn closing_all_leaves_closes_the_root() {
        let mut tree = BabTree::new(-1.0);
        let (a, b) = tree.expand(NodeId::ROOT, NeuronId::new(0, 0), -0.5, -0.5);
        let (aa, ab) = tree.expand(a, NeuronId::new(0, 1), -0.3, -0.3);
        for leaf in [aa, ab] {
            tree.close(leaf);
        }
        tree.back_propagate(a);
        assert_eq!(tree.node(a).state, NodeState::Closed);
        assert_eq!(tree.node(NodeId::ROOT).state, NodeState::Expanded);
        tree.close(b);
        tree.back_propagate(NodeId::ROOT);
        assert_eq!(tree.node(NodeId::ROOT).state, NodeState::Closed);
        assert_eq!(tree.check_invariants(), None);
    }

    #[test]
    fn max_depth_reflects_growth() {
        let mut tree = BabTree::new(-1.0);
        assert_eq!(tree.max_depth(), 0);
        let (pos, _) = tree.expand(NodeId::ROOT, NeuronId::new(0, 0), -1.0, -1.0);
        tree.expand(pos, NeuronId::new(0, 1), -1.0, -1.0);
        assert_eq!(tree.max_depth(), 2);
    }
}

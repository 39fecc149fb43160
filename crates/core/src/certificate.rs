//! Checkable verification certificates.
//!
//! A `Verified` verdict from branch and bound is a claim about an
//! exponentially large case split. This module makes the claim
//! *auditable*: every run of an engine returns the branch tree it built
//! as a [`Certificate`] (complete when verified, partial on timeout), and
//! an independent party re-establishes the result by walking the tree —
//! each [`ProofNode::Branch`] splits a ReLU into its two (exhaustive)
//! phases, and each [`ProofNode::Leaf`] must be verified by whatever sound
//! checker the auditor trusts. `abonn-check`'s `audit_certificate` is that
//! checker: it validates the recorded split sets as an exact partition of
//! the region and re-verifies every leaf with bounding code of its own.
//! This mirrors the proof-production efforts around VNN-COMP.

use abonn_bound::{NeuronId, SplitSign};
use serde::{Deserialize, Serialize};

/// One node of the proof tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProofNode {
    /// The sub-problem at this path is claimed verifiable by a single
    /// `AppVer` call. The leaf records its own split set (the emitting
    /// engine's provenance), so an auditor can validate the claimed
    /// region collection *flat*, without trusting the tree structure.
    Leaf {
        /// The split constraints identifying the leaf's sub-problem,
        /// sorted by `(layer, index)`.
        splits: Vec<(NeuronId, SplitSign)>,
    },
    /// The sub-problem at this path was still unresolved when the search
    /// stopped. Partial certificates returned on timeout contain these;
    /// they record an outstanding obligation and never pass a strict
    /// audit.
    Open {
        /// The split constraints identifying the unexplored sub-problem,
        /// sorted by `(layer, index)`.
        splits: Vec<(NeuronId, SplitSign)>,
    },
    /// Case split on one ReLU's phase.
    Branch {
        /// The split neuron.
        neuron: NeuronId,
        /// Subtree under `r⁺` (pre-activation ≥ 0).
        pos: Box<ProofNode>,
        /// Subtree under `r⁻` (pre-activation ≤ 0).
        neg: Box<ProofNode>,
    },
}

impl ProofNode {
    /// A verified leaf with its split-set provenance.
    #[must_use]
    pub fn leaf(splits: Vec<(NeuronId, SplitSign)>) -> Self {
        ProofNode::Leaf { splits }
    }

    /// The root leaf: the whole region verified in one call.
    #[must_use]
    pub fn root_leaf() -> Self {
        ProofNode::Leaf { splits: Vec::new() }
    }

    /// An open obligation with its split-set provenance.
    #[must_use]
    pub fn open(splits: Vec<(NeuronId, SplitSign)>) -> Self {
        ProofNode::Open { splits }
    }

    /// Number of verified leaves below this node (inclusive).
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        match self {
            ProofNode::Leaf { .. } => 1,
            ProofNode::Open { .. } => 0,
            ProofNode::Branch { pos, neg, .. } => pos.num_leaves() + neg.num_leaves(),
        }
    }

    /// Number of unresolved [`ProofNode::Open`] obligations (inclusive).
    #[must_use]
    pub fn num_open(&self) -> usize {
        match self {
            ProofNode::Leaf { .. } => 0,
            ProofNode::Open { .. } => 1,
            ProofNode::Branch { pos, neg, .. } => pos.num_open() + neg.num_open(),
        }
    }

    /// Height of the subtree (a leaf has depth 0).
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            ProofNode::Leaf { .. } | ProofNode::Open { .. } => 0,
            ProofNode::Branch { pos, neg, .. } => 1 + pos.depth().max(neg.depth()),
        }
    }

    /// Collects the recorded split sets of every terminal (leaf or open)
    /// node in depth-first `(pos, neg)` order, each tagged with whether
    /// the terminal is a verified leaf (`true`) or an open obligation
    /// (`false`).
    #[must_use]
    pub fn terminals(&self) -> Vec<(Vec<(NeuronId, SplitSign)>, bool)> {
        let mut out = Vec::new();
        self.collect_terminals(&mut out);
        out
    }

    fn collect_terminals(&self, out: &mut Vec<(Vec<(NeuronId, SplitSign)>, bool)>) {
        match self {
            ProofNode::Leaf { splits } => out.push((splits.clone(), true)),
            ProofNode::Open { splits } => out.push((splits.clone(), false)),
            ProofNode::Branch { pos, neg, .. } => {
                pos.collect_terminals(out);
                neg.collect_terminals(out);
            }
        }
    }
}

/// A verification certificate: the closed BaB branch tree.
///
/// Every engine returns one in
/// [`RunResult::certificate`](crate::RunResult::certificate);
/// `abonn_check::audit_certificate` checks it.
///
/// # Examples
///
/// ```
/// use abonn_core::{AbonnVerifier, Budget, RobustnessProblem, Verdict, Verifier};
/// use abonn_nn::{Layer, Network, Shape};
/// use abonn_tensor::Matrix;
///
/// let net = Network::new(
///     Shape::Flat(2),
///     vec![
///         Layer::dense(Matrix::from_rows(&[&[1.0, 1.0], &[-1.0, -1.0]]), vec![0.0, 0.4]),
///         Layer::relu(),
///         Layer::dense(Matrix::identity(2), vec![0.0, 0.0]),
///     ],
/// )?;
/// let problem = RobustnessProblem::new(&net, vec![0.5, 0.5], 0, 0.05)?;
/// let result = AbonnVerifier::default().verify(&problem, &Budget::with_appver_calls(200));
/// assert_eq!(result.verdict, Verdict::Verified);
/// let certificate = result.certificate.expect("verified runs produce certificates");
/// assert!(certificate.is_complete());
/// assert!(certificate.num_leaves() >= 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    root: ProofNode,
}

impl Certificate {
    /// Wraps a proof tree.
    #[must_use]
    pub fn new(root: ProofNode) -> Self {
        Self { root }
    }

    /// The proof tree.
    #[must_use]
    pub fn root(&self) -> &ProofNode {
        &self.root
    }

    /// Number of leaf obligations.
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        self.root.num_leaves()
    }

    /// Number of unresolved [`ProofNode::Open`] obligations.
    #[must_use]
    pub fn num_open(&self) -> usize {
        self.root.num_open()
    }

    /// Returns `true` when the proof tree has no [`ProofNode::Open`]
    /// obligation left — only complete certificates pass a strict audit.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.root.num_open() == 0
    }

    /// Height of the proof tree.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// The recorded split sets of every terminal node (see
    /// [`ProofNode::terminals`]): the flat region collection an
    /// independent auditor validates for exact coverage.
    #[must_use]
    pub fn terminals(&self) -> Vec<(Vec<(NeuronId, SplitSign)>, bool)> {
        self.root.terminals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_obligations_make_a_certificate_partial() {
        let n = NeuronId::new(0, 0);
        let cert = Certificate::new(ProofNode::Branch {
            neuron: n,
            pos: Box::new(ProofNode::leaf(vec![(n, SplitSign::Pos)])),
            neg: Box::new(ProofNode::open(vec![(n, SplitSign::Neg)])),
        });
        assert!(!cert.is_complete());
        assert_eq!(cert.num_open(), 1);
        assert_eq!(cert.num_leaves(), 1);
        let json = serde_json::to_string(&cert).unwrap();
        let back: Certificate = serde_json::from_str(&json).unwrap();
        assert_eq!(cert, back);
    }

    #[test]
    fn counts_terminals_and_serde_roundtrip() {
        let (a, b) = (NeuronId::new(0, 1), NeuronId::new(1, 0));
        let cert = Certificate::new(ProofNode::Branch {
            neuron: a,
            pos: Box::new(ProofNode::leaf(vec![(a, SplitSign::Pos)])),
            neg: Box::new(ProofNode::Branch {
                neuron: b,
                pos: Box::new(ProofNode::leaf(vec![
                    (a, SplitSign::Neg),
                    (b, SplitSign::Pos),
                ])),
                neg: Box::new(ProofNode::leaf(vec![
                    (a, SplitSign::Neg),
                    (b, SplitSign::Neg),
                ])),
            }),
        });
        assert_eq!(cert.num_leaves(), 3);
        assert_eq!(cert.depth(), 2);
        let terminals = cert.terminals();
        assert_eq!(terminals.len(), 3);
        assert!(terminals.iter().all(|(_, closed)| *closed));
        assert_eq!(terminals[0].0, vec![(a, SplitSign::Pos)]);
        let json = serde_json::to_string(&cert).unwrap();
        let back: Certificate = serde_json::from_str(&json).unwrap();
        assert_eq!(cert, back);
    }
}

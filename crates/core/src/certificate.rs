//! Checkable verification certificates.
//!
//! A `Verified` verdict from branch and bound is a claim about an
//! exponentially large case split. This module makes the claim
//! *auditable*: ABONN can export the branch tree it closed as a
//! [`Certificate`], and an independent party re-establishes the result by
//! walking the tree — each [`ProofNode::Branch`] splits a ReLU into its
//! two (exhaustive) phases, and each [`ProofNode::Leaf`] must be verified
//! by whatever sound `AppVer` the checker trusts. Coverage is guaranteed
//! structurally: `r⁺ ∪ r⁻` is the whole region, so only the leaf checks
//! need to be believed. This mirrors the proof-production efforts around
//! VNN-COMP.

use crate::spec::RobustnessProblem;
use abonn_bound::{AppVer, NeuronId, SplitSet, SplitSign};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

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
    /// stopped. Partial certificates exported on timeout contain these;
    /// they record an outstanding obligation and never check.
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
/// # Examples
///
/// ```
/// use abonn_core::{AbonnVerifier, Budget, RobustnessProblem};
/// use abonn_bound::{Cascade, AppVer};
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
/// let (result, certificate) =
///     AbonnVerifier::default().verify_with_certificate(&problem, &Budget::with_appver_calls(200));
/// let certificate = certificate.expect("verified runs produce certificates");
/// certificate.check(&problem, &Cascade::standard())?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    root: ProofNode,
}

/// Why a certificate failed to check.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// A leaf's sub-problem could not be verified by the checking
    /// verifier.
    LeafNotVerified {
        /// Path to the failing leaf as `(neuron, sign)` pairs.
        path: Vec<(NeuronId, SplitSign)>,
        /// The checker's `p̂` at the leaf.
        p_hat: f64,
    },
    /// A branch re-splits a neuron already fixed on its path.
    DuplicateSplit(NeuronId),
    /// The proof tree contains an unresolved [`ProofNode::Open`]
    /// obligation — a partial certificate from a timed-out run.
    IncompleteProof {
        /// Path to the open node as `(neuron, sign)` pairs.
        path: Vec<(NeuronId, SplitSign)>,
    },
    /// A terminal node's recorded split-set provenance disagrees with the
    /// branch path leading to it — the certificate was assembled
    /// inconsistently (or tampered with).
    SplitMismatch {
        /// Path to the terminal as `(neuron, sign)` pairs.
        path: Vec<(NeuronId, SplitSign)>,
        /// The split set the terminal itself recorded.
        recorded: Vec<(NeuronId, SplitSign)>,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::LeafNotVerified { path, p_hat } => {
                write!(
                    f,
                    "leaf at depth {} not verified (p_hat = {p_hat})",
                    path.len()
                )
            }
            CertificateError::DuplicateSplit(n) => {
                write!(f, "neuron {n} split twice on one path")
            }
            CertificateError::IncompleteProof { path } => {
                write!(
                    f,
                    "open proof obligation at depth {} (partial certificate)",
                    path.len()
                )
            }
            CertificateError::SplitMismatch { path, recorded } => {
                write!(
                    f,
                    "terminal at depth {} records {} splits disagreeing with its path",
                    path.len(),
                    recorded.len()
                )
            }
        }
    }
}

impl Error for CertificateError {}

/// Statistics from a successful [`Certificate::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckStats {
    /// Leaves re-verified.
    pub leaves: usize,
    /// Height of the proof tree.
    pub depth: usize,
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
    /// obligation left — only complete certificates can check.
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

    /// Re-establishes the `Verified` verdict: walks the tree and checks
    /// every leaf with `verifier`.
    ///
    /// Soundness of the conclusion only depends on the soundness of
    /// `verifier` — the branch structure covers the region by
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns [`CertificateError`] for an unverifiable leaf, a malformed
    /// path, or an unresolved [`ProofNode::Open`] obligation (partial
    /// certificates never check).
    pub fn check(
        &self,
        problem: &RobustnessProblem,
        verifier: &dyn AppVer,
    ) -> Result<CheckStats, CertificateError> {
        let mut leaves = 0usize;
        check_node(
            &self.root,
            problem,
            verifier,
            &SplitSet::new(),
            &mut Vec::new(),
            &mut leaves,
        )?;
        Ok(CheckStats {
            leaves,
            depth: self.depth(),
        })
    }
}

fn check_node(
    node: &ProofNode,
    problem: &RobustnessProblem,
    verifier: &dyn AppVer,
    splits: &SplitSet,
    path: &mut Vec<(NeuronId, SplitSign)>,
    leaves: &mut usize,
) -> Result<(), CertificateError> {
    match node {
        ProofNode::Leaf { splits: recorded } => {
            check_provenance(recorded, splits, path)?;
            let analysis = verifier.analyze(problem.margin_net(), problem.region(), splits);
            if !analysis.verified() {
                return Err(CertificateError::LeafNotVerified {
                    path: path.clone(),
                    p_hat: analysis.p_hat,
                });
            }
            *leaves += 1;
            Ok(())
        }
        ProofNode::Open { splits: recorded } => {
            check_provenance(recorded, splits, path)?;
            Err(CertificateError::IncompleteProof { path: path.clone() })
        }
        ProofNode::Branch { neuron, pos, neg } => {
            if splits.sign_of(*neuron).is_some() {
                return Err(CertificateError::DuplicateSplit(*neuron));
            }
            for (sign, child) in [(SplitSign::Pos, pos), (SplitSign::Neg, neg)] {
                path.push((*neuron, sign));
                check_node(
                    child,
                    problem,
                    verifier,
                    &splits.with(*neuron, sign),
                    path,
                    leaves,
                )?;
                path.pop();
            }
            Ok(())
        }
    }
}

/// Validates a terminal's recorded split-set provenance against the split
/// set accumulated along its branch path. Order-insensitive: the recorded
/// pairs are compared as a set.
fn check_provenance(
    recorded: &[(NeuronId, SplitSign)],
    splits: &SplitSet,
    path: &[(NeuronId, SplitSign)],
) -> Result<(), CertificateError> {
    let mut sorted: Vec<(NeuronId, SplitSign)> = recorded.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let from_path: Vec<(NeuronId, SplitSign)> = splits.iter().collect();
    if sorted != from_path {
        return Err(CertificateError::SplitMismatch {
            path: path.to_vec(),
            recorded: recorded.to_vec(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_bound::DeepPoly;
    use abonn_nn::{Layer, Network, Shape};
    use abonn_tensor::Matrix;

    fn robust_problem() -> RobustnessProblem {
        let net = Network::new(
            Shape::Flat(2),
            vec![
                Layer::dense(
                    Matrix::from_rows(&[&[1.0, 1.0], &[-1.0, -1.0]]),
                    vec![0.0, 0.4],
                ),
                Layer::relu(),
                Layer::dense(Matrix::identity(2), vec![0.0, 0.0]),
            ],
        )
        .unwrap();
        RobustnessProblem::new(&net, vec![0.5, 0.5], 0, 0.05).unwrap()
    }

    #[test]
    fn trivial_leaf_certificate_checks_on_robust_problem() {
        let problem = robust_problem();
        let cert = Certificate::new(ProofNode::root_leaf());
        let stats = cert.check(&problem, &DeepPoly::new()).unwrap();
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.depth, 0);
    }

    #[test]
    fn leaf_certificate_fails_on_unverifiable_problem() {
        // Radius large enough that a single DeepPoly call cannot verify.
        let net = robust_problem().network().clone();
        let problem = RobustnessProblem::new(&net, vec![0.5, 0.5], 0, 0.45).unwrap();
        let cert = Certificate::new(ProofNode::root_leaf());
        assert!(matches!(
            cert.check(&problem, &DeepPoly::new()),
            Err(CertificateError::LeafNotVerified { .. })
        ));
    }

    #[test]
    fn duplicate_split_is_rejected() {
        let problem = robust_problem();
        let n = NeuronId::new(0, 0);
        let inner = ProofNode::Branch {
            neuron: n,
            pos: Box::new(ProofNode::root_leaf()),
            neg: Box::new(ProofNode::root_leaf()),
        };
        let cert = Certificate::new(ProofNode::Branch {
            neuron: n,
            pos: Box::new(inner.clone()),
            neg: Box::new(inner),
        });
        assert_eq!(
            cert.check(&problem, &DeepPoly::new()),
            Err(CertificateError::DuplicateSplit(n))
        );
    }

    #[test]
    fn open_obligations_make_a_certificate_partial() {
        let problem = robust_problem();
        let n = NeuronId::new(0, 0);
        let cert = Certificate::new(ProofNode::Branch {
            neuron: n,
            pos: Box::new(ProofNode::leaf(vec![(n, SplitSign::Pos)])),
            neg: Box::new(ProofNode::open(vec![(n, SplitSign::Neg)])),
        });
        assert!(!cert.is_complete());
        assert_eq!(cert.num_open(), 1);
        assert_eq!(cert.num_leaves(), 1);
        assert!(matches!(
            cert.check(&problem, &DeepPoly::new()),
            Err(CertificateError::IncompleteProof { path }) if path.len() == 1
        ));
        let json = serde_json::to_string(&cert).unwrap();
        let back: Certificate = serde_json::from_str(&json).unwrap();
        assert_eq!(cert, back);
    }

    #[test]
    fn mismatched_provenance_is_rejected() {
        let problem = robust_problem();
        let n = NeuronId::new(0, 0);
        // The pos leaf records the *wrong* sign for its own path.
        let cert = Certificate::new(ProofNode::Branch {
            neuron: n,
            pos: Box::new(ProofNode::leaf(vec![(n, SplitSign::Neg)])),
            neg: Box::new(ProofNode::leaf(vec![(n, SplitSign::Neg)])),
        });
        assert!(matches!(
            cert.check(&problem, &DeepPoly::new()),
            Err(CertificateError::SplitMismatch { .. })
        ));
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

//! Certificate replay: structural validation plus independent leaf
//! re-verification.
//!
//! The auditor does **not** trust the proof tree's branch structure.
//! Every terminal ([`ProofNode::Leaf`] or [`ProofNode::Open`]) records
//! its own split set, and the audit validates the *flat collection* of
//! recorded sets: they must partition the root region exactly — no two
//! terminals may overlap, and no sub-region may be left uncovered. Only
//! then are the closed leaves re-verified with [`crate::leaf`]. The tree
//! walk is still performed, as a consistency check between recorded
//! provenance and branch paths (an inconsistency means the certificate
//! was assembled incorrectly or tampered with).

use crate::leaf::{check_leaf, LeafError, LeafStage};
use abonn_bound::{NeuronId, SplitSet, SplitSign};
use abonn_core::{Certificate, ProofNode, RobustnessProblem};

/// Why an audit rejected a certificate.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// A terminal's recorded split set disagrees with the branch path
    /// leading to it.
    SplitMismatch {
        /// Split set accumulated along the branch path.
        path: Vec<(NeuronId, SplitSign)>,
        /// Split set the terminal recorded.
        recorded: Vec<(NeuronId, SplitSign)>,
    },
    /// A branch re-splits a neuron already fixed on its path, or a
    /// recorded split set carries both phases of one neuron.
    DuplicateSplit {
        /// The twice-split neuron.
        neuron: NeuronId,
    },
    /// A split references a neuron the network does not have.
    InvalidNeuron {
        /// The out-of-range neuron.
        neuron: NeuronId,
    },
    /// Two terminals' recorded regions intersect.
    Overlap {
        /// Recorded split set of the first terminal.
        first: Vec<(NeuronId, SplitSign)>,
        /// Recorded split set of the second terminal.
        second: Vec<(NeuronId, SplitSign)>,
    },
    /// Some phase assignment is covered by no terminal.
    NonCovering {
        /// A split set describing an uncovered sub-region.
        region: Vec<(NeuronId, SplitSign)>,
    },
    /// A closed leaf failed independent re-verification.
    LeafNotVerified {
        /// The leaf's recorded split set.
        splits: Vec<(NeuronId, SplitSign)>,
        /// Best margin lower bound the checker established.
        margin: f64,
    },
    /// The certificate contains an open obligation but the audit required
    /// a complete proof.
    OpenObligation {
        /// The open terminal's recorded split set.
        splits: Vec<(NeuronId, SplitSign)>,
    },
    /// The LP solver failed while re-verifying a leaf.
    Solver(String),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::SplitMismatch { path, recorded } => write!(
                f,
                "terminal provenance ({} splits) disagrees with its branch path ({} splits)",
                recorded.len(),
                path.len()
            ),
            AuditError::DuplicateSplit { neuron } => {
                write!(f, "neuron {neuron} split twice")
            }
            AuditError::InvalidNeuron { neuron } => {
                write!(f, "split references nonexistent neuron {neuron}")
            }
            AuditError::Overlap { .. } => write!(f, "two terminal regions overlap"),
            AuditError::NonCovering { region } => {
                write!(f, "uncovered sub-region ({} splits)", region.len())
            }
            AuditError::LeafNotVerified { splits, margin } => write!(
                f,
                "leaf with {} splits not verified (margin bound {margin})",
                splits.len()
            ),
            AuditError::OpenObligation { splits } => write!(
                f,
                "open obligation with {} splits in a supposedly complete certificate",
                splits.len()
            ),
            AuditError::Solver(msg) => write!(f, "LP solver failure: {msg}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// Statistics from a successful audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Closed leaves re-verified (vacuous ones included).
    pub leaves: usize,
    /// Leaves whose split set empties the region (vacuously true).
    pub vacuous_leaves: usize,
    /// Open obligations encountered (only non-zero for partial audits).
    pub open: usize,
    /// Leaves certified by plain intervals.
    pub by_interval: usize,
    /// Leaves certified by back-substituted linear bounds.
    pub by_linear: usize,
    /// Leaves certified by the box LP.
    pub by_box_lp: usize,
    /// Leaves certified by the refined LP.
    pub by_refined_lp: usize,
    /// Total LP solves.
    pub lp_calls: usize,
}

/// Audits a certificate end to end, requiring a *complete* proof: any
/// [`ProofNode::Open`] obligation is an error.
///
/// # Errors
///
/// Any [`AuditError`]; see the variants.
pub fn audit_certificate(
    cert: &Certificate,
    problem: &RobustnessProblem,
) -> Result<AuditReport, AuditError> {
    audit(cert, problem, false)
}

/// Audits a *partial* certificate: open obligations are allowed (and
/// counted), but the terminal collection must still partition the region
/// exactly — the open terminals must cover precisely the unexplored
/// remainder — and every closed leaf must re-verify.
///
/// # Errors
///
/// Any [`AuditError`] except [`AuditError::OpenObligation`].
pub fn audit_partial(
    cert: &Certificate,
    problem: &RobustnessProblem,
) -> Result<AuditReport, AuditError> {
    audit(cert, problem, true)
}

/// What the structural half of an audit established.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructureReport {
    /// Closed terminals ([`ProofNode::Leaf`]) in the certificate.
    pub closed: usize,
    /// Open obligations ([`ProofNode::Open`]) in the certificate.
    pub open: usize,
}

/// Structural audit of a certificate *alone* — no network, no LP.
///
/// Validates everything that can be checked without a concrete problem:
/// recorded terminal provenance must agree with each branch path, no
/// neuron may be split twice, and the flat collection of recorded split
/// sets must partition the root region exactly. This is the cheap half
/// of [`audit_certificate`]; callers loading certificates from untrusted
/// or bit-rotted storage run it eagerly and defer the per-leaf
/// re-verification (which needs the model and property) to first reuse.
///
/// # Errors
///
/// Any structural [`AuditError`] (`SplitMismatch`, `DuplicateSplit`,
/// `Overlap`, `NonCovering`). Neuron range checks need the network and
/// are not performed here.
pub fn audit_structure(cert: &Certificate) -> Result<StructureReport, AuditError> {
    walk(cert.root(), &SplitSet::new(), None)?;
    let terminals = cert.terminals();
    let sets: Vec<Vec<(NeuronId, SplitSign)>> =
        terminals.iter().map(|(s, _)| normalize(s)).collect();
    exact_cover(&sets)?;
    let mut report = StructureReport::default();
    for (_, closed) in &terminals {
        if *closed {
            report.closed += 1;
        } else {
            report.open += 1;
        }
    }
    Ok(report)
}

fn audit(
    cert: &Certificate,
    problem: &RobustnessProblem,
    allow_open: bool,
) -> Result<AuditReport, AuditError> {
    let layer_sizes = problem.margin_net().relu_layer_sizes();
    // 1. Tree-walk consistency: paths vs recorded provenance, duplicate
    //    splits, neuron validity.
    walk(cert.root(), &SplitSet::new(), Some(&layer_sizes))?;
    // 2. The flat recorded collection partitions the region exactly.
    let terminals = cert.terminals();
    let sets: Vec<Vec<(NeuronId, SplitSign)>> =
        terminals.iter().map(|(s, _)| normalize(s)).collect();
    exact_cover(&sets)?;
    // 3. Open obligations.
    let mut report = AuditReport::default();
    for (splits, closed) in &terminals {
        if !closed {
            if !allow_open {
                return Err(AuditError::OpenObligation {
                    splits: splits.clone(),
                });
            }
            report.open += 1;
        }
    }
    // 4. Independent re-verification of every closed leaf, driven by the
    //    recorded provenance alone.
    for (splits, closed) in &terminals {
        if !closed {
            continue;
        }
        let mut set = SplitSet::new();
        for &(n, s) in splits {
            set = set.with(n, s);
        }
        match check_leaf(problem.margin_net(), problem.region(), &set) {
            Ok(outcome) => {
                report.leaves += 1;
                report.lp_calls += outcome.lp_calls;
                if outcome.vacuous {
                    report.vacuous_leaves += 1;
                } else {
                    match outcome.stage.expect("non-vacuous outcome has a stage") {
                        LeafStage::Interval => report.by_interval += 1,
                        LeafStage::Linear => report.by_linear += 1,
                        LeafStage::BoxLp => report.by_box_lp += 1,
                        LeafStage::RefinedLp => report.by_refined_lp += 1,
                    }
                }
            }
            Err(LeafError::NotVerified {
                margin,
                lp_calls: _,
            }) => {
                return Err(AuditError::LeafNotVerified {
                    splits: splits.clone(),
                    margin,
                });
            }
            Err(LeafError::Solver(msg)) => return Err(AuditError::Solver(msg)),
        }
    }
    Ok(report)
}

/// Recursive tree walk: rejects duplicate splits along a path, invalid
/// neurons, and terminals whose recorded provenance disagrees with the
/// path.
fn walk(
    node: &ProofNode,
    path: &SplitSet,
    layer_sizes: Option<&[usize]>,
) -> Result<(), AuditError> {
    match node {
        ProofNode::Leaf { splits } | ProofNode::Open { splits } => {
            for &(neuron, _) in splits {
                check_neuron(neuron, layer_sizes)?;
            }
            // `path` is a map, so it cannot hold two phases of one
            // neuron; equality therefore also rejects recorded sets that
            // constrain a neuron twice.
            let recorded = normalize(splits);
            let from_path: Vec<(NeuronId, SplitSign)> = path.iter().collect();
            if recorded != from_path {
                return Err(AuditError::SplitMismatch {
                    path: from_path,
                    recorded: splits.clone(),
                });
            }
            Ok(())
        }
        ProofNode::Branch { neuron, pos, neg } => {
            check_neuron(*neuron, layer_sizes)?;
            if path.sign_of(*neuron).is_some() {
                return Err(AuditError::DuplicateSplit { neuron: *neuron });
            }
            walk(pos, &path.with(*neuron, SplitSign::Pos), layer_sizes)?;
            walk(neg, &path.with(*neuron, SplitSign::Neg), layer_sizes)
        }
    }
}

fn check_neuron(neuron: NeuronId, layer_sizes: Option<&[usize]>) -> Result<(), AuditError> {
    let Some(layer_sizes) = layer_sizes else {
        // Structure-only audits have no network to range-check against.
        return Ok(());
    };
    if neuron.layer >= layer_sizes.len() || neuron.index >= layer_sizes[neuron.layer] {
        return Err(AuditError::InvalidNeuron { neuron });
    }
    Ok(())
}

/// Sorts a recorded split set by `(layer, index)` without deduplicating —
/// a duplicated pair or a both-phases pair must stay visible to the
/// duplicate check.
fn normalize(splits: &[(NeuronId, SplitSign)]) -> Vec<(NeuronId, SplitSign)> {
    let mut v = splits.to_vec();
    v.sort_unstable();
    v.dedup(); // identical (neuron, sign) pairs are harmless repetition
    v
}

/// Checks that the recorded split sets partition the phase space exactly.
///
/// Recursive refinement: pick a neuron from the first set, divide the
/// collection into the sets compatible with its positive and negative
/// phase (sets not constraining the neuron go to both sides), and recurse.
/// A branch with no set is uncovered; a set that becomes empty while
/// siblings remain covers their regions too — an overlap.
fn exact_cover(sets: &[Vec<(NeuronId, SplitSign)>]) -> Result<(), AuditError> {
    let indexed: Vec<(usize, Vec<(NeuronId, SplitSign)>)> =
        sets.iter().cloned().enumerate().collect();
    cover_rec(&indexed, sets, &mut Vec::new())
}

fn cover_rec(
    active: &[(usize, Vec<(NeuronId, SplitSign)>)],
    originals: &[Vec<(NeuronId, SplitSign)>],
    region: &mut Vec<(NeuronId, SplitSign)>,
) -> Result<(), AuditError> {
    match active {
        [] => Err(AuditError::NonCovering {
            region: region.clone(),
        }),
        [(_, rest)] if rest.is_empty() => Ok(()),
        _ => {
            // A set with no remaining constraint covers this whole
            // sub-region; any sibling therefore overlaps it.
            if let Some((covering, _)) = active.iter().find(|(_, rest)| rest.is_empty()) {
                let (other, _) = active
                    .iter()
                    .find(|(idx, _)| idx != covering)
                    .expect("len > 1");
                return Err(AuditError::Overlap {
                    first: originals[*covering].clone(),
                    second: originals[*other].clone(),
                });
            }
            let neuron = active[0].1[0].0;
            for phase in [SplitSign::Pos, SplitSign::Neg] {
                let side: Vec<(usize, Vec<(NeuronId, SplitSign)>)> = active
                    .iter()
                    .filter(|(_, rest)| {
                        !rest
                            .iter()
                            .any(|&(n, s)| n == neuron && s == phase.flipped())
                    })
                    .map(|(idx, rest)| {
                        (
                            *idx,
                            rest.iter().copied().filter(|&(n, _)| n != neuron).collect(),
                        )
                    })
                    .collect();
                region.push((neuron, phase));
                cover_rec(&side, originals, region)?;
                region.pop();
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn n(layer: usize, index: usize) -> NeuronId {
        NeuronId::new(layer, index)
    }

    #[test]
    fn trivial_root_leaf_certificate_audits() {
        let cert = Certificate::new(ProofNode::root_leaf());
        let report = audit_certificate(&cert, &robust_problem()).unwrap();
        assert_eq!(report.leaves, 1);
        assert_eq!(report.open, 0);
    }

    #[test]
    fn branching_certificate_audits() {
        let a = n(0, 0);
        let cert = Certificate::new(ProofNode::Branch {
            neuron: a,
            pos: Box::new(ProofNode::leaf(vec![(a, SplitSign::Pos)])),
            neg: Box::new(ProofNode::leaf(vec![(a, SplitSign::Neg)])),
        });
        let report = audit_certificate(&cert, &robust_problem()).unwrap();
        assert_eq!(report.leaves, 2);
    }

    #[test]
    fn flipped_split_phase_is_rejected() {
        // Corruption model from the acceptance criteria: the two leaves'
        // recorded phases are swapped relative to their branch paths.
        let a = n(0, 0);
        let cert = Certificate::new(ProofNode::Branch {
            neuron: a,
            pos: Box::new(ProofNode::leaf(vec![(a, SplitSign::Neg)])),
            neg: Box::new(ProofNode::leaf(vec![(a, SplitSign::Pos)])),
        });
        assert!(matches!(
            audit_certificate(&cert, &robust_problem()),
            Err(AuditError::SplitMismatch { .. })
        ));
    }

    #[test]
    fn overlapping_terminals_are_rejected() {
        // Both leaves record the Pos phase: the Pos region is covered
        // twice and the Neg region not at all; overlap is found first.
        let a = n(0, 0);
        let sets = vec![vec![(a, SplitSign::Pos)], vec![(a, SplitSign::Pos)]];
        assert!(matches!(
            exact_cover(&sets),
            Err(AuditError::Overlap { .. })
        ));
    }

    #[test]
    fn non_covering_terminals_are_rejected() {
        let (a, b) = (n(0, 0), n(0, 1));
        // Missing the (Neg, Neg) cell.
        let sets = vec![
            vec![(a, SplitSign::Pos)],
            vec![(a, SplitSign::Neg), (b, SplitSign::Pos)],
        ];
        match exact_cover(&sets) {
            Err(AuditError::NonCovering { region }) => {
                assert!(region.contains(&(a, SplitSign::Neg)));
                assert!(region.contains(&(b, SplitSign::Neg)));
            }
            other => panic!("expected NonCovering, got {other:?}"),
        }
    }

    #[test]
    fn deep_partitions_cover() {
        let (a, b, c) = (n(0, 0), n(0, 1), n(1, 0));
        let sets = vec![
            vec![(a, SplitSign::Pos)],
            vec![(a, SplitSign::Neg), (b, SplitSign::Pos)],
            vec![
                (a, SplitSign::Neg),
                (b, SplitSign::Neg),
                (c, SplitSign::Pos),
            ],
            vec![
                (a, SplitSign::Neg),
                (b, SplitSign::Neg),
                (c, SplitSign::Neg),
            ],
        ];
        exact_cover(&sets).unwrap();
    }

    #[test]
    fn open_obligations_fail_strict_and_pass_partial() {
        let a = n(0, 0);
        let cert = Certificate::new(ProofNode::Branch {
            neuron: a,
            pos: Box::new(ProofNode::leaf(vec![(a, SplitSign::Pos)])),
            neg: Box::new(ProofNode::open(vec![(a, SplitSign::Neg)])),
        });
        assert!(matches!(
            audit_certificate(&cert, &robust_problem()),
            Err(AuditError::OpenObligation { .. })
        ));
        let report = audit_partial(&cert, &robust_problem()).unwrap();
        assert_eq!(report.open, 1);
        assert_eq!(report.leaves, 1);
    }

    #[test]
    fn invalid_neuron_is_rejected() {
        let bogus = n(7, 0);
        let cert = Certificate::new(ProofNode::Branch {
            neuron: bogus,
            pos: Box::new(ProofNode::leaf(vec![(bogus, SplitSign::Pos)])),
            neg: Box::new(ProofNode::leaf(vec![(bogus, SplitSign::Neg)])),
        });
        assert!(matches!(
            audit_certificate(&cert, &robust_problem()),
            Err(AuditError::InvalidNeuron { .. })
        ));
    }

    #[test]
    fn structural_audit_needs_no_problem() {
        let a = n(0, 0);
        let good = Certificate::new(ProofNode::Branch {
            neuron: a,
            pos: Box::new(ProofNode::leaf(vec![(a, SplitSign::Pos)])),
            neg: Box::new(ProofNode::open(vec![(a, SplitSign::Neg)])),
        });
        let report = audit_structure(&good).unwrap();
        assert_eq!((report.closed, report.open), (1, 1));
        // Swapped phases: provenance disagrees with the path.
        let bad = Certificate::new(ProofNode::Branch {
            neuron: a,
            pos: Box::new(ProofNode::leaf(vec![(a, SplitSign::Neg)])),
            neg: Box::new(ProofNode::leaf(vec![(a, SplitSign::Pos)])),
        });
        assert!(matches!(
            audit_structure(&bad),
            Err(AuditError::SplitMismatch { .. })
        ));
        // A leaf beyond this tiny network's neurons still passes the
        // structural audit — range checks need the network.
        let out_of_range = Certificate::new(ProofNode::Branch {
            neuron: n(7, 0),
            pos: Box::new(ProofNode::leaf(vec![(n(7, 0), SplitSign::Pos)])),
            neg: Box::new(ProofNode::leaf(vec![(n(7, 0), SplitSign::Neg)])),
        });
        assert!(audit_structure(&out_of_range).is_ok());
        assert!(matches!(
            audit_certificate(&out_of_range, &robust_problem()),
            Err(AuditError::InvalidNeuron { .. })
        ));
    }

    #[test]
    fn unverifiable_leaf_is_rejected() {
        // Same network, radius far too large for a single-leaf proof.
        let net = robust_problem().network().clone();
        let problem = RobustnessProblem::new(&net, vec![0.5, 0.5], 0, 0.45).unwrap();
        let cert = Certificate::new(ProofNode::root_leaf());
        assert!(matches!(
            audit_certificate(&cert, &problem),
            Err(AuditError::LeafNotVerified { .. })
        ));
    }
}

//! End-to-end soundness-audit tests: partial certificates from timed-out
//! runs of all three engines must carry open obligations that exactly
//! cover the unexplored region, and corrupted certificates must be
//! rejected by the independent checker.

use abonn_repro::bound::{DeepPoly, NeuronId, SplitSign};
use abonn_repro::check::fuzz::{DenseSpec, NetSpec};
use abonn_repro::check::{audit_certificate, audit_partial, AuditError, AuditReport};
use abonn_repro::core::heuristics::HeuristicKind;
use abonn_repro::core::{
    AbonnVerifier, BabBaseline, Budget, Certificate, CrownStyle, ProofNode, RobustnessProblem,
    Verdict,
};
use std::sync::Arc;

/// The gate net: margin `x0 − 0.2·relu(x0+x1−1) − 0.2·relu(x0+x1−0.9)`
/// vs `x1`. Robust at `(0.8, 0.2)` with ε = 0.28, but the subtracted
/// unstable gates keep the one-shot relaxation loose, so every engine
/// must branch — partial certificates with open obligations appear at
/// small budgets.
fn gate_instance() -> RobustnessProblem {
    let spec = NetSpec {
        input_dim: 2,
        layers: vec![
            DenseSpec {
                weights: vec![
                    vec![1.0, 1.0],
                    vec![1.0, 1.0],
                    vec![1.0, 0.0],
                    vec![0.0, 1.0],
                ],
                bias: vec![-1.0, -0.9, 0.0, 0.0],
            },
            DenseSpec {
                weights: vec![vec![-0.2, -0.2, 1.0, 0.0], vec![0.0, 0.0, 0.0, 1.0]],
                bias: vec![0.0, 0.0],
            },
        ],
    };
    RobustnessProblem::new(&spec.build(), vec![0.8, 0.2], 0, 0.28).expect("valid instance")
}

/// Runs every engine at several tiny budgets; every `Timeout` must come
/// with a partial certificate whose open leaves pass the exact-cover
/// audit, and every `Verified` with a complete certificate that passes
/// the strict audit.
#[test]
fn timed_out_engines_emit_exactly_covering_open_obligations() {
    let problem = gate_instance();
    let mut timeouts_audited = 0usize;
    let mut open_obligations = 0usize;
    for calls in [1usize, 2, 3, 4, 5, 8, 120] {
        let budget = Budget::with_appver_calls(calls);
        let planet = || Arc::new(DeepPoly::planet());
        let runs = [
            (
                "abonn",
                AbonnVerifier::default().verify_with_certificate(&problem, &budget),
            ),
            (
                "bab",
                BabBaseline::new(HeuristicKind::DeepSplit, planet())
                    .verify_with_certificate(&problem, &budget),
            ),
            (
                "crown",
                CrownStyle::default().verify_with_certificate(&problem, &budget),
            ),
        ];
        for (name, (result, certificate)) in runs {
            match result.verdict {
                Verdict::Timeout => {
                    let cert = certificate
                        .unwrap_or_else(|| panic!("{name}@{calls}: timeout without certificate"));
                    let report = audit_partial(&cert, &problem).unwrap_or_else(|e| {
                        panic!("{name}@{calls}: partial certificate rejected: {e}")
                    });
                    assert!(
                        report.open >= 1,
                        "{name}@{calls}: timed out but recorded no open obligation"
                    );
                    timeouts_audited += 1;
                    open_obligations += report.open;
                }
                Verdict::Verified => {
                    let cert = certificate
                        .unwrap_or_else(|| panic!("{name}@{calls}: verified without certificate"));
                    audit_certificate(&cert, &problem)
                        .unwrap_or_else(|e| panic!("{name}@{calls}: certificate rejected: {e}"));
                }
                Verdict::Falsified(_) => {
                    panic!("{name}@{calls}: robust gate instance was falsified")
                }
            }
        }
    }
    assert!(
        timeouts_audited >= 3,
        "expected several timeouts at tiny budgets, audited {timeouts_audited}"
    );
    assert!(open_obligations >= timeouts_audited);
}

/// A partial certificate whose open obligation is rewritten to claim an
/// already-covered half-space leaves the true unexplored region
/// unaccounted for — the audit must reject it, not quietly accept the
/// remaining leaves.
#[test]
fn rewritten_open_obligation_is_rejected() {
    let problem = gate_instance();
    let g1 = NeuronId::new(0, 0); // gate x0 + x1 - 1
    let g2 = NeuronId::new(0, 1); // gate x0 + x1 - 0.9
                                  // Honest shape: the g1-positive side is fully split on g2 (one real
                                  // leaf, one empty since g1 ≥ 0 contradicts g2 ≤ 0); the g1-negative
                                  // side is still open.
    let pos_side = |s1: SplitSign| ProofNode::Branch {
        neuron: g2,
        pos: Box::new(ProofNode::leaf(vec![(g1, s1), (g2, SplitSign::Pos)])),
        neg: Box::new(ProofNode::leaf(vec![(g1, s1), (g2, SplitSign::Neg)])),
    };
    let honest = Certificate::new(ProofNode::Branch {
        neuron: g1,
        pos: Box::new(pos_side(SplitSign::Pos)),
        neg: Box::new(ProofNode::open(vec![(g1, SplitSign::Neg)])),
    });
    let report = audit_partial(&honest, &problem).expect("honest partial certificate checks");
    // Both closed leaves pass at the linear stage. The empty one is not
    // counted vacuous: its two same-layer gates are coupled only in an
    // LP, and its linear margin is already positive.
    assert_eq!(
        report,
        AuditReport {
            leaves: 2,
            open: 1,
            by_linear: 2,
            ..AuditReport::default()
        }
    );
    // Corrupted: the open node now claims the g1-positive half-space,
    // so the g1-negative region is covered by nothing.
    let corrupted = Certificate::new(ProofNode::Branch {
        neuron: g1,
        pos: Box::new(pos_side(SplitSign::Pos)),
        neg: Box::new(ProofNode::open(vec![(g1, SplitSign::Pos)])),
    });
    match audit_partial(&corrupted, &problem) {
        Err(
            AuditError::SplitMismatch { .. }
            | AuditError::NonCovering { .. }
            | AuditError::Overlap { .. },
        ) => {}
        other => panic!("expected rejection, got {other:?}"),
    }
}

/// An engine-emitted certificate, re-rooted with flipped split phases,
/// must be rejected end-to-end by the independent checker.
#[test]
fn flipped_phase_in_engine_certificate_is_rejected() {
    let problem = gate_instance();
    let (result, certificate) =
        AbonnVerifier::default().verify_with_certificate(&problem, &Budget::with_appver_calls(200));
    assert_eq!(result.verdict, Verdict::Verified, "gate instance verifies");
    let cert = certificate.expect("verified run emits a certificate");
    audit_certificate(&cert, &problem).expect("honest certificate checks");
    let flipped = Certificate::new(flip(cert.root()));
    let err =
        audit_certificate(&flipped, &problem).expect_err("flipped certificate must be rejected");
    assert!(
        matches!(err, AuditError::SplitMismatch { .. }),
        "expected a split mismatch, got {err:?}"
    );
}

/// Recursively flips every recorded split phase while leaving the tree
/// structure (and hence the branch path) untouched.
fn flip(node: &ProofNode) -> ProofNode {
    let flip_splits = |splits: &[(NeuronId, SplitSign)]| {
        splits
            .iter()
            .map(|&(n, s)| {
                let flipped = match s {
                    SplitSign::Pos => SplitSign::Neg,
                    SplitSign::Neg => SplitSign::Pos,
                };
                (n, flipped)
            })
            .collect::<Vec<_>>()
    };
    match node {
        ProofNode::Leaf { splits } => ProofNode::Leaf {
            splits: flip_splits(splits),
        },
        ProofNode::Open { splits } => ProofNode::Open {
            splits: flip_splits(splits),
        },
        ProofNode::Branch { neuron, pos, neg } => ProofNode::Branch {
            neuron: *neuron,
            pos: Box::new(flip(pos)),
            neg: Box::new(flip(neg)),
        },
    }
}

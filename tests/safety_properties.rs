//! General output-constraint (ACAS-Xu-style) properties through the full
//! verification stack.

use abonn_repro::bound::InputBox;
use abonn_repro::core::{
    AbonnVerifier, BabBaseline, Budget, CrownStyle, RobustnessProblem, Verdict, Verifier,
};
use abonn_repro::nn::{Layer, Network, Shape};
use abonn_repro::tensor::Matrix;

/// A fixed two-output network with one hidden ReLU layer:
/// y0 = relu(x0 − x1), y1 = relu(x1 − x0) − 0.1.
fn fixed_net() -> Network {
    Network::new(
        Shape::Flat(2),
        vec![
            Layer::dense(
                Matrix::from_rows(&[&[1.0, -1.0], &[-1.0, 1.0]]),
                vec![0.0, 0.0],
            ),
            Layer::relu(),
            Layer::dense(Matrix::identity(2), vec![0.0, -0.1]),
        ],
    )
    .unwrap()
}

#[test]
fn safety_property_verifies_on_a_safe_region() {
    let net = fixed_net();
    // On x0 in [0.6, 1.0], x1 in [0.0, 0.2]: y0 = x0 − x1 ≥ 0.4, so the
    // property y0 > 0.3 holds (margin row: y0 − 0.3 > 0).
    let region = InputBox::new(vec![0.6, 0.0], vec![1.0, 0.2]);
    let c = Matrix::from_rows(&[&[1.0, 0.0]]);
    let p = RobustnessProblem::from_output_constraints(&net, region, &c, &[-0.3]).unwrap();
    for verifier in [
        Box::new(AbonnVerifier::default()) as Box<dyn Verifier>,
        Box::new(BabBaseline::default()),
        Box::new(CrownStyle::default()),
    ] {
        let r = verifier.verify(&p, &Budget::with_appver_calls(500));
        assert_eq!(
            r.verdict,
            Verdict::Verified,
            "{} failed the safe property",
            verifier.name()
        );
    }
}

#[test]
fn safety_property_falsifies_with_a_margin_witness() {
    let net = fixed_net();
    // Same property on a region where y0 can be 0: x0 ≤ x1 somewhere.
    let region = InputBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
    let c = Matrix::from_rows(&[&[1.0, 0.0]]);
    let p = RobustnessProblem::from_output_constraints(&net, region, &c, &[-0.3]).unwrap();
    assert_eq!(p.label(), None, "safety properties carry no label");
    let r = AbonnVerifier::default().verify(&p, &Budget::with_appver_calls(500));
    match r.verdict {
        Verdict::Falsified(w) => {
            assert!(p.validate_witness(&w));
            // The witness must genuinely violate y0 > 0.3.
            let y = net.forward(&w);
            assert!(
                y[0] <= 0.3 + 1e-9,
                "witness does not violate: y0 = {}",
                y[0]
            );
        }
        v => panic!("expected falsification, got {v:?}"),
    }
}

#[test]
fn multi_row_safety_properties_conjoin() {
    let net = fixed_net();
    // Both outputs bounded above by 1.5 on the unit box:
    // rows: 1.5 − y0 > 0 and 1.5 − y1 > 0. True since y0, y1 ≤ 1.
    let region = InputBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
    let c = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
    let p = RobustnessProblem::from_output_constraints(&net, region, &c, &[1.5, 1.5]).unwrap();
    let r = BabBaseline::default().verify(&p, &Budget::with_appver_calls(500));
    assert_eq!(r.verdict, Verdict::Verified);
}

#[test]
fn crown_style_margin_attack_cracks_label_free_violations() {
    let net = fixed_net();
    // Violated safety property on the unit box (y0 > 0.3 fails near the
    // diagonal); CrownStyle has no label here, so its pre-attack must come
    // from margin-space PGD.
    let region = InputBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
    let c = Matrix::from_rows(&[&[1.0, 0.0]]);
    let p = RobustnessProblem::from_output_constraints(&net, region, &c, &[-0.3]).unwrap();
    let r = CrownStyle::default().verify(&p, &Budget::with_appver_calls(300));
    match r.verdict {
        Verdict::Falsified(w) => assert!(p.validate_witness(&w)),
        v => panic!("expected falsification via margin attack, got {v:?}"),
    }
}

#[test]
fn certificates_work_for_safety_properties_too() {
    let net = fixed_net();
    let region = InputBox::new(vec![0.6, 0.0], vec![1.0, 0.2]);
    let c = Matrix::from_rows(&[&[1.0, 0.0]]);
    let p = RobustnessProblem::from_output_constraints(&net, region, &c, &[-0.3]).unwrap();
    let (result, certificate) =
        AbonnVerifier::default().verify_with_certificate(&p, &Budget::with_appver_calls(500));
    assert_eq!(result.verdict, Verdict::Verified);
    let cert = certificate.expect("certificate for verified safety property");
    cert.check(&p, &abonn_repro::bound::Cascade::standard())
        .expect("safety certificate checks");
}

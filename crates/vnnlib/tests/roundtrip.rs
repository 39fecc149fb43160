//! Round-trip tests over the bundled benchmark suite: every instance's
//! property must survive `parse → write_property → parse` exactly, and
//! malformed inputs must come back as errors — never panics.

use abonn_data::zoo::ModelKind;
use abonn_data::{suite, SuiteConfig};
use abonn_vnnlib::{parse, write_property, write_robustness};

/// `parse(write_property(parse(text)))` must equal `parse(text)`: the
/// writer prints floats with Rust's shortest-round-trip formatting, so
/// not just semantics but the exact parsed representation is preserved.
fn assert_roundtrip(text: &str) {
    let first = parse(text).unwrap_or_else(|e| panic!("original does not parse: {e}"));
    let rewritten = write_property(&first);
    let second =
        parse(&rewritten).unwrap_or_else(|e| panic!("rewritten does not parse: {e}\n{rewritten}"));
    assert_eq!(first, second, "round-trip changed the property");
    // A second cycle must be a fixed point as well.
    let third = parse(&write_property(&second)).unwrap();
    assert_eq!(second, third, "second round-trip changed the property");
}

#[test]
fn suite_instances_roundtrip_for_every_model() {
    // Architecture-only networks: instance generation needs forward
    // passes and gradients, not trained accuracy, and the properties
    // depend only on (input, epsilon, label, classes).
    let mut checked = 0usize;
    for kind in ModelKind::ALL {
        let net = kind.architecture(7);
        let config = SuiteConfig {
            per_model: 4,
            seed: 2025,
        };
        for instance in suite::build_instances(kind, &net, &config) {
            let text = write_robustness(
                &instance.input,
                instance.epsilon,
                instance.label,
                net.output_dim(),
            );
            assert_roundtrip(&text);
            let property = parse(&text).unwrap();
            assert_eq!(property.num_inputs(), instance.input.len());
            let (label, adversarial) = property.as_robustness().expect("robustness shape");
            assert_eq!(label, instance.label);
            assert_eq!(adversarial.len(), net.output_dim() - 1);
            checked += 1;
        }
    }
    assert!(checked >= 5, "suite produced only {checked} instances");
}

#[test]
fn general_properties_roundtrip() {
    // Shapes beyond plain robustness: scaled coefficients, constants,
    // multi-atom conjunctions, empty violation region.
    for text in [
        "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(declare-const Y_1 Real)\n\
         (assert (>= X_0 0.1))\n(assert (<= X_0 0.9))\n\
         (assert (or (and (<= (+ Y_0 (* -2.5 Y_1)) 0.125) (>= Y_1 -3.0)) (and (<= Y_0 -1.0))))\n",
        "(declare-const X_0 Real)\n(declare-const X_1 Real)\n(declare-const Y_0 Real)\n\
         (assert (>= X_0 0.0))\n(assert (<= X_0 1.0))\n\
         (assert (>= X_1 -0.5))\n(assert (<= X_1 0.5))\n\
         (assert (or (and (>= Y_0 0.3333333333333333))))\n",
        "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n\
         (assert (>= X_0 0.25))\n(assert (<= X_0 0.75))\n",
    ] {
        assert_roundtrip(text);
    }
}

#[test]
fn awkward_floats_roundtrip_exactly() {
    // Shortest-representation printing must reproduce these bit-exactly.
    let inputs = [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 0.123_456_789_012_345_68];
    let text = write_robustness(&inputs.map(|v| v.clamp(0.0, 1.0)), 0.05, 1, 4);
    assert_roundtrip(&text);
}

#[test]
fn malformed_inputs_error_without_panicking() {
    let cases: &[(&str, &str)] = &[
        ("(assert", "unclosed paren"),
        ("(assert (>= X_0 0.1)))", "extra close paren"),
        ("(declare-const X_0 Real", "unclosed declaration"),
        ("(declare-const X_0)", "missing sort"),
        ("(declare-const Z_0 Real)", "unknown variable family"),
        (
            "(declare-const X_0 Real)\n(assert (>= X_1 0.0))",
            "undeclared input",
        ),
        (
            "(declare-const X_0 Real)\n(assert (>= X_0 banana))",
            "non-numeric literal",
        ),
        (
            "(declare-const X_0 Real)\n(assert (>= X_0))",
            "missing operand",
        ),
        (
            "(declare-const X_0 Real)\n(assert (?? X_0 0.0))",
            "unknown operator",
        ),
        (
            "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(assert (or (and)))\n",
            "empty conjunct",
        ),
        (
            "(declare-const X_0 Real)\n(assert (>= Y_0 0.0))",
            "undeclared output",
        ),
        ("\u{0}\u{1}\u{2}", "binary garbage"),
        ("(((((((((((", "deep unclosed nesting"),
        (")", "stray close paren"),
        ("(declare-const X_0 Real)", "declared input without a box"),
        ("(set-logic QF_LRA)", "unsupported command"),
    ];
    for (text, label) in cases {
        // A panic aborts the test; an Ok here would mean garbage silently
        // parsed into a property.
        assert!(parse(text).is_err(), "{label}: expected a parse error");
    }
}

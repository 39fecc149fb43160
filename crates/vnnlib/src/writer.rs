//! Emitting VNN-LIB properties.

use crate::property::{LinearTerm, OutputAtom, Property, Relation};
use std::fmt::Write as _;

/// Writes the standard local-robustness property for a reference input:
/// box `[xᵢ − ε, xᵢ + ε] ∩ [0, 1]` and violation `∃j ≠ label: Y_label ≤
/// Y_j`.
///
/// The output round-trips through [`crate::parse`] and
/// [`crate::Property::as_robustness`].
///
/// # Panics
///
/// Panics if `label >= num_classes` or `num_classes < 2`.
#[must_use]
pub fn write_robustness(input: &[f64], epsilon: f64, label: usize, num_classes: usize) -> String {
    assert!(num_classes >= 2, "need at least two classes");
    assert!(label < num_classes, "label out of range");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; local robustness: {} inputs, {num_classes} classes, label {label}, eps {epsilon}",
        input.len()
    );
    for i in 0..input.len() {
        let _ = writeln!(out, "(declare-const X_{i} Real)");
    }
    for j in 0..num_classes {
        let _ = writeln!(out, "(declare-const Y_{j} Real)");
    }
    for (i, &v) in input.iter().enumerate() {
        let lo = (v - epsilon).max(0.0);
        let hi = (v + epsilon).min(1.0);
        let _ = writeln!(out, "(assert (>= X_{i} {lo}))");
        let _ = writeln!(out, "(assert (<= X_{i} {hi}))");
    }
    let disjuncts: Vec<String> = (0..num_classes)
        .filter(|&j| j != label)
        .map(|j| format!("(and (<= Y_{label} Y_{j}))"))
        .collect();
    let _ = writeln!(out, "(assert (or {}))", disjuncts.join(" "));
    out
}

fn term_to_sexpr(t: &LinearTerm) -> String {
    let mut parts: Vec<String> = t
        .coeffs
        .iter()
        .map(|(&j, &c)| {
            if (c - 1.0).abs() < 1e-15 {
                format!("Y_{j}")
            } else {
                format!("(* {c} Y_{j})")
            }
        })
        .collect();
    if t.constant != 0.0 || parts.is_empty() {
        parts.push(format!("{}", t.constant));
    }
    match parts.len() {
        1 => parts.remove(0),
        _ => format!("(+ {})", parts.join(" ")),
    }
}

fn atom_to_sexpr(a: &OutputAtom) -> String {
    let rel = match a.rel {
        Relation::Le => "<=",
        Relation::Ge => ">=",
    };
    format!(
        "({rel} {} {})",
        term_to_sexpr(&a.lhs),
        term_to_sexpr(&a.rhs)
    )
}

/// Writes an arbitrary parsed [`Property`] back to VNN-LIB text.
///
/// The output round-trips through [`crate::parse`] to an equivalent
/// property (same box, same violation semantics).
///
/// # Examples
///
/// ```
/// use abonn_vnnlib::{parse, write_property, write_robustness};
///
/// let original = parse(&write_robustness(&[0.4], 0.1, 1, 3))?;
/// let rewritten = parse(&write_property(&original))?;
/// assert_eq!(original.input_lo, rewritten.input_lo);
/// assert_eq!(original.as_robustness(), rewritten.as_robustness());
/// # Ok::<(), abonn_vnnlib::ParseError>(())
/// ```
#[must_use]
pub fn write_property(p: &Property) -> String {
    let mut out = String::new();
    for i in 0..p.num_inputs() {
        let _ = writeln!(out, "(declare-const X_{i} Real)");
    }
    for j in 0..p.num_outputs {
        let _ = writeln!(out, "(declare-const Y_{j} Real)");
    }
    for (i, (&l, &h)) in p.input_lo.iter().zip(&p.input_hi).enumerate() {
        let _ = writeln!(out, "(assert (>= X_{i} {l}))");
        let _ = writeln!(out, "(assert (<= X_{i} {h}))");
    }
    if !p.violation.is_empty() {
        let disjuncts: Vec<String> = p
            .violation
            .iter()
            .map(|conj| {
                let atoms: Vec<String> = conj.iter().map(atom_to_sexpr).collect();
                format!("(and {})", atoms.join(" "))
            })
            .collect();
        let _ = writeln!(out, "(assert (or {}))", disjuncts.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use proptest::prelude::*;

    #[test]
    fn writer_output_parses_back() {
        let text = write_robustness(&[0.3, 0.7, 0.5], 0.1, 2, 4);
        let p = parse(&text).unwrap();
        assert_eq!(p.num_inputs(), 3);
        assert_eq!(p.num_outputs, 4);
        assert_eq!(p.as_robustness(), Some((2, vec![0, 1, 3])));
    }

    #[test]
    fn box_is_clamped_to_unit_range() {
        let text = write_robustness(&[0.02, 0.98], 0.1, 0, 2);
        let p = parse(&text).unwrap();
        assert_eq!(p.input_lo, vec![0.0, 0.88]);
        assert!((p.input_hi[0] - 0.12).abs() < 1e-12);
        assert_eq!(p.input_hi[1], 1.0);
    }

    #[test]
    fn general_property_roundtrip_preserves_semantics() {
        let text = "\
(declare-const X_0 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(assert (>= X_0 0.25))
(assert (<= X_0 0.75))
(assert (or (and (<= (+ Y_0 (* -2.0 Y_1)) 0.5) (>= Y_1 0.0)) (and (<= Y_0 -1.0))))
";
        let original = parse(text).unwrap();
        let rewritten = parse(&write_property(&original)).unwrap();
        assert_eq!(original.input_lo, rewritten.input_lo);
        assert_eq!(original.input_hi, rewritten.input_hi);
        for y in [
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![-2.0, -1.0],
            vec![0.4, 0.2],
            vec![3.0, 1.0],
        ] {
            assert_eq!(
                original.is_violation(&y),
                rewritten.is_violation(&y),
                "semantics differ at {y:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Round-trip invariant over random robustness specs.
        #[test]
        fn roundtrip(
            input in proptest::collection::vec(0.0..1.0_f64, 1..8),
            eps in 0.001..0.3_f64,
            label in 0usize..5,
            extra in 2usize..6,
        ) {
            let classes = label + extra;
            let text = write_robustness(&input, eps, label, classes);
            let p = parse(&text).unwrap();
            prop_assert_eq!(p.num_inputs(), input.len());
            let (got_label, adversarial) = p.as_robustness().expect("shape");
            prop_assert_eq!(got_label, label);
            prop_assert_eq!(adversarial.len(), classes - 1);
            for (i, &v) in input.iter().enumerate() {
                prop_assert!(p.input_lo[i] >= (v - eps).max(0.0) - 1e-9);
                prop_assert!(p.input_hi[i] <= (v + eps).min(1.0) + 1e-9);
            }
        }
    }
}

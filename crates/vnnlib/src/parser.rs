//! From s-expressions to a [`Property`].

use crate::property::{LinearTerm, OutputAtom, Property, Relation};
use crate::sexpr::{read_all, Sexpr, SexprError};
use std::fmt;

/// Error from [`parse`] / [`parse_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenizer/reader error.
    Syntax(SexprError),
    /// A structurally invalid or unsupported construct, with context.
    Unsupported(String),
    /// Input variables lack a finite box.
    IncompleteInputBox(usize),
    /// The wire bytes are not valid UTF-8 (byte offset of the defect).
    NotUtf8(usize),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(e) => write!(f, "syntax error {e}"),
            ParseError::Unsupported(msg) => write!(f, "unsupported construct: {msg}"),
            ParseError::IncompleteInputBox(i) => {
                write!(f, "input X_{i} is missing a lower or upper bound")
            }
            ParseError::NotUtf8(offset) => {
                write!(f, "property bytes are not valid UTF-8 at byte {offset}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<SexprError> for ParseError {
    fn from(e: SexprError) -> Self {
        ParseError::Syntax(e)
    }
}

/// A reference to a declared variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Var {
    Input(usize),
    Output(usize),
}

fn parse_var(name: &str) -> Option<Var> {
    if let Some(rest) = name.strip_prefix("X_") {
        rest.parse().ok().map(Var::Input)
    } else if let Some(rest) = name.strip_prefix("Y_") {
        rest.parse().ok().map(Var::Output)
    } else {
        None
    }
}

/// Linear expression over inputs OR outputs (mixing is unsupported, as in
/// practice properties never mix).
#[derive(Debug, Clone, PartialEq)]
enum Expr {
    OverInputs {
        /// Only single-input expressions are supported (box constraints).
        input: Option<usize>,
        coeff: f64,
        constant: f64,
    },
    OverOutputs(LinearTerm),
}

fn parse_number(a: &str) -> Option<f64> {
    a.parse::<f64>().ok()
}

fn parse_expr(e: &Sexpr) -> Result<Expr, ParseError> {
    match e {
        Sexpr::Atom(a) => {
            if let Some(v) = parse_var(a) {
                Ok(match v {
                    Var::Input(i) => Expr::OverInputs {
                        input: Some(i),
                        coeff: 1.0,
                        constant: 0.0,
                    },
                    Var::Output(j) => Expr::OverOutputs(LinearTerm::output(j)),
                })
            } else if let Some(c) = parse_number(a) {
                // A bare constant is usable on either side; default to an
                // input-expression carrier, converted on demand below.
                Ok(Expr::OverInputs {
                    input: None,
                    coeff: 0.0,
                    constant: c,
                })
            } else {
                Err(ParseError::Unsupported(format!("atom '{a}'")))
            }
        }
        Sexpr::List(items) => {
            let [Sexpr::Atom(op), rest @ ..] = items.as_slice() else {
                return Err(ParseError::Unsupported(format!("expression '{e}'")));
            };
            match op.as_str() {
                "+" | "-" => {
                    let mut terms = rest.iter().map(parse_expr);
                    let Some(first) = terms.next() else {
                        return Err(ParseError::Unsupported(format!("empty '{op}'")));
                    };
                    let mut acc = to_outputs(first?)?;
                    for t in terms {
                        let sign = if op == "-" { -1.0 } else { 1.0 };
                        acc.add_scaled(sign, &to_outputs(t?)?);
                    }
                    Ok(Expr::OverOutputs(acc))
                }
                "*" => {
                    let [a, b] = rest else {
                        return Err(ParseError::Unsupported("'*' arity".into()));
                    };
                    let (scalar, term) = match (parse_expr(a)?, parse_expr(b)?) {
                        (
                            Expr::OverInputs {
                                input: None,
                                constant,
                                ..
                            },
                            other,
                        ) => (constant, other),
                        (
                            other,
                            Expr::OverInputs {
                                input: None,
                                constant,
                                ..
                            },
                        ) => (constant, other),
                        _ => {
                            return Err(ParseError::Unsupported(
                                "'*' needs one constant operand".into(),
                            ))
                        }
                    };
                    let mut t = to_outputs(term)?;
                    t.scale(scalar);
                    Ok(Expr::OverOutputs(t))
                }
                _ => Err(ParseError::Unsupported(format!("operator '{op}'"))),
            }
        }
    }
}

/// Converts an expression to an output linear term; constants pass
/// through, single-input expressions are rejected (inputs only appear in
/// box constraints).
fn to_outputs(e: Expr) -> Result<LinearTerm, ParseError> {
    match e {
        Expr::OverOutputs(t) => Ok(t),
        Expr::OverInputs {
            input: None,
            constant,
            ..
        } => Ok(LinearTerm::constant(constant)),
        Expr::OverInputs { input: Some(i), .. } => Err(ParseError::Unsupported(format!(
            "input X_{i} inside an output constraint"
        ))),
    }
}

/// Parses the VNN-LIB subset into a [`Property`].
///
/// # Errors
///
/// Returns [`ParseError`] for syntax errors, constructs outside the
/// supported subset, or input variables without a complete box.
pub fn parse(text: &str) -> Result<Property, ParseError> {
    parse_checked(text)
}

/// Wire-level entry point: parses raw bytes as received from a client.
///
/// Every malformed input — invalid UTF-8, unbalanced or absurdly nested
/// parentheses, unsupported constructs, incomplete boxes — comes back as
/// a [`ParseError`]; no input can panic or overflow the stack.
///
/// # Errors
///
/// [`ParseError::NotUtf8`] for non-UTF-8 bytes, otherwise as [`parse`].
pub fn parse_bytes(bytes: &[u8]) -> Result<Property, ParseError> {
    let text = std::str::from_utf8(bytes).map_err(|e| ParseError::NotUtf8(e.valid_up_to()))?;
    parse_checked(text)
}

fn parse_checked(text: &str) -> Result<Property, ParseError> {
    let exprs = read_all(text)?;
    let mut n_inputs = 0usize;
    let mut n_outputs = 0usize;
    let mut lo: Vec<f64> = Vec::new();
    let mut hi: Vec<f64> = Vec::new();
    let mut violation: Vec<Vec<OutputAtom>> = Vec::new();

    for e in &exprs {
        let Sexpr::List(items) = e else {
            return Err(ParseError::Unsupported(format!("top-level atom '{e}'")));
        };
        match items.as_slice() {
            [Sexpr::Atom(kw), Sexpr::Atom(name), Sexpr::Atom(ty)] if kw == "declare-const" => {
                if ty != "Real" {
                    return Err(ParseError::Unsupported(format!("sort '{ty}'")));
                }
                match parse_var(name) {
                    Some(Var::Input(i)) => n_inputs = n_inputs.max(i + 1),
                    Some(Var::Output(j)) => n_outputs = n_outputs.max(j + 1),
                    None => return Err(ParseError::Unsupported(format!("variable '{name}'"))),
                }
            }
            [Sexpr::Atom(kw), body] if kw == "assert" => {
                lo.resize(n_inputs, f64::NEG_INFINITY);
                hi.resize(n_inputs, f64::INFINITY);
                parse_assert(body, &mut lo, &mut hi, &mut violation)?;
            }
            _ => return Err(ParseError::Unsupported(format!("command '{e}'"))),
        }
    }
    lo.resize(n_inputs, f64::NEG_INFINITY);
    hi.resize(n_inputs, f64::INFINITY);
    for (i, (l, h)) in lo.iter().zip(&hi).enumerate() {
        if !l.is_finite() || !h.is_finite() {
            return Err(ParseError::IncompleteInputBox(i));
        }
    }
    for atom in violation.iter().flatten() {
        for &j in atom.lhs.coeffs.keys().chain(atom.rhs.coeffs.keys()) {
            if j >= n_outputs {
                return Err(ParseError::Unsupported(format!("undeclared output Y_{j}")));
            }
        }
    }
    Ok(Property {
        input_lo: lo,
        input_hi: hi,
        num_outputs: n_outputs,
        violation,
    })
}

fn parse_assert(
    body: &Sexpr,
    lo: &mut [f64],
    hi: &mut [f64],
    violation: &mut Vec<Vec<OutputAtom>>,
) -> Result<(), ParseError> {
    let Sexpr::List(items) = body else {
        return Err(ParseError::Unsupported(format!("assert body '{body}'")));
    };
    let [Sexpr::Atom(op), rest @ ..] = items.as_slice() else {
        return Err(ParseError::Unsupported(format!("assert body '{body}'")));
    };
    match op.as_str() {
        "<=" | ">=" => {
            let [a, b] = rest else {
                return Err(ParseError::Unsupported(format!("'{op}' arity")));
            };
            let (ea, eb) = (parse_expr(a)?, parse_expr(b)?);
            // Input box constraint: X_i vs constant.
            if let (
                Expr::OverInputs {
                    input: Some(i),
                    coeff,
                    ..
                },
                Expr::OverInputs {
                    input: None,
                    constant,
                    ..
                },
            ) = (&ea, &eb)
            {
                debug_assert_eq!(*coeff, 1.0);
                let (Some(l), Some(h)) = (lo.get_mut(*i), hi.get_mut(*i)) else {
                    return Err(ParseError::Unsupported(format!("undeclared input X_{i}")));
                };
                if op == "<=" {
                    *h = h.min(*constant);
                } else {
                    *l = l.max(*constant);
                }
                return Ok(());
            }
            // Output atom: one top-level conjunct of a single atom.
            let atom = OutputAtom {
                lhs: to_outputs(ea)?,
                rel: if op == "<=" {
                    Relation::Le
                } else {
                    Relation::Ge
                },
                rhs: to_outputs(eb)?,
            };
            violation.push(vec![atom]);
            Ok(())
        }
        "or" => {
            for disjunct in rest {
                let conj = parse_conjunct(disjunct)?;
                violation.push(conj);
            }
            Ok(())
        }
        "and" => {
            violation.push(parse_conjunct(body)?);
            Ok(())
        }
        _ => Err(ParseError::Unsupported(format!("assert operator '{op}'"))),
    }
}

/// Parses `(and atom…)` or a bare atom into a conjunction of atoms.
fn parse_conjunct(e: &Sexpr) -> Result<Vec<OutputAtom>, ParseError> {
    let Sexpr::List(items) = e else {
        return Err(ParseError::Unsupported(format!("conjunct '{e}'")));
    };
    match items.as_slice() {
        // An empty `(and)` is vacuously true, which would mark the whole
        // input box as violated — reject it instead of mis-encoding it.
        [Sexpr::Atom(op)] if op == "and" => {
            Err(ParseError::Unsupported("empty conjunction '(and)'".into()))
        }
        [Sexpr::Atom(op), rest @ ..] if op == "and" => rest.iter().map(parse_atom).collect(),
        _ => Ok(vec![parse_atom(e)?]),
    }
}

fn parse_atom(e: &Sexpr) -> Result<OutputAtom, ParseError> {
    let Sexpr::List(items) = e else {
        return Err(ParseError::Unsupported(format!("atom '{e}'")));
    };
    let [Sexpr::Atom(op), a, b] = items.as_slice() else {
        return Err(ParseError::Unsupported(format!("atom '{e}'")));
    };
    let rel = match op.as_str() {
        "<=" => Relation::Le,
        ">=" => Relation::Ge,
        _ => return Err(ParseError::Unsupported(format!("relation '{op}'"))),
    };
    Ok(OutputAtom {
        lhs: to_outputs(parse_expr(a)?)?,
        rel,
        rhs: to_outputs(parse_expr(b)?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; local robustness, 2 inputs, 3 classes, label 1
(declare-const X_0 Real)
(declare-const X_1 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(declare-const Y_2 Real)
(assert (>= X_0 0.35))
(assert (<= X_0 0.45))
(assert (>= X_1 0.15))
(assert (<= X_1 0.25))
(assert (or (and (<= Y_1 Y_0)) (and (<= Y_1 Y_2))))
";

    #[test]
    fn parses_a_standard_robustness_property() {
        let p = parse(SAMPLE).unwrap();
        assert_eq!(p.num_inputs(), 2);
        assert_eq!(p.num_outputs, 3);
        assert_eq!(p.input_lo, vec![0.35, 0.15]);
        assert_eq!(p.input_hi, vec![0.45, 0.25]);
        assert_eq!(p.as_robustness(), Some((1, vec![0, 2])));
    }

    #[test]
    fn violation_region_matches_semantics() {
        let p = parse(SAMPLE).unwrap();
        assert!(p.is_violation(&[1.0, 0.5, 0.2])); // Y_0 beats Y_1
        assert!(!p.is_violation(&[0.1, 0.9, 0.3])); // Y_1 wins
    }

    #[test]
    fn missing_bound_is_an_error() {
        let text = "(declare-const X_0 Real)\n(assert (>= X_0 0.0))";
        assert_eq!(parse(text), Err(ParseError::IncompleteInputBox(0)));
    }

    #[test]
    fn arithmetic_in_output_atoms() {
        let text = "\
(declare-const X_0 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (<= (+ Y_0 (* -1.0 Y_1)) 0.5))
";
        let p = parse(text).unwrap();
        let atom = &p.violation[0][0];
        assert!(atom.holds(&[0.4, 0.0])); // 0.4 <= 0.5
        assert!(!atom.holds(&[1.0, 0.0])); // 1.0 > 0.5
    }

    #[test]
    fn unsupported_constructs_error_cleanly() {
        assert!(matches!(
            parse("(set-logic QF_LRA)"),
            Err(ParseError::Unsupported(_))
        ));
        assert!(matches!(
            parse("(declare-const Z_0 Real)"),
            Err(ParseError::Unsupported(_))
        ));
    }

    #[test]
    fn conjunctive_disjuncts_parse_and_evaluate() {
        let text = "\
(declare-const X_0 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(declare-const Y_2 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (or (and (<= Y_0 Y_1) (<= Y_0 Y_2)) (and (<= Y_0 -1.0))))
";
        let p = parse(text).unwrap();
        // Not single-atom disjuncts: no robustness shape.
        assert_eq!(p.as_robustness(), None);
        // But the violation semantics are exact.
        assert!(p.is_violation(&[0.0, 1.0, 1.0])); // both beat Y_0
        assert!(!p.is_violation(&[0.0, 1.0, -1.0])); // Y_2 does not
        assert!(p.is_violation(&[-2.0, -3.0, -3.0])); // Y_0 <= -1
    }

    #[test]
    fn undeclared_variables_error_instead_of_panicking() {
        // Input index past the declarations must not index out of bounds.
        let text = "(declare-const X_0 Real)\n(assert (>= X_1 0.0))";
        assert!(matches!(parse(text), Err(ParseError::Unsupported(_))));
        // Output index past the declarations is rejected too.
        let text = "\
(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (<= Y_0 Y_3))
";
        assert!(matches!(parse(text), Err(ParseError::Unsupported(_))));
    }

    #[test]
    fn empty_conjunction_is_rejected() {
        // `(and)` is vacuously true and would mark the whole box violated.
        let text = "\
(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (or (and)))
";
        assert!(matches!(parse(text), Err(ParseError::Unsupported(_))));
    }

    #[test]
    fn tighter_repeated_bounds_intersect() {
        let text = "\
(declare-const X_0 Real)
(assert (>= X_0 0.0))
(assert (>= X_0 0.2))
(assert (<= X_0 1.0))
(assert (<= X_0 0.8))
";
        let p = parse(text).unwrap();
        assert_eq!(p.input_lo, vec![0.2]);
        assert_eq!(p.input_hi, vec![0.8]);
    }
}

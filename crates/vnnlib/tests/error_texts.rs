//! The error text of every malformed property in a fixed corpus, as the
//! parser printed it when atoms were owned strings. Atoms now borrow from
//! the input; the texts, offsets included, must not move.

use abonn_vnnlib::parse_bytes;

/// `(input, the text parse_bytes gives for it)`.
fn corpus() -> Vec<(Vec<u8>, String)> {
    let texts: &[(&str, &str)] = &[
        // Unbalanced parentheses.
        (
            "(assert (<= X_0 1.0)",
            "syntax error at byte 0: unclosed '('",
        ),
        (
            "(declare-const X_0 Real))",
            "syntax error at byte 24: unexpected ')'",
        ),
        (")", "syntax error at byte 0: unexpected ')'"),
        ("((a)", "syntax error at byte 0: unclosed '('"),
        ("(a) (b", "syntax error at byte 4: unclosed '('"),
        (
            "; a comment (with parens)\n(declare-const X_0 Real)\n(assert (<= X_0 0.5)",
            "syntax error at byte 51: unclosed '('",
        ),
        (
            "(declare-const X_0 Real) ; (\n(assert (>= X_0 0.0)) )",
            "syntax error at byte 51: unexpected ')'",
        ),
        // Multi-byte characters: offsets count bytes, U+00A0 and U+2003
        // separate tokens.
        ("\u{00A0})", "syntax error at byte 2: unexpected ')'"),
        ("é)", "syntax error at byte 2: unexpected ')'"),
        (
            "(declare-const\u{00A0}X_0\u{00A0}Real)\n(assert (<= X_0 1.0))",
            "input X_0 is missing a lower or upper bound",
        ),
        (
            "(declare-const X_0 Real)\u{00A0}(assert\u{00A0}(>= X_0 0.0))\u{00A0}(",
            "syntax error at byte 50: unclosed '('",
        ),
        ("(π (é ß) \u{2003}", "syntax error at byte 0: unclosed '('"),
        (
            "(declare-const X_0 Réal)",
            "unsupported construct: sort 'Réal'",
        ),
        // Unsupported constructs whose message prints the expression.
        (
            "(set-logic QF_LRA)",
            "unsupported construct: command '(set-logic QF_LRA)'",
        ),
        ("foo", "unsupported construct: top-level atom 'foo'"),
        (
            "(declare-const X_0 Int)",
            "unsupported construct: sort 'Int'",
        ),
        (
            "(declare-const Z_0 Real)",
            "unsupported construct: variable 'Z_0'",
        ),
        (
            "(declare-const X_0 Real) (assert X_0)",
            "unsupported construct: assert body 'X_0'",
        ),
        (
            "(declare-const X_0 Real) (assert ((<= X_0 1)))",
            "unsupported construct: assert body '((<= X_0 1))'",
        ),
        (
            "(declare-const X_0 Real) (assert (foo (bar baz) 1))",
            "unsupported construct: assert operator 'foo'",
        ),
        (
            "(declare-const Y_0 Real) (assert (<= (max Y_0 1) 2))",
            "unsupported construct: operator 'max'",
        ),
        (
            "(declare-const Y_0 Real) (assert (<= ((a) b) 1))",
            "unsupported construct: expression '((a) b)'",
        ),
        (
            "(declare-const Y_0 Real) (assert (<= Y_0 bogus))",
            "unsupported construct: atom 'bogus'",
        ),
        (
            "(declare-const Y_0 Real) (assert (or (<= Y_0 1) foo))",
            "unsupported construct: conjunct 'foo'",
        ),
        (
            "(declare-const Y_0 Real) (assert (or (and (foo))))",
            "unsupported construct: atom '(foo)'",
        ),
        (
            "(declare-const Y_0 Real) (assert (or (and (< Y_0 1))))",
            "unsupported construct: relation '<'",
        ),
        (
            "(declare-const Y_0 Real) (assert (or (and)))",
            "unsupported construct: empty conjunction '(and)'",
        ),
        (
            "(declare-const Y_0 Real) (declare-const Y_1 Real) (assert (<= (* Y_0 Y_1) 1))",
            "unsupported construct: '*' needs one constant operand",
        ),
        (
            "(declare-const Y_0 Real) (assert (<= (*  Y_0) 1))",
            "unsupported construct: '*' arity",
        ),
        (
            "(declare-const Y_0 Real) (assert (<= (+) 1))",
            "unsupported construct: empty '+'",
        ),
        (
            "(declare-const X_0 Real) (declare-const Y_0 Real) (assert (<= Y_0 X_0))",
            "unsupported construct: input X_0 inside an output constraint",
        ),
        (
            "(declare-const X_0 Real) (assert (<= X_1 1))",
            "unsupported construct: undeclared input X_1",
        ),
        (
            "(declare-const X_0 Real) (declare-const Y_0 Real) (assert (>= X_0 0)) \
             (assert (<= X_0 1)) (assert (<= Y_0 Y_7))",
            "unsupported construct: undeclared output Y_7",
        ),
        (
            "(declare-const X_0 Real) (assert (>= X_0 0))",
            "input X_0 is missing a lower or upper bound",
        ),
        (
            "(declare-const X_0 Real) (assert (<= X_0 1 2))",
            "unsupported construct: '<=' arity",
        ),
        (
            "(declare-const X_0 Real) (assert)",
            "unsupported construct: command '(assert)'",
        ),
        (
            "(declare-const X_0 Real) (assert (<= X_0 1)) extra",
            "unsupported construct: top-level atom 'extra'",
        ),
        (
            "(declare-const X_0 Real Real)",
            "unsupported construct: command '(declare-const X_0 Real Real)'",
        ),
        (
            "(declare-const X_0 Real) (assert (>= X_0 0.0)) (assert (<= X_0 1e999999)) \
             (assert (or (and (<= Y_0 1e400))))",
            "input X_0 is missing a lower or upper bound",
        ),
        (
            "(declare-const X_0 Real) (declare-const Y_0 Real) (assert (>= X_0 0.0)) \
             (assert (<= X_0 1.0)) (assert (or (and (<= Y_0 -)) ))",
            "unsupported construct: atom '-'",
        ),
    ];
    let mut cases: Vec<(Vec<u8>, String)> = texts
        .iter()
        .map(|&(input, text)| (input.as_bytes().to_vec(), text.to_string()))
        .collect();
    // Nesting past the reader's cap, at it, and a flood of open lists.
    let nested = |depth: usize| format!("{}{}", "(".repeat(depth), ")".repeat(depth));
    let deeper = "syntax error at byte 200: nesting deeper than 200".to_string();
    cases.push((nested(201).into_bytes(), deeper.clone()));
    cases.push((
        format!("(assert {})", nested(200)).into_bytes(),
        "syntax error at byte 207: nesting deeper than 200".to_string(),
    ));
    cases.push((
        nested(200).into_bytes(),
        format!("unsupported construct: command '{}'", nested(200)),
    ));
    cases.push(("(".repeat(100_000).into_bytes(), deeper));
    cases.push((
        b")))".to_vec(),
        "syntax error at byte 0: unexpected ')'".to_string(),
    ));
    // Bytes that are not UTF-8.
    for (input, offset) in [
        (&b"(declare-const X_0 Real)\xff"[..], 24),
        (b"\xc3(", 0),
        (b"(declare-const X_0 Real) (assert (<= X_0 \xe2\x82))", 41),
        (b"(declare-const X_\xa0 Real)", 17),
    ] {
        cases.push((
            input.to_vec(),
            format!("property bytes are not valid UTF-8 at byte {offset}"),
        ));
    }
    cases
}

#[test]
fn malformed_properties_keep_their_error_texts() {
    for (input, text) in corpus() {
        let err = parse_bytes(&input).expect_err("a malformed property");
        assert_eq!(err.to_string(), text, "{}", String::from_utf8_lossy(&input));
    }
}

#[test]
fn blank_and_comment_only_properties_still_parse() {
    for input in ["", "   ; only a comment", "; a\n;b\n"] {
        let property = parse_bytes(input.as_bytes()).unwrap();
        assert_eq!(property.num_inputs(), 0);
    }
}

//! Regression tests for adversarial wire input.
//!
//! Each case is a minimized crasher (or near-miss) found by throwing
//! hostile byte strings at the query-level API: the contract is that
//! `parse_bytes` returns `Err` for every malformed input and never
//! panics, overflows the stack, or aborts.

use abonn_vnnlib::{parse, parse_bytes, ParseError, MAX_DEPTH};

#[test]
fn invalid_utf8_is_a_structured_error() {
    // Minimized: a lone continuation byte.
    assert!(matches!(parse_bytes(b"\x80"), Err(ParseError::NotUtf8(0))));
    // Truncated multi-byte sequence at the end of an otherwise-valid
    // property prefix.
    let mut bytes = b"(declare-const X_0 Real)".to_vec();
    bytes.push(0xC2);
    match parse_bytes(&bytes) {
        Err(ParseError::NotUtf8(off)) => assert_eq!(off, bytes.len() - 1),
        other => panic!("expected NotUtf8, got {other:?}"),
    }
    // Overlong/invalid sequences inside an atom.
    assert!(matches!(
        parse_bytes(b"(assert \xF5\x80\x80\x80)"),
        Err(ParseError::NotUtf8(_))
    ));
}

#[test]
fn deep_nesting_errors_instead_of_overflowing() {
    // Minimized from the reader's old recursive descent: one million
    // open parens used to abort with a stack overflow. The reader is
    // iterative now, and the depth cap also bounds every recursive
    // consumer downstream (Display, parse_expr, drop glue).
    let bomb = "(".repeat(1_000_000).into_bytes();
    assert!(matches!(parse_bytes(&bomb), Err(ParseError::Syntax(_))));

    // Balanced but too deep: same structured rejection.
    let deep = format!(
        "(assert {}Y_0{})",
        "(+ ".repeat(MAX_DEPTH),
        ")".repeat(MAX_DEPTH)
    );
    assert!(matches!(parse(&deep), Err(ParseError::Syntax(_))));
}

#[test]
fn multibyte_whitespace_does_not_panic_the_tokenizer() {
    // Minimized: U+00A0 directly after an atom character made the old
    // byte-based tokenizer slice mid-character and panic.
    assert!(parse_bytes("a\u{00A0}b".as_bytes()).is_err());
    // The same character inside an otherwise valid property is plain
    // whitespace and must parse.
    let text = "(declare-const X_0 Real)\n(assert (>=\u{00A0}X_0 0.0))\n(assert (<= X_0 1.0))";
    assert!(parse(text).is_ok());
}

#[test]
fn stray_tokens_and_truncations_error_cleanly() {
    for bad in [
        &b")"[..],
        b"(",
        b"(assert",
        b"(assert)",
        b"((((assert or and))))",
        b"(declare-const)",
        b"(declare-const X_0)",
        b"(declare-const X_0 Real extra)",
        b"(assert (<= ))",
        b"(assert (<= Y_0))",
        b"(assert (* Y_0 Y_1))",
    ] {
        let got = parse_bytes(bad);
        assert!(got.is_err(), "accepted {:?}", String::from_utf8_lossy(bad));
    }
}

#[test]
fn absurd_numerals_do_not_panic() {
    // Overflows to infinity: the box is then incomplete, not a crash.
    let text = "(declare-const X_0 Real)\n(assert (>= X_0 -1e999999))\n(assert (<= X_0 1e999999))";
    assert!(matches!(
        parse(text),
        Err(ParseError::IncompleteInputBox(0))
    ));
    // NaN-looking atoms are not numerals in this subset.
    assert!(parse("(assert (<= X_0 NaN))").is_err());
}

#[test]
fn empty_and_comment_only_inputs_parse_to_empty_properties() {
    let p = parse_bytes(b"").unwrap();
    assert_eq!(p.num_inputs(), 0);
    assert!(p.violation.is_empty());
    let p = parse("; nothing here\n; at all\n").unwrap();
    assert_eq!(p.num_inputs(), 0);
}

#[test]
fn giant_flat_input_is_linear_not_quadratic() {
    // The old reader removed tokens from the front of a Vec (O(n²));
    // 200k flat atoms now parse (to an error — stray atoms) instantly.
    let flat = "x ".repeat(200_000);
    assert!(parse(&flat).is_err());
}

#[test]
fn contradictory_bounds_yield_an_empty_but_parseable_box() {
    // Parsing succeeds (the box is syntactically complete); rejecting
    // the empty region is the spec layer's job, and it must do so
    // without panicking (covered in abonn-core's tests).
    let text = "(declare-const X_0 Real)\n(assert (>= X_0 0.9))\n(assert (<= X_0 0.1))";
    let p = parse(text).unwrap();
    assert!(p.input_lo[0] > p.input_hi[0]);
}

//! Minimal s-expression tokenizer and reader.
//!
//! Both stages are wire-hardened: the tokenizer walks characters (never
//! slicing inside a multi-byte UTF-8 sequence), and the reader is
//! iterative with an explicit nesting cap, so adversarial input of any
//! size or depth yields a [`SexprError`] instead of a panic or a stack
//! overflow (reading, printing, and dropping a tree all recurse at most
//! [`MAX_DEPTH`] frames).
//!
//! Nothing is copied per token: an atom borrows its text from the input,
//! and a parenthesis is a token kind, not a string. The only allocations
//! are the lists themselves.

use std::fmt;
use std::iter::Peekable;
use std::str::CharIndices;

/// Maximum list-nesting depth accepted by `read_all`.
///
/// Real VNN-LIB properties nest a handful of levels
/// (`assert`/`or`/`and`/arithmetic); the cap exists so downstream
/// recursive consumers (display, parsing, drop glue) are bounded even on
/// adversarial input.
pub const MAX_DEPTH: usize = 200;

/// An s-expression: an atom or a parenthesised list.
#[derive(Debug, Clone, PartialEq)]
pub enum Sexpr<'a> {
    /// A bare token (symbol or numeral), as it appears in the input.
    Atom(&'a str),
    /// A `( … )` list.
    List(Vec<Sexpr<'a>>),
}

impl fmt::Display for Sexpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sexpr::Atom(a) => f.write_str(a),
            Sexpr::List(items) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Error position and message from [`read_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SexprError {
    /// Byte offset in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SexprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SexprError {}

/// Reads every top-level s-expression in `text`. `;` starts a comment
/// running to the end of the line.
///
/// # Errors
///
/// Returns [`SexprError`] on unbalanced parentheses, stray tokens, or
/// nesting deeper than [`MAX_DEPTH`].
pub fn read_all(text: &str) -> Result<Vec<Sexpr<'_>>, SexprError> {
    let mut top = Vec::new();
    // Explicit stack of open lists: (offset of the '(', items so far).
    let mut stack: Vec<(usize, Vec<Sexpr<'_>>)> = Vec::new();
    for (offset, token) in Tokens::new(text) {
        match token {
            Token::Open => {
                if stack.len() >= MAX_DEPTH {
                    return Err(SexprError {
                        offset,
                        message: format!("nesting deeper than {MAX_DEPTH}"),
                    });
                }
                stack.push((offset, Vec::new()));
            }
            Token::Close => {
                let Some((_, items)) = stack.pop() else {
                    return Err(SexprError {
                        offset,
                        message: "unexpected ')'".into(),
                    });
                };
                let list = Sexpr::List(items);
                match stack.last_mut() {
                    Some((_, parent)) => parent.push(list),
                    None => top.push(list),
                }
            }
            Token::Atom(atom) => {
                let atom = Sexpr::Atom(atom);
                match stack.last_mut() {
                    Some((_, items)) => items.push(atom),
                    None => top.push(atom),
                }
            }
        }
    }
    if let Some(&(offset, _)) = stack.last() {
        return Err(SexprError {
            offset,
            message: "unclosed '('".into(),
        });
    }
    Ok(top)
}

/// A token of the input.
enum Token<'a> {
    /// `(`.
    Open,
    /// `)`.
    Close,
    /// A maximal run of characters other than whitespace, parentheses
    /// and `;`.
    Atom(&'a str),
}

/// Character-based tokenizer yielding each token with the byte offset it
/// starts at: offsets index bytes, but scanning advances whole
/// characters so atom slices always land on UTF-8 boundaries.
struct Tokens<'a> {
    text: &'a str,
    chars: Peekable<CharIndices<'a>>,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            chars: text.char_indices().peekable(),
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = (usize, Token<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(&(i, c)) = self.chars.peek() {
            match c {
                ';' => {
                    for (_, c) in self.chars.by_ref() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                '(' | ')' => {
                    self.chars.next();
                    let token = if c == '(' { Token::Open } else { Token::Close };
                    return Some((i, token));
                }
                c if c.is_whitespace() => {
                    self.chars.next();
                }
                _ => {
                    let mut end = self.text.len();
                    while let Some(&(j, c)) = self.chars.peek() {
                        if c.is_whitespace() || c == '(' || c == ')' || c == ';' {
                            end = j;
                            break;
                        }
                        self.chars.next();
                    }
                    #[expect(
                        clippy::string_slice,
                        reason = "i and end both come from char_indices of this very str (or are \
                                  its length) so the slice bounds sit on char boundaries"
                    )]
                    return Some((i, Token::Atom(&self.text[i..end])));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_lists() {
        let out = read_all("(a (b c) d)").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_string(), "(a (b c) d)");
    }

    #[test]
    fn comments_are_skipped() {
        let out = read_all("; header\n(x) ; trailing\n(y)").unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unbalanced_parens_error() {
        assert!(read_all("(a (b)").is_err());
        assert!(read_all("a)").is_err());
    }

    #[test]
    fn multiple_top_level_atoms() {
        let out = read_all("a b 1.5").unwrap();
        assert_eq!(
            out,
            vec![Sexpr::Atom("a"), Sexpr::Atom("b"), Sexpr::Atom("1.5")]
        );
    }

    #[test]
    fn nesting_is_capped_not_crashed() {
        // Far past any stack limit if the reader recursed.
        let deep = "(".repeat(1_000_000);
        let err = read_all(&deep).unwrap_err();
        assert!(err.message.contains("deeper than"), "{err}");
        // Exactly at the cap still reads.
        let ok = format!("{}{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert!(read_all(&ok).is_ok());
        let over = format!("{}{}", "(".repeat(MAX_DEPTH + 1), ")".repeat(MAX_DEPTH + 1));
        assert!(read_all(&over).is_err());
    }

    #[test]
    fn multibyte_whitespace_does_not_split_mid_character() {
        // U+00A0 (no-break space) is whitespace but two bytes in UTF-8;
        // the old byte-based scanner sliced inside it and panicked.
        let out = read_all("a\u{00A0}b").unwrap();
        assert_eq!(out, vec![Sexpr::Atom("a"), Sexpr::Atom("b")]);
        // Multi-byte symbol characters survive as atoms.
        let out = read_all("(é π)").unwrap();
        assert_eq!(out[0].to_string(), "(é π)");
    }

    #[test]
    fn atom_at_end_of_input_is_complete() {
        let out = read_all("abc").unwrap();
        assert_eq!(out, vec![Sexpr::Atom("abc")]);
    }
}

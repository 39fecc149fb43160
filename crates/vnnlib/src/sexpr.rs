//! Minimal s-expression tokenizer and reader.
//!
//! Both stages are wire-hardened: the tokenizer walks characters (never
//! slicing inside a multi-byte UTF-8 sequence), and the reader is
//! iterative with an explicit nesting cap, so adversarial input of any
//! size or depth yields a [`SexprError`] instead of a panic or a stack
//! overflow (reading, printing, and dropping a tree all recurse at most
//! [`MAX_DEPTH`] frames).

use std::fmt;

/// Maximum list-nesting depth accepted by `read_all`.
///
/// Real VNN-LIB properties nest a handful of levels
/// (`assert`/`or`/`and`/arithmetic); the cap exists so downstream
/// recursive consumers (display, parsing, drop glue) are bounded even on
/// adversarial input.
pub const MAX_DEPTH: usize = 200;

/// An s-expression: an atom or a parenthesised list.
#[derive(Debug, Clone, PartialEq)]
pub enum Sexpr {
    /// A bare token (symbol or numeral).
    Atom(String),
    /// A `( … )` list.
    List(Vec<Sexpr>),
}

impl fmt::Display for Sexpr {
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
pub fn read_all(text: &str) -> Result<Vec<Sexpr>, SexprError> {
    let tokens = tokenize(text);
    let mut top = Vec::new();
    // Explicit stack of open lists: (offset of the '(', items so far).
    let mut stack: Vec<(usize, Vec<Sexpr>)> = Vec::new();
    for (offset, tok) in tokens {
        match tok.as_str() {
            "(" => {
                if stack.len() >= MAX_DEPTH {
                    return Err(SexprError {
                        offset,
                        message: format!("nesting deeper than {MAX_DEPTH}"),
                    });
                }
                stack.push((offset, Vec::new()));
            }
            ")" => {
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
            _ => {
                let atom = Sexpr::Atom(tok);
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

/// Character-based tokenizer: offsets index bytes, but scanning advances
/// whole characters so atom slices always land on UTF-8 boundaries.
fn tokenize(text: &str) -> Vec<(usize, String)> {
    let mut tokens = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            ';' => {
                for (_, c) in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            '(' | ')' => {
                tokens.push((i, c.to_string()));
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let start = i;
                let mut end = text.len();
                while let Some(&(j, c)) = chars.peek() {
                    if c.is_whitespace() || c == '(' || c == ')' || c == ';' {
                        end = j;
                        break;
                    }
                    chars.next();
                }
                if chars.peek().is_none() {
                    end = text.len();
                }
                #[expect(
                    clippy::string_slice,
                    reason = "start and end both come from char_indices of this very str so the \
                              slice bounds sit on char boundaries"
                )]
                tokens.push((start, text[start..end].to_string()));
            }
        }
    }
    tokens
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
            vec![
                Sexpr::Atom("a".into()),
                Sexpr::Atom("b".into()),
                Sexpr::Atom("1.5".into())
            ]
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
        assert_eq!(out, vec![Sexpr::Atom("a".into()), Sexpr::Atom("b".into())]);
        // Multi-byte symbol characters survive as atoms.
        let out = read_all("(é π)").unwrap();
        assert_eq!(out[0].to_string(), "(é π)");
    }

    #[test]
    fn atom_at_end_of_input_is_complete() {
        let out = read_all("abc").unwrap();
        assert_eq!(out, vec![Sexpr::Atom("abc".into())]);
    }
}

//! A line-oriented Rust lexer that separates *code* from *comments* and
//! blanks out string/char-literal contents.
//!
//! The rule engine must not fire on `"Ordering::Relaxed"` inside a
//! string literal or on an API mentioned in a doc comment, and it must
//! find `// lint: allow(...)` markers even when they share a line with
//! code. This module does exactly that split and nothing more:
//! it is not a parser, and it only needs to classify bytes, so the whole
//! grammar it understands is
//!
//! * `//` line comments,
//! * `/* ... */` block comments (nested, possibly multi-line),
//! * `"..."` and `b"..."` string literals (escapes, possibly multi-line),
//! * `r"..."`/`r#"..."#`/`br#"..."#` raw strings (any hash count),
//! * `'x'`/`'\n'` char literals vs `'lifetime` annotations.
//!
//! Everything else is code. Literal *contents* are replaced by spaces
//! (the delimiters survive) so token boundaries and column positions are
//! preserved; comment *text* is collected per line for the marker scans.

/// One source line, split into its code part and its comment text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceLine {
    /// The line with comments removed and literal contents blanked.
    pub code: String,
    /// Concatenated text of every comment (segment) on the line.
    pub comment: String,
}

impl SourceLine {
    /// Returns `true` when the line has any non-whitespace code.
    #[must_use]
    pub fn has_code(&self) -> bool {
        !self.code.trim().is_empty()
    }
}

/// Lexer state carried across lines.
enum State {
    Code,
    BlockComment { depth: usize },
    Str { raw_hashes: Option<usize> },
}

/// Splits `text` into classified lines.
#[must_use]
pub fn classify(text: &str) -> Vec<SourceLine> {
    let mut out = Vec::new();
    let mut state = State::Code;
    for line in text.split('\n') {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < chars.len() {
            match state {
                State::BlockComment { ref mut depth } => {
                    // Comment bytes become spaces in `code` so columns stay
                    // stable and tokens on either side never merge.
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        *depth += 1;
                        comment.push_str("/*");
                        code.push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        *depth -= 1;
                        code.push_str("  ");
                        i += 2;
                        if *depth == 0 {
                            state = State::Code;
                        }
                    } else {
                        comment.push(chars[i]);
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Str { raw_hashes } => match raw_hashes {
                    None => {
                        if chars[i] == '\\' {
                            code.push_str("  ");
                            i += 2;
                        } else if chars[i] == '"' {
                            code.push('"');
                            i += 1;
                            state = State::Code;
                        } else {
                            code.push(' ');
                            i += 1;
                        }
                    }
                    Some(h) => {
                        if chars[i] == '"' && closes_raw(&chars, i, h) {
                            code.push('"');
                            for _ in 0..h {
                                code.push('#');
                            }
                            i += 1 + h;
                            state = State::Code;
                        } else {
                            code.push(' ');
                            i += 1;
                        }
                    }
                },
                State::Code => {
                    let c = chars[i];
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        comment.push_str(&chars[i + 2..].iter().collect::<String>());
                        i = chars.len();
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::BlockComment { depth: 1 };
                        code.push_str("  ");
                        i += 2;
                    } else if let Some((prefix, h)) = raw_string_open(&chars, i) {
                        // `r"`, `r#"`, `br##"`, ... — push the prefix as
                        // code so boundaries survive, blank the contents.
                        for j in 0..prefix {
                            code.push(chars[i + j]);
                        }
                        code.push('"');
                        i += prefix + 1;
                        state = State::Str {
                            raw_hashes: Some(h),
                        };
                    } else if c == '"' {
                        code.push('"');
                        i += 1;
                        state = State::Str { raw_hashes: None };
                    } else if c == '\'' {
                        i = lex_quote(&chars, i, &mut code);
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        // A line consumed entirely by a block comment still needs its
        // indentation represented so `has_code` stays meaningful.
        out.push(SourceLine { code, comment });
    }
    out
}

/// Does `chars[i] == '"'` close a raw string with `hashes` trailing `#`s?
fn closes_raw(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If a raw (byte) string literal opens at `i`, returns the length of
/// the prefix before the opening quote and the hash count.
///
/// Requires the previous char to not be part of an identifier, so
/// `catch_r"..."` (invalid Rust anyway) is not misread.
fn raw_string_open(chars: &[char], i: usize) -> Option<(usize, usize)> {
    if i > 0 && is_ident(chars[i - 1]) {
        return None;
    }
    if chars.get(i) != Some(&'b') && chars.get(i) != Some(&'r') {
        return None;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((j - i, hashes))
    } else {
        None
    }
}

/// Lexes a `'` at position `i`: either a char literal (contents blanked)
/// or a lifetime tick (kept as code). Returns the next index.
fn lex_quote(chars: &[char], i: usize, code: &mut String) -> usize {
    // `'\...'` is always a char literal.
    if chars.get(i + 1) == Some(&'\\') {
        code.push('\'');
        let mut j = i + 2;
        while j < chars.len() && chars[j] != '\'' {
            code.push(' ');
            j += 1;
        }
        code.push(' ');
        code.push('\'');
        return (j + 1).min(chars.len());
    }
    // `'x'` (any single char, including `'`-adjacent digits) is a char
    // literal; `'ident` with no closing quote right after is a lifetime.
    if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1).is_some() {
        code.push('\'');
        code.push(' ');
        code.push('\'');
        return i + 3;
    }
    code.push('\'');
    i + 1
}

/// Is `c` part of an identifier?
pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(text: &str) -> Vec<String> {
        classify(text).into_iter().map(|l| l.code).collect()
    }

    fn comments_of(text: &str) -> Vec<String> {
        classify(text).into_iter().map(|l| l.comment).collect()
    }

    #[test]
    fn line_comments_are_stripped() {
        let lines = classify("let x = 1; // HashMap here\nlet y = 2;");
        assert_eq!(lines[0].code, "let x = 1; ");
        assert_eq!(lines[0].comment, " HashMap here");
        assert_eq!(lines[1].code, "let y = 2;");
    }

    #[test]
    fn string_contents_are_blanked() {
        let code = &code_of("let s = \"Instant::now // not a comment\";")[0];
        assert!(!code.contains("Instant"));
        assert!(!code.contains("//"));
        assert!(code.starts_with("let s = \""));
        assert!(code.ends_with("\";"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let code = &code_of(r#"let s = "a\"b"; let t = 1;"#)[0];
        assert!(code.contains("let t = 1;"));
        assert!(!code.contains('a'));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let code = &code_of(r###"let s = r#"HashMap "quoted" inside"#; foo();"###)[0];
        assert!(!code.contains("HashMap"));
        assert!(code.contains("foo();"));
    }

    #[test]
    fn multiline_strings_blank_every_line() {
        let codes = code_of("let s = \"line one\nHashMap::new()\nend\"; tail();");
        assert!(!codes[1].contains("HashMap"));
        assert!(codes[2].contains("tail();"));
    }

    #[test]
    fn nested_block_comments() {
        let codes = code_of("a(); /* outer /* inner */ still comment */ b();");
        assert!(codes[0].contains("a();"));
        assert!(codes[0].contains("b();"));
        assert!(!codes[0].contains("outer"));
        assert!(!codes[0].contains("inner"));
    }

    #[test]
    fn multiline_block_comment_collects_text() {
        let comments = comments_of("x(); /* one\ntwo HashMap\nthree */ y();");
        assert!(comments[1].contains("HashMap"));
        let codes = code_of("x(); /* one\ntwo HashMap\nthree */ y();");
        assert!(!codes[1].contains("HashMap"));
        assert!(codes[2].contains("y();"));
    }

    #[test]
    fn char_literals_are_blanked_but_lifetimes_kept() {
        let code = &code_of("fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; }")[0];
        assert!(code.contains("<'a>"), "lifetime must survive: {code}");
        assert!(code.contains("&'a str"));
        // The quote char literal must not open a string state.
        assert!(code.contains('}'));
    }

    #[test]
    fn quote_char_literal_does_not_open_string() {
        let codes = code_of("let q = '\"';\nlet h = HashMap::new();");
        assert!(codes[1].contains("HashMap"));
    }

    #[test]
    fn doc_comments_count_as_comments() {
        let lines = classify("/// uses Instant::now internally\nfn f() {}");
        assert!(!lines[0].code.contains("Instant"));
        assert!(lines[0].comment.contains("Instant::now"));
    }

    #[test]
    fn has_code_detects_blank_and_comment_lines() {
        let lines = classify("  \n// only a comment\nlet x = 1;");
        assert!(!lines[0].has_code());
        assert!(!lines[1].has_code());
        assert!(lines[2].has_code());
    }
}

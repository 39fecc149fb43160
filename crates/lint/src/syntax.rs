//! A lightweight, brace-matched syntax index over the lexer's classified
//! lines: tokens, an item/block tree, and `let`/parameter bindings with
//! scope extents.
//!
//! This is deliberately *not* a Rust parser (no `syn`, no grammar): the
//! two syntax-aware passes in [`crate::passes`] only need to answer
//! questions a token stream plus balanced braces can answer —
//!
//! * "is this token inside `#[cfg(test)]` code?" (item tree with
//!   inherited test-ness),
//! * "which binding does this identifier refer to, and where does its
//!   scope end?" (`let`/`if let`/`while let` patterns and `fn`
//!   parameters, innermost-shadowing resolution),
//! * "what is the statement this token belongs to?" (delimiter-balanced
//!   extents),
//! * "what expression heads this method chain?" (backward walk over
//!   balanced call parentheses).
//!
//! Everything is a deterministic function of the file's bytes; token and
//! block vectors are emitted in source order so downstream findings sort
//! stably.

use crate::lexer::SourceLine;

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal; `float` when it has a `.`, exponent, or an
    /// `f32`/`f64` suffix.
    Number {
        /// Literal is a floating-point constant.
        float: bool,
    },
    /// One punctuation character (the `Punct` payload).
    Punct(char),
    /// A (blanked) string literal.
    StrLit,
    /// A (blanked) char literal.
    CharLit,
    /// A lifetime tick (`'a`).
    Lifetime,
}

/// One token of a file's code (comments and literal contents excluded by
/// the lexer).
#[derive(Debug, Clone)]
pub struct Token {
    /// Identifier text, literal spelling, or the punctuation char.
    pub text: String,
    /// Classification.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
    /// 0-based char column of the token's first char.
    pub col: usize,
    /// 0-based char column one past the token's last char.
    pub end: usize,
}

impl Token {
    /// Is this an identifier with exactly this text?
    #[must_use]
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Is this the punctuation char `c`?
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// What introduced a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockKind {
    /// `fn name(...) { ... }` (also closures are *not* this — they open
    /// `Plain` blocks).
    Fn(String),
    /// `mod name { ... }`
    Mod(String),
    /// `impl`, `trait`, `struct`, `enum`, `union` bodies.
    Item(&'static str),
    /// Any other `{ ... }`: expression blocks, match bodies, closures,
    /// struct literals, `use` groups.
    Plain,
    /// The virtual file-level root.
    Root,
}

/// One brace-matched block.
#[derive(Debug, Clone)]
pub struct Block {
    /// What introduced the block.
    pub kind: BlockKind,
    /// Inherited test-ness: the block or an ancestor carries `#[test]`
    /// or a `cfg` attribute mentioning `test`.
    pub is_test: bool,
    /// Token index of the opening `{` (for the root: 0).
    pub open: usize,
    /// Token index one past the closing `}` content (exclusive end).
    pub close: usize,
    /// Index of the parent block (`None` for the root).
    pub parent: Option<usize>,
}

impl Block {
    /// Does the block's token range contain token index `tok`?
    #[must_use]
    pub fn contains(&self, tok: usize) -> bool {
        self.open <= tok && tok < self.close
    }
}

/// A `let`/`if let`/`while let` binding or an `fn` parameter.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Names bound by the pattern (tuple/struct patterns bind several).
    pub names: Vec<String>,
    /// 1-based line of the `let` (or the parameter).
    pub line: usize,
    /// Token range of the type annotation, when present.
    pub ty: Option<(usize, usize)>,
    /// Token range of the initializer (empty for parameters and
    /// uninitialized `let`s).
    pub init: (usize, usize),
    /// Block index the binding is live in (to the block's `close`).
    pub scope: usize,
}

/// The syntax index of one file.
#[derive(Debug)]
pub struct FileIndex {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// Blocks in opening order; index 0 is the virtual root.
    pub blocks: Vec<Block>,
    /// Bindings in source order.
    pub bindings: Vec<Binding>,
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while",
];

/// Is `s` a Rust keyword (the subset relevant to this index)?
#[must_use]
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes the classified lines' code parts.
#[must_use]
pub fn tokenize(lines: &[SourceLine]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if ident_start(c) {
                let start = i;
                while i < chars.len() && ident_cont(chars[i]) {
                    i += 1;
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    kind: TokenKind::Ident,
                    line: idx + 1,
                    col: start,
                    end: i,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                let mut float = false;
                while i < chars.len() {
                    let d = chars[i];
                    if d.is_ascii_digit() || d == '_' {
                        i += 1;
                    } else if d == '.' {
                        // `0..n` is a range, not a float: only consume the
                        // dot when a digit follows.
                        if chars.get(i + 1).is_some_and(char::is_ascii_digit) {
                            float = true;
                            i += 2;
                        } else {
                            break;
                        }
                    } else if d == 'e' || d == 'E' {
                        let next = chars.get(i + 1);
                        let sign = matches!(next, Some('+' | '-'));
                        let digit_at = if sign { i + 2 } else { i + 1 };
                        if chars.get(digit_at).is_some_and(char::is_ascii_digit) {
                            float = true;
                            i = digit_at + 1;
                        } else {
                            break;
                        }
                    } else if ident_cont(d) {
                        // Suffix: f32/f64/u32/usize...
                        let sfx_start = i;
                        while i < chars.len() && ident_cont(chars[i]) {
                            i += 1;
                        }
                        let sfx: String = chars[sfx_start..i].iter().collect();
                        if sfx.starts_with('f') {
                            float = true;
                        }
                        break;
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    kind: TokenKind::Number { float },
                    line: idx + 1,
                    col: start,
                    end: i,
                });
            } else if c == '"' {
                // Lexer-blanked string literal: contents are spaces, find
                // the closing quote (same line after classification since
                // inner newlines split into per-line blanks — an unclosed
                // quote just ends the line's literal token).
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '"' {
                    j += 1;
                }
                let end = (j + 1).min(chars.len());
                out.push(Token {
                    text: String::from("\"\""),
                    kind: TokenKind::StrLit,
                    line: idx + 1,
                    col: i,
                    end,
                });
                i = end;
            } else if c == '\'' {
                // After classification a char literal is `'` + spaces + `'`;
                // a lifetime is `'` + identifier.
                if chars.get(i + 1).is_some_and(|&d| ident_start(d)) {
                    let start = i;
                    i += 1;
                    while i < chars.len() && ident_cont(chars[i]) {
                        i += 1;
                    }
                    out.push(Token {
                        text: chars[start..i].iter().collect(),
                        kind: TokenKind::Lifetime,
                        line: idx + 1,
                        col: start,
                        end: i,
                    });
                } else {
                    let mut j = i + 1;
                    while j < chars.len() && chars[j] == ' ' {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'\'') {
                        out.push(Token {
                            text: String::from("''"),
                            kind: TokenKind::CharLit,
                            line: idx + 1,
                            col: i,
                            end: j + 1,
                        });
                        i = j + 1;
                    } else {
                        out.push(Token {
                            text: String::from("'"),
                            kind: TokenKind::Punct('\''),
                            line: idx + 1,
                            col: i,
                            end: i + 1,
                        });
                        i += 1;
                    }
                }
            } else {
                out.push(Token {
                    text: c.to_string(),
                    kind: TokenKind::Punct(c),
                    line: idx + 1,
                    col: i,
                    end: i + 1,
                });
                i += 1;
            }
        }
    }
    out
}

/// Pending item header state while building the block tree.
struct PendingItem {
    kind: BlockKind,
    is_test: bool,
}

/// Builds the full index for a file.
#[must_use]
pub fn index(lines: &[SourceLine]) -> FileIndex {
    let tokens = tokenize(lines);
    let mut blocks = vec![Block {
        kind: BlockKind::Root,
        is_test: false,
        open: 0,
        close: tokens.len(),
        parent: None,
    }];
    let mut bindings: Vec<Binding> = Vec::new();
    let mut stack: Vec<usize> = vec![0];
    let mut pending: Option<PendingItem> = None;
    let mut pending_test = false;
    // Bindings that become live in the *next* opened block (`if let`
    // guards, `fn` parameters).
    let mut pending_scoped: Vec<Binding> = Vec::new();

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct('#') => {
                // Attribute: `#[...]` or `#![...]`.
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is_punct('[')) {
                    let end = matching_delim(&tokens, j, '[', ']');
                    if tokens[j + 1..end].iter().any(|t| t.is_ident("test")) {
                        pending_test = true;
                    }
                    i = (end + 1).min(tokens.len());
                    continue;
                }
                i += 1;
            }
            TokenKind::Ident => match t.text.as_str() {
                "fn" | "mod" | "struct" | "enum" | "impl" | "trait" | "union" => {
                    let name = tokens
                        .get(i + 1)
                        .filter(|n| n.kind == TokenKind::Ident)
                        .map(|n| n.text.clone())
                        .unwrap_or_default();
                    let kind = match t.text.as_str() {
                        "fn" => BlockKind::Fn(name),
                        "mod" => BlockKind::Mod(name),
                        "struct" => BlockKind::Item("struct"),
                        "enum" => BlockKind::Item("enum"),
                        "impl" => BlockKind::Item("impl"),
                        "trait" => BlockKind::Item("trait"),
                        _ => BlockKind::Item("union"),
                    };
                    let test = pending_test || blocks[*stack.last().expect("root")].is_test;
                    if t.text == "fn" {
                        // Parameters become bindings of the fn body block.
                        let mut j = i + 1;
                        while j < tokens.len()
                            && !tokens[j].is_punct('(')
                            && !tokens[j].is_punct('{')
                            && !tokens[j].is_punct(';')
                        {
                            j += 1;
                        }
                        if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                            let end = matching_delim(&tokens, j, '(', ')');
                            pending_scoped.extend(param_bindings(&tokens, j + 1, end));
                        }
                    }
                    pending = Some(PendingItem {
                        kind,
                        is_test: test,
                    });
                    i += 1;
                }
                "let" => {
                    let condition = i > 0
                        && matches!(tokens[i - 1].kind, TokenKind::Ident)
                        && (tokens[i - 1].text == "if" || tokens[i - 1].text == "while");
                    let (binding, next) = parse_let(&tokens, i, condition);
                    if let Some(mut b) = binding {
                        if condition {
                            pending_scoped.push(b);
                        } else {
                            b.scope = *stack.last().expect("root");
                            bindings.push(b);
                        }
                    }
                    i = next;
                }
                _ => i += 1,
            },
            TokenKind::Punct('{') => {
                let parent = *stack.last().expect("root");
                let (kind, test) = match pending.take() {
                    Some(p) => (p.kind, p.is_test || blocks[parent].is_test),
                    None => (BlockKind::Plain, blocks[parent].is_test),
                };
                pending_test = false;
                let id = blocks.len();
                blocks.push(Block {
                    kind,
                    is_test: test,
                    open: i,
                    close: tokens.len(),
                    parent: Some(parent),
                });
                for mut b in pending_scoped.drain(..) {
                    b.scope = id;
                    bindings.push(b);
                }
                stack.push(id);
                i += 1;
            }
            TokenKind::Punct('}') => {
                if stack.len() > 1 {
                    let id = stack.pop().expect("non-root");
                    blocks[id].close = i + 1;
                }
                i += 1;
            }
            TokenKind::Punct(';') => {
                // A declaration (`struct X;`, `mod m;`) consumes the
                // pending header and its attributes.
                pending = None;
                pending_test = false;
                pending_scoped.clear();
                i += 1;
            }
            _ => i += 1,
        }
    }
    FileIndex {
        tokens,
        blocks,
        bindings,
    }
}

/// Index one past the delimiter matching `open_at` (which must hold
/// `open`); saturates at the end of the token stream.
fn matching_delim(tokens: &[Token], open_at: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open_at) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len()
}

/// Are tokens `a` and `b` (b directly after a) adjacent characters of
/// the same line, i.e. parts of one multi-char operator?
fn adjacent(a: &Token, b: &Token) -> bool {
    a.line == b.line && a.end == b.col
}

/// Is the `=` at `i` a plain assignment (not `==`, `=>`, `..=`, `<=`,
/// `>=`, `!=`, `+=`, ...)? Multi-char operators are only recognised
/// when their characters are adjacent, so `Vec<f64> =` still assigns.
fn is_assign_eq(tokens: &[Token], i: usize) -> bool {
    if !tokens[i].is_punct('=') {
        return false;
    }
    if tokens
        .get(i + 1)
        .is_some_and(|t| (t.is_punct('=') || t.is_punct('>')) && adjacent(&tokens[i], t))
    {
        return false;
    }
    if i > 0 {
        if let TokenKind::Punct(p) = tokens[i - 1].kind {
            if "=<>!+-*/%&|^.".contains(p) && adjacent(&tokens[i - 1], &tokens[i]) {
                return false;
            }
        }
    }
    true
}

/// Parses a `let` starting at token `at` (which holds `let`). Returns
/// the binding (if a pattern was found) and the index to continue from.
fn parse_let(tokens: &[Token], at: usize, condition: bool) -> (Option<Binding>, usize) {
    let line = tokens[at].line;
    let mut depth = 0usize;
    let mut j = at + 1;
    let mut ty: Option<(usize, usize)> = None;
    let mut ty_start: Option<usize> = None;
    let mut names: Vec<String> = Vec::new();
    let mut eq_at: Option<usize> = None;
    // Pattern (and optional type) up to the assignment `=`.
    while j < tokens.len() {
        let t = &tokens[j];
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth = depth.saturating_sub(1),
            TokenKind::Punct(':') if depth == 0 && ty_start.is_none() => {
                // `::` is a path, not an annotation.
                if tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    || (j > 0 && tokens[j - 1].is_punct(':'))
                {
                    // fall through: path separator
                } else {
                    ty_start = Some(j + 1);
                }
            }
            TokenKind::Punct('=') if depth == 0 && is_assign_eq(tokens, j) => {
                eq_at = Some(j);
                break;
            }
            TokenKind::Punct(';') | TokenKind::Punct('{') if depth == 0 => break,
            TokenKind::Ident
                if ty_start.is_none()
                    && !is_keyword(&t.text)
                    && t.text != "_"
                    && t.text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_')
                    && !tokens.get(j + 1).is_some_and(|n| n.is_punct('!'))
                    && !(tokens.get(j + 1).is_some_and(|n| n.is_punct(':'))
                        && tokens.get(j + 2).is_some_and(|n| n.is_punct(':'))) =>
            {
                names.push(t.text.clone());
            }
            _ => {}
        }
        j += 1;
    }
    if let (Some(s), Some(e)) = (ty_start, eq_at) {
        if s < e {
            ty = Some((s, e));
        }
    }
    // Initializer: to `;`/`else` (statement let) or `{` (condition let).
    let init_start = eq_at.map_or(j, |e| e + 1);
    let mut k = init_start;
    depth = 0;
    while k < tokens.len() {
        let t = &tokens[k];
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth = depth.saturating_sub(1),
            TokenKind::Punct(';') if depth == 0 => break,
            TokenKind::Punct('{') if depth == 0 && condition => break,
            TokenKind::Ident if depth == 0 && t.text == "else" => break,
            // A statement-let's initializer may contain `{` (struct
            // literals, match expressions): those open nested blocks the
            // main loop must still see, so stop the init scan there too —
            // the tokens up to the brace are what the passes inspect.
            TokenKind::Punct('{') if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    if names.is_empty() {
        return (None, at + 1);
    }
    (
        Some(Binding {
            names,
            line,
            ty,
            init: (init_start, k),
            scope: 0, // caller fills
        }),
        at + 1,
    )
}

/// Extracts parameter bindings from the token range of an `fn` parameter
/// list (exclusive of the parentheses).
fn param_bindings(tokens: &[Token], start: usize, end: usize) -> Vec<Binding> {
    let mut out = Vec::new();
    let mut seg_start = start;
    let mut depth = 0usize;
    let mut j = start;
    while j <= end {
        let at_end = j == end;
        let is_sep = !at_end && tokens[j].is_punct(',') && depth == 0;
        if !at_end {
            match tokens[j].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('<') => {
                    depth += 1;
                }
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('>') => {
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
        if at_end || is_sep {
            if seg_start < j {
                if let Some(b) = param_binding(tokens, seg_start, j) {
                    out.push(b);
                }
            }
            seg_start = j + 1;
        }
        j += 1;
    }
    out
}

/// One `pattern: Type` parameter segment.
fn param_binding(tokens: &[Token], start: usize, end: usize) -> Option<Binding> {
    let mut colon: Option<usize> = None;
    let mut depth = 0usize;
    for j in start..end {
        match tokens[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('>') => {
                depth = depth.saturating_sub(1);
            }
            // A `::` path separator is not the pattern/type colon.
            TokenKind::Punct(':')
                if depth == 0
                    && !tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && !(j > start && tokens[j - 1].is_punct(':')) =>
            {
                colon = Some(j);
                break;
            }
            _ => {}
        }
    }
    let colon = colon?;
    let names: Vec<String> = tokens[start..colon]
        .iter()
        .filter(|t| {
            t.kind == TokenKind::Ident
                && !is_keyword(&t.text)
                && t.text != "_"
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
        })
        .map(|t| t.text.clone())
        .collect();
    if names.is_empty() {
        return None;
    }
    Some(Binding {
        names,
        line: tokens[start].line,
        ty: Some((colon + 1, end)),
        init: (end, end),
        scope: 0,
    })
}

impl FileIndex {
    /// Innermost block containing token `tok` (always at least the root).
    #[must_use]
    pub fn innermost_block(&self, tok: usize) -> usize {
        let mut best = 0;
        for (id, b) in self.blocks.iter().enumerate() {
            if b.contains(tok) && b.open >= self.blocks[best].open {
                best = id;
            }
        }
        best
    }

    /// Is the token inside test-only code (`#[cfg(test)]` module,
    /// `#[test]` fn, or anything nested in one)?
    #[must_use]
    pub fn in_test(&self, tok: usize) -> bool {
        self.blocks[self.innermost_block(tok)].is_test
    }

    /// Innermost-shadowing binding of `name` visible at token `tok`.
    #[must_use]
    pub fn binding_for(&self, name: &str, tok: usize) -> Option<&Binding> {
        self.bindings
            .iter()
            .filter(|b| {
                b.names.iter().any(|n| n == name)
                    && b.init.0 <= tok
                    && self.blocks[b.scope].contains(tok)
            })
            .max_by_key(|b| b.init.0)
    }

    /// The statement containing `tok`: the token range bounded by `;`,
    /// `{`, or `}` at the same delimiter depth on both sides.
    #[must_use]
    pub fn statement_range(&self, tok: usize) -> (usize, usize) {
        let mut start = tok;
        let mut depth = 0isize;
        while start > 0 {
            let t = &self.tokens[start - 1];
            match t.kind {
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth += 1,
                TokenKind::Punct('(') | TokenKind::Punct('[') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}')
                    if depth == 0 =>
                {
                    break;
                }
                _ => {}
            }
            start -= 1;
        }
        let mut end = tok;
        depth = 0;
        while end < self.tokens.len() {
            let t = &self.tokens[end];
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}')
                    if depth == 0 =>
                {
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        (start, end)
    }

    /// Walks a method chain backward from the `.` at `dot`: returns the
    /// token range of the chain's *head expression* (the receiver of the
    /// first call in the chain), skipping over `.method(...)`,
    /// `.method::<T>(...)`, `.await`-style segments, `?`, indexing
    /// `[...]`, and call parentheses.
    #[must_use]
    pub fn chain_head(&self, dot: usize) -> (usize, usize) {
        let stmt = self.statement_range(dot);
        let mut end = dot; // exclusive end of the head expression
        let mut i = dot;
        loop {
            // `i` currently points at a `.`; the segment before it is
            // either another chain segment or the head.
            if i == stmt.0 {
                break;
            }
            let prev = i - 1;
            let t = &self.tokens[prev];
            match t.kind {
                TokenKind::Punct(')') | TokenKind::Punct(']') => {
                    let open = if t.is_punct(')') { '(' } else { '[' };
                    let close = if t.is_punct(')') { ')' } else { ']' };
                    // Scan backward to the matching opener.
                    let mut depth = 0isize;
                    let mut j = prev;
                    loop {
                        let tk = &self.tokens[j];
                        if tk.is_punct(close) {
                            depth += 1;
                        } else if tk.is_punct(open) {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        if j == stmt.0 {
                            break;
                        }
                        j -= 1;
                    }
                    i = j;
                    end = end.max(dot);
                    // After the group, continue: what precedes the opener?
                    if i > stmt.0
                        && (self.tokens[i - 1].kind == TokenKind::Ident
                            || self.tokens[i - 1].is_punct('>'))
                    {
                        // call like `name(...)` or turbofish `::<T>(...)`:
                        // keep walking left over the name/path below.
                        i -= 1;
                        // fall through into ident handling by looping
                        while i > stmt.0 {
                            let t = &self.tokens[i];
                            let prev_t = &self.tokens[i - 1];
                            if t.kind == TokenKind::Ident && prev_t.is_punct(':') {
                                i -= 1;
                                continue;
                            }
                            if t.is_punct(':') {
                                i -= 1;
                                continue;
                            }
                            if t.kind == TokenKind::Ident && prev_t.is_punct('.') {
                                // `recv.method(...)`: this whole group is a
                                // chain segment; continue from the dot.
                                i -= 1;
                                break;
                            }
                            break;
                        }
                        if self.tokens[i].is_punct('.') {
                            continue; // another `.method(...)` segment
                        }
                        // `name(...)` — free-function call is the head.
                        return (i, dot);
                    }
                    // Parenthesized/indexed head expression.
                    return (i, dot);
                }
                TokenKind::Ident | TokenKind::Number { .. } => {
                    // `field` or `method`-less segment: step over
                    // `recv.field.field`… until the start.
                    let mut j = prev;
                    while j > stmt.0 {
                        let t = &self.tokens[j - 1];
                        if t.is_punct('.') && j >= 2 {
                            let before = &self.tokens[j - 2];
                            if before.kind == TokenKind::Ident
                                || matches!(before.kind, TokenKind::Number { .. })
                            {
                                j -= 2;
                                continue;
                            }
                            if before.is_punct(')') || before.is_punct(']') {
                                // group.field — treat group as head
                                i = j - 1;
                                break;
                            }
                        }
                        break;
                    }
                    if self.tokens[j].kind == TokenKind::Ident
                        || matches!(self.tokens[j].kind, TokenKind::Number { .. })
                    {
                        return (j, dot);
                    }
                    if i == j {
                        return (j, dot);
                    }
                    continue;
                }
                _ => {
                    return (i, dot);
                }
            }
        }
        (stmt.0, end.max(stmt.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::classify;

    fn idx(src: &str) -> FileIndex {
        index(&classify(src))
    }

    #[test]
    fn tokenizer_classifies_numbers_and_idents() {
        let f = idx("let x = 1.5_f64 + 2e-3 + 7; let r = 0..n;");
        let floats: Vec<&Token> = f
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Number { float: true }))
            .collect();
        assert_eq!(floats.len(), 2, "{floats:?}");
        assert!(f.tokens.iter().any(|t| t.is_ident("x")));
        // `0..n`: the 0 must stay an integer.
        assert!(f
            .tokens
            .iter()
            .any(|t| t.text == "0" && t.kind == TokenKind::Number { float: false }));
    }

    #[test]
    fn lifetimes_and_char_literals_tokenize() {
        let f = idx("fn f<'a>(x: &'a str) { let c = 'z'; }");
        assert!(f.tokens.iter().any(|t| t.kind == TokenKind::Lifetime));
        assert!(f.tokens.iter().any(|t| t.kind == TokenKind::CharLit));
    }

    #[test]
    fn cfg_test_modules_are_inherited() {
        let src = "fn live() { x(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { y(); }\n\
                       #[test]\n\
                       fn t() { z(); }\n\
                   }\n";
        let f = idx(src);
        let x = f.tokens.iter().position(|t| t.is_ident("x")).unwrap();
        let y = f.tokens.iter().position(|t| t.is_ident("y")).unwrap();
        let z = f.tokens.iter().position(|t| t.is_ident("z")).unwrap();
        assert!(!f.in_test(x));
        assert!(f.in_test(y), "helpers inside cfg(test) mods are test code");
        assert!(f.in_test(z));
    }

    #[test]
    fn test_attribute_applies_to_single_fn() {
        let src = "#[test]\nfn t() { a(); }\nfn live() { b(); }\n";
        let f = idx(src);
        let a = f.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        let b = f.tokens.iter().position(|t| t.is_ident("b")).unwrap();
        assert!(f.in_test(a));
        assert!(!f.in_test(b));
    }

    #[test]
    fn let_bindings_carry_type_and_init() {
        let f = idx("fn f() { let xs: Vec<f64> = build(); xs.len(); }");
        let b = f.bindings.iter().find(|b| b.names == ["xs"]).unwrap();
        let ty = b.ty.expect("typed");
        let ty_txt: Vec<&str> = f.tokens[ty.0..ty.1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(ty_txt.contains(&"Vec"), "{ty_txt:?}");
        let init_txt: Vec<&str> = f.tokens[b.init.0..b.init.1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(init_txt.contains(&"build"), "{init_txt:?}");
    }

    #[test]
    fn if_let_binding_scopes_to_the_guarded_block() {
        let src = "fn f() { if let Ok(guard) = m.lock() { use_it(guard); } after(); }";
        let f = idx(src);
        let b = f.bindings.iter().find(|b| b.names == ["guard"]).unwrap();
        let use_at = f.tokens.iter().position(|t| t.is_ident("use_it")).unwrap();
        let after_at = f.tokens.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(f.blocks[b.scope].contains(use_at));
        assert!(!f.blocks[b.scope].contains(after_at));
    }

    #[test]
    fn fn_params_are_bindings_with_types() {
        let f = idx("fn dot(a: &[f64], b: &[f64]) -> f64 { a.iter().sum() }");
        let at = f.tokens.iter().position(|t| t.is_ident("iter")).unwrap();
        let b = f.binding_for("a", at).expect("param binding");
        let ty = b.ty.expect("typed param");
        assert!(f.tokens[ty.0..ty.1].iter().any(|t| t.is_punct('[')));
    }

    #[test]
    fn shadowing_resolves_to_the_nearest_binding() {
        let f = idx("fn f() { let x = a(); { let x = b(); x.use_(); } }");
        let use_at = f.tokens.iter().position(|t| t.is_ident("use_")).unwrap();
        let b = f.binding_for("x", use_at).unwrap();
        let init: Vec<&str> = f.tokens[b.init.0..b.init.1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(init, ["b", "(", ")"]);
    }

    #[test]
    fn statement_ranges_stop_at_semicolons_and_braces() {
        let f = idx("fn f() { a(); let y = b.c(1); d(); }");
        let c_at = f.tokens.iter().position(|t| t.is_ident("c")).unwrap();
        let (s, e) = f.statement_range(c_at);
        let txt: Vec<&str> = f.tokens[s..e].iter().map(|t| t.text.as_str()).collect();
        assert!(txt.starts_with(&["let", "y"]), "{txt:?}");
        assert!(!txt.contains(&"d"), "{txt:?}");
    }

    #[test]
    fn chain_head_resolves_variables_and_calls() {
        let f = idx("fn f() { let s: f64 = xs.iter().map(|v| v * 2.0).sum(); }");
        let sum_at = f.tokens.iter().rposition(|t| t.is_ident("sum")).unwrap();
        let (h, _) = f.chain_head(sum_at - 1);
        assert!(f.tokens[h].is_ident("xs"), "head: {:?}", f.tokens[h]);

        let g = idx("fn f() { let s: f64 = net.forward(x).iter().sum(); }");
        let sum_at = g.tokens.iter().rposition(|t| t.is_ident("sum")).unwrap();
        let (h, _) = g.chain_head(sum_at - 1);
        assert!(g.tokens[h].is_ident("net"), "head: {:?}", g.tokens[h]);
    }

    #[test]
    fn unbalanced_files_do_not_panic() {
        let _ = idx("fn f() { { { let x = 1;");
        let _ = idx("}}} fn g()");
    }
}

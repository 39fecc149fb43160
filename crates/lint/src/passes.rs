//! The syntax-aware passes: `lock-discipline` and
//! `float-reduction-order`.
//!
//! Unlike the token rules in [`crate::rules`], these walk the
//! [`crate::syntax::FileIndex`] — the brace-matched block tree, the
//! binding table, and statement/chain extents — so they can reason about
//! scopes ("is this guard still live here?"), test-ness ("is this
//! reduction in `#[cfg(test)]` code?"), and data flow one hop deep
//! ("what sequence heads this `.sum()` chain, and is its order locally
//! provable?").
//!
//! # Pass semantics
//!
//! * **lock-discipline** (error): a `Mutex`/`RwLock` guard binding whose
//!   live scope spans a blocking call — socket or file I/O, condvar or
//!   channel waits, a worker-pool fan-out — serialises every other
//!   thread behind that I/O. This statically pins the serve daemon's
//!   "lock held per wave, never across socket reads" rule: render under
//!   the lock, drop the guard, then do the I/O.
//! * **float-reduction-order** (error/warning): float addition is not
//!   associative, so the byte-identity invariant requires every
//!   `f32`/`f64` `.sum()`/`.product()`/order-sensitive `fold` to run
//!   over a sequence with a total, machine-independent order. A
//!   reduction over a provably unordered source (`HashMap`/`HashSet`,
//!   rayon-style `par_iter`) is an error; one whose source order cannot
//!   be proven locally (an untyped binding, a field or call-result
//!   receiver) is a warning — type the binding (`let xs: Vec<f64> = …`)
//!   or allow with a proof naming the order. Min/max-combining folds
//!   are exempt (order-insensitive), reductions with no float
//!   evidence in the statement (or the enclosing block header) are
//!   skipped, and test code is out of scope (assertions compare with
//!   tolerances and never reach persisted bytes).

use crate::rules::{Finding, Severity, SourceFile};
use crate::syntax::{is_keyword, Binding, FileIndex, Token, TokenKind};

/// Crates whose float arithmetic decides verdicts, bounds, or persisted
/// stats: reductions there must have a totally ordered source.
pub const FLOAT_ORDER_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/bound/src/",
    "crates/check/src/",
    "crates/lp/src/",
    "crates/nn/src/",
    "crates/tensor/src/",
    "crates/serve/src/",
    "crates/data/src/",
    "crates/vnnlib/src/",
];

/// Method calls that block the calling thread on I/O or synchronisation.
/// Includes this workspace's own `write_snapshot` wrapper so the
/// invariant survives refactors that hide the `std` call one level down.
const BLOCKING_METHODS: &[&str] = &[
    "read_until",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "write_fmt",
    "flush",
    "accept",
    "connect",
    "wait",
    "wait_timeout",
    "wait_while",
    "recv",
    "recv_timeout",
    "write_snapshot",
];

/// Free and associated functions (workspace I/O wrappers and thread
/// blocking) that block whether called bare or by path, e.g.
/// `persist::write_snapshot_text(..)` or `ResultStore::load_snapshot(..)`.
const BLOCKING_CALLS: &[&str] = &[
    "save_store",
    "write_stats",
    "read_wave",
    "write_responses",
    "write_snapshot_text",
    "load_snapshot",
    "sleep",
    "park",
];

/// `Type::method` path calls that perform file/socket I/O.
const BLOCKING_PATHS: &[(&str, &[&str])] = &[
    (
        "fs",
        &[
            "write",
            "read",
            "read_to_string",
            "read_dir",
            "create_dir_all",
            "rename",
            "remove_file",
            "copy",
            "metadata",
        ],
    ),
    ("File", &["open", "create", "create_new", "options"]),
    ("TcpStream", &["connect"]),
    ("TcpListener", &["bind"]),
];

/// Worker-pool fan-out methods: the fan-out blocks until every lane
/// finishes, so holding a lock across it stalls the whole pool's
/// clients. Matched only when the receiver identifier mentions "pool".
const POOL_FANOUT: &[&str] = &["map", "join2", "broadcast"];

/// Combiner identifiers that make a `fold` order-insensitive.
const ORDER_FREE_COMBINERS: &[&str] = &["min", "max", "minimum", "maximum", "fmin", "fmax"];

/// Identifiers that prove the reduction source iterates in unordered
/// (per-process randomized or scheduler-dependent) order.
const UNORDERED_SOURCES: &[&str] = &[
    "HashMap",
    "HashSet",
    "par_iter",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
];

fn tok(idx: &FileIndex, i: usize) -> Option<&Token> {
    idx.tokens.get(i)
}

/// Is token `i` an identifier immediately preceded by `.` (a method
/// position)?
fn is_method_pos(idx: &FileIndex, i: usize) -> bool {
    i > 0 && idx.tokens[i - 1].is_punct('.')
}

/// Is token `i` followed by a call opener — `(` directly, or via a
/// `::<...>` turbofish?
fn is_called(idx: &FileIndex, i: usize) -> bool {
    match tok(idx, i + 1) {
        Some(t) if t.is_punct('(') => true,
        Some(t) if t.is_punct(':') => tok(idx, i + 2).is_some_and(|t| t.is_punct(':')),
        _ => false,
    }
}

/// Does the binding's initializer acquire a lock guard?
fn is_guard_binding(idx: &FileIndex, b: &Binding) -> bool {
    let (s, e) = b.init;
    let init = &idx.tokens[s.min(idx.tokens.len())..e.min(idx.tokens.len())];
    let has_method = |name: &str| {
        init.iter().enumerate().any(|(j, t)| {
            t.is_ident(name)
                && j > 0
                && init[j - 1].is_punct('.')
                && init.get(j + 1).is_some_and(|t| t.is_punct('('))
                // `stdin().lock()`/`stdout().lock()` hand out stdio
                // handle locks, which exist precisely to batch I/O —
                // not contended Mutex guards.
                && !(j >= 2
                    && matches!(
                        init[j - 2].text.as_str(),
                        "stdin" | "stdout" | "stderr"
                    ))
                && !(j >= 4
                    && init[j - 2].is_punct(')')
                    && matches!(
                        init[j - 4].text.as_str(),
                        "stdin" | "stdout" | "stderr"
                    ))
        })
    };
    if has_method("lock") {
        return true;
    }
    // `.read()`/`.write()` only count when RwLock is named nearby —
    // otherwise they collide with `io::Read`/`io::Write`.
    let names_rwlock = init.iter().any(|t| t.is_ident("RwLock"));
    if names_rwlock && (has_method("read") || has_method("write")) {
        return true;
    }
    // Guard-typed parameters and bindings.
    if let Some((ts, te)) = b.ty {
        let ty = &idx.tokens[ts.min(idx.tokens.len())..te.min(idx.tokens.len())];
        return ty.iter().any(|t| {
            t.is_ident("MutexGuard")
                || t.is_ident("RwLockReadGuard")
                || t.is_ident("RwLockWriteGuard")
        });
    }
    false
}

/// Describes the blocking call at token `i`, if any.
fn blocking_call(idx: &FileIndex, i: usize) -> Option<String> {
    let t = &idx.tokens[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let name = t.text.as_str();
    let called = tok(idx, i + 1).is_some_and(|n| n.is_punct('('));
    if !called {
        return None;
    }
    if is_method_pos(idx, i) {
        if BLOCKING_METHODS.contains(&name) {
            return Some(format!(".{name}()"));
        }
        if POOL_FANOUT.contains(&name) && i >= 2 {
            if let TokenKind::Ident = idx.tokens[i - 2].kind {
                if idx.tokens[i - 2].text.to_ascii_lowercase().contains("pool") {
                    return Some(format!("{}.{name}()", idx.tokens[i - 2].text));
                }
            }
        }
        return None;
    }
    if BLOCKING_CALLS.contains(&name) {
        return Some(format!("{name}()"));
    }
    // `Type::method(...)` path calls: `name` is the method; look back
    // over `::` for the type/module segment.
    if i >= 3
        && idx.tokens[i - 1].is_punct(':')
        && idx.tokens[i - 2].is_punct(':')
        && idx.tokens[i - 3].kind == TokenKind::Ident
    {
        let seg = idx.tokens[i - 3].text.as_str();
        for (ty, methods) in BLOCKING_PATHS {
            if seg == *ty && methods.contains(&name) {
                return Some(format!("{seg}::{name}()"));
            }
        }
        if seg == "thread" && (name == "sleep" || name == "park") {
            return Some(format!("thread::{name}()"));
        }
    }
    None
}

/// Token index where guard `name` is explicitly dropped inside
/// `(from, to)`, if anywhere.
fn drop_site(idx: &FileIndex, name: &str, from: usize, to: usize) -> Option<usize> {
    (from..to.min(idx.tokens.len())).find(|&j| {
        idx.tokens[j].is_ident("drop")
            && tok(idx, j + 1).is_some_and(|t| t.is_punct('('))
            && tok(idx, j + 2).is_some_and(|t| t.is_ident(name))
            && tok(idx, j + 3).is_some_and(|t| t.is_punct(')'))
    })
}

/// The lock-discipline pass.
pub fn check_lock_discipline(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let idx = file.syntax;
    for b in &idx.bindings {
        if idx.blocks[b.scope].is_test || !is_guard_binding(idx, b) {
            continue;
        }
        let scope_end = idx.blocks[b.scope].close;
        // The guard is live from the end of its initializer to the end
        // of its scope block (or an explicit `drop(guard)`).
        let live_from = b.init.1.max(b.init.0);
        for name in &b.names {
            let live_to = drop_site(idx, name, live_from, scope_end).unwrap_or(scope_end);
            for j in live_from..live_to.min(idx.tokens.len()) {
                if let Some(call) = blocking_call(idx, j) {
                    out.push(Finding {
                        rule: "lock-discipline".to_string(),
                        path: file.path.to_string(),
                        line: idx.tokens[j].line,
                        message: format!(
                            "lock guard `{name}` (acquired line {}) is live across \
                             blocking `{call}`; render under the lock, drop the \
                             guard, then block",
                            b.line
                        ),
                        severity: Severity::Error,
                    });
                }
            }
        }
    }
}

/// Float evidence: does the token range mention an f32/f64 type or a
/// float literal?
fn float_evidence(tokens: &[Token]) -> bool {
    tokens.iter().any(|t| match t.kind {
        TokenKind::Ident => t.text == "f32" || t.text == "f64",
        TokenKind::Number { float } => float,
        _ => false,
    })
}

/// Can the chain head's order be proven locally? `head` is the first
/// token of the head expression, `at` the reduction's position.
fn head_provably_ordered(idx: &FileIndex, head: usize, at: usize) -> bool {
    let t = &idx.tokens[head];
    match t.kind {
        // A literal range `(0..n)` or array `[..]` head iterates in
        // index order.
        TokenKind::Punct('(') | TokenKind::Punct('[') => {
            let close = if t.is_punct('(') { ')' } else { ']' };
            let mut depth = 0usize;
            for j in head..at {
                let tj = &idx.tokens[j];
                if tj.kind == t.kind {
                    depth += 1;
                } else if tj.is_punct(close) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if tj.is_punct('.') && tok(idx, j + 1).is_some_and(|n| n.is_punct('.')) {
                    return true; // range expression
                }
            }
            t.is_punct('[')
        }
        TokenKind::Number { .. } => true,
        TokenKind::Ident => {
            if is_keyword(&t.text) {
                return false; // `self.field...` and friends: not local
            }
            let Some(b) = idx.binding_for(&t.text, at) else {
                return false;
            };
            if let Some((ts, te)) = b.ty {
                return idx.tokens[ts.min(idx.tokens.len())..te.min(idx.tokens.len())]
                    .iter()
                    .any(|t| {
                        t.is_punct('[')
                            || t.is_ident("Vec")
                            || t.is_ident("VecDeque")
                            || t.is_ident("BTreeMap")
                            || t.is_ident("BTreeSet")
                    });
            }
            let (s, e) = b.init;
            let init = &idx.tokens[s.min(idx.tokens.len())..e.min(idx.tokens.len())];
            // `vec![...]` and `[...]` literals are ordered.
            init.first().is_some_and(|t| t.is_punct('['))
                || init
                    .windows(2)
                    .any(|w| w[0].is_ident("vec") && w[1].is_punct('!'))
        }
        _ => false,
    }
}

/// The float-reduction-order pass.
pub fn check_float_reduction_order(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let idx = file.syntax;
    for (i, t) in idx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let reduction = matches!(name, "sum" | "product" | "fold");
        if !reduction || !is_method_pos(idx, i) || !is_called(idx, i) {
            continue;
        }
        if name == "fold" && fold_is_order_free(idx, i) {
            continue;
        }
        // Test reductions feed assertions with tolerances, not persisted
        // verdict/report bytes; only production arithmetic must carry a
        // provable order.
        if idx.in_test(i) {
            continue;
        }
        let stmt = idx.statement_range(i);
        let stmt_toks = &idx.tokens[stmt.0..stmt.1];
        if !float_evidence(stmt_toks) && !header_float_evidence(idx, i) {
            continue; // integer reduction
        }
        let (head, _) = idx.chain_head(i - 1);
        let mut unordered = stmt_toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && UNORDERED_SOURCES.contains(&t.text.as_str()));
        // The head's binding may carry the unordered type even when the
        // statement itself doesn't name it (`let s: f64 = m.values().sum()`
        // with `m: &HashMap<..>`).
        if !unordered {
            if let TokenKind::Ident = idx.tokens[head].kind {
                if let Some(b) = idx.binding_for(&idx.tokens[head].text, i) {
                    let mut ranges = vec![b.init];
                    if let Some(ty) = b.ty {
                        ranges.push(ty);
                    }
                    unordered = ranges.iter().any(|&(s, e)| {
                        idx.tokens[s.min(idx.tokens.len())..e.min(idx.tokens.len())]
                            .iter()
                            .any(|t| {
                                t.kind == TokenKind::Ident
                                    && UNORDERED_SOURCES.contains(&t.text.as_str())
                            })
                    });
                }
            }
        }
        if unordered {
            out.push(Finding {
                rule: "float-reduction-order".to_string(),
                path: file.path.to_string(),
                line: t.line,
                message: format!(
                    "float `.{name}()` over an unordered source: per-process \
                     iteration order changes the rounding, so verdict/report \
                     bytes diverge; reduce over a totally ordered sequence"
                ),
                severity: Severity::Error,
            });
            continue;
        }
        if !head_provably_ordered(idx, head, i) {
            out.push(Finding {
                rule: "float-reduction-order".to_string(),
                path: file.path.to_string(),
                line: t.line,
                message: format!(
                    "float `.{name}()` whose source order cannot be proven \
                     locally; bind the sequence with an ordered type (e.g. \
                     `let xs: Vec<f64> = …`) or allow with a proof naming the \
                     iteration order"
                ),
                severity: Severity::Warning,
            });
        }
    }
}

/// Does the `fold` at token `i` use a min/max-style combiner (order
/// insensitive up to NaN handling)?
fn fold_is_order_free(idx: &FileIndex, i: usize) -> bool {
    // Find the call's `(`: directly after, or after a turbofish.
    let mut j = i + 1;
    if tok(idx, j).is_some_and(|t| t.is_punct(':')) {
        while j < idx.tokens.len() && !idx.tokens[j].is_punct('(') {
            j += 1;
        }
    }
    if !tok(idx, j).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let mut depth = 0usize;
    for k in j..idx.tokens.len() {
        let t = &idx.tokens[k];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident && ORDER_FREE_COMBINERS.contains(&t.text.as_str()) {
            return true;
        }
    }
    false
}

/// Float evidence in the enclosing block's header (e.g. a `-> f64 {`
/// closure or fn return type the statement scan cannot see).
fn header_float_evidence(idx: &FileIndex, i: usize) -> bool {
    let block = idx.innermost_block(i);
    let open = idx.blocks[block].open;
    let from = open.saturating_sub(8);
    float_evidence(&idx.tokens[from..open.min(idx.tokens.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::classify;
    use crate::syntax::index;

    fn run(path: &str, src: &str, pass: fn(&SourceFile<'_>, &mut Vec<Finding>)) -> Vec<Finding> {
        let lines = classify(src);
        let syntax = index(&lines);
        let file = SourceFile {
            path,
            lines: &lines,
            syntax: &syntax,
        };
        let mut out = Vec::new();
        pass(&file, &mut out);
        out
    }

    #[test]
    fn lock_discipline_flags_io_under_guard() {
        let src = "fn f() { if let Ok(guard) = server.lock() { save_store(&guard, path); } }\n";
        let f = run("crates/bench/src/bin/serve.rs", src, check_lock_discipline);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("save_store"));
    }

    #[test]
    fn lock_discipline_respects_inner_scopes_and_drop() {
        let clean = "fn f() { let out = { let g = m.lock().unwrap(); render(&g) }; \
                     write_responses(w, &out); }\n";
        assert!(run("crates/serve/src/server.rs", clean, check_lock_discipline).is_empty());
        let dropped = "fn f() { let g = m.lock().unwrap(); let s = render(&g); drop(g); \
                       write_responses(w, &s); }\n";
        assert!(run("crates/serve/src/server.rs", dropped, check_lock_discipline).is_empty());
    }

    #[test]
    fn float_order_warns_on_unprovable_head_and_errors_on_unordered() {
        let warn = "fn f(net: &Net) { let s: f64 = net.forward(x).iter().sum(); }\n";
        let f = run("crates/nn/src/grad.rs", warn, check_float_reduction_order);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].severity, Severity::Warning);
        let err = "fn f(m: &HashMap<u32, f64>) { let s: f64 = m.values().sum(); }\n";
        let f = run("crates/nn/src/grad.rs", err, check_float_reduction_order);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn float_order_accepts_typed_ordered_sources_and_minmax_folds() {
        let ok = "fn f(xs: &[f64]) -> f64 { xs.iter().sum() }\n\
                  fn g(v: &Vec<f64>) -> f64 { v.iter().fold(f64::MIN, f64::max) }\n\
                  fn h() { let v: Vec<f64> = build(); let s: f64 = v.iter().sum(); }\n";
        let f = run("crates/nn/src/grad.rs", ok, check_float_reduction_order);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_order_skips_integer_reductions() {
        let src = "fn f(xs: &Foo) -> usize { xs.sizes().iter().sum() }\n";
        let f = run("crates/nn/src/grad.rs", src, check_float_reduction_order);
        assert!(f.is_empty(), "{f:?}");
    }
}

//! Fixtures for the syntax-aware passes (`lock-discipline`,
//! `float-reduction-order`): each has a violating snippet with an exact
//! finding list, a clean variant, and a suppressed variant, plus a
//! guard-across-blocking regression distilled from the serve scheduler's
//! wave loop.

use abonn_lint::lint_source;
use abonn_lint::rules::Severity;

fn expect_rules(path: &str, src: &str, rules: &[&str]) {
    let out = lint_source(path, src);
    let got: Vec<&str> = out.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(
        got, rules,
        "findings for {path}:\n{src}\n{:#?}",
        out.findings
    );
}

fn expect_clean(path: &str, src: &str) {
    let out = lint_source(path, src);
    assert!(
        out.findings.is_empty() && out.suppressed.is_empty(),
        "expected clean for {path}:\n{src}\n{:#?}\n{:#?}",
        out.findings,
        out.suppressed
    );
}

fn expect_suppressed(path: &str, src: &str, rule: &str) {
    let out = lint_source(path, src);
    assert!(
        out.findings.is_empty(),
        "suppression failed for {path}:\n{src}\n{:#?}",
        out.findings
    );
    assert_eq!(out.suppressed.len(), 1, "{:#?}", out.suppressed);
    assert_eq!(out.suppressed[0].rule, rule);
}

// ------------------------------------------------------ lock-discipline

/// The regression distilled from the serve scheduler: PR 7's bug held
/// the server lock while reading the next request off the socket,
/// stalling every other connection. The guard must not be live across
/// `read_line`.
#[test]
fn lock_discipline_guard_across_socket_read() {
    expect_rules(
        "crates/core/src/wave.rs",
        "fn wave(server: &Mutex<Server>, reader: &mut BufReader<TcpStream>) {\n\
         \x20   let mut line = String::new();\n\
         \x20   let guard = server.lock().unwrap();\n\
         \x20   reader.read_line(&mut line).unwrap();\n\
         \x20   guard.respond(&line);\n\
         }\n",
        &["lock-discipline"],
    );
}

#[test]
fn lock_discipline_flags_pool_fanout_and_file_io() {
    expect_rules(
        "crates/core/src/snap.rs",
        "fn snapshot(state: &Mutex<Store>, pool: &Pool) {\n\
         \x20   let guard = state.lock().unwrap();\n\
         \x20   let out = pool.map(jobs, run);\n\
         \x20   fs::write(path, guard.render(out)).unwrap();\n\
         }\n",
        &["lock-discipline", "lock-discipline"],
    );
}

#[test]
fn lock_discipline_flags_snapshot_io_called_by_path() {
    // The daemon's snapshot file I/O, in the path-call forms
    // `bin/serve.rs` writes it in.
    expect_rules(
        "crates/bench/src/bin/serve.rs",
        "fn persist(server: &Mutex<Server>, path: &Path, cap: Option<usize>) {\n\
         \x20   let guard = server.lock().unwrap();\n\
         \x20   persist::write_snapshot_text(&guard.render(), path).unwrap();\n\
         \x20   let (store, _) = ResultStore::load_snapshot(path, cap).unwrap();\n\
         \x20   guard.adopt(store);\n\
         }\n",
        &["lock-discipline", "lock-discipline"],
    );
}

#[test]
fn lock_discipline_clean_when_dropped_or_scoped() {
    // The serve daemon's actual shape: render under the lock in an
    // inner block, do the blocking write outside it. An explicit
    // `drop(guard)` before the call is equally fine.
    expect_clean(
        "crates/core/src/wave.rs",
        "fn wave(server: &Mutex<Server>, writer: &mut TcpStream) {\n\
         \x20   let text = {\n\
         \x20       let guard = server.lock().unwrap();\n\
         \x20       guard.render()\n\
         \x20   };\n\
         \x20   writer.write_all(text.as_bytes()).unwrap();\n\
         \x20   let guard = server.lock().unwrap();\n\
         \x20   let n = guard.len();\n\
         \x20   drop(guard);\n\
         \x20   writer.flush().unwrap();\n\
         }\n",
    );
}

#[test]
fn lock_discipline_ignores_stdio_handle_locks() {
    // `stdout.lock()` batches I/O on the handle; it is not a Mutex
    // guard and exists precisely to span writes.
    expect_clean(
        "crates/bench/src/bin/tool.rs",
        "fn emit() {\n\
         \x20   let stdout = std::io::stdout();\n\
         \x20   let mut out = stdout.lock();\n\
         \x20   out.write_all(b\"x\").unwrap();\n\
         \x20   out.flush().unwrap();\n\
         }\n",
    );
}

#[test]
fn lock_discipline_suppressed() {
    expect_suppressed(
        "crates/core/src/pool.rs",
        "fn idle(&self) {\n\
         \x20   let guard = self.sleep.lock().unwrap();\n\
         \x20   // lint: allow(lock-discipline, condvar wait must hold its mutex)\n\
         \x20   drop(self.signal.wait(guard).unwrap());\n\
         }\n",
        "lock-discipline",
    );
}

// ------------------------------------------------- float-reduction-order

#[test]
fn float_order_unordered_source_is_error() {
    let out = lint_source(
        "crates/bound/src/x.rs",
        "fn total(m: &HashMap<u32, f64>) -> f64 {\n\
         \x20   let s: f64 = m.values().sum();\n\
         \x20   s\n\
         }\n",
    );
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
    assert_eq!(out.findings[0].rule, "float-reduction-order");
    assert_eq!(out.findings[0].severity, Severity::Error);
}

#[test]
fn float_order_unprovable_source_is_warning() {
    let out = lint_source(
        "crates/bound/src/x.rs",
        "fn total(net: &Net, x: &[f64]) -> f64 {\n\
         \x20   let s: f64 = net.forward(x).iter().sum();\n\
         \x20   s\n\
         }\n",
    );
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
    assert_eq!(out.findings[0].severity, Severity::Warning);
}

#[test]
fn float_order_clean() {
    // Typed ordered bindings, slices, integer sums, min/max folds, and
    // test code are all fine.
    expect_clean(
        "crates/bound/src/x.rs",
        "fn f(xs: &[f64]) -> f64 {\n\
         \x20   let v: Vec<f64> = lower(xs);\n\
         \x20   let a: f64 = v.iter().sum();\n\
         \x20   let b: f64 = xs.iter().map(|x| x * x).sum();\n\
         \x20   let m = v.iter().fold(f64::MIN, |acc, &x| acc.max(x));\n\
         \x20   a + b + m\n\
         }\n\
         fn count(idx: &[usize]) -> usize {\n\
         \x20   idx.iter().sum()\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn t() {\n\
         \x20       let s: f64 = net.forward(&x).iter().sum();\n\
         \x20       assert!(s.abs() < 1.0);\n\
         \x20   }\n\
         }\n",
    );
}

#[test]
fn float_order_out_of_scope() {
    expect_clean(
        "crates/lint/src/x.rs",
        "fn f(net: &Net) -> f64 { net.forward().iter().sum::<f64>() }\n",
    );
}

#[test]
fn float_order_suppressed() {
    expect_suppressed(
        "crates/tensor/src/x.rs",
        "fn norm(&self) -> f64 {\n\
         \x20   // lint: allow(float-reduction-order, data is a Vec in storage order)\n\
         \x20   self.data.iter().map(|v| v * v).sum::<f64>().sqrt()\n\
         }\n",
        "float-reduction-order",
    );
}

//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors a minimal benchmark harness exposing the criterion
//! API surface its benches use: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`], [`black_box`], and
//! the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Mode selection matches criterion: `cargo bench` passes `--bench` to
//! the binary, which enables timed measurement; without it (e.g. when
//! `cargo test` executes the bench target) every routine runs exactly
//! once as a smoke test, keeping the tier-1 test run fast.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Timer handed to each benchmark routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over the harness-chosen number of iterations.
    #[expect(
        clippy::disallowed_methods,
        reason = "timing benchmark routines is this harness's job; no timing reaches a verdict"
    )]
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// The benchmark harness.
pub struct Criterion {
    measure: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measure: std::env::args().any(|a| a == "--bench"),
        }
    }
}

impl Criterion {
    /// Registers and immediately runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        f: F,
    ) -> &mut Self {
        run_benchmark(self.measure, name.as_ref(), f);
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl AsRef<str>) -> BenchmarkGroup<'_> {
        let measure = self.measure;
        BenchmarkGroup {
            _parent: self,
            measure,
            name: name.as_ref().to_string(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    measure: bool,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this harness sizes runs by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Registers and immediately runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        f: F,
    ) -> &mut Self {
        run_benchmark(self.measure, &format!("{}/{}", self.name, name.as_ref()), f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn run_benchmark<F: FnMut(&mut Bencher)>(measure: bool, name: &str, mut f: F) {
    if !measure {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        println!("bench {name} ... ok (smoke, 1 iteration)");
        return;
    }
    // Double the iteration count until one timed batch is long enough to
    // trust, then report the per-iteration time of the final batch.
    let mut iters = 1u64;
    let target = Duration::from_millis(200);
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= target || iters >= 1 << 24 {
            let per_iter = b.elapsed.as_nanos() / u128::from(iters.max(1));
            println!(
                "bench {name:<50} {:>12} ns/iter ({iters} iterations)",
                per_iter
            );
            append_json_record(name, per_iter, iters);
            return;
        }
        iters = iters.saturating_mul(2);
    }
}

/// Appends one JSON line per measured benchmark to the file named by the
/// `ABONN_BENCH_JSON` environment variable; a no-op when the variable is
/// unset or empty. The record layout is stable so scripts can archive and
/// diff bench runs: `{"bench":NAME,"ns_per_iter":N,"iters":N}`.
fn append_json_record(name: &str, ns_per_iter: u128, iters: u64) {
    let Ok(path) = std::env::var("ABONN_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut escaped = String::with_capacity(name.len());
    for ch in name.chars() {
        match ch {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    use std::io::Write;
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(
            file,
            "{{\"bench\":\"{escaped}\",\"ns_per_iter\":{ns_per_iter},\"iters\":{iters}}}"
        );
    }
}

/// Bundles benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        let mut calls = 0u32;
        run_benchmark(false, "unit/smoke", |b| {
            b.iter(|| calls += 1);
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn measure_mode_times_iterations() {
        let mut total = 0u64;
        run_benchmark(true, "unit/measure", |b| b.iter(|| total += 1));
        assert!(total > 1, "measurement should re-run the routine");
    }

    #[test]
    fn json_records_escape_and_roundtrip() {
        let path = std::env::temp_dir().join("abonn-criterion-shim-json-test.jsonl");
        let _ = std::fs::remove_file(&path);
        std::env::set_var("ABONN_BENCH_JSON", &path);
        append_json_record("unit/\"quoted\"", 1234, 8);
        std::env::remove_var("ABONN_BENCH_JSON");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(
            text.contains("{\"bench\":\"unit/\\\"quoted\\\"\",\"ns_per_iter\":1234,\"iters\":8}")
        );
    }
}

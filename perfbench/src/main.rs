//! End-to-end and per-layer benchmark of the ABONN reproduction.
//!
//! ```sh
//! bash perfbench/run.sh --workload suite-mnist --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.sh` builds this program and the `serve` daemon, then runs this
//! binary with the same arguments plus `--serve-bin` and `--work-dir`.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end table below, with `--trace 1` the
//! per-layer table. See `perfbench/README.md` for what each one means.

mod serve;
mod stats;
mod suite;
mod timed;

use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("run_p50_ms", "ms"),
    ("run_tail_ms", "ms"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("solved", "count"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a metric a workload
/// does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.train_s", "s"),
    ("data.calibrate_s", "s"),
    ("core.bab.mnist_l2.wall_s", "s"),
    ("core.crown.mnist_l2.wall_s", "s"),
    ("core.abonn.mnist_l2.wall_s", "s"),
    ("core.bab.mnist_l4.wall_s", "s"),
    ("core.crown.mnist_l4.wall_s", "s"),
    ("core.abonn.mnist_l4.wall_s", "s"),
    ("core.bab.cifar_base.wall_s", "s"),
    ("core.abonn.cifar_base.wall_s", "s"),
    ("core.bab.cifar_wide.wall_s", "s"),
    ("core.abonn.cifar_wide.wall_s", "s"),
    ("core.bab.cifar_deep.wall_s", "s"),
    ("core.abonn.cifar_deep.wall_s", "s"),
    ("core.appver_calls", "count"),
    ("core.nodes_visited", "count"),
    ("core.tree_size", "count"),
    ("core.ns_per_appver", "ns"),
    ("core.self_s", "s"),
    ("bound.calls", "count"),
    ("bound.busy_s", "s"),
    ("bound.ns_per_call", "ns"),
    ("bound.share", "ratio"),
    ("bound.backsub_steps", "count"),
    ("bound.layers_reused", "count"),
    ("bound.layers_recomputed", "count"),
    ("bound.rows_skipped_ratio", "ratio"),
    ("bound.blocks_skipped", "count"),
    ("bound.arena_peak_bytes", "bytes"),
    ("lp.leaf_solves", "count"),
    ("lp.pivots", "count"),
    ("lp.pivot_cells", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    ("check.audits", "count"),
    ("check.audit_busy_s", "s"),
    ("check.audit_ms_max", "ms"),
    ("check.lp_calls", "count"),
    ("check.replays", "count"),
    ("check.replay_busy_s", "s"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.audited_ms_p50", "ms"),
    ("serve.parse_ms_p50", "ms"),
    ("nn.model_json_ms_p50", "ms"),
    ("vnnlib.parse_ms_p50", "ms"),
    ("serve.exact_hits", "count"),
    ("serve.reuse_unsat", "count"),
    ("serve.reuse_sat", "count"),
    ("serve.reuse_cross", "count"),
    ("serve.misses", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.appver_calls_total", "count"),
    ("serve.model_hits", "count"),
    ("serve.model_misses", "count"),
    ("trace.overhead_s", "s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// What a workload measured: operation counts and named metric values.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records one operation, failed when `ok` is false.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

const USAGE: &str = "usage: perfbench --workload suite-mnist|suite-cifar|serve-session \
                     --seed N --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        serve_bin: serve_bin.ok_or_else(|| missing("--serve-bin"))?,
        work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
    })
}

/// Renders the result line: exactly the metrics of `table`, in order.
fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Number(Number::Float(value))),
                ("unit".into(), Value::String(unit.into())),
            ]),
        ));
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        (
            "attempted".into(),
            Value::Number(Number::PosInt(outcome.attempted)),
        ),
        (
            "failed".into(),
            Value::Number(Number::PosInt(outcome.failed)),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    Ok(line.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "suite-mnist" => suite::run(&suite::MNIST, &args),
        "suite-cifar" => suite::run(&suite::CIFAR, &args),
        "serve-session" => serve::run(&args),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(1);
        }
    };
    if outcome.attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        return ExitCode::from(1);
    }
    let ok = (outcome.attempted - outcome.failed) as f64 / outcome.attempted as f64;
    outcome.set("ok_frac", ok);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    match result_line(&outcome, table) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = benchmark.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
                _ => panic!("malformed {key} entry"),
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&benchmark, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&benchmark, "per_layer"), own(PER_LAYER));
    }
}

//! The `serve-session` workload: one client in a closed loop drives the
//! `serve` daemon over its line protocol with a generated session, each
//! request waiting for its reply.
//!
//! Every pass starts a fresh daemon, so each pass sees the same mix of
//! store misses (engine run and insert) and store hits (reads).

use crate::stats::{self, derive_seed, SplitMix};
use crate::suite::{self, Prepared};
use crate::{Args, Outcome};
use abonn_check::{audit_certificate, replay_witness};
use abonn_core::RobustnessProblem;
use abonn_data::datasets::NUM_CLASSES;
use abonn_data::ModelKind;
use abonn_nn::Network;
use abonn_serve::{
    apply_epsilon_override, model_hash, parse_request, robustness_family_key, CachedVerdict,
    ModelRef, Request, ResultStore, Server, ServerConfig, ENGINE_CONFIG,
};
use abonn_vnnlib::Property;
use serde_json::{Number, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The models the session probes, inlined in every request.
const MODELS: &[ModelKind] = &[ModelKind::MnistL2, ModelKind::MnistL4];

/// Calibrated centers per model.
const CENTERS_PER_MODEL: usize = 4;

/// The requests issued for each center, in order: the radius as a
/// multiple of the center's calibrated ε (below it most queries verify,
/// above it most falsify) and whether the request asks for an audit.
/// The second request re-asks a smaller radius, so it is an audited
/// store hit whenever the first one verified; the last repeats the first
/// verbatim, an exact store hit unless the first timed out.
const LADDER: &[(f64, bool)] = &[
    (1.0, false),
    (0.3, true),
    (3.0, false),
    (0.6, false),
    (1.4, false),
    (2.0, false),
    (1.0, false),
];

/// Only every `AUDIT_EVERY`-th center's audited rung asks for an audit:
/// one audit of a branched certificate takes seconds, more than the rest
/// of the center's requests together.
const AUDIT_EVERY: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Call budget of every request.
const CALLS: usize = 300;

/// Worker threads of the daemon. The client waits for every reply, so
/// one worker keeps a single thread busy and leaves the machine's other
/// core to the rest of the system.
const DAEMON_THREADS: &str = "1";

/// One perturbation center.
struct Center {
    model: usize,
    input: Vec<f64>,
    label: usize,
    epsilon: f64,
}

/// One verify request of the session.
struct Query {
    center: usize,
    epsilon: f64,
    audit: bool,
}

/// A generated session: the request lines (the closing `stats` request
/// last) and what each verify line asks.
pub struct Session {
    models: Vec<Prepared>,
    centers: Vec<Center>,
    queries: Vec<Query>,
    pub lines: Vec<String>,
}

/// Generates the session for `seed`, which orders the requests; the same
/// seed gives the same bytes.
/// Also returns the seconds spent training and calibrating.
pub fn generate(seed: u64) -> (Session, f64, f64) {
    let (models, train_s, calibrate_s) = suite::prepare(MODELS, CENTERS_PER_MODEL);
    let mut centers = Vec::new();
    for (m, p) in models.iter().enumerate() {
        for i in &p.instances {
            centers.push(Center {
                model: m,
                input: i.input.clone(),
                label: i.label,
                epsilon: i.epsilon,
            });
        }
    }
    // Each center's ladder in order; the seed interleaves the centers.
    let mut pending: Vec<Vec<Query>> = centers
        .iter()
        .enumerate()
        .map(|(c, center)| {
            LADDER
                .iter()
                .rev()
                .map(|&(factor, audit)| Query {
                    center: c,
                    epsilon: factor * center.epsilon,
                    audit: audit && c % AUDIT_EVERY == 0,
                })
                .collect()
        })
        .collect();
    let mut rng = SplitMix::new(derive_seed(seed, 2));
    let mut queries = Vec::new();
    let mut left: usize = pending.iter().map(Vec::len).sum();
    while left > 0 {
        // Uniform over the remaining requests, so every interleaving of
        // the ladders is equally likely.
        let mut pick = rng.below(left);
        let c = pending
            .iter()
            .position(|p| {
                if pick < p.len() {
                    true
                } else {
                    pick -= p.len();
                    false
                }
            })
            .expect("pick is below the number of pending requests");
        queries.extend(pending[c].pop());
        left -= 1;
    }
    let model_json: Vec<String> = models
        .iter()
        .map(|p| serde_json::to_string(&p.network).expect("trained networks serialise"))
        .collect();
    let mut lines: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let c = &centers[q.center];
            let property =
                abonn_vnnlib::write_robustness(&c.input, q.epsilon, c.label, NUM_CLASSES);
            let center: Vec<Value> = c.input.iter().map(|&v| Value::Number(Number::Float(v))).collect();
            format!(
                "{{\"id\":{},\"cmd\":\"verify\",\"model\":{},\"property\":{},\"epsilon\":{},\"center\":{},\"calls\":{CALLS}{}}}",
                i + 1,
                model_json[c.model],
                Value::String(property),
                Value::Number(Number::Float(q.epsilon)),
                Value::Array(center),
                if q.audit { ",\"audit\":true" } else { "" },
            )
        })
        .collect();
    lines.push(format!(
        "{{\"id\":{},\"cmd\":\"stats\"}}",
        queries.len() + 1
    ));
    let session = Session {
        models,
        centers,
        queries,
        lines,
    };
    (session, train_s, calibrate_s)
}

/// A running daemon: its pipes, killed and reaped if dropped unfinished.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(bin: &Path, store_path: Option<&Path>) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--threads", DAEMON_THREADS])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(path) = store_path {
            cmd.arg("--store-path").arg(path);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let Some(stdout) = stdout else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout is not piped".into());
        };
        let mut daemon = Self {
            child,
            stdin,
            stdout,
        };
        // The daemon has no ready signal; its first answer is one.
        daemon.ask("{\"id\":0,\"cmd\":\"stats\"}")?;
        Ok(daemon)
    }

    fn ask(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin is closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot write to the daemon: {e}"))?;
        let mut reply = String::new();
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("cannot read from the daemon: {e}"))?;
        if n == 0 {
            return Err("the daemon closed its output".into());
        }
        Ok(reply.trim_end().to_string())
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Closes the daemon's input and waits for it to exit cleanly.
    fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Direct timings of the parsing layers on one session line.
#[derive(Default)]
struct LineTimes {
    parse_ms: f64,
    model_json_ms: f64,
    vnnlib_ms: f64,
}

/// Times `parse_request`, `abonn_nn::io::from_json` and
/// `abonn_vnnlib::parse_bytes` on `line`; `None` for non-verify lines.
fn time_line(line: &str) -> Option<LineTimes> {
    let t = Instant::now();
    let request = parse_request(black_box(line)).ok()?;
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;
    let Request::Verify(v) = request else {
        return None;
    };
    let ModelRef::Inline(text) = &v.model else {
        return None;
    };
    let t = Instant::now();
    black_box(abonn_nn::io::from_json(black_box(text)).ok()?);
    let model_json_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    black_box(abonn_vnnlib::parse_bytes(black_box(v.property.as_bytes())).ok()?);
    let vnnlib_ms = t.elapsed().as_secs_f64() * 1e3;
    Some(LineTimes {
        parse_ms,
        model_json_ms,
        vnnlib_ms,
    })
}

/// One session played against one fresh daemon.
struct Pass {
    /// The whole pass, client-side layer timings included.
    wall: f64,
    latency_ms: Vec<f64>,
    responses: Vec<String>,
    /// Direct parsing-layer timings per verify line (traced passes).
    lines: Vec<LineTimes>,
    rss_mb: f64,
}

fn play(
    session: &Session,
    bin: &Path,
    traced: bool,
    store_path: Option<&Path>,
) -> Result<Pass, String> {
    let mut daemon = Daemon::spawn(bin, store_path)?;
    let mut latency_ms = Vec::with_capacity(session.lines.len());
    let mut responses = Vec::with_capacity(session.lines.len());
    let mut lines = Vec::new();
    let start = Instant::now();
    for line in &session.lines {
        if traced {
            lines.extend(time_line(line));
        }
        let t = Instant::now();
        responses.push(daemon.ask(line)?);
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall = start.elapsed().as_secs_f64();
    let rss_mb = stats::peak_rss_mb(&daemon.pid());
    daemon.finish()?;
    Ok(Pass {
        wall,
        latency_ms,
        responses,
        lines,
        rss_mb,
    })
}

fn as_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::Number(n)) => n.as_u64(),
        _ => None,
    }
}

fn witness(v: &Value) -> Option<Vec<f64>> {
    match v.get("witness") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|x| match x {
                Value::Number(n) => Some(n.as_f64()),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

impl Session {
    fn network(&self, q: &Query) -> &Network {
        &self.models[self.centers[q.center].model].network
    }

    /// The property the daemon verifies for `q`: the wire property with
    /// its box rebuilt around the center at the query's ε.
    fn property(&self, q: &Query, epsilon: f64) -> Property {
        let c = &self.centers[q.center];
        let text = abonn_vnnlib::write_robustness(&c.input, q.epsilon, c.label, NUM_CLASSES);
        let parsed =
            abonn_vnnlib::parse_bytes(text.as_bytes()).expect("generated properties parse");
        apply_epsilon_override(&parsed, &c.input, epsilon)
    }
}

/// Checks one pass's responses; returns per-line pass/fail (the closing
/// `stats` line last).
fn check_pass(session: &Session, responses: &[String]) -> Vec<bool> {
    let parsed: Vec<Option<Value>> = responses
        .iter()
        .map(|r| serde_json::from_str(r).ok())
        .collect();
    let mut ok: Vec<bool> = parsed
        .iter()
        .map(|v| {
            v.as_ref()
                .is_some_and(|v| as_str(v, "status") == Some("ok"))
        })
        .collect();
    let mut tags: BTreeMap<&str, u64> = BTreeMap::new();
    // Per center: the largest verified ε and the smallest falsified ε.
    let mut verified_max: BTreeMap<usize, f64> = BTreeMap::new();
    let mut falsified_min: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, q) in session.queries.iter().enumerate() {
        let Some(v) = &parsed[i] else { continue };
        let store = as_str(v, "store").unwrap_or("");
        *tags.entry(store).or_default() += 1;
        let hit = store != "miss";
        if hit && as_u64(v, "appver_calls") != Some(0) {
            ok[i] = false;
        }
        match as_str(v, "verdict") {
            Some("verified") => {
                if q.audit && as_str(v, "audit") != Some("passed") {
                    ok[i] = false;
                }
                let e = verified_max.entry(q.center).or_insert(0.0);
                *e = e.max(q.epsilon);
            }
            Some("falsified") => {
                let c = &session.centers[q.center];
                let valid = witness(v).is_some_and(|w| {
                    RobustnessProblem::new(session.network(q), c.input.clone(), c.label, q.epsilon)
                        .is_ok_and(|p| p.validate_witness(&w))
                });
                ok[i] &= valid;
                let e = falsified_min.entry(q.center).or_insert(f64::INFINITY);
                *e = e.min(q.epsilon);
            }
            Some("timeout") => {}
            _ => ok[i] = false,
        }
    }
    // Robustness is monotone in ε: nothing may falsify below a radius
    // that verified for the same center.
    for (i, q) in session.queries.iter().enumerate() {
        let lo = verified_max.get(&q.center).copied().unwrap_or(0.0);
        let hi = falsified_min
            .get(&q.center)
            .copied()
            .unwrap_or(f64::INFINITY);
        if hi <= lo {
            ok[i] = false;
        }
    }
    // The closing stats counters must equal the tally of store tags.
    let last = session.queries.len();
    if let Some(Some(stats)) = parsed.get(last) {
        let store = stats.get("store").cloned().unwrap_or(Value::Null);
        let tag = |t: &str| tags.get(t).copied().unwrap_or(0);
        let agrees = as_u64(stats, "queries") == Some(session.queries.len() as u64)
            && as_u64(&store, "exact_hits") == Some(tag("exact"))
            && as_u64(&store, "reuse_unsat") == Some(tag("reuse-unsat"))
            && as_u64(&store, "reuse_sat") == Some(tag("reuse-sat"))
            && as_u64(&store, "reuse_cross") == Some(tag("reuse-cross"))
            && as_u64(&store, "misses") == Some(tag("miss"));
        ok[last] &= agrees;
    }
    ok
}

/// The check layer, timed from outside the daemon: every
/// witness the session was answered with is replayed against its own
/// line's property, and every certificate that served an audited request
/// is audited again, read from the pass's store (the daemon's snapshot
/// loaded into a [`Server`]).
fn check_layer(
    out: &mut Outcome,
    session: &Session,
    responses: &[String],
    snapshot: &Path,
) -> Result<(), String> {
    let (store, _) = ResultStore::load_snapshot(snapshot, None)
        .map_err(|e| format!("cannot load the daemon's snapshot: {e}"))?;
    let mut server = Server::new(ServerConfig::default());
    server.load_store(store);
    let hashes: Vec<u64> = session
        .models
        .iter()
        .map(|p| model_hash(&p.network))
        .collect();
    let mut audited = BTreeSet::new();
    let (mut audit_ms, mut lp_calls) = (Vec::new(), 0u64);
    let (mut replays, mut replay_s) = (0u64, 0.0);
    for (q, response) in session.queries.iter().zip(responses) {
        let Ok(v) = serde_json::from_str::<Value>(response) else {
            continue;
        };
        let c = &session.centers[q.center];
        let net = session.network(q);
        if let Some(w) = witness(&v) {
            let property = session.property(q, q.epsilon);
            let t = Instant::now();
            let replayed = replay_witness(net, &property, &w);
            replay_s += t.elapsed().as_secs_f64();
            replays += 1;
            out.tally(replayed.is_ok());
        }
        if !(q.audit && as_str(&v, "verdict") == Some("verified")) {
            continue;
        }
        let adversarial: Vec<usize> = (0..NUM_CLASSES).filter(|&j| j != c.label).collect();
        let family = robustness_family_key(
            hashes[c.model],
            c.label,
            &adversarial,
            &c.input,
            ENGINE_CONFIG,
        );
        let hit = server.store().peek(family, q.epsilon, None, None);
        let Some(CachedVerdict::Unsat { certificate }) = hit.as_ref().map(|h| &h.entry.verdict)
        else {
            out.tally(false);
            continue;
        };
        let source = hit.as_ref().map_or(q.epsilon, |h| h.entry.epsilon);
        if !audited.insert((family, source.to_bits())) {
            continue;
        }
        let problem = RobustnessProblem::from_vnnlib(net, &session.property(q, source))
            .map_err(|e| format!("a stored entry does not lower: {e}"))?;
        let t = Instant::now();
        let report = audit_certificate(certificate, &problem);
        audit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        lp_calls += report.as_ref().map_or(0, |r| r.lp_calls as u64);
        out.tally(report.is_ok());
    }
    out.set("check.audits", audit_ms.len() as f64);
    out.set("check.audit_busy_s", audit_ms.iter().sum::<f64>() / 1e3);
    out.set(
        "check.audit_ms_max",
        audit_ms.iter().copied().fold(0.0, f64::max),
    );
    out.set("check.lp_calls", lp_calls as f64);
    out.set("check.replays", replays as f64);
    out.set("check.replay_busy_s", replay_s);
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;

    // Set-up: train, calibrate, generate the session and start a daemon,
    // several times; every set-up must produce the same session bytes.
    let (mut setups, mut train, mut calibrate) = (Vec::new(), Vec::new(), Vec::new());
    let mut session: Option<Session> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (s, train_s, calibrate_s) = generate(args.seed);
        Daemon::spawn(&args.serve_bin, None)?.finish()?;
        setups.push(t.elapsed().as_secs_f64());
        train.push(train_s);
        calibrate.push(calibrate_s);
        match &session {
            None => session = Some(s),
            Some(first) => out.tally(first.lines == s.lines),
        }
    }
    let session = session.expect("at least one set-up ran");
    out.set("setup_s", stats::median(&setups));
    out.set("data.train_s", stats::median(&train));
    out.set("data.calibrate_s", stats::median(&calibrate));

    let snapshot: PathBuf = args.work_dir.join("serve-store.json");
    let clock = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let trace_this = args.trace && plain.len() > traced.len();
        if trace_this {
            let _ = std::fs::remove_file(&snapshot);
            let pass = play(&session, &args.serve_bin, true, Some(&snapshot))?;
            if traced.is_empty() {
                check_layer(&mut out, &session, &pass.responses, &snapshot)?;
            }
            traced.push(pass);
        } else {
            plain.push(play(&session, &args.serve_bin, false, None)?);
        }
        let balanced = !args.trace || traced.len() == plain.len();
        if clock.elapsed().as_secs_f64() >= args.seconds && balanced {
            break;
        }
    }
    let _ = std::fs::remove_file(&snapshot);

    // Checks: every pass answers as the first did, byte for byte, and the
    // first pass's answers pass `check_pass`.
    let reference = &plain[0].responses;
    let verdicts_ok = check_pass(&session, reference);
    for pass in plain.iter().chain(&traced) {
        for ((line_ok, response), first) in verdicts_ok.iter().zip(&pass.responses).zip(reference) {
            out.tally(*line_ok && response == first);
        }
    }

    // A request's latency is its best over the passes: every pass asks
    // the same session of a fresh daemon, so a slower repeat measured
    // only interference from the rest of the machine.
    let reqs: Vec<f64> = (0..session.lines.len())
        .map(|i| stats::min(plain.iter().map(|p| p.latency_ms[i])))
        .collect();
    let parsed: Vec<Value> = reference
        .iter()
        .map(|r| serde_json::from_str(r).unwrap_or(Value::Null))
        .collect();
    let bucket = |pred: &dyn Fn(&Value) -> bool| -> Vec<f64> {
        session
            .queries
            .iter()
            .enumerate()
            .filter(|(i, _)| pred(&parsed[*i]))
            .map(|(i, _)| reqs[i])
            .collect()
    };
    let audited = |v: &Value| as_str(v, "audit").is_some();
    let misses = bucket(&|v| as_str(v, "store") == Some("miss"));
    let req_tail = stats::tail_percentile(reqs.len());
    let run_tail = stats::tail_percentile(misses.len());
    // One session with every request at its best.
    out.set("wall_s", reqs.iter().sum::<f64>() / 1e3);
    out.set("req_p50_ms", stats::median(&reqs));
    out.set("req_tail_ms", stats::percentile(&reqs, req_tail));
    out.set("run_p50_ms", stats::median(&misses));
    out.set("run_tail_ms", stats::percentile(&misses, run_tail));
    let solved = parsed
        .iter()
        .filter(|v| matches!(as_str(v, "verdict"), Some("verified" | "falsified")))
        .count();
    out.set("solved", solved as f64);
    out.set(
        "peak_rss_mb",
        stats::median(&plain.iter().map(|p| p.rss_mb).collect::<Vec<_>>()),
    );
    eprintln!(
        "perfbench: {} plain + {} traced passes of {} requests; req tail p{req_tail:.1} of n={}, \
         run tail p{run_tail:.1} of n={} engine runs (store misses)",
        plain.len(),
        traced.len(),
        session.lines.len(),
        reqs.len(),
        misses.len()
    );

    out.set(
        "serve.hit_ms_p50",
        stats::median(&bucket(&|v| {
            as_str(v, "store") != Some("miss") && !audited(v)
        })),
    );
    out.set(
        "serve.miss_ms_p50",
        stats::median(&bucket(&|v| {
            as_str(v, "store") == Some("miss") && !audited(v)
        })),
    );
    out.set("serve.audited_ms_p50", stats::median(&bucket(&audited)));
    if let Some(stats_line) = parsed.last() {
        let store = stats_line.get("store").cloned().unwrap_or(Value::Null);
        let models = stats_line.get("models").cloned().unwrap_or(Value::Null);
        let count = |v: &Value, k: &str| as_u64(v, k).unwrap_or(0) as f64;
        for key in [
            "exact_hits",
            "reuse_unsat",
            "reuse_sat",
            "reuse_cross",
            "misses",
        ] {
            out.set(&format!("serve.{key}"), count(&store, key));
        }
        let queries = count(stats_line, "queries");
        let hits = queries - count(&store, "misses");
        out.set(
            "serve.hit_ratio",
            if queries > 0.0 { hits / queries } else { 0.0 },
        );
        out.set(
            "serve.appver_calls_total",
            count(stats_line, "appver_calls_total"),
        );
        out.set("serve.model_hits", count(&models, "hits"));
        out.set("serve.model_misses", count(&models, "misses"));
    }
    if !traced.is_empty() {
        let layer = |f: fn(&LineTimes) -> f64| {
            let n = traced[0].lines.len();
            let per_line: Vec<f64> = (0..n)
                .map(|i| stats::median(&traced.iter().map(|p| f(&p.lines[i])).collect::<Vec<_>>()))
                .collect();
            stats::median(&per_line)
        };
        out.set("serve.parse_ms_p50", layer(|t| t.parse_ms));
        out.set("nn.model_json_ms_p50", layer(|t| t.model_json_ms));
        out.set("vnnlib.parse_ms_p50", layer(|t| t.vnnlib_ms));
        let traced_wall = stats::median(&traced.iter().map(|p| p.wall).collect::<Vec<_>>());
        let plain_wall = stats::median(&plain.iter().map(|p| p.wall).collect::<Vec<_>>());
        out.set("trace.overhead_s", traced_wall - plain_wall);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_are_seeded() {
        let (a, _, _) = generate(1);
        let (b, _, _) = generate(1);
        let (c, _, _) = generate(2);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.lines, c.lines);
        // Another seed reorders the same requests.
        let asked = |s: &Session| {
            let mut q: Vec<(usize, u64, bool)> = s
                .queries
                .iter()
                .map(|q| (q.center, q.epsilon.to_bits(), q.audit))
                .collect();
            q.sort_unstable();
            q
        };
        assert_eq!(asked(&a), asked(&c));
        assert_eq!(
            a.lines.len(),
            CENTERS_PER_MODEL * MODELS.len() * LADDER.len() + 1
        );
        assert!(a.lines.iter().all(|l| !l.contains('\n')));
    }
}

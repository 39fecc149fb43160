//! End-to-end protocol test: drives the real `serve` binary over a pipe
//! and checks the full query lifecycle — fresh verification, exact
//! repeat, ε-dominated reuse in both directions, malformed input,
//! unknown models — plus the determinism contract: the response stream
//! is byte-identical across `--threads 1` and `--threads 4`.
//!
//! Setting `ABONN_REGEN_GOLDEN=1` regenerates the committed smoke-gate
//! fixtures (`scripts/serve-session.jsonl` and
//! `scripts/serve-session.golden`) that `scripts/ci.sh` byte-diffs
//! against a live run.

use abonn_nn::{Layer, Network, Shape};
use abonn_tensor::Matrix;
use abonn_vnnlib::write_robustness;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A fixed 2 → ReLU(4) → 3 network, small enough that every conclusive
/// query in the session resolves within its call budget.
fn demo_net() -> Network {
    Network::new(
        Shape::Flat(2),
        vec![
            Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.5], &[-0.5, 1.0], &[0.8, -1.0], &[-1.0, -0.3]]),
                vec![0.1, -0.2, 0.0, 0.3],
            ),
            Layer::relu(),
            Layer::dense(
                Matrix::from_rows(&[
                    &[1.0, 0.2, -0.3, 0.1],
                    &[-0.4, 1.1, 0.2, -0.2],
                    &[0.3, -0.5, 0.9, 0.4],
                ]),
                vec![0.05, 0.0, -0.05],
            ),
        ],
    )
    .unwrap()
}

fn verify_line(id: u64, model_json: &str, center: &[f64], eps: f64, label: usize) -> String {
    let prop = write_robustness(center, eps, label, 3);
    let center_txt = center
        .iter()
        .map(|c| format!("{c:?}"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"id\":{id},\"cmd\":\"verify\",\"model\":{model_json},\"property\":{},\
         \"epsilon\":{eps:?},\"center\":[{center_txt}],\"calls\":3000,\"audit\":true}}",
        serde_json::to_string(&prop).unwrap()
    )
}

/// The canonical protocol session: covers every response shape.
fn session_lines() -> Vec<String> {
    let net = demo_net();
    // `to_json` pretty-prints; the wire needs the model on one line.
    let model_json: String = {
        let value: serde_json::Value =
            serde_json::from_str(&abonn_nn::io::to_json(&net).unwrap()).unwrap();
        serde_json::to_string(&value).unwrap()
    };
    let center = [0.6, 0.4];
    let label = net
        .forward(&center)
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    let wrong = (label + 1) % 3;
    vec![
        // 1: fresh verification (miss, verified, audited).
        verify_line(1, &model_json, &center, 0.02, label),
        // 2: bit-exact repeat (exact hit, zero engine calls).
        verify_line(2, &model_json, &center, 0.02, label),
        // 3: dominated radius (reuse-unsat, zero engine calls).
        verify_line(3, &model_json, &center, 0.01, label),
        // 4: wrong label — the center itself is a counterexample
        //    (miss, falsified with witness).
        verify_line(4, &model_json, &center, 0.05, wrong),
        // 5: larger radius around the same falsified family
        //    (reuse-sat, witness replayed, zero engine calls).
        verify_line(5, &model_json, &center, 0.08, wrong),
        // 6: not JSON at all.
        "{not json".to_string(),
        // 7: unknown named model.
        r#"{"id":7,"cmd":"verify","model":"missing.json","property":"(p)"}"#.to_string(),
        // 8: property bytes that do not parse.
        format!(
            "{{\"id\":8,\"cmd\":\"verify\",\"model\":{model_json},\
             \"property\":\"(assert (\"}}"
        ),
        // 9: unknown command.
        r#"{"id":9,"cmd":"launch"}"#.to_string(),
        // 10: counters.
        r#"{"id":10,"cmd":"stats"}"#.to_string(),
    ]
}

/// Runs the serve binary over a pipe and returns its stdout.
fn run_session(input: &str, extra_args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("session written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "serve exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("responses are UTF-8")
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    // Good enough for flat response lines produced by our own renderer.
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .scan(0usize, |depth, (i, c)| {
            match c {
                '[' | '{' => *depth += 1,
                ']' | '}' if *depth > 0 => *depth -= 1,
                ',' | '}' if *depth == 0 => return Some(Some(i)),
                _ => {}
            }
            Some(None)
        })
        .flatten()
        .next()
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

#[test]
fn protocol_session_covers_the_lifecycle() {
    let input = session_lines().join("\n") + "\n";
    let out = run_session(&input, &["--threads", "1"]);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 10, "one response per request:\n{out}");

    // 1: fresh verified miss, audited, inside the requested budget.
    assert_eq!(field(lines[0], "id"), Some("1"));
    assert_eq!(field(lines[0], "verdict"), Some("\"verified\""));
    assert_eq!(field(lines[0], "store"), Some("\"miss\""));
    assert_eq!(field(lines[0], "audit"), Some("\"passed\""));
    assert_eq!(field(lines[0], "clamped"), Some("false"));
    let fresh_calls: u64 = field(lines[0], "appver_calls").unwrap().parse().unwrap();
    assert!(fresh_calls > 0);

    // 2: exact hit — the whole point: zero engine calls.
    assert_eq!(field(lines[1], "verdict"), Some("\"verified\""));
    assert_eq!(field(lines[1], "store"), Some("\"exact\""));
    assert_eq!(field(lines[1], "appver_calls"), Some("0"));
    assert_eq!(field(lines[1], "audit"), Some("\"passed\""));

    // 3: dominated radius served from the UNSAT lattice.
    assert_eq!(field(lines[2], "verdict"), Some("\"verified\""));
    assert_eq!(field(lines[2], "store"), Some("\"reuse-unsat\""));
    assert_eq!(field(lines[2], "appver_calls"), Some("0"));
    assert_eq!(field(lines[2], "source_eps"), Some("0.02"));

    // 4: falsified miss with a concrete witness.
    assert_eq!(field(lines[3], "verdict"), Some("\"falsified\""));
    assert_eq!(field(lines[3], "store"), Some("\"miss\""));
    let witness = field(lines[3], "witness").expect("witness present");
    assert!(witness.starts_with('['), "witness array: {witness}");

    // 5: dominating radius served from the SAT side, witness identical.
    assert_eq!(field(lines[4], "verdict"), Some("\"falsified\""));
    assert_eq!(field(lines[4], "store"), Some("\"reuse-sat\""));
    assert_eq!(field(lines[4], "appver_calls"), Some("0"));
    assert_eq!(field(lines[4], "source_eps"), Some("0.05"));
    assert_eq!(field(lines[4], "witness"), Some(witness));

    // 6–9: malformed inputs are structured errors, never crashes.
    for (i, needle) in [
        (5, "invalid JSON"),
        (6, "unknown model"),
        (7, "invalid property"),
        (8, "unknown cmd"),
    ] {
        assert_eq!(
            field(lines[i], "status"),
            Some("\"error\""),
            "line {i}: {}",
            lines[i]
        );
        assert!(
            lines[i].contains(needle),
            "line {i} should mention '{needle}': {}",
            lines[i]
        );
    }

    // 10: counters match the story above (queries counts every parsed
    // verify request, including the two that errored on model/property).
    assert_eq!(field(lines[9], "queries"), Some("7"));
    assert!(lines[9].contains("\"exact_hits\":1"), "{}", lines[9]);
    assert!(lines[9].contains("\"reuse_unsat\":1"), "{}", lines[9]);
    assert!(lines[9].contains("\"reuse_sat\":1"), "{}", lines[9]);
    assert!(lines[9].contains("\"inserts\":2"), "{}", lines[9]);
}

#[test]
fn response_stream_is_byte_identical_across_thread_counts() {
    let input = session_lines().join("\n") + "\n";
    let single = run_session(&input, &["--threads", "1"]);
    let multi = run_session(&input, &["--threads", "4"]);
    assert_eq!(
        single, multi,
        "serving must be a pure function of the request stream"
    );
}

/// A line nested past the JSON parser's depth limit is an ordinary
/// malformed request: the daemon answers it with a structured error and
/// goes on to the next line instead of overflowing its stack.
#[test]
fn deeply_nested_line_is_an_error_not_a_crash() {
    let flood = format!(r#"{{"cmd":"stats","id":{}"#, "[".repeat(300_000));
    let input = format!("{flood}\n{{\"id\":2,\"cmd\":\"stats\"}}\n");
    let out = run_session(&input, &["--threads", "1"]);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "one response per line:\n{out}");
    assert_eq!(field(lines[0], "status"), Some("\"error\""), "{}", lines[0]);
    assert!(
        lines[0].contains("recursion limit exceeded"),
        "{}",
        lines[0]
    );
    assert_eq!(field(lines[1], "id"), Some("2"), "{}", lines[1]);
    assert_eq!(field(lines[1], "status"), Some("\"ok\""), "{}", lines[1]);
}

#[test]
fn store_stats_artifact_is_written() {
    let input = session_lines().join("\n") + "\n";
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-store-stats.json");
    let _ = std::fs::remove_file(&path);
    run_session(
        &input,
        &["--threads", "1", "--store-stats", path.to_str().unwrap()],
    );
    let stats = std::fs::read_to_string(&path).expect("stats artifact written");
    assert!(stats.contains("\"appver_calls_total\""), "{stats}");
    assert!(stats.contains("\"reuse_unsat\": 1"), "{stats}");
}

/// Regenerates the committed CI smoke fixtures when asked to.
#[test]
fn regen_golden_fixtures_when_requested() {
    if std::env::var("ABONN_REGEN_GOLDEN").as_deref() != Ok("1") {
        return;
    }
    let scripts = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scripts");
    let input = session_lines().join("\n") + "\n";
    // The committed golden is produced at --threads 2 so the CI gate also
    // exercises the pooled configuration.
    let out = run_session(&input, &["--threads", "2"]);
    std::fs::write(scripts.join("serve-session.jsonl"), &input).unwrap();
    std::fs::write(scripts.join("serve-session.golden"), &out).unwrap();
    eprintln!("regenerated scripts/serve-session.{{jsonl,golden}}");
}

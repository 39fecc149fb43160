//! Concurrent-serving determinism: N TCP clients with distinct
//! workloads, each byte-identical to a solo stdin replay.
//!
//! The daemon admits request waves from every connection onto one
//! shared server; because every store/model effect flushes in input
//! order per wave, and the two clients' workloads touch disjoint model
//! families, each client's response stream must equal the stream a
//! fresh daemon would produce for that client alone — for every
//! `--threads` × `--batch` combination.
//!
//! Setting `ABONN_REGEN_GOLDEN=1` regenerates the committed fixtures
//! (`scripts/serve-client-{a,b}.jsonl` and `.golden`) that
//! `scripts/ci.sh` replays through the real TCP daemon with two
//! concurrent `serve_client` processes.

use abonn_nn::{Layer, Network, Shape};
use abonn_tensor::Matrix;
use abonn_vnnlib::write_robustness;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// A per-client 2 → ReLU(4) → 3 network; `tweak` shifts the biases so
/// every client owns a distinct model (disjoint store families).
fn client_net(tweak: f64) -> Network {
    Network::new(
        Shape::Flat(2),
        vec![
            Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.5], &[-0.5, 1.0], &[0.8, -1.0], &[-1.0, -0.3]]),
                vec![0.1 + tweak, -0.2, tweak, 0.3],
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

/// One client's session: fresh miss, exact repeat, dominated reuse,
/// falsified miss, SAT reuse, a blank line, and a garbage line. No
/// `stats` — global counters legitimately depend on the interleaving.
fn client_session(tweak: f64) -> String {
    let net = client_net(tweak);
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
    let lines = [
        verify_line(1, &model_json, &center, 0.02, label),
        verify_line(2, &model_json, &center, 0.02, label),
        verify_line(3, &model_json, &center, 0.01, label),
        String::new(),
        verify_line(4, &model_json, &center, 0.05, wrong),
        verify_line(5, &model_json, &center, 0.08, wrong),
        "{not json".to_string(),
    ];
    lines.join("\n") + "\n"
}

/// The daemon under test, killed on drop so no test leaves a listener.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(extra_args: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(extra_args)
        .args(["--tcp", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve binary spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon announces its address before EOF")
            .expect("stderr is readable");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address after prefix")
                .to_string();
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Daemon { child, addr }
}

/// Streams a whole session over one TCP connection, returns the
/// daemon's full response stream for it.
fn tcp_session(addr: &str, session: &str) -> String {
    let stream = TcpStream::connect(addr).expect("client connects");
    let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
    let payload = session.to_string();
    let sender = std::thread::spawn(move || {
        let mut stream = stream;
        stream.write_all(payload.as_bytes()).expect("session sent");
        stream.flush().expect("session flushed");
        stream.shutdown(Shutdown::Write).expect("write half closes");
    });
    let mut out = String::new();
    reader.read_to_string(&mut out).expect("responses read");
    sender.join().expect("sender thread");
    out
}

/// Solo reference: the same session through a fresh stdin-mode daemon.
fn solo_replay(session: &str, extra_args: &[&str]) -> String {
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
        .write_all(session.as_bytes())
        .expect("session written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "serve exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("responses are UTF-8")
}

#[test]
fn concurrent_clients_match_their_solo_replays() {
    let sessions = [client_session(0.0), client_session(0.17)];
    for threads in ["1", "4"] {
        for batch in ["1", "8"] {
            let args = ["--threads", threads, "--batch", batch];
            let solo: Vec<String> = sessions.iter().map(|s| solo_replay(s, &args)).collect();
            let daemon = spawn_daemon(&args);
            let got: Vec<String> = std::thread::scope(|scope| {
                let handles: Vec<_> = sessions
                    .iter()
                    .map(|s| scope.spawn(|| tcp_session(&daemon.addr, s)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            for (client, (live, reference)) in got.iter().zip(&solo).enumerate() {
                assert_eq!(
                    live, reference,
                    "client {client} diverged from its solo replay at \
                     --threads {threads} --batch {batch}"
                );
            }
        }
    }
}

#[test]
fn serve_client_binary_relays_the_stream_faithfully() {
    let session = client_session(0.31);
    let reference = solo_replay(&session, &["--threads", "2", "--batch", "4"]);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-client-session.jsonl");
    std::fs::write(&path, &session).expect("session file written");
    let daemon = spawn_daemon(&["--threads", "2", "--batch", "4"]);
    let out = Command::new(env!("CARGO_BIN_EXE_serve_client"))
        .args(["--addr", &daemon.addr])
        .arg(&path)
        .output()
        .expect("serve_client runs");
    assert!(
        out.status.success(),
        "serve_client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8(out.stdout).expect("UTF-8"), reference);
}

/// `--store-stats` on the TCP daemon is rewritten each time a connection
/// closes: after one client, the file holds the counters of that client's
/// closing `stats` reply.
#[test]
fn tcp_store_stats_follow_each_connection() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-tcp-store-stats.json");
    let _ = std::fs::remove_file(&path);
    let daemon = spawn_daemon(&["--threads", "1", "--store-stats", path.to_str().unwrap()]);
    let session = client_session(0.43) + "{\"id\":9,\"cmd\":\"stats\"}\n";
    let out = tcp_session(&daemon.addr, &session);
    let reply: serde_json::Value =
        serde_json::from_str(out.lines().last().expect("a stats reply")).expect("JSON reply");
    let serde_json::Value::Object(fields) = reply else {
        panic!("the stats reply is an object: {out}");
    };
    assert_eq!(
        fields[..2],
        [
            ("id".to_string(), serde_json::json!(9)),
            ("status".to_string(), serde_json::json!("ok")),
        ]
    );
    let counters = serde_json::Value::Object(fields[2..].to_vec());
    // The daemon writes the file after the connection closes; give it
    // time to get there.
    let mut text = String::new();
    for _ in 0..200 {
        if let Ok(t) = std::fs::read_to_string(&path) {
            text = t;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let file: serde_json::Value = serde_json::from_str(&text).expect("counters file written");
    assert_eq!(file, counters);
    assert_eq!(file["queries"], serde_json::json!(5));
}

/// Regenerates the committed CI fixtures for the concurrent gate.
#[test]
fn regen_client_fixtures_when_requested() {
    if std::env::var("ABONN_REGEN_GOLDEN").as_deref() != Ok("1") {
        return;
    }
    let scripts = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scripts");
    for (name, tweak) in [("a", 0.0), ("b", 0.17)] {
        let session = client_session(tweak);
        let golden = solo_replay(&session, &["--threads", "2"]);
        std::fs::write(scripts.join(format!("serve-client-{name}.jsonl")), &session).unwrap();
        std::fs::write(scripts.join(format!("serve-client-{name}.golden")), &golden).unwrap();
        eprintln!("regenerated scripts/serve-client-{name}.{{jsonl,golden}}");
    }
}

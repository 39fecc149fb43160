//! The verification service daemon front-end.
//!
//! ```sh
//! cargo run --release -p abonn-bench --bin serve -- \
//!     [--threads N] [--batch N] [--max-calls N] [--default-calls N] \
//!     [--model-dir DIR] [--model-cache N] [--store-path FILE] \
//!     [--store-cap N] [--store-stats FILE] [--tcp ADDR]
//! ```
//!
//! Reads one JSON request per line from stdin (or, with `--tcp`, from
//! concurrently served TCP connections) and writes one JSON response
//! per line. The response stream is byte-identical for any `--threads`
//! and `--batch` value: wave-mates only precompute work the in-order
//! flush would have done anyway.
//!
//! With `--store-path` the ε-lattice store is loaded from a snapshot at
//! startup (a missing file means a fresh store; a malformed one is a
//! structured error and exit 2) and written back atomically at EOF and
//! after every TCP connection, so proofs survive daemon restarts.
//! `--store-cap` bounds the store to N cached entries with
//! deterministic whole-family LRU eviction.
//!
//! At EOF the store/model counters are written as JSON to
//! `--store-stats` when given. Exits 0 on EOF, 2 on usage/snapshot
//! errors.

use abonn_serve::{persist, ResultStore, Server, ServerConfig};
use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

struct Options {
    config: ServerConfig,
    store_path: Option<PathBuf>,
    store_stats: Option<PathBuf>,
    tcp: Option<String>,
}

const USAGE: &str = "usage: serve [--threads N] [--batch N] [--max-calls N] \
                     [--default-calls N] [--model-dir DIR] [--model-cache N] \
                     [--store-path FILE] [--store-cap N] [--store-stats FILE] [--tcp ADDR]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        config: ServerConfig::default(),
        store_path: None,
        store_stats: None,
        tcp: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--threads" => {
                opts.config.threads = value()?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--batch" => {
                opts.config.batch = value()?.parse().map_err(|e| format!("bad --batch: {e}"))?;
            }
            "--max-calls" => {
                opts.config.max_calls = value()?
                    .parse()
                    .map_err(|e| format!("bad --max-calls: {e}"))?;
            }
            "--default-calls" => {
                opts.config.default_calls = value()?
                    .parse()
                    .map_err(|e| format!("bad --default-calls: {e}"))?;
            }
            "--model-dir" => opts.config.model_dir = Some(PathBuf::from(value()?)),
            "--model-cache" => {
                opts.config.model_cache_capacity = value()?
                    .parse()
                    .map_err(|e| format!("bad --model-cache: {e}"))?;
            }
            "--store-path" => opts.store_path = Some(PathBuf::from(value()?)),
            "--store-cap" => {
                opts.config.store_cap = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --store-cap: {e}"))?,
                );
            }
            "--store-stats" => opts.store_stats = Some(PathBuf::from(value()?)),
            "--tcp" => opts.tcp = Some(value()?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Renders the stats document. Pure rendering: callers that share the
/// server behind a mutex render under the lock and hand the string to
/// [`write_stats`] after dropping the guard.
fn stats_text(server: &Server) -> String {
    serde_json::to_string_pretty(&server.stats_json()).expect("stats tree serialises")
}

/// Writes the counters atomically, like a snapshot: concurrent TCP
/// connections may close at once, and a reader never sees a torn file.
fn write_stats(json: &str, path: &Path) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match persist::write_snapshot_text(json, path) {
        Ok(()) => eprintln!("store counters written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Writes an already-rendered snapshot (see [`Server::store`] and
/// `ResultStore::snapshot_string`) atomically.
fn save_store(text: &str, path: &Path) {
    match persist::write_snapshot_text(text, path) {
        Ok(()) => eprintln!("store snapshot written to {}", path.display()),
        Err(e) => eprintln!("cannot write snapshot {}: {e}", path.display()),
    }
}

/// Files the TCP daemon rewrites each time a connection closes.
#[derive(Clone, Default)]
struct Outputs {
    store_path: Option<PathBuf>,
    store_stats: Option<PathBuf>,
}

fn serve_tcp(server: Arc<Mutex<Server>>, addr: &str, outputs: &Outputs) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("listening on {} (Ctrl-C to stop)", listener.local_addr()?);
    accept_loop(listener.incoming(), &server, outputs);
    Ok(())
}

fn accept_loop(
    incoming: impl Iterator<Item = std::io::Result<TcpStream>>,
    server: &Arc<Mutex<Server>>,
    outputs: &Outputs,
) {
    for stream in incoming {
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("accept failed: {e}");
                continue;
            }
        };
        let peer = match stream.peer_addr() {
            Ok(peer) => peer,
            Err(e) => {
                eprintln!("connection dropped before it was served: {e}");
                continue;
            }
        };
        eprintln!("connection from {peer}");
        // The store and model cache persist across connections and are
        // shared between concurrent clients: proofs established for one
        // client answer every other client's dominated queries. Each
        // connection gets its own thread; the server lock is held per
        // request wave, never while a connection is idle.
        let server = Arc::clone(server);
        let outputs = outputs.clone();
        std::thread::spawn(move || {
            let mut reader = match stream.try_clone() {
                Ok(s) => BufReader::new(s),
                Err(e) => {
                    eprintln!("connection {peer} failed: {e}");
                    return;
                }
            };
            let mut writer = stream;
            match Server::run_shared(&server, &mut reader, &mut writer) {
                Ok(()) => eprintln!("connection {peer} closed"),
                Err(e) => eprintln!("connection {peer} ended with error: {e}"),
            }
            // Render the snapshot and the counters under the lock, write
            // the files after the guard drops: file I/O must never stall
            // the other connections' request waves. The daemon is stopped
            // by a signal, so this is the last chance to write them.
            let (mut snapshot, mut stats) = (None, None);
            if let Ok(guard) = server.lock() {
                snapshot = outputs
                    .store_path
                    .as_ref()
                    .map(|_| guard.store().snapshot_string());
                stats = outputs.store_stats.as_ref().map(|_| stats_text(&guard));
            }
            if let (Some(path), Some(text)) = (&outputs.store_path, snapshot) {
                save_store(&text, path);
            }
            if let (Some(path), Some(json)) = (&outputs.store_stats, stats) {
                write_stats(&json, path);
            }
        });
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut server = Server::new(opts.config);
    if let Some(path) = &opts.store_path {
        if path.exists() {
            match ResultStore::load_snapshot(path, server.store().capacity()) {
                Ok((store, report)) => {
                    eprintln!(
                        "store snapshot loaded from {}: {} families, {} entries, \
                         {} witnesses (certificates re-audit before first reuse)",
                        path.display(),
                        report.families,
                        report.entries,
                        report.witnesses
                    );
                    server.load_store(store);
                }
                Err(e) => {
                    eprintln!("cannot load snapshot {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
    }
    let result = match &opts.tcp {
        Some(addr) => {
            // `serve_tcp` returns only when the listener cannot be set
            // up: a failed accept is logged and skipped. The snapshot and
            // the counters are written each time a connection closes.
            let outputs = Outputs {
                store_path: opts.store_path.clone(),
                store_stats: opts.store_stats.clone(),
            };
            serve_tcp(Arc::new(Mutex::new(server)), addr, &outputs)
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            let mut input = BufReader::new(stdin.lock());
            let r = server.run(&mut input, &mut out);
            let _ = out.flush();
            if let Some(path) = &opts.store_path {
                save_store(&server.store().snapshot_string(), path);
            }
            if let Some(path) = &opts.store_stats {
                write_stats(&stats_text(&server), path);
            }
            r
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("I/O error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, ErrorKind};
    use std::net::Shutdown;

    #[test]
    fn a_failed_accept_does_not_end_the_accept_loop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // A loop that gave up would leave this read waiting forever.
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                .unwrap();
            stream.write_all(b"{\"id\":1,\"cmd\":\"stats\"}\n").unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            let mut reply = String::new();
            BufReader::new(stream).read_line(&mut reply).unwrap();
            reply
        });
        // A transient accept error comes first (EMFILE reads the same),
        // then the real client's connection.
        let incoming = [
            Err(std::io::Error::from(ErrorKind::ConnectionAborted)),
            Err(std::io::Error::from_raw_os_error(24)),
        ]
        .into_iter()
        .chain(listener.incoming().take(1));
        let server = Arc::new(Mutex::new(Server::new(ServerConfig::default())));
        accept_loop(incoming, &server, &Outputs::default());
        let reply = client.join().unwrap();
        assert!(
            reply.starts_with("{\"id\":1,\"status\":\"ok\""),
            "the client after the failed accepts must be answered, got {reply:?}"
        );
    }
}

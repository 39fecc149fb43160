//! Line-protocol client for the serve daemon's TCP mode.
//!
//! ```sh
//! cargo run --release -p abonn-bench --bin serve_client -- \
//!     --addr HOST:PORT FILE
//! ```
//!
//! Streams every line of FILE to the daemon from a writer thread while
//! reading responses concurrently, prints one response line per
//! non-blank request line to stdout, and exits 0 once all responses
//! arrived. Exits 1 if the connection drops before every expected
//! response is read — a client must never silently under-report.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::process::ExitCode;

const USAGE: &str = "usage: serve_client --addr HOST:PORT FILE";

fn parse_args() -> Result<(String, String), String> {
    let mut addr = None;
    let mut file = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr needs a value")?),
            "--help" | "-h" => return Err(USAGE.into()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'\n{USAGE}"));
            }
            _ if file.is_none() => file = Some(arg),
            _ => return Err(format!("more than one FILE given\n{USAGE}")),
        }
    }
    match (addr, file) {
        (Some(a), Some(f)) => Ok((a, f)),
        _ => Err(USAGE.into()),
    }
}

fn run(addr: &str, file: &str) -> Result<(), String> {
    let session = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    // Blank request lines are ignored by the daemon; everything else —
    // including garbage — draws exactly one response line.
    let expected = session.lines().filter(|l| !l.trim().is_empty()).count();
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let sender = std::thread::spawn(move || -> Result<(), String> {
        writer
            .write_all(session.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        if !session.ends_with('\n') {
            writer
                .write_all(b"\n")
                .map_err(|e| format!("send failed: {e}"))?;
        }
        writer.flush().map_err(|e| format!("send failed: {e}"))?;
        // Half-close so the daemon sees EOF and ends the connection
        // once its responses are flushed.
        writer
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("shutdown failed: {e}"))?;
        Ok(())
    });
    let mut reader = BufReader::new(stream);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut received = 0usize;
    let mut line = String::new();
    while received < expected {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err(format!(
                "connection closed after {received} of {expected} responses"
            ));
        }
        out.write_all(line.as_bytes())
            .map_err(|e| format!("stdout write failed: {e}"))?;
        received += 1;
    }
    out.flush()
        .map_err(|e| format!("stdout flush failed: {e}"))?;
    sender
        .join()
        .map_err(|_| "sender thread panicked".to_string())??;
    Ok(())
}

fn main() -> ExitCode {
    let (addr, file) = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&addr, &file) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(1)
        }
    }
}

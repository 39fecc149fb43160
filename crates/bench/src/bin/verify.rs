//! Command-line verifier: check a VNN-LIB property against a JSON model —
//! the interface VNN-COMP-style tool runners expect.
//!
//! ```sh
//! cargo run --release -p abonn-bench --bin verify -- \
//!     --model model.json --property prop.vnnlib \
//!     [--verifier abonn|bab|crown|portfolio] [--calls N] [--seconds S] \
//!     [--certificate cert.json]
//! ```
//!
//! Prints `verified`, `falsified <witness…>`, or `timeout` on stdout and
//! exits 0 (conclusive) or 2 (timeout); malformed inputs exit 1. A
//! verified run of `abonn`, `bab` or `crown` writes its proof certificate
//! to `--certificate`; `portfolio` builds none, so it rejects the flag.

use abonn_core::{
    AbonnVerifier, BabBaseline, Budget, CrownStyle, Portfolio, RobustnessProblem, Verdict, Verifier,
};
use abonn_nn::io as nn_io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    model: PathBuf,
    property: PathBuf,
    verifier: String,
    calls: usize,
    seconds: Option<u64>,
    certificate: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        model: PathBuf::new(),
        property: PathBuf::new(),
        verifier: "abonn".into(),
        calls: 10_000,
        seconds: None,
        certificate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--model" => opts.model = PathBuf::from(value()?),
            "--property" => opts.property = PathBuf::from(value()?),
            "--verifier" => opts.verifier = value()?,
            "--calls" => opts.calls = value()?.parse().map_err(|e| format!("bad --calls: {e}"))?,
            "--seconds" => {
                opts.seconds = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --seconds: {e}"))?,
                )
            }
            "--certificate" => opts.certificate = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if opts.model.as_os_str().is_empty() || opts.property.as_os_str().is_empty() {
        return Err(format!("--model and --property are required\n{USAGE}"));
    }
    match opts.verifier.as_str() {
        "abonn" | "bab" | "crown" => {}
        "portfolio" if opts.certificate.is_none() => {}
        "portfolio" => {
            return Err(format!(
                "--certificate needs --verifier abonn, bab or crown\n{USAGE}"
            ))
        }
        other => return Err(format!("unknown verifier '{other}'\n{USAGE}")),
    }
    Ok(opts)
}

const USAGE: &str = "usage: verify --model MODEL.json --property PROP.vnnlib \
[--verifier abonn|bab|crown|portfolio] [--calls N] [--seconds S] [--certificate OUT.json]";

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    let network = match nn_io::load_network(&opts.model) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("cannot load model: {e}");
            return ExitCode::from(1);
        }
    };
    let text = match std::fs::read_to_string(&opts.property) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read property: {e}");
            return ExitCode::from(1);
        }
    };
    let property = match abonn_vnnlib::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot parse property: {e}");
            return ExitCode::from(1);
        }
    };
    let problem = match RobustnessProblem::from_vnnlib(&network, &property) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot encode problem: {e}");
            return ExitCode::from(1);
        }
    };

    let mut budget = Budget::with_appver_calls(opts.calls);
    if let Some(s) = opts.seconds {
        budget = budget.and_wall_limit(Duration::from_secs(s));
    }

    // Every engine but the portfolio runs through its certificate-aware
    // path, so --certificate works; `parse_args` accepted nothing else.
    let (result, certificate) = match opts.verifier.as_str() {
        "abonn" => AbonnVerifier::default().verify_with_certificate(&problem, &budget),
        "bab" => BabBaseline::default().verify_with_certificate(&problem, &budget),
        "crown" => CrownStyle::default().verify_with_certificate(&problem, &budget),
        _ => (Portfolio::standard().verify(&problem, &budget), None),
    };

    eprintln!("stats: {}", result.stats);
    match result.verdict {
        Verdict::Verified => {
            println!("verified");
            if let (Some(path), Some(cert)) = (&opts.certificate, certificate) {
                match serde_json::to_string(&cert)
                    .map_err(std::io::Error::other)
                    .and_then(|json| std::fs::write(path, json))
                {
                    Ok(()) => eprintln!("certificate written to {}", path.display()),
                    Err(e) => eprintln!("warning: cannot write certificate: {e}"),
                }
            }
            ExitCode::SUCCESS
        }
        Verdict::Falsified(witness) => {
            let coords: Vec<String> = witness.iter().map(|v| format!("{v}")).collect();
            println!("falsified {}", coords.join(" "));
            ExitCode::SUCCESS
        }
        Verdict::Timeout => {
            println!("timeout");
            ExitCode::from(2)
        }
    }
}

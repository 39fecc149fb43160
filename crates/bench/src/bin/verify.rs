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
//! verified run of any engine, the portfolio included, writes its proof
//! certificate to `--certificate`; `abonn-check`'s `audit_certificate`
//! re-establishes it.

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
        "abonn" | "bab" | "crown" | "portfolio" => Ok(opts),
        other => Err(format!("unknown verifier '{other}'\n{USAGE}")),
    }
}

const USAGE: &str = "usage: verify --model MODEL.json --property PROP.vnnlib \
[--verifier abonn|bab|crown|portfolio] [--calls N] [--seconds S] [--certificate OUT.json]
  --certificate writes the proof of a verified run, whichever the verifier";

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

    // `parse_args` accepted no other engine name.
    let verifier: Box<dyn Verifier> = match opts.verifier.as_str() {
        "abonn" => Box::new(AbonnVerifier::default()),
        "bab" => Box::new(BabBaseline::default()),
        "crown" => Box::new(CrownStyle::default()),
        _ => Box::new(Portfolio::standard()),
    };
    let result = verifier.verify(&problem, &budget);

    eprintln!("stats: {}", result.stats);
    match result.verdict {
        Verdict::Verified => {
            println!("verified");
            if let (Some(path), Some(cert)) = (&opts.certificate, result.certificate) {
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

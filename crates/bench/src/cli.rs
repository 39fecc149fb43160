//! Minimal argument parsing shared by the experiment binaries.

use crate::scenario::Scale;
use std::path::PathBuf;

/// Common options of every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed (training, instance generation, random heuristics).
    pub seed: u64,
    /// Directory for CSV/JSON outputs.
    pub out_dir: PathBuf,
    /// Ignore cached run records and recompute.
    pub fresh: bool,
    /// Worker-pool size for the parallel engine (≥ 1; defaults to the
    /// machine's available parallelism). Reports are byte-identical
    /// regardless of this value.
    pub threads: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: Scale::Smoke,
            seed: 2025,
            out_dir: PathBuf::from("target/experiments"),
            fresh: false,
            threads: abonn_core::pool::default_threads(),
        }
    }
}

impl Args {
    /// Parses `--scale`, `--seed`, `--out-dir`, `--fresh`, `--threads`
    /// from an iterator of raw arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or malformed values.
    pub fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = raw.peekable();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    args.scale = Scale::parse(&v)
                        .ok_or_else(|| format!("unknown scale '{v}' (smoke|default|full)"))?;
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    args.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
                }
                "--out-dir" => {
                    let v = it.next().ok_or("--out-dir needs a value")?;
                    args.out_dir = PathBuf::from(v);
                }
                "--fresh" => args.fresh = true,
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    args.threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
                    if args.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: [--scale smoke|default|full] [--seed N] [--out-dir DIR] \
                         [--fresh] [--threads N]"
                            .into(),
                    )
                }
                other => return Err(format!("unknown flag '{other}' (try --help)")),
            }
        }
        // The pool the binaries build from this value needs >= 1 lane.
        assert!(args.threads >= 1, "Args::parse produced an empty pool");
        Ok(args)
    }

    /// Parses the process arguments, exiting with the usage message on
    /// error. Intended as the first line of each binary's `main`.
    #[must_use]
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults_are_smoke_scale() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Smoke);
        assert!(!a.fresh);
        assert!(a.threads >= 1, "default pool must have at least one lane");
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--scale",
            "full",
            "--seed",
            "7",
            "--out-dir",
            "/tmp/x",
            "--fresh",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
        assert!(a.fresh);
        assert_eq!(a.threads, 3);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale", "tiny"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--scale", "tiny"]).unwrap_err().contains("tiny"));
        assert!(parse(&["--seed", "abc"]).unwrap_err().contains("abc"));
        assert!(parse(&["--seed", "-3"]).unwrap_err().contains("-3"));
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--out-dir"]).unwrap_err().contains("--out-dir"));
        assert!(parse(&["--help"]).unwrap_err().contains("usage"));
    }

    #[test]
    fn rejects_bad_thread_counts() {
        assert!(parse(&["--threads"]).unwrap_err().contains("--threads"));
        assert!(parse(&["--threads", "zero"]).unwrap_err().contains("zero"));
        assert!(parse(&["--threads", "-2"]).unwrap_err().contains("-2"));
        assert!(parse(&["--threads", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert_eq!(parse(&["--threads", "1"]).unwrap().threads, 1);
    }
}

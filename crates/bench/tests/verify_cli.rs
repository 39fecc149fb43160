//! The `verify` binary end to end: a tiny model and a robustness property
//! are written to disk and checked through the command line.

use abonn_check::audit_certificate;
use abonn_core::{Certificate, RobustnessProblem};
use abonn_nn::io::save_network;
use abonn_nn::{Layer, Network, Shape};
use abonn_tensor::Matrix;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const INPUT: [f64; 2] = [0.6, 0.4];
const EPSILON: f64 = 0.1;
const LABEL: usize = 0;

/// Two inputs, four ReLUs comparing them, two classes; class 0 wins on
/// the whole box around `INPUT`.
fn relu_compare_net() -> Network {
    Network::new(
        Shape::Flat(2),
        vec![
            Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, -1.0], &[-1.0, 1.0]]),
                vec![0.0; 4],
            ),
            Layer::relu(),
            Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.0, 0.5, 0.0], &[0.0, 1.0, 0.0, 0.5]]),
                vec![0.0; 2],
            ),
        ],
    )
    .expect("valid network")
}

/// A fresh directory holding `model.json` and `prop.vnnlib`.
fn instance_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abonn-verify-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    save_network(&relu_compare_net(), &dir.join("model.json")).expect("write model");
    let property = abonn_vnnlib::write_robustness(&INPUT, EPSILON, LABEL, 2);
    std::fs::write(dir.join("prop.vnnlib"), property).expect("write property");
    dir
}

fn verify(dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_verify"))
        .arg("--model")
        .arg(dir.join("model.json"))
        .arg("--property")
        .arg(dir.join("prop.vnnlib"))
        .args(extra)
        .output()
        .expect("run verify")
}

#[test]
fn every_certifying_engine_writes_an_auditable_certificate() {
    let net = relu_compare_net();
    let problem = RobustnessProblem::new(&net, INPUT.to_vec(), LABEL, EPSILON).unwrap();
    for engine in ["abonn", "bab", "crown", "portfolio"] {
        let dir = instance_dir(engine);
        let cert_path = dir.join("out.json");
        let cert_arg = cert_path.to_str().expect("utf-8 temp path");
        let out = verify(&dir, &["--verifier", engine, "--certificate", cert_arg]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{engine}: {out:?}");
        assert_eq!(stdout.trim(), "verified", "{engine}");
        let text = std::fs::read_to_string(&cert_path)
            .unwrap_or_else(|e| panic!("{engine}: no certificate written: {e}"));
        let cert: Certificate = serde_json::from_str(&text).expect("certificate JSON");
        audit_certificate(&cert, &problem)
            .unwrap_or_else(|e| panic!("{engine}: certificate fails the audit: {e}"));
        std::fs::remove_dir_all(&dir).expect("clean temp dir");
    }
}

#[test]
fn unknown_engines_are_usage_errors() {
    // No model exists here: a usage error must come from argument
    // parsing, before any file is read.
    let missing =
        std::env::temp_dir().join(format!("abonn-verify-cli-none-{}", std::process::id()));
    let out = verify(&missing, &["--verifier", "beta"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "ran an engine");
    assert!(stderr.contains("usage:"), "{stderr}");
}

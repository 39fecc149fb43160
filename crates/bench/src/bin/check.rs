//! Certificate audit over the benchmark suite: run the certificate-aware
//! engines on the tier-1 instances and replay every emitted certificate
//! through the independent checker in `abonn-check`.
//!
//! ```sh
//! cargo run --release -p abonn-bench --bin check -- \
//!     [--scale smoke|default|full] [--seed N] [--out-dir DIR] [--models SUBSTR]
//! ```
//!
//! For each `(model, instance)` pair the ABONN search and the BaB
//! baseline run with certificate emission; `Verified` runs must pass the
//! strict audit, `Timeout` runs must pass the partial audit (open leaves
//! exactly covering the unexplored region). Any rejection is printed and
//! the process exits 1.
//!
//! `--models` keeps only models whose paper name contains the given
//! substring (case-insensitive). The audit replays each leaf with LPs
//! over every input variable, so the 192-input CIFAR models cost one to
//! two minutes per certificate; CI audits `--models mnist` and the conv
//! models are opt-in.

use abonn_bench::scenario::{prepare_model_cached, PreparedModel};
use abonn_bench::Args;
use abonn_check::{audit_certificate, audit_partial, AuditReport};
use abonn_core::{
    AbonnVerifier, BabBaseline, Budget, Certificate, RobustnessProblem, RunResult, Verdict,
};
use abonn_data::{ModelKind, VerificationInstance};
use std::process::ExitCode;

fn audit_one(
    name: &str,
    prepared: &PreparedModel,
    instance: &VerificationInstance,
    result: &RunResult,
    certificate: Option<&Certificate>,
    problem: &RobustnessProblem,
) -> Result<Option<AuditReport>, String> {
    let verdict = match &result.verdict {
        Verdict::Verified => "verified",
        Verdict::Falsified(_) => "falsified",
        Verdict::Timeout => "timeout",
    };
    let label = format!(
        "{} {} #{} ({verdict})",
        name,
        prepared.kind.paper_name(),
        instance.id
    );
    match (&result.verdict, certificate) {
        (Verdict::Verified, Some(cert)) => audit_certificate(cert, problem)
            .map(Some)
            .map_err(|e| format!("{label}: certificate rejected: {e}")),
        (Verdict::Timeout, Some(cert)) => audit_partial(cert, problem)
            .map(Some)
            .map_err(|e| format!("{label}: partial certificate rejected: {e}")),
        (Verdict::Falsified(w), None) => {
            if problem.validate_witness(w) {
                Ok(None)
            } else {
                Err(format!("{label}: invalid counterexample witness"))
            }
        }
        (Verdict::Falsified(_), Some(_)) => {
            Err(format!("{label}: falsified run carries a certificate"))
        }
        (_, None) => Err(format!("{label}: no certificate emitted")),
    }
}

fn main() -> ExitCode {
    // Strip the binary-specific `--models` filter before handing the rest
    // to the shared parser.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut filter: Option<String> = None;
    if let Some(pos) = raw.iter().position(|a| a == "--models") {
        raw.remove(pos);
        if pos < raw.len() {
            filter = Some(raw.remove(pos).to_lowercase());
        } else {
            eprintln!("--models needs a value (substring of a paper model name)");
            return ExitCode::from(2);
        }
    }
    let args = match Args::parse(raw.into_iter()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let kinds: Vec<ModelKind> = ModelKind::ALL
        .into_iter()
        .filter(|kind| {
            filter
                .as_ref()
                .is_none_or(|f| kind.paper_name().to_lowercase().contains(f))
        })
        .collect();
    if kinds.is_empty() {
        eprintln!("--models filter matched no benchmark model");
        return ExitCode::from(2);
    }
    let models: Vec<PreparedModel> = kinds
        .into_iter()
        .map(|kind| prepare_model_cached(kind, args.scale.per_model(), args.seed, &args.out_dir))
        .collect();
    let budget: Budget = args.scale.budget();
    let mut audited = 0usize;
    let mut leaves = 0usize;
    let mut open = 0usize;
    let mut lp_calls = 0usize;
    let mut failures = Vec::new();
    for prepared in &models {
        for instance in &prepared.instances {
            let problem = RobustnessProblem::new(
                &prepared.network,
                instance.input.clone(),
                instance.label,
                instance.epsilon,
            )
            .expect("suite instances are valid specifications");
            let runs = [
                (
                    "abonn",
                    AbonnVerifier::default().verify_with_certificate(&problem, &budget),
                ),
                (
                    "bab",
                    BabBaseline::default().verify_with_certificate(&problem, &budget),
                ),
            ];
            for (name, (result, certificate)) in &runs {
                match audit_one(
                    name,
                    prepared,
                    instance,
                    result,
                    certificate.as_ref(),
                    &problem,
                ) {
                    Ok(Some(report)) => {
                        audited += 1;
                        leaves += report.leaves;
                        open += report.open;
                        lp_calls += report.lp_calls;
                    }
                    Ok(None) => {}
                    Err(msg) => {
                        eprintln!("FAIL {msg}");
                        failures.push(msg);
                    }
                }
            }
            eprintln!(
                "checked {} #{}",
                prepared.kind.paper_name(),
                instance.id
            );
        }
    }
    println!(
        "{audited} certificates audited: {leaves} leaves re-verified, {open} open obligations \
         covered, {lp_calls} LP calls; {} rejections",
        failures.len()
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

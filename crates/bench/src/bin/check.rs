//! Certificate audit over the benchmark suite: run the engines on the
//! tier-1 instances and replay every returned certificate through the
//! independent checker in `abonn-check`.
//!
//! ```sh
//! cargo run --release -p abonn-bench --bin check -- \
//!     [--scale smoke|default|full] [--seed N] [--out-dir DIR]
//! ```
//!
//! For each `(model, instance)` pair of all five models the ABONN search
//! and the BaB baseline run; `Verified` runs must pass the strict audit,
//! `Timeout` runs must pass the partial audit (open leaves exactly
//! covering the unexplored region). Any rejection is printed and the
//! process exits 1.
//!
//! The summary line splits the re-verified leaves by the stage that
//! closed them: vacuous, interval, linear, box LP and refined LP. Most
//! close at the linear stage, before any LP, so the smoke-scale audit of
//! all five models takes seconds.

use abonn_bench::scenario::{prepare_model_cached, PreparedModel};
use abonn_bench::Args;
use abonn_check::{audit_certificate, audit_partial, AuditReport};
use abonn_core::{
    AbonnVerifier, BabBaseline, Budget, RobustnessProblem, RunResult, Verdict, Verifier,
};
use abonn_data::{ModelKind, VerificationInstance};
use std::process::ExitCode;

fn audit_one(
    name: &str,
    prepared: &PreparedModel,
    instance: &VerificationInstance,
    result: &RunResult,
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
    match (&result.verdict, &result.certificate) {
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
    let args = Args::from_env();
    let models: Vec<PreparedModel> = ModelKind::ALL
        .into_iter()
        .map(|kind| prepare_model_cached(kind, args.scale.per_model(), args.seed, &args.out_dir))
        .collect();
    let budget: Budget = args.scale.budget();
    let mut audited = 0usize;
    let mut total = AuditReport::default();
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
                ("abonn", AbonnVerifier::default().verify(&problem, &budget)),
                ("bab", BabBaseline::default().verify(&problem, &budget)),
            ];
            for (name, result) in &runs {
                match audit_one(name, prepared, instance, result, &problem) {
                    Ok(Some(report)) => {
                        audited += 1;
                        total.leaves += report.leaves;
                        total.vacuous_leaves += report.vacuous_leaves;
                        total.open += report.open;
                        total.by_interval += report.by_interval;
                        total.by_linear += report.by_linear;
                        total.by_box_lp += report.by_box_lp;
                        total.by_refined_lp += report.by_refined_lp;
                        total.lp_calls += report.lp_calls;
                    }
                    Ok(None) => {}
                    Err(msg) => {
                        eprintln!("FAIL {msg}");
                        failures.push(msg);
                    }
                }
            }
            eprintln!("checked {} #{}", prepared.kind.paper_name(), instance.id);
        }
    }
    println!(
        "{audited} certificates audited: {} leaves re-verified ({} vacuous, {} interval, \
         {} linear, {} box LP, {} refined LP), {} open obligations covered, {} LP calls; \
         {} rejections",
        total.leaves,
        total.vacuous_leaves,
        total.by_interval,
        total.by_linear,
        total.by_box_lp,
        total.by_refined_lp,
        total.open,
        total.lp_calls,
        failures.len()
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

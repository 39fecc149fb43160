//! Served-vs-batch differential fuzzing: the daemon must be an
//! observationally pure cache over the single-shot engine.
//!
//! For each generated case the campaign runs the same query two ways —
//! through a persistent [`Server`] (store warm across queries) and as a
//! direct batch call into [`AbonnVerifier`] on the identically adjusted
//! property — and then probes the store with repeat and dominated
//! queries. Checked invariants:
//!
//! * First served answer ≡ batch answer (verdict and witness values).
//! * Exact repeat → `store: "exact"` with `appver_calls == 0` and a
//!   byte-identical response apart from store bookkeeping.
//! * Dominated queries (ε/2 after UNSAT, 1.5·ε after SAT) are served
//!   from the lattice with zero engine calls, and a *fresh* engine run
//!   at the dominated radius agrees whenever it is conclusive.
//! * Cross-center probes: after a falsified case, a query at a *shifted*
//!   center whose clamped ball contains the cached witness is served
//!   `reuse-cross` from the cohort index with zero engine calls, the
//!   witness replays against the probe's own region, and a fresh engine
//!   never verifies that region.
//! * Every store-served UNSAT carries `audit: "passed"` — the
//!   certificate survived an independent `audit_certificate`.
//!
//! This lives here rather than in `abonn-check` because the dependency
//! points this way: the checker cannot depend on the serving layer.

use crate::server::{apply_epsilon_override, Server, ServerConfig};
use abonn_check::fuzz::generate_case;
use abonn_check::replay_witness;
use abonn_core::{AbonnVerifier, Budget, RobustnessProblem, Verdict, Verifier};
use abonn_nn::CanonicalNetwork;
use serde_json::Value;
use std::fmt::Write as _;

/// Outcome of a served-vs-batch campaign.
#[derive(Debug, Clone, Default)]
pub struct ServedOutcome {
    /// Cases generated.
    pub cases: usize,
    /// Batch-verified cases.
    pub verified: usize,
    /// Batch-falsified cases.
    pub falsified: usize,
    /// Batch timeouts.
    pub timeout: usize,
    /// Store-served responses observed (exact + reuse).
    pub store_hits: usize,
    /// Cross-center cohort-index hits observed.
    pub cross_hits: usize,
    /// Served UNSAT responses whose certificate re-audited.
    pub audits_passed: usize,
    /// Human-readable invariant violations (empty on success).
    pub mismatches: Vec<String>,
}

impl ServedOutcome {
    /// Whether every invariant held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// A served response, parsed back out of its JSON line.
#[derive(Debug)]
struct Response {
    verdict: String,
    witness: Option<Vec<f64>>,
    store: String,
    appver_calls: u64,
    audit_passed: bool,
    raw: String,
}

fn parse_response(line: &str) -> Result<Response, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let field = |k: &str| value.get(k).cloned();
    if field("status") != Some(Value::String("ok".into())) {
        return Err(format!("non-ok response: {line}"));
    }
    let Some(Value::String(verdict)) = field("verdict") else {
        return Err(format!("missing verdict: {line}"));
    };
    let Some(Value::String(store)) = field("store") else {
        return Err(format!("missing store: {line}"));
    };
    let witness = match field("witness") {
        Some(Value::Array(items)) => Some(
            items
                .iter()
                .map(|v| match v {
                    Value::Number(n) => Ok(n.as_f64()),
                    other => Err(format!("non-numeric witness entry: {other:?}")),
                })
                .collect::<Result<Vec<f64>, String>>()?,
        ),
        _ => None,
    };
    let appver_calls = match field("appver_calls") {
        Some(Value::Number(n)) => n.as_u64().unwrap_or(0),
        _ => return Err(format!("missing appver_calls: {line}")),
    };
    let audit_passed = field("audit") == Some(Value::String("passed".into()));
    Ok(Response {
        verdict,
        witness,
        store,
        appver_calls,
        audit_passed,
        raw: line.to_string(),
    })
}

fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::Verified => "verified",
        Verdict::Falsified(_) => "falsified",
        Verdict::Timeout => "timeout",
    }
}

pub(crate) fn request_line(
    model_json: &str,
    property: &str,
    center: &[f64],
    epsilon: f64,
    calls: usize,
) -> String {
    let center_txt = center
        .iter()
        .map(|c| format!("{c:?}"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"cmd\":\"verify\",\"model\":{model_json},\"property\":{},\
         \"epsilon\":{epsilon:?},\"center\":[{center_txt}],\"calls\":{calls},\
         \"audit\":true}}",
        serde_json::to_string(property).expect("string serialises")
    )
}

/// Runs a served-vs-batch campaign of `count` cases from `seed`.
///
/// # Panics
///
/// Panics only on internal harness bugs (unparseable own requests);
/// engine/server disagreements are *recorded* in the outcome, not
/// panicked, so callers can print every mismatch.
#[must_use]
pub fn run_served_campaign(seed: u64, count: u64) -> ServedOutcome {
    let mut outcome = ServedOutcome::default();
    let mut server = Server::new(ServerConfig::default());

    for index in 0..count {
        let case = generate_case(seed, index);
        outcome.cases += 1;
        let network = case.net.build();
        let classes = network.output_dim();
        let model_json = abonn_nn::io::to_json(&network).expect("network serialises");
        let property_text =
            abonn_vnnlib::write_robustness(&case.input, case.epsilon, case.label, classes);
        let mut fail = |msg: String| {
            let mut tagged = String::new();
            let _ = write!(tagged, "case {seed}/{index}: {msg}");
            outcome.mismatches.push(tagged);
        };

        // Batch reference: the engine alone, on the identically adjusted
        // property (same clamped box the server will verify).
        let parsed = abonn_vnnlib::parse(&property_text).expect("writer output parses");
        let adjusted = apply_epsilon_override(&parsed, &case.input, case.epsilon);
        let canon = CanonicalNetwork::from_network(&network).expect("generated net lowers");
        let problem = RobustnessProblem::from_vnnlib_prelowered(&network, &canon, &adjusted)
            .expect("generated case is well-formed");
        let budget = Budget::with_appver_calls(case.budget_calls);
        let batch = AbonnVerifier::default().verify(&problem, &budget);
        match batch.verdict {
            Verdict::Verified => outcome.verified += 1,
            Verdict::Falsified(_) => outcome.falsified += 1,
            Verdict::Timeout => outcome.timeout += 1,
        }

        // Served, first time: must reproduce the batch answer.
        let line = request_line(
            &model_json,
            &property_text,
            &case.input,
            case.epsilon,
            case.budget_calls,
        );
        let first = match server.handle_line(&line).map(|r| parse_response(&r)) {
            Some(Ok(r)) => r,
            Some(Err(e)) => {
                fail(format!("first response unparseable: {e}"));
                continue;
            }
            None => {
                fail("first request produced no response".into());
                continue;
            }
        };
        if first.verdict != verdict_name(&batch.verdict) {
            fail(format!(
                "served verdict '{}' != batch verdict '{}'",
                first.verdict,
                verdict_name(&batch.verdict)
            ));
            continue;
        }
        if let (Verdict::Falsified(batch_w), Some(served_w)) = (&batch.verdict, &first.witness) {
            if batch_w != served_w {
                fail(format!(
                    "served witness {served_w:?} != batch witness {batch_w:?}"
                ));
            }
        }
        if first.store != "miss" && first.store != "exact" && !first.store.starts_with("reuse") {
            fail(format!("unexpected store tag '{}'", first.store));
        }
        if first.store != "miss" {
            outcome.store_hits += 1;
            if first.appver_calls != 0 {
                fail(format!(
                    "store-served response cost {} engine calls",
                    first.appver_calls
                ));
            }
        }
        if first.verdict == "verified" && !first.audit_passed {
            fail(format!("verified response lacks audit: {}", first.raw));
        }
        if first.verdict == "verified" {
            outcome.audits_passed += 1;
        }

        // Exact repeat: a store hit, zero engine calls, same answer.
        let second = match server.handle_line(&line).map(|r| parse_response(&r)) {
            Some(Ok(r)) => r,
            other => {
                fail(format!("repeat response invalid: {other:?}",));
                continue;
            }
        };
        if first.verdict == "timeout" {
            // Timeouts are never cached: the repeat recomputes.
            if second.store != "miss" {
                fail(format!("timeout was cached: {}", second.raw));
            }
        } else {
            if second.store != "exact" || second.appver_calls != 0 {
                fail(format!("repeat not an exact free hit: {}", second.raw));
            }
            if second.verdict != first.verdict || second.witness != first.witness {
                fail(format!(
                    "repeat changed the answer: {} vs {}",
                    second.raw, first.raw
                ));
            }
            if second.verdict == "verified" && !second.audit_passed {
                fail(format!("served UNSAT lacks audit: {}", second.raw));
            }
            outcome.store_hits += 1;
            if second.verdict == "verified" {
                outcome.audits_passed += 1;
            }
        }

        // Dominated query: down the lattice after UNSAT, up after SAT.
        let (dominated_eps, expected_tag) = match &batch.verdict {
            Verdict::Verified => (case.epsilon * 0.5, "reuse-unsat"),
            Verdict::Falsified(_) => (case.epsilon * 1.5, "reuse-sat"),
            Verdict::Timeout => continue,
        };
        let dominated_line = request_line(
            &model_json,
            &property_text,
            &case.input,
            dominated_eps,
            case.budget_calls,
        );
        let third = match server
            .handle_line(&dominated_line)
            .map(|r| parse_response(&r))
        {
            Some(Ok(r)) => r,
            other => {
                fail(format!("dominated response invalid: {other:?}"));
                continue;
            }
        };
        if third.store != expected_tag || third.appver_calls != 0 {
            fail(format!(
                "dominated query not served as {expected_tag}: {}",
                third.raw
            ));
            continue;
        }
        if third.verdict != first.verdict {
            fail(format!(
                "dominated verdict '{}' != source verdict '{}'",
                third.verdict, first.verdict
            ));
        }
        if expected_tag == "reuse-sat" && third.witness != first.witness {
            fail(format!(
                "reused witness differs: {:?} vs {:?}",
                third.witness, first.witness
            ));
        }
        if expected_tag == "reuse-unsat" {
            if !third.audit_passed {
                fail(format!("served UNSAT lacks audit: {}", third.raw));
            }
            outcome.audits_passed += 1;
        }
        outcome.store_hits += 1;

        // Cross-check the reused answer against a fresh engine run at the
        // dominated radius. A fresh Timeout is compatible with anything —
        // the store knows a conclusive answer the budget couldn't re-find.
        let dominated_adjusted = apply_epsilon_override(&parsed, &case.input, dominated_eps);
        let dominated_problem =
            RobustnessProblem::from_vnnlib_prelowered(&network, &canon, &dominated_adjusted)
                .expect("dominated case is well-formed");
        let fresh = AbonnVerifier::default().verify(&dominated_problem, &budget);
        if !matches!(fresh.verdict, Verdict::Timeout)
            && verdict_name(&fresh.verdict) != third.verdict
        {
            fail(format!(
                "fresh verdict '{}' at eps {dominated_eps} contradicts served '{}'",
                verdict_name(&fresh.verdict),
                third.verdict
            ));
        }

        // Cross-center probe: a query at a *shifted* center whose clamped
        // ball contains the cached witness must be answered from the
        // cohort index with zero engine calls.
        if let (Verdict::Falsified(_), Some(cached)) = (&batch.verdict, first.witness.clone()) {
            let shifted: Vec<f64> = case
                .input
                .iter()
                .map(|&c| if c <= 0.5 { c + 0.01 } else { c - 0.01 })
                .collect();
            // Radius: far enough to contain the witness, with slack so
            // containment is not decided at the boundary bit.
            let radius = cached
                .iter()
                .zip(&shifted)
                .map(|(w, c)| (w - c).abs())
                .fold(0.0_f64, f64::max)
                + 0.01;
            let probe_text = abonn_vnnlib::write_robustness(&shifted, radius, case.label, classes);
            let probe_line = request_line(
                &model_json,
                &probe_text,
                &shifted,
                radius,
                case.budget_calls,
            );
            let probe = match server.handle_line(&probe_line).map(|r| parse_response(&r)) {
                Some(Ok(r)) => r,
                other => {
                    fail(format!("cross probe response invalid: {other:?}"));
                    continue;
                }
            };
            if probe.store != "reuse-cross" || probe.appver_calls != 0 {
                fail(format!(
                    "cross probe not served from the cohort index: {}",
                    probe.raw
                ));
                continue;
            }
            if probe.verdict != "falsified" || probe.witness.as_ref() != Some(&cached) {
                fail(format!("cross probe changed the answer: {}", probe.raw));
            }
            outcome.store_hits += 1;
            outcome.cross_hits += 1;
            // The serve layer replayed before answering; replay once more
            // here so the harness does not take its word for it.
            let probe_parsed = abonn_vnnlib::parse(&probe_text).expect("writer output parses");
            let probe_adjusted = apply_epsilon_override(&probe_parsed, &shifted, radius);
            if let Err(e) = replay_witness(&network, &probe_adjusted, &cached) {
                fail(format!("cross-served witness fails replay: {e}"));
            }
            // A fresh engine on the probe region must never verify it —
            // the region provably contains a counterexample.
            let probe_problem =
                RobustnessProblem::from_vnnlib_prelowered(&network, &canon, &probe_adjusted)
                    .expect("probe case is well-formed");
            let fresh_probe = AbonnVerifier::default().verify(&probe_problem, &budget);
            if matches!(fresh_probe.verdict, Verdict::Verified) {
                fail(format!(
                    "fresh engine verified the probe region containing witness {cached:?}"
                ));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_served_campaign_is_clean() {
        let outcome = run_served_campaign(2025, 6);
        assert_eq!(outcome.cases, 6);
        assert!(
            outcome.is_clean(),
            "mismatches:\n{}",
            outcome.mismatches.join("\n")
        );
        assert!(outcome.store_hits > 0, "repeats must hit the store");
        assert_eq!(
            outcome.cross_hits, outcome.falsified,
            "every falsified case draws one cross-center probe"
        );
        assert_eq!(
            outcome.verified + outcome.falsified + outcome.timeout,
            outcome.cases
        );
    }
}

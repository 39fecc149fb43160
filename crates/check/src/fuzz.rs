//! Seeded differential fuzzing across all three engines.
//!
//! Each case is derived deterministically from `(seed, index)`, so a
//! campaign is reproducible from its command line and a single failing
//! case is reproducible from its JSON dump. Every case runs the MCTS
//! search and the BaB baseline (each with incremental bounding on 1 and 4
//! worker threads, and bounding every node from scratch through
//! [`FromScratch`] on 1 thread) and the CROWN-style baseline, then
//! cross-checks:
//!
//! * **Verdict agreement** — two solved runs must agree (`Timeout` is
//!   compatible with anything).
//! * **Witness validity** — every `Falsified` witness must falsify the
//!   property under a concrete forward pass.
//! * **Stats determinism** — `RunStats` must be identical across thread
//!   counts (modulo wall time) and identical between incremental and
//!   from-scratch bounding modulo wall time and the cache work counters,
//!   including the certificate bytes.
//! * **Certificate audits** — verified runs must produce certificates
//!   that pass [`crate::audit::audit_certificate`]; timed-out runs must
//!   produce partial certificates that pass
//!   [`crate::audit::audit_partial`].
//!
//! Failing cases are greedily minimized (halve the budget, shrink the
//! radius, drop hidden neurons) before being reported.

use crate::audit::{audit_certificate, audit_partial};
use abonn_bound::{AppVer, DeepPoly, FromScratch};
use abonn_core::heuristics::HeuristicKind;
use abonn_core::{
    AbonnConfig, AbonnVerifier, BabBaseline, Budget, RobustnessProblem, RunResult, RunStats,
    Verdict, Verifier, WorkerPool,
};
use abonn_nn::{Layer, Network, Shape};
use abonn_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Weight-layout description of a fully-connected ReLU network, kept as
/// plain nested vectors so repro files are readable and mutation (neuron
/// dropping) is trivial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseSpec {
    /// Row-major weights, one row per output neuron.
    pub weights: Vec<Vec<f64>>,
    /// Per-output bias.
    pub bias: Vec<f64>,
}

/// A network as a list of dense stages with ReLUs between them (none
/// after the last).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetSpec {
    /// Input dimension.
    pub input_dim: usize,
    /// Dense stages, first to last.
    pub layers: Vec<DenseSpec>,
}

impl NetSpec {
    /// Materialises the runtime [`Network`].
    ///
    /// # Panics
    ///
    /// Panics if the spec is structurally inconsistent (the generator and
    /// minimizer only produce consistent specs).
    #[must_use]
    pub fn build(&self) -> Network {
        let mut layers = Vec::new();
        for (k, stage) in self.layers.iter().enumerate() {
            let rows: Vec<&[f64]> = stage.weights.iter().map(Vec::as_slice).collect();
            layers.push(Layer::dense(Matrix::from_rows(&rows), stage.bias.clone()));
            if k + 1 < self.layers.len() {
                layers.push(Layer::relu());
            }
        }
        Network::new(Shape::Flat(self.input_dim), layers).expect("generated spec is consistent")
    }
}

/// One self-contained fuzz instance, serialisable as a repro file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzCase {
    /// Campaign seed.
    pub seed: u64,
    /// Case index within the campaign.
    pub index: u64,
    /// The network.
    pub net: NetSpec,
    /// Center of the `L∞` ball.
    pub input: Vec<f64>,
    /// Claimed label.
    pub label: usize,
    /// Perturbation radius.
    pub epsilon: f64,
    /// Per-engine `AppVer` call budget (call-based only, for
    /// determinism).
    pub budget_calls: usize,
}

impl FuzzCase {
    /// Serialises the case as pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FuzzCase serialises")
    }

    /// Parses a case from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// What a cross-check violation looked like.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// Two solved engines disagreed on the verdict.
    VerdictDisagreement,
    /// A falsified run returned a witness the concrete network accepts.
    InvalidWitness,
    /// `RunStats` differed where they must be identical.
    StatsMismatch,
    /// A certificate failed its audit (or was missing/unexpected).
    CertificateRejected,
    /// The instance could not even be constructed.
    SpecError,
}

/// A cross-check violation, tied to the engine variant that exposed it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzFailure {
    /// Violation category.
    pub kind: FailureKind,
    /// Human-readable description (engine variant, values involved).
    pub detail: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// Aggregate result of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignOutcome {
    /// Cases generated and run.
    pub cases: usize,
    /// Cases every engine verified.
    pub verified: usize,
    /// Cases every solved engine falsified.
    pub falsified: usize,
    /// Cases where all engines timed out.
    pub timeout: usize,
    /// Certificate audits that passed (complete + partial).
    pub audits_passed: usize,
    /// Minimized failing cases with their violations.
    pub failures: Vec<(FuzzCase, FuzzFailure)>,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministically derives case `index` of campaign `seed`.
#[must_use]
pub fn generate_case(seed: u64, index: u64) -> FuzzCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ index.wrapping_mul(GOLDEN));
    let net = if rng.gen_bool(0.35) {
        gate_net(&mut rng)
    } else {
        random_net(&mut rng)
    };
    let input_dim = net.input_dim;
    let mut input: Vec<f64> = (0..input_dim).map(|_| rng.gen_range(0.15..0.85)).collect();
    if net.layers.len() >= 2 && input_dim == 2 && rng.gen_bool(0.5) {
        // Bias gate nets toward the interesting corner of their design.
        input = vec![rng.gen_range(0.7..0.9), rng.gen_range(0.1..0.3)];
    }
    let network = net.build();
    let out = network.forward(&input);
    let label = out
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    let epsilon = rng.gen_range(0.03..0.4);
    let budget_calls = *[12usize, 40, 120]
        .get(rng.gen_range(0usize..3))
        .expect("three budgets");
    FuzzCase {
        seed,
        index,
        net,
        input,
        label,
        epsilon,
        budget_calls,
    }
}

/// A small fully-random ReLU net: 2–4 inputs, 1–2 hidden layers of width
/// 2–5, 2–3 classes.
fn random_net(rng: &mut SmallRng) -> NetSpec {
    let input_dim = rng.gen_range(2usize..=4);
    let hidden_layers = rng.gen_range(1usize..=2);
    let classes = rng.gen_range(2usize..=3);
    let mut dims = vec![input_dim];
    for _ in 0..hidden_layers {
        dims.push(rng.gen_range(2usize..=5));
    }
    dims.push(classes);
    let mut layers = Vec::new();
    for w in dims.windows(2) {
        let (n_in, n_out) = (w[0], w[1]);
        layers.push(DenseSpec {
            weights: (0..n_out)
                .map(|_| (0..n_in).map(|_| rng.gen_range(-1.5..1.5)).collect())
                .collect(),
            bias: (0..n_out).map(|_| rng.gen_range(-0.5..0.5)).collect(),
        });
    }
    NetSpec { input_dim, layers }
}

/// A "gate" net built to defeat one-shot relaxations: the margin
/// subtracts two ReLU gates whose thresholds sit near the input sum, so
/// robust instances still force the engines to branch.
fn gate_net(rng: &mut SmallRng) -> NetSpec {
    let t1 = 1.0 + rng.gen_range(-0.05..0.05);
    let t2 = 0.9 + rng.gen_range(-0.05..0.05);
    let coef = 0.2 + rng.gen_range(-0.05..0.05);
    NetSpec {
        input_dim: 2,
        layers: vec![
            DenseSpec {
                weights: vec![
                    vec![1.0, 1.0],
                    vec![1.0, 1.0],
                    vec![1.0, 0.0],
                    vec![0.0, 1.0],
                ],
                bias: vec![-t1, -t2, 0.0, 0.0],
            },
            DenseSpec {
                weights: vec![vec![-coef, -coef, 1.0, 0.0], vec![0.0, 0.0, 0.0, 1.0]],
                bias: vec![0.0, 0.0],
            },
        ],
    }
}

/// One engine run: verdict, stats, and certificate.
struct VariantRun {
    name: &'static str,
    result: RunResult,
}

/// Runs every engine variant on the case's problem.
fn run_variants(problem: &RobustnessProblem, budget: &Budget) -> Vec<VariantRun> {
    // Planet-style DeepPoly, with parent-prefix reuse (`cache`) or bounding
    // every node from scratch.
    let planet = |cache: bool| -> Arc<dyn AppVer> {
        if cache {
            Arc::new(DeepPoly::planet())
        } else {
            Arc::new(FromScratch(DeepPoly::planet()))
        }
    };
    let mut runs = Vec::new();
    for (name, cache, threads) in [
        ("abonn/cache/1t", true, 1),
        ("abonn/nocache/1t", false, 1),
        ("abonn/cache/4t", true, 4),
    ] {
        let result = AbonnVerifier::new(AbonnConfig::default(), planet(cache))
            .with_pool(Arc::new(WorkerPool::new(threads)))
            .verify(problem, budget);
        runs.push(VariantRun { name, result });
    }
    for (name, cache, threads) in [
        ("bab/cache/1t", true, 1),
        ("bab/nocache/1t", false, 1),
        ("bab/cache/4t", true, 4),
    ] {
        let result = BabBaseline::new(HeuristicKind::DeepSplit, planet(cache))
            .with_pool(Arc::new(WorkerPool::new(threads)))
            .verify(problem, budget);
        runs.push(VariantRun { name, result });
    }
    runs.push(VariantRun {
        name: "crown",
        result: abonn_core::CrownStyle::default().verify(problem, budget),
    });
    runs
}

fn strip_wall(mut s: RunStats) -> RunStats {
    s.wall = Duration::ZERO;
    s
}

fn strip_cache_counters(mut s: RunStats) -> RunStats {
    s.wall = Duration::ZERO;
    s.cache_layers_reused = 0;
    s.cache_layers_recomputed = 0;
    s.backsub_steps = 0;
    s.backsub_rows_skipped = 0;
    s.backsub_rows_total = 0;
    s.blocks_skipped = 0;
    s.arena_bytes_peak = 0;
    s
}

fn fail(kind: FailureKind, detail: String) -> FuzzFailure {
    FuzzFailure { kind, detail }
}

/// Per-case summary on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseReport {
    /// `true` when every engine verified (nobody timed out or falsified).
    pub all_verified: bool,
    /// `true` when every solved engine falsified.
    pub any_falsified: bool,
    /// Certificate audits that passed.
    pub audits_passed: usize,
}

/// Runs one case through every engine variant and every cross-check.
///
/// # Errors
///
/// The first [`FuzzFailure`] encountered.
pub fn run_case(case: &FuzzCase) -> Result<CaseReport, FuzzFailure> {
    let network = case.net.build();
    let problem = RobustnessProblem::new(&network, case.input.clone(), case.label, case.epsilon)
        .map_err(|e| fail(FailureKind::SpecError, format!("problem construction: {e}")))?;
    let budget = Budget::with_appver_calls(case.budget_calls);
    let runs = run_variants(&problem, &budget);

    // Witness validity: a claimed counterexample must actually flip the
    // concrete network.
    for run in &runs {
        if let Verdict::Falsified(w) = &run.result.verdict {
            if !problem.validate_witness(w) {
                return Err(fail(
                    FailureKind::InvalidWitness,
                    format!("{}: witness {w:?} does not falsify the property", run.name),
                ));
            }
        }
    }

    // Verdict agreement among solved runs.
    let mut solved: Option<(&str, bool)> = None;
    for run in &runs {
        let this = match run.result.verdict {
            Verdict::Verified => Some(true),
            Verdict::Falsified(_) => Some(false),
            Verdict::Timeout => None,
        };
        if let Some(this) = this {
            match solved {
                None => solved = Some((run.name, this)),
                Some((first, v)) if v != this => {
                    return Err(fail(
                        FailureKind::VerdictDisagreement,
                        format!(
                            "{first} says {} but {} says {}",
                            verdict_word(v),
                            run.name,
                            verdict_word(this)
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }

    // Stats determinism: identical across thread counts; identical across
    // cache settings modulo the cache work counters.
    for (a, b) in [(0usize, 2usize), (3, 5)] {
        let (ra, rb) = (&runs[a], &runs[b]);
        if strip_wall(ra.result.stats) != strip_wall(rb.result.stats) {
            return Err(fail(
                FailureKind::StatsMismatch,
                format!(
                    "{} vs {}: {:?} != {:?}",
                    ra.name, rb.name, ra.result.stats, rb.result.stats
                ),
            ));
        }
        if ra.result.verdict != rb.result.verdict {
            return Err(fail(
                FailureKind::VerdictDisagreement,
                format!(
                    "{} vs {}: thread count changed the verdict",
                    ra.name, rb.name
                ),
            ));
        }
    }
    for (a, b) in [(0usize, 1usize), (3, 4)] {
        let (ra, rb) = (&runs[a], &runs[b]);
        if strip_cache_counters(ra.result.stats) != strip_cache_counters(rb.result.stats) {
            return Err(fail(
                FailureKind::StatsMismatch,
                format!(
                    "{} vs {}: {:?} != {:?}",
                    ra.name, rb.name, ra.result.stats, rb.result.stats
                ),
            ));
        }
        if ra.result.verdict != rb.result.verdict {
            return Err(fail(
                FailureKind::VerdictDisagreement,
                format!(
                    "{} vs {}: bound cache changed the verdict",
                    ra.name, rb.name
                ),
            ));
        }
        if ra.result.certificate != rb.result.certificate {
            return Err(fail(
                FailureKind::CertificateRejected,
                format!(
                    "{} vs {}: bound cache changed the certificate",
                    ra.name, rb.name
                ),
            ));
        }
    }
    // Certificate audits.
    let mut audits_passed = 0usize;
    for run in &runs {
        match (&run.result.verdict, &run.result.certificate) {
            (Verdict::Verified, Some(cert)) => {
                audit_certificate(cert, &problem).map_err(|e| {
                    fail(
                        FailureKind::CertificateRejected,
                        format!("{}: complete certificate rejected: {e}", run.name),
                    )
                })?;
                audits_passed += 1;
            }
            (Verdict::Verified, None) => {
                return Err(fail(
                    FailureKind::CertificateRejected,
                    format!("{}: verified without a certificate", run.name),
                ));
            }
            (Verdict::Timeout, Some(cert)) => {
                audit_partial(cert, &problem).map_err(|e| {
                    fail(
                        FailureKind::CertificateRejected,
                        format!("{}: partial certificate rejected: {e}", run.name),
                    )
                })?;
                audits_passed += 1;
            }
            (Verdict::Timeout, None) => {
                return Err(fail(
                    FailureKind::CertificateRejected,
                    format!("{}: timeout without a partial certificate", run.name),
                ));
            }
            (Verdict::Falsified(_), Some(_)) => {
                return Err(fail(
                    FailureKind::CertificateRejected,
                    format!("{}: falsified run carries a certificate", run.name),
                ));
            }
            (Verdict::Falsified(_), None) => {}
        }
    }

    let all_verified = runs
        .iter()
        .all(|r| matches!(r.result.verdict, Verdict::Verified));
    let any_falsified = runs
        .iter()
        .any(|r| matches!(r.result.verdict, Verdict::Falsified(_)));
    Ok(CaseReport {
        all_verified,
        any_falsified,
        audits_passed,
    })
}

fn verdict_word(verified: bool) -> &'static str {
    if verified {
        "verified"
    } else {
        "falsified"
    }
}

/// Greedily shrinks a failing case: each candidate mutation is kept when
/// the case still fails (with any failure), until no mutation helps or
/// the rerun budget (60) is exhausted. Returns the minimized case and its
/// (possibly different) failure.
#[must_use]
pub fn minimize(case: FuzzCase, failure: FuzzFailure) -> (FuzzCase, FuzzFailure) {
    let mut best = case;
    let mut best_failure = failure;
    let mut reruns = 0usize;
    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if reruns >= 60 {
                return (best, best_failure);
            }
            reruns += 1;
            if let Err(f) = run_case(&candidate) {
                best = candidate;
                best_failure = f;
                improved = true;
                break;
            }
        }
        if !improved {
            return (best, best_failure);
        }
    }
}

/// Candidate shrinks, cheapest first.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    if case.budget_calls > 4 {
        let mut c = case.clone();
        c.budget_calls /= 2;
        out.push(c);
    }
    if case.epsilon > 0.02 {
        let mut c = case.clone();
        c.epsilon /= 2.0;
        out.push(c);
    }
    // Drop one neuron from each hidden stage in turn.
    for stage in 0..case.net.layers.len().saturating_sub(1) {
        let width = case.net.layers[stage].bias.len();
        if width <= 1 {
            continue;
        }
        for j in 0..width {
            let mut net = case.net.clone();
            net.layers[stage].weights.remove(j);
            net.layers[stage].bias.remove(j);
            for row in &mut net.layers[stage + 1].weights {
                row.remove(j);
            }
            let mut c = case.clone();
            c.net = net;
            out.push(c);
        }
    }
    out
}

/// Runs a whole campaign: `count` cases derived from `seed`, failures
/// minimized.
#[must_use]
pub fn run_campaign(seed: u64, count: u64) -> CampaignOutcome {
    let mut outcome = CampaignOutcome::default();
    for index in 0..count {
        let case = generate_case(seed, index);
        outcome.cases += 1;
        match run_case(&case) {
            Ok(report) => {
                if report.all_verified {
                    outcome.verified += 1;
                } else if report.any_falsified {
                    outcome.falsified += 1;
                } else {
                    outcome.timeout += 1;
                }
                outcome.audits_passed += report.audits_passed;
            }
            Err(failure) => {
                let (min_case, min_failure) = minimize(case, failure);
                outcome.failures.push((min_case, min_failure));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_case(42, 7);
        let b = generate_case(42, 7);
        assert_eq!(a, b);
        let c = generate_case(43, 7);
        assert_ne!(a, c);
    }

    #[test]
    fn cases_roundtrip_through_json() {
        let case = generate_case(1, 2);
        let back = FuzzCase::from_json(&case.to_json()).unwrap();
        assert_eq!(case, back);
    }

    #[test]
    fn small_campaign_is_clean() {
        let outcome = run_campaign(7, 5);
        assert_eq!(outcome.cases, 5);
        assert!(
            outcome.failures.is_empty(),
            "unexpected failures: {:?}",
            outcome
                .failures
                .iter()
                .map(|(_, f)| f.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn gate_case_forces_branching() {
        // The canonical gate instance is robust but defeats the one-shot
        // relaxation, so the search must branch — exercising certificates
        // beyond a single root leaf.
        let mut rng = SmallRng::seed_from_u64(0);
        let case = FuzzCase {
            seed: 0,
            index: 0,
            net: gate_net(&mut rng),
            input: vec![0.8, 0.2],
            label: 0,
            epsilon: 0.28,
            budget_calls: 120,
        };
        let network = case.net.build();
        let problem =
            RobustnessProblem::new(&network, case.input.clone(), case.label, case.epsilon).unwrap();
        let r = AbonnVerifier::default()
            .verify(&problem, &Budget::with_appver_calls(case.budget_calls));
        assert!(r.stats.tree_size > 1, "gate instance did not branch");
        if r.verdict == Verdict::Verified {
            audit_certificate(&r.certificate.unwrap(), &problem).unwrap();
        }
        assert!(run_case(&case).is_ok());
    }

    #[test]
    fn lp_driven_run_produces_auditable_certificates() {
        // Drive the BaB baseline with the exact triangle-LP relaxation as
        // its AppVer. The resulting certificates must pass the same
        // independent audit as DeepPoly-driven ones.
        let mut rng = SmallRng::seed_from_u64(0);
        let case_net = gate_net(&mut rng).build();
        let problem = RobustnessProblem::new(&case_net, vec![0.8, 0.2], 0, 0.28).unwrap();
        let budget = Budget::with_appver_calls(120);
        let run = BabBaseline::new(
            HeuristicKind::DeepSplit,
            Arc::new(abonn_bound::LpVerifier::new()),
        )
        .with_pool(Arc::new(WorkerPool::new(1)))
        .verify(&problem, &budget);
        let cert = run.certificate;
        match &run.verdict {
            Verdict::Verified => {
                audit_certificate(&cert.expect("verified run has certificate"), &problem).unwrap();
            }
            Verdict::Timeout => {
                audit_partial(&cert.expect("timeout run has certificate"), &problem).unwrap();
            }
            Verdict::Falsified(w) => assert!(problem.validate_witness(w)),
        }
    }

    #[test]
    fn minimizer_preserves_failure() {
        // Build an artificial failure by corrupting a case's label so the
        // problem constructor rejects it, then check the minimizer
        // returns a still-failing case.
        let mut case = generate_case(3, 0);
        case.label = 99;
        let failure = run_case(&case).unwrap_err();
        assert_eq!(failure.kind, FailureKind::SpecError);
        let (min_case, min_failure) = minimize(case, failure);
        assert!(run_case(&min_case).is_err());
        assert_eq!(min_failure.kind, FailureKind::SpecError);
    }
}

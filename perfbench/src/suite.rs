//! The Table-I suite workloads: a grid of (calibrated instance × engine)
//! runs under one call-only budget, repeated for the run's time.
//!
//! Each pass runs the whole grid one job after another, every engine on
//! its inline (single-threaded) worker pool. One busy thread leaves the
//! machine's other core to the rest of the system, so a run's time is its
//! own and the bound layer's busy time is never counted twice.

use crate::stats::{self, derive_seed, SplitMix};
use crate::timed::TimedAppVer;
use crate::{Args, Outcome};
use abonn_bound::{AlphaCrown, AppVer, DeepPoly};
use abonn_core::heuristics::HeuristicKind;
use abonn_core::{
    AbonnConfig, AbonnVerifier, BabBaseline, Budget, CrownStyle, RobustnessProblem, RunStats,
    Verdict, Verifier,
};
use abonn_data::suite::{calibrated_instances, SuiteConfig};
use abonn_data::{ModelKind, VerificationInstance};
use abonn_nn::Network;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};


/// The three RQ1 approaches, built as the Table-I experiments build them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Engine {
    Bab,
    Crown,
    Abonn,
}

impl Engine {
    pub fn id(self) -> &'static str {
        match self {
            Engine::Bab => "bab",
            Engine::Crown => "crown",
            Engine::Abonn => "abonn",
        }
    }

    /// The engine's approximated verifier: the Planet-style DeepPoly for
    /// ABONN and BaB-baseline, α-CROWN for the CROWN-style baseline.
    pub fn appver(self) -> Arc<dyn AppVer> {
        match self {
            Engine::Bab | Engine::Abonn => Arc::new(DeepPoly::planet()),
            Engine::Crown => Arc::new(AlphaCrown::default()),
        }
    }

    pub fn build(self, appver: Arc<dyn AppVer>) -> Box<dyn Verifier> {
        match self {
            Engine::Bab => Box::new(BabBaseline::new(HeuristicKind::DeepSplit, appver)),
            Engine::Crown => Box::new(CrownStyle::new(HeuristicKind::DeepSplit, appver)),
            Engine::Abonn => Box::new(AbonnVerifier::new(AbonnConfig::default(), appver)),
        }
    }
}

/// Metric-name form of a model.
pub fn model_id(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::MnistL2 => "mnist_l2",
        ModelKind::MnistL4 => "mnist_l4",
        ModelKind::CifarBase => "cifar_base",
        ModelKind::CifarWide => "cifar_wide",
        ModelKind::CifarDeep => "cifar_deep",
    }
}

/// One suite workload.
pub struct SuiteSpec {
    pub models: &'static [ModelKind],
    pub engines: &'static [Engine],
    pub per_model: usize,
    /// The call-only budget of every run.
    pub calls: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Dense MNIST models: cheap AppVer calls, so engine self time shows.
pub const MNIST: SuiteSpec = SuiteSpec {
    models: &[ModelKind::MnistL2, ModelKind::MnistL4],
    engines: &[Engine::Bab, Engine::Crown, Engine::Abonn],
    per_model: 8,
    calls: 400,
    setups: 5,
};

/// Conv-lowered CIFAR models: AppVer dominates. ab-CROWN is left out, its
/// α-optimised calls on CIFAR_DEEP alone would exceed the run.
pub const CIFAR: SuiteSpec = SuiteSpec {
    models: &[
        ModelKind::CifarBase,
        ModelKind::CifarWide,
        ModelKind::CifarDeep,
    ],
    engines: &[Engine::Abonn, Engine::Bab],
    per_model: 5,
    calls: 200,
    setups: 3,
};

/// Seed of the trained models and of their calibrated instances. Like
/// the paper's Table-I suites, the instance sets are fixed; the workload
/// seed only orders the work. Drawing the instances per seed makes every
/// metric's spread a property of the draw: over five seeds, one pass of
/// `suite-mnist` read 3.2-5.7 s and solved 20-31 runs.
pub const SUITE_SEED: u64 = 2025;

/// A trained model with its calibrated instances.
pub struct Prepared {
    pub kind: ModelKind,
    pub network: Network,
    pub instances: Vec<VerificationInstance>,
}

/// Trains and calibrates `models`. Returns the models with the seconds
/// spent training and calibrating.
pub fn prepare(models: &[ModelKind], per_model: usize) -> (Vec<Prepared>, f64, f64) {
    let (mut train_s, mut calibrate_s) = (0.0, 0.0);
    let prepared = models
        .iter()
        .map(|&kind| {
            let t = Instant::now();
            let (network, _) = kind.trained_model(SUITE_SEED);
            train_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let config = SuiteConfig {
                per_model,
                seed: SUITE_SEED,
            };
            let instances = calibrated_instances(kind, &network, &config);
            calibrate_s += t.elapsed().as_secs_f64();
            Prepared {
                kind,
                network,
                instances,
            }
        })
        .collect();
    (prepared, train_s, calibrate_s)
}

/// Canonical text of the generated instances; equal texts mean
/// byte-identical inputs.
pub fn instances_text(prepared: &[Prepared]) -> String {
    let mut out = String::new();
    for p in prepared {
        for i in &p.instances {
            let input: Vec<String> = i
                .input
                .iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect();
            out.push_str(&format!(
                "{} {} {} {:016x} {}\n",
                model_id(p.kind),
                i.id,
                i.label,
                i.epsilon.to_bits(),
                input.join(",")
            ));
        }
    }
    out
}

/// One (instance × engine) cell of the grid.
#[derive(Clone, Copy)]
struct Job {
    model: usize,
    instance: usize,
    engine: Engine,
}

/// What one run produced.
struct RunRecord {
    verdict: Verdict,
    /// Counters with the wall time zeroed, comparable across runs.
    stats: RunStats,
    /// The engine's `verify` call alone.
    run_s: f64,
    /// Problem construction, `verify` and witness validation.
    req_s: f64,
    witness_ok: bool,
    /// `(calls, busy seconds)` of the timing wrapper, traced runs only.
    bound: Option<(u64, f64)>,
}

fn run_job(prepared: &[Prepared], job: &Job, budget: &Budget, traced: bool) -> RunRecord {
    let model = &prepared[job.model];
    let instance = &model.instances[job.instance];
    let start = Instant::now();
    let problem = RobustnessProblem::new(
        &model.network,
        instance.input.clone(),
        instance.label,
        instance.epsilon,
    )
    .expect("calibrated instances are valid specifications");
    let timed = traced.then(|| Arc::new(TimedAppVer::new(job.engine.appver())));
    let verifier = match &timed {
        Some(t) => job.engine.build(Arc::clone(t) as Arc<dyn AppVer>),
        None => job.engine.build(job.engine.appver()),
    };
    let run_start = Instant::now();
    let result = verifier.verify(&problem, budget);
    let run_s = run_start.elapsed().as_secs_f64();
    let witness_ok = result
        .verdict
        .witness()
        .is_none_or(|w| problem.validate_witness(w));
    let req_s = start.elapsed().as_secs_f64();
    let mut stats = result.stats;
    stats.wall = Duration::ZERO;
    RunRecord {
        verdict: result.verdict,
        stats,
        run_s,
        req_s,
        witness_ok,
        bound: timed.map(|t| t.totals()),
    }
}

/// Runs every job once, in order; returns the records in job order.
fn run_pass(prepared: &[Prepared], jobs: &[Job], budget: &Budget, traced: bool) -> Vec<RunRecord> {
    jobs.iter()
        .map(|job| run_job(prepared, job, budget, traced))
        .collect()
}

/// Each job's best time over `passes`, in ms. The work is deterministic,
/// so a slower repeat measured only interference from the rest of the
/// machine.
fn best_ms(passes: &[Vec<RunRecord>], f: fn(&RunRecord) -> f64) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| stats::min(passes.iter().map(|records| f(&records[i]) * 1e3)))
        .collect()
}

/// Instances on which one engine proved what another refuted.
fn contradictions(jobs: &[Job], records: &[RunRecord]) -> Vec<(usize, usize)> {
    let mut seen: BTreeMap<(usize, usize), (bool, bool)> = BTreeMap::new();
    for (job, rec) in jobs.iter().zip(records) {
        let e = seen.entry((job.model, job.instance)).or_default();
        match rec.verdict {
            Verdict::Verified => e.0 = true,
            Verdict::Falsified(_) => e.1 = true,
            Verdict::Timeout => {}
        }
    }
    seen.into_iter()
        .filter(|(_, (v, f))| *v && *f)
        .map(|(k, _)| k)
        .collect()
}

pub fn run(spec: &SuiteSpec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: train and calibrate every model, several times; each set-up
    // must regenerate byte-identical instances.
    let (mut setups, mut train, mut calibrate) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared = Vec::new();
    let mut first_text: Option<String> = None;
    for _ in 0..spec.setups {
        let t = Instant::now();
        let (p, train_s, calibrate_s) = prepare(spec.models, spec.per_model);
        setups.push(t.elapsed().as_secs_f64());
        train.push(train_s);
        calibrate.push(calibrate_s);
        let text = instances_text(&p);
        match &first_text {
            None => first_text = Some(text),
            Some(first) => out.tally(*first == text),
        }
        prepared = p;
    }
    out.set("setup_s", stats::median(&setups));
    out.set("data.train_s", stats::median(&train));
    out.set("data.calibrate_s", stats::median(&calibrate));

    let mut jobs: Vec<Job> = prepared
        .iter()
        .enumerate()
        .flat_map(|(m, p)| {
            (0..p.instances.len()).flat_map(move |i| {
                spec.engines.iter().map(move |&engine| Job {
                    model: m,
                    instance: i,
                    engine,
                })
            })
        })
        .collect();
    if jobs.is_empty() {
        return Err("calibration produced no instances".into());
    }
    SplitMix::new(derive_seed(args.seed, 1)).shuffle(&mut jobs);
    let budget = Budget::with_appver_calls(spec.calls);

    // A warm-up pass: its records are the reference every later pass
    // must repeat.
    let clock = Instant::now();
    let reference = run_pass(&prepared, &jobs, &budget, false);

    // Measured passes until the run's time is used. A traced run
    // alternates plain and traced passes, so the wrapper's overhead is
    // measured as well.
    let mut plain: Vec<Vec<RunRecord>> = Vec::new();
    let mut traced: Vec<Vec<RunRecord>> = Vec::new();
    loop {
        let trace_this = args.trace && plain.len() > traced.len();
        let pass = run_pass(&prepared, &jobs, &budget, trace_this);
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        let balanced = !args.trace || traced.len() == plain.len();
        if clock.elapsed().as_secs_f64() >= args.seconds && balanced {
            break;
        }
    }

    // Checks: valid witnesses, no engine refuting what another proved,
    // and every pass (traced ones too) repeating the warm-up's verdicts
    // and counters exactly.
    let refuted = contradictions(&jobs, &reference);
    let passes = std::iter::once(&reference).chain(plain.iter().chain(&traced));
    for records in passes {
        for ((job, rec), first) in jobs.iter().zip(records).zip(&reference) {
            let agrees = first.verdict == rec.verdict && first.stats == rec.stats;
            let consistent = !refuted.contains(&(job.model, job.instance));
            out.tally(rec.witness_ok && agrees && consistent);
        }
    }

    // Latencies are each run's best over the plain passes; `wall_s` is
    // one pass with every run at its best.
    let tail = stats::tail_percentile(jobs.len());
    let runs = best_ms(&plain, |r| r.run_s);
    let reqs = best_ms(&plain, |r| r.req_s);
    let plain_wall = reqs.iter().sum::<f64>() / 1e3;
    out.set("wall_s", plain_wall);
    out.set("run_p50_ms", stats::median(&runs));
    out.set("run_tail_ms", stats::percentile(&runs, tail));
    out.set("req_p50_ms", stats::median(&reqs));
    out.set("req_tail_ms", stats::percentile(&reqs, tail));
    let solved = reference.iter().filter(|r| r.verdict.is_solved()).count();
    out.set("solved", solved as f64);
    out.set("peak_rss_mb", stats::peak_rss_mb("self"));
    eprintln!(
        "perfbench: warm-up + {} plain + {} traced passes of {} runs; tails are p{tail:.1} of n={} per-run bests",
        plain.len(),
        traced.len(),
        jobs.len(),
        jobs.len()
    );

    if !traced.is_empty() {
        layer_metrics(&mut out, spec, &prepared, &jobs, &reference, &traced);
        let traced_wall = best_ms(&traced, |r| r.req_s).iter().sum::<f64>() / 1e3;
        out.set("trace.overhead_s", traced_wall - plain_wall);
    }
    Ok(out)
}

/// Per-layer metrics: times are medians over the traced passes of each
/// pass's total; counters are the (deterministic) warm-up totals.
fn layer_metrics(
    out: &mut Outcome,
    spec: &SuiteSpec,
    prepared: &[Prepared],
    jobs: &[Job],
    reference: &[RunRecord],
    traced: &[Vec<RunRecord>],
) {
    let median_of = |f: &dyn Fn(&[RunRecord]) -> f64| {
        stats::median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    for &engine in spec.engines {
        for (m, p) in prepared.iter().enumerate() {
            let wall = median_of(&|records| {
                jobs.iter()
                    .zip(records)
                    .filter(|(j, _)| j.engine == engine && j.model == m)
                    .map(|(_, r)| r.run_s)
                    .sum()
            });
            out.set(
                &format!("core.{}.{}.wall_s", engine.id(), model_id(p.kind)),
                wall,
            );
        }
    }
    let core_s = median_of(&|records| records.iter().map(|r| r.run_s).sum());
    let busy_s = median_of(&|records| records.iter().map(|r| r.bound.map_or(0.0, |b| b.1)).sum());
    let bound_calls: u64 = traced[0].iter().map(|r| r.bound.map_or(0, |b| b.0)).sum();

    let total =
        |f: fn(&RunStats) -> usize| reference.iter().map(|r| f(&r.stats)).sum::<usize>() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let appver_calls = total(|s| s.appver_calls);
    out.set("core.appver_calls", appver_calls);
    out.set("core.nodes_visited", total(|s| s.nodes_visited));
    out.set("core.tree_size", total(|s| s.tree_size));
    out.set("core.ns_per_appver", ratio(core_s * 1e9, appver_calls));
    out.set("core.self_s", core_s - busy_s);
    out.set("bound.calls", bound_calls as f64);
    out.set("bound.busy_s", busy_s);
    out.set("bound.ns_per_call", ratio(busy_s * 1e9, bound_calls as f64));
    out.set("bound.share", ratio(busy_s, core_s));
    out.set("bound.backsub_steps", total(|s| s.backsub_steps));
    out.set("bound.layers_reused", total(|s| s.cache_layers_reused));
    out.set(
        "bound.layers_recomputed",
        total(|s| s.cache_layers_recomputed),
    );
    out.set(
        "bound.rows_skipped_ratio",
        ratio(
            total(|s| s.backsub_rows_skipped),
            total(|s| s.backsub_rows_total),
        ),
    );
    out.set("bound.blocks_skipped", total(|s| s.blocks_skipped));
    let arena_peak = reference
        .iter()
        .map(|r| r.stats.arena_bytes_peak)
        .max()
        .unwrap_or(0);
    out.set("bound.arena_peak_bytes", arena_peak as f64);
    let warm = total(|s| s.lp_warm_hits);
    let leaves = warm + total(|s| s.lp_cold_solves);
    out.set("lp.leaf_solves", leaves);
    out.set("lp.pivots", total(|s| s.lp_pivots));
    out.set("lp.pivot_cells", total(|s| s.lp_pivot_cells));
    out.set("lp.warm_hit_ratio", ratio(warm, leaves));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_wrapper_is_transparent() {
        let (prepared, _, _) = prepare(&[ModelKind::MnistL2], 3);
        assert!(!prepared[0].instances.is_empty());
        let budget = Budget::with_appver_calls(MNIST.calls);
        for &engine in MNIST.engines {
            for instance in 0..prepared[0].instances.len() {
                let job = Job {
                    model: 0,
                    instance,
                    engine,
                };
                let plain = run_job(&prepared, &job, &budget, false);
                let traced = run_job(&prepared, &job, &budget, true);
                assert_eq!(
                    plain.verdict, traced.verdict,
                    "{engine:?} on instance {instance}"
                );
                assert_eq!(
                    plain.stats, traced.stats,
                    "{engine:?} on instance {instance}"
                );
                assert!(plain.bound.is_none());
                assert!(traced.bound.is_some_and(|(calls, _)| calls > 0));
            }
        }
    }

    #[test]
    fn instance_sets_are_reproducible() {
        let (a, _, _) = prepare(&[ModelKind::MnistL2, ModelKind::MnistL4], 4);
        let (b, _, _) = prepare(&[ModelKind::MnistL2, ModelKind::MnistL4], 4);
        let text = instances_text(&a);
        assert_eq!(text.lines().count(), 8);
        assert_eq!(text, instances_text(&b));
    }
}

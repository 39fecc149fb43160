//! Trained-model oracles for the bounding optimisations on an MNIST
//! suite slice, asserted on call-based counters only, never wall time.
//!
//! * Warm-started LPs: the BaB baseline with the exact triangle-LP
//!   relaxation as its `AppVer` runs once with warm starting and once
//!   cold ([`LpVerifier::with_warm_start`]`(false)`). Verdicts and search
//!   shape must be identical (warm starting is a pure work
//!   optimisation), warm starting must cut total simplex pivots by at
//!   least 40%, and stable-neuron masking must skip at least 30% of
//!   back-substitution rows.
//! * Incremental bounding: ABONN and the BaB baseline on the Planet-style
//!   DeepPoly of the experiments run once with parent-prefix reuse and
//!   once over [`FromScratch`], which bounds every node from scratch, on
//!   the same slice plus an MNIST_L4 one at the smoke-scale budget.
//!   Verdicts (witnesses included) and every search counter must match.

use abonn_bench::scenario::{prepare_model, PreparedModel, Scale};
use abonn_bound::{AppVer, DeepPoly, FromScratch, LpVerifier};
use abonn_core::heuristics::HeuristicKind;
use abonn_core::{
    AbonnConfig, AbonnVerifier, BabBaseline, Budget, RobustnessProblem, RunResult, RunStats,
    Verifier, WorkerPool,
};
use abonn_data::zoo::ModelKind;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The two-instance MNIST_L2 slice both tests share (training dominates
/// their cost, so it runs once per test binary).
fn mnist_slice() -> &'static PreparedModel {
    static SLICE: OnceLock<PreparedModel> = OnceLock::new();
    SLICE.get_or_init(|| prepare_model(ModelKind::MnistL2, 2, 2025))
}

fn problems(prepared: &PreparedModel) -> Vec<RobustnessProblem> {
    prepared
        .instances
        .iter()
        .map(|instance| {
            RobustnessProblem::new(
                &prepared.network,
                instance.input.clone(),
                instance.label,
                instance.epsilon,
            )
            .expect("suite instances are valid specifications")
        })
        .collect()
}

fn run_lp_bab(warm: bool, problem: &RobustnessProblem, budget: &Budget) -> RunResult {
    let lp = LpVerifier::new().with_warm_start(warm);
    BabBaseline::new(HeuristicKind::DeepSplit, Arc::new(lp))
        .with_pool(Arc::new(WorkerPool::new(1)))
        .verify(problem, budget)
}

#[test]
fn warm_start_cuts_pivots_and_masking_skips_rows_on_mnist() {
    let budget = Budget::with_appver_calls(10);

    let mut warm_pivots = 0usize;
    let mut cold_pivots = 0usize;
    let mut warm_hits = 0usize;
    let mut rows_skipped = 0usize;
    let mut rows_total = 0usize;
    for problem in problems(mnist_slice()) {
        let warm = run_lp_bab(true, &problem, &budget);
        let cold = run_lp_bab(false, &problem, &budget);

        // Warm starting must not change what the search does — only how
        // much simplex work each LP solve needs.
        assert_eq!(warm.verdict, cold.verdict, "warm starting changed the verdict");
        assert_eq!(warm.stats.appver_calls, cold.stats.appver_calls);
        assert_eq!(warm.stats.nodes_visited, cold.stats.nodes_visited);
        assert_eq!(warm.stats.tree_size, cold.stats.tree_size);
        assert_eq!(warm.stats.max_depth, cold.stats.max_depth);
        assert_eq!(
            warm.stats.backsub_rows_skipped,
            cold.stats.backsub_rows_skipped,
            "masking is independent of warm starting"
        );

        warm_pivots += warm.stats.lp_pivots;
        cold_pivots += cold.stats.lp_pivots;
        warm_hits += warm.stats.lp_warm_hits;
        assert_eq!(cold.stats.lp_warm_hits, 0, "cold runs must never warm-start");
        rows_skipped += warm.stats.backsub_rows_skipped;
        rows_total += warm.stats.backsub_rows_total;
    }

    eprintln!(
        "mnist lp slice: {cold_pivots} cold pivots vs {warm_pivots} warm \
         ({warm_hits} warm hits), {rows_skipped}/{rows_total} backsub rows skipped"
    );
    assert!(warm_hits > 0, "no LP solve was warm-started");
    assert!(cold_pivots > 0, "suite slice exercised no LP solves");
    assert!(
        warm_pivots * 10 <= cold_pivots * 6,
        "expected >= 40% pivot reduction, got {warm_pivots} warm vs {cold_pivots} cold"
    );
    assert!(
        rows_skipped * 10 >= rows_total * 3,
        "expected >= 30% of back-substitution rows skipped, \
         got {rows_skipped}/{rows_total}"
    );
}

/// Every counter except wall time and the bound-work counters that only
/// incremental bounding fills in.
fn search_counters(mut s: RunStats) -> RunStats {
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

/// Builds one engine over an `AppVer`, on a one-lane pool.
type Build = fn(Arc<dyn AppVer>) -> Box<dyn Verifier>;

fn abonn(appver: Arc<dyn AppVer>) -> Box<dyn Verifier> {
    let pool = Arc::new(WorkerPool::new(1));
    Box::new(AbonnVerifier::new(AbonnConfig::default(), appver).with_pool(pool))
}

fn bab(appver: Arc<dyn AppVer>) -> Box<dyn Verifier> {
    let pool = Arc::new(WorkerPool::new(1));
    Box::new(BabBaseline::new(HeuristicKind::DeepSplit, appver).with_pool(pool))
}

#[test]
fn incremental_bounding_matches_scratch_on_mnist() {
    let budget = Scale::Smoke.budget();

    // MNIST_L4's deeper stack gives prefix reuse more layers to skip.
    let deeper = prepare_model(ModelKind::MnistL4, 2, 2025);
    let (mut layers_reused, mut calls) = (0usize, 0usize);
    for problem in problems(mnist_slice()).into_iter().chain(problems(&deeper)) {
        for (name, build) in [("ABONN", abonn as Build), ("BaB", bab)] {
            let cached = build(Arc::new(DeepPoly::planet())).verify(&problem, &budget);
            let scratch =
                build(Arc::new(FromScratch(DeepPoly::planet()))).verify(&problem, &budget);
            assert_eq!(
                cached.verdict, scratch.verdict,
                "{name}: verdict or witness"
            );
            assert_eq!(
                search_counters(cached.stats),
                search_counters(scratch.stats),
                "{name}: search counters"
            );
            assert_eq!(
                scratch.stats.cache_layers_reused, 0,
                "{name}: scratch reused layers"
            );
            layers_reused += cached.stats.cache_layers_reused;
            calls += cached.stats.appver_calls;
        }
    }
    eprintln!("mnist slices: {layers_reused} parent layers reused over {calls} AppVer calls");
    assert!(
        layers_reused > 0,
        "no parent layers were reused on the slice"
    );
}

//! Trained-model oracles for incremental bounding and stable-neuron
//! masking on suite slices, asserted on call-based counters only, never
//! wall time.
//!
//! ABONN and the BaB baseline on the Planet-style DeepPoly of the
//! experiments run once with parent-prefix reuse and once over
//! [`FromScratch`], which bounds every node from scratch, on a two-instance
//! MNIST_L2 slice plus MNIST_L4 and conv-lowered CIFAR_BASE ones at the
//! smoke-scale budget. Verdicts (witnesses included) and every search
//! counter must match, and stable-neuron masking must skip at least 30%
//! of the back-substitution rows.

use abonn_bench::scenario::{prepare_model, PreparedModel, Scale};
use abonn_bound::{AppVer, DeepPoly, FromScratch};
use abonn_core::heuristics::HeuristicKind;
use abonn_core::{
    AbonnConfig, AbonnVerifier, BabBaseline, RobustnessProblem, RunStats, Verifier, WorkerPool,
};
use abonn_data::zoo::ModelKind;
use std::sync::Arc;
use std::time::Duration;

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
fn incremental_bounding_matches_scratch_on_trained_models() {
    let budget = Scale::Smoke.budget();

    // MNIST_L4's deeper stack gives prefix reuse more layers to skip;
    // CIFAR_BASE's conv-lowered stages are the widest a child inherits.
    let mnist = prepare_model(ModelKind::MnistL2, 2, 2025);
    let deeper = prepare_model(ModelKind::MnistL4, 2, 2025);
    let conv = prepare_model(ModelKind::CifarBase, 2, 2025);
    let (mut layers_reused, mut calls) = (0usize, 0usize);
    let (mut rows_skipped, mut rows_total) = (0usize, 0usize);
    let slices = [&mnist, &deeper, &conv];
    for problem in slices.into_iter().flat_map(problems) {
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
            rows_skipped += cached.stats.backsub_rows_skipped;
            rows_total += cached.stats.backsub_rows_total;
        }
    }
    eprintln!(
        "model slices: {layers_reused} parent layers reused over {calls} AppVer calls, \
         {rows_skipped}/{rows_total} backsub rows skipped"
    );
    assert!(
        layers_reused > 0,
        "no parent layers were reused on the slice"
    );
    assert!(
        rows_skipped * 10 >= rows_total * 3,
        "expected >= 30% of back-substitution rows skipped, \
         got {rows_skipped}/{rows_total}"
    );
}

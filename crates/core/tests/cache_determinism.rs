//! Determinism of incremental bounding under the parallel engine.
//!
//! Three properties, for both search strategies (ABONN/MCTS and the BaB
//! baseline):
//!
//! 1. Cache on vs off changes nothing observable except the new
//!    bound-work counters: verdict, AppVer calls, node counts, and tree
//!    shape are identical. "Off" is the same engine over
//!    [`FromScratch`], which bounds every node from scratch.
//! 2. With the cache on, the counters themselves are thread-count
//!    invariant — they are accumulated in consumption order on the
//!    search thread, never on pool lanes.
//! 3. The cache actually works: on an instance that branches, the
//!    incremental run reuses parent layers and performs strictly fewer
//!    back-substitution layer-steps than its from-scratch twin would.

use abonn_bound::{AppVer, DeepPoly, FromScratch};
use abonn_core::heuristics::HeuristicKind;
use abonn_core::{
    AbonnConfig, AbonnVerifier, BabBaseline, Budget, RobustnessProblem, RunStats, Verdict,
    Verifier, WorkerPool,
};
use abonn_nn::{Layer, Network, Shape};
use abonn_tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

/// A 2 -> 4 -> 2 ReLU network from flat weight/bias vectors.
fn small_net(w1: &[f64], b1: &[f64], w2: &[f64], b2: &[f64]) -> Network {
    Network::new(
        Shape::Flat(2),
        vec![
            Layer::dense(
                Matrix::from_rows(&[&w1[0..2], &w1[2..4], &w1[4..6], &w1[6..8]]),
                b1.to_vec(),
            ),
            Layer::relu(),
            Layer::dense(Matrix::from_rows(&[&w2[0..4], &w2[4..8]]), b2.to_vec()),
        ],
    )
    .expect("well-shaped network")
}

/// The engines' default DeepPoly, incremental or bounding from scratch.
fn appver(incremental: bool) -> Arc<dyn AppVer> {
    if incremental {
        Arc::new(DeepPoly::new())
    } else {
        Arc::new(FromScratch(DeepPoly::new()))
    }
}

fn abonn_run(
    problem: &RobustnessProblem,
    budget: &Budget,
    threads: usize,
    incremental: bool,
) -> (Verdict, RunStats) {
    let verifier = AbonnVerifier::new(AbonnConfig::default(), appver(incremental))
        .with_pool(Arc::new(WorkerPool::new(threads)));
    let result = verifier.verify(problem, budget);
    (result.verdict, result.stats)
}

fn bab_run(
    problem: &RobustnessProblem,
    budget: &Budget,
    threads: usize,
    incremental: bool,
) -> (Verdict, RunStats) {
    let verifier = BabBaseline::new(HeuristicKind::DeepSplit, appver(incremental))
        .with_pool(Arc::new(WorkerPool::new(threads)));
    let result = verifier.verify(problem, budget);
    (result.verdict, result.stats)
}

/// The stats that must not depend on caching: everything except the
/// bound-work counters and wall time.
fn search_signature(stats: &RunStats) -> (usize, usize, usize, usize) {
    (
        stats.appver_calls,
        stats.nodes_visited,
        stats.tree_size,
        stats.max_depth,
    )
}

/// The bound-work counters that must not depend on the thread count.
fn counter_signature(stats: &RunStats) -> (usize, usize, usize) {
    (
        stats.cache_layers_reused,
        stats.cache_layers_recomputed,
        stats.backsub_steps,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cache_changes_nothing_but_counters(
        w1 in proptest::collection::vec(-1.5..1.5_f64, 8),
        b1 in proptest::collection::vec(-0.5..0.5_f64, 4),
        w2 in proptest::collection::vec(-1.5..1.5_f64, 8),
        b2 in proptest::collection::vec(-0.5..0.5_f64, 2),
        x0 in proptest::collection::vec(0.1..0.9_f64, 2),
        eps in 0.01..0.25_f64,
    ) {
        let net = small_net(&w1, &b1, &w2, &b2);
        let problem = RobustnessProblem::new(&net, x0, 0, eps).expect("valid problem");
        // Call-only budget: a wall limit would reintroduce timing.
        let budget = Budget::with_appver_calls(120);

        for run in [abonn_run, bab_run] {
            let (v_on, s_on) = run(&problem, &budget, 1, true);
            let (v_off, s_off) = run(&problem, &budget, 1, false);
            prop_assert_eq!(&v_on, &v_off, "cache flipped the verdict");
            prop_assert_eq!(
                search_signature(&s_on),
                search_signature(&s_off),
                "cache changed the search trajectory"
            );
            // With caching on, the counters are invariant across pool
            // widths and never exceed the from-scratch step count.
            let base = counter_signature(&s_on);
            for threads in [2usize, 4] {
                let (v, s) = run(&problem, &budget, threads, true);
                prop_assert_eq!(&v, &v_on, "verdict diverged at {} threads", threads);
                prop_assert_eq!(
                    search_signature(&s),
                    search_signature(&s_on),
                    "search diverged at {} threads", threads
                );
                prop_assert_eq!(
                    counter_signature(&s),
                    base,
                    "bound-work counters diverged at {} threads", threads
                );
            }
        }
    }
}

/// On an instance that needs branching, incremental bounding must reuse
/// parent layers: the reuse counter is positive and total layer-steps
/// stay below `calls * full-backsub` (what from-scratch would count).
#[test]
fn branching_instance_reuses_parent_layers() {
    // The gate network of `parallel_determinism.rs` (margin
    // x0 - relu(x1) - 0.2 relu(g1) - 0.2 relu(g2), robust over the box
    // but unprovable at the root), deepened with two identity+ReLU
    // stages in front. The margin network then has 4 affine stages and
    // the gate neurons sit at layer 2, so splitting them reuses two
    // cached parent layers per child evaluation.
    let id2 = || Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
    let net = Network::new(
        Shape::Flat(2),
        vec![
            Layer::dense(id2(), vec![0.0, 0.0]),
            Layer::relu(),
            Layer::dense(id2(), vec![0.0, 0.0]),
            Layer::relu(),
            Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]),
                vec![0.0, 0.0, -1.0, -0.9],
            ),
            Layer::relu(),
            Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0], &[0.0, 1.0, 0.2, 0.2]]),
                vec![0.0, 0.0],
            ),
        ],
    )
    .expect("well-shaped network");
    let problem = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.28).expect("valid problem");
    let budget = Budget::with_appver_calls(10_000);

    // 4 affine stages: a from-scratch DeepPoly call counts 0+1+2+3 = 6
    // back-substitution layer-steps.
    let full_backsub = 6;
    for run in [abonn_run, bab_run] {
        let (verdict, stats) = run(&problem, &budget, 1, true);
        assert_eq!(verdict, Verdict::Verified, "probe: instance must be robust");
        assert!(
            stats.appver_calls > 3,
            "probe: instance must branch, took {} calls",
            stats.appver_calls
        );
        assert!(stats.cache_layers_reused > 0, "no parent layers were reused");
        assert!(
            stats.backsub_steps < stats.appver_calls * full_backsub,
            "{} steps is not below the {}-call x {}-step scratch cost",
            stats.backsub_steps,
            stats.appver_calls,
            full_backsub
        );
    }
}

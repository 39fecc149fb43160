//! Determinism of the parallel engine: for random small problems, the
//! verdict, node counts, and certificate shape must be identical whether
//! a run uses 1, 2, or 4 pool lanes. The engine promises *bit-for-bit*
//! equality — parallelism may only change wall time.

use abonn_core::{
    AbonnVerifier, BabBaseline, Budget, Certificate, RobustnessProblem, Verdict, Verifier,
    WorkerPool,
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

/// Signature of one run that must be invariant under the thread count.
/// Wall time is deliberately excluded — it is the one quantity that may
/// (and should) change.
#[derive(Debug, PartialEq)]
struct RunSignature {
    verdict: Verdict,
    appver_calls: usize,
    nodes_visited: usize,
    tree_size: usize,
    max_depth: usize,
    certificate: Option<Certificate>,
}

fn abonn_signature(problem: &RobustnessProblem, budget: &Budget, threads: usize) -> RunSignature {
    let verifier = AbonnVerifier::default().with_pool(Arc::new(WorkerPool::new(threads)));
    let (result, certificate) = verifier.verify_with_certificate(problem, budget);
    RunSignature {
        verdict: result.verdict,
        appver_calls: result.stats.appver_calls,
        nodes_visited: result.stats.nodes_visited,
        tree_size: result.stats.tree_size,
        max_depth: result.stats.max_depth,
        certificate,
    }
}

fn bab_signature(problem: &RobustnessProblem, budget: &Budget, threads: usize) -> RunSignature {
    let verifier = BabBaseline::default().with_pool(Arc::new(WorkerPool::new(threads)));
    let result = verifier.verify(problem, budget);
    RunSignature {
        verdict: result.verdict,
        appver_calls: result.stats.appver_calls,
        nodes_visited: result.stats.nodes_visited,
        tree_size: result.stats.tree_size,
        max_depth: result.stats.max_depth,
        certificate: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ABONN (MCTS) runs are thread-count invariant: same verdict, same
    /// AppVer call count, same tree, same (possibly partial) certificate.
    #[test]
    fn abonn_is_thread_count_invariant(
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
        let base = abonn_signature(&problem, &budget, 1);
        for threads in [2usize, 4] {
            let sig = abonn_signature(&problem, &budget, threads);
            prop_assert_eq!(&sig, &base, "ABONN diverged at {} threads", threads);
        }
    }

    /// The BaB baseline is likewise invariant, including under batched
    /// frontier bounding wider than the queue.
    #[test]
    fn bab_is_thread_count_invariant(
        w1 in proptest::collection::vec(-1.5..1.5_f64, 8),
        b1 in proptest::collection::vec(-0.5..0.5_f64, 4),
        w2 in proptest::collection::vec(-1.5..1.5_f64, 8),
        b2 in proptest::collection::vec(-0.5..0.5_f64, 2),
        x0 in proptest::collection::vec(0.1..0.9_f64, 2),
        eps in 0.01..0.25_f64,
    ) {
        let net = small_net(&w1, &b1, &w2, &b2);
        let problem = RobustnessProblem::new(&net, x0, 0, eps).expect("valid problem");
        let budget = Budget::with_appver_calls(120);
        let base = bab_signature(&problem, &budget, 1);
        for threads in [2usize, 4] {
            let sig = bab_signature(&problem, &budget, threads);
            prop_assert_eq!(&sig, &base, "BaB diverged at {} threads", threads);
        }
    }
}

/// A budget exhausted mid-expansion on a worker thread must still come
/// back as a clean `Timeout` with a well-formed partial certificate, and
/// must not poison the pool: the same pool instance then completes a
/// follow-up run normally.
#[test]
fn timeout_mid_expansion_yields_partial_certificate_and_healthy_pool() {
    // margin = x0 - x1 - 0.2 relu(x0+x1-1) - 0.2 relu(x0+x1-0.9): over the
    // 0.28-box around (0.8, 0.2) the true minimum stays positive (robust),
    // but both gate neurons are unstable, so the root DeepPoly relaxation
    // under-approximates the margin below zero and the search must branch.
    let net = small_net(
        &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        &[0.0, 0.0, -1.0, -0.9],
        &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.2, 0.2],
        &[0.0, 0.0],
    );
    let pool = Arc::new(WorkerPool::new(4));
    let problem = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.28).expect("valid problem");

    // Probe: with a generous budget the instance verifies, and it needs
    // more than 3 AppVer calls — so a 3-call budget must hit Timeout
    // mid-expansion rather than falsify or verify at the root.
    let full = AbonnVerifier::default()
        .with_pool(Arc::clone(&pool))
        .verify(&problem, &Budget::with_appver_calls(10_000));
    assert_eq!(
        full.verdict,
        Verdict::Verified,
        "probe: instance must be robust"
    );
    assert!(
        full.stats.appver_calls > 3,
        "probe: instance must need branching, took {} calls (verdict {:?})",
        full.stats.appver_calls,
        full.verdict
    );

    let verifier = AbonnVerifier::default().with_pool(Arc::clone(&pool));
    let (result, certificate) =
        verifier.verify_with_certificate(&problem, &Budget::with_appver_calls(3));
    assert_eq!(
        result.verdict,
        Verdict::Timeout,
        "budget of 3 calls must time out"
    );
    let cert = certificate.expect("timeout must still yield a partial certificate");
    assert!(
        !cert.is_complete(),
        "a timed-out proof has open obligations"
    );
    assert!(cert.num_open() >= 1);
    assert_eq!(
        cert.num_open() > 0,
        !cert.is_complete(),
        "is_complete and num_open must agree"
    );

    // The pool survives: reuse it for an easy instance and verify fully.
    let easy = RobustnessProblem::new(&net, vec![0.5, 0.5], 0, 1e-4).expect("valid problem");
    let verifier = AbonnVerifier::default().with_pool(pool);
    let (result, certificate) =
        verifier.verify_with_certificate(&easy, &Budget::with_appver_calls(400));
    if result.verdict == Verdict::Verified {
        let cert = certificate.expect("verified run certifies");
        assert!(cert.is_complete());
        assert_eq!(cert.num_open(), 0);
    }
    // Either way the pool ran the second search to completion without
    // deadlocking or panicking, which is the property under test.
    assert!(result.stats.appver_calls >= 1);
}

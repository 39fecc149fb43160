//! The per-thread scratch arena must be invisible in results.
//!
//! Back-substitution leases one [`BoundArena`] per worker thread and
//! recycles it across nodes, so these tests pin the three ways recycling
//! could leak: stale buffer contents from an earlier (differently-shaped)
//! analysis, a lease dropped on the infeasible early-exit path, and
//! degenerate panel shapes smaller than any block the tiled kernels use.
//! The oracle is always a fresh `std::thread::spawn` — its thread-local
//! arena pool starts empty, so its result is what a never-recycled arena
//! produces — and equality is bit-for-bit over `p_hat` and every layer
//! bound.

use abonn_bound::{Analysis, AppVer, DeepPoly, InputBox, SplitSet, SplitSign};
use abonn_nn::{AffinePair, CanonicalNetwork};
use abonn_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_net(seed: u64, dims: &[usize]) -> CanonicalNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut layers = Vec::new();
    for w in dims.windows(2) {
        let m = Matrix::from_fn(w[1], w[0], |_, _| rng.gen_range(-1.0..1.0));
        let b: Vec<f64> = (0..w[1]).map(|_| rng.gen_range(-0.5..0.5)).collect();
        layers.push(AffinePair::new(m, b));
    }
    CanonicalNetwork::from_affine_pairs(dims[0], layers)
}

/// Every observable float of an analysis, as bits.
fn analysis_bits(a: &Analysis) -> Vec<u64> {
    let mut bits = vec![a.p_hat.to_bits(), u64::from(a.infeasible)];
    for lb in &a.bounds {
        bits.extend(lb.lower.iter().map(|v| v.to_bits()));
        bits.extend(lb.upper.iter().map(|v| v.to_bits()));
    }
    bits
}

/// Splits a scattered third of the root-unstable neurons, alternating
/// signs, so the analysis exercises both split kinds and the skip/ident
/// masks without (usually) going infeasible.
fn scattered_splits(dp: &DeepPoly, net: &CanonicalNetwork, region: &InputBox) -> SplitSet {
    let root = dp.analyze(net, region, &SplitSet::new());
    let mut splits = SplitSet::new();
    for (k, n) in root
        .unstable_neurons(&SplitSet::new())
        .into_iter()
        .enumerate()
    {
        if k % 3 == 0 {
            let sign = if k % 2 == 0 {
                SplitSign::Neg
            } else {
                SplitSign::Pos
            };
            splits = splits.with(n, sign);
        }
    }
    splits
}

/// Analyzes on a freshly spawned thread, whose arena pool is empty.
fn fresh_thread_bits(net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Vec<u64> {
    let (net, region, splits) = (net.clone(), region.clone(), splits.clone());
    std::thread::spawn(move || analysis_bits(&DeepPoly::new().analyze(&net, &region, &splits)))
        .join()
        .expect("analysis thread must not panic")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A recycled arena — dirty with buffers from every previous case's
    /// differently-shaped network — produces bit-identical results to a
    /// fresh thread's arena.
    #[test]
    fn reuse_equals_fresh_thread(
        seed in 0u64..1000,
        hidden in proptest::collection::vec(1usize..10, 1..4),
        radius in 0.1f64..1.0,
    ) {
        let mut dims = vec![3];
        dims.extend(hidden);
        dims.push(2);
        let net = random_net(seed, &dims);
        let region = InputBox::new(vec![-radius; 3], vec![radius; 3]);
        let dp = DeepPoly::new();
        let splits = scattered_splits(&dp, &net, &region);

        let reused = analysis_bits(&dp.analyze(&net, &region, &splits));
        let reused_again = analysis_bits(&dp.analyze(&net, &region, &splits));
        prop_assert_eq!(&reused, &reused_again, "same-thread reuse must be deterministic");
        prop_assert_eq!(&reused, &fresh_thread_bits(&net, &region, &splits),
            "recycled arena must match a fresh thread's arena");
    }
}

/// An analysis that bails out mid-pass (a split clamp empties a neuron's
/// interval) drops its lease on the early-exit path; the arena must come
/// back clean for the next node on the thread.
#[test]
fn arena_survives_infeasible_early_exit() {
    let dims = [4, 12, 12, 2];
    let net = random_net(5, &dims);
    let region = InputBox::new(vec![-0.1; 4], vec![0.1; 4]);
    let dp = DeepPoly::new();
    let splits = scattered_splits(&dp, &net, &region);
    let before = analysis_bits(&dp.analyze(&net, &region, &splits));

    // Neg-splitting a stable-active neuron (lower bound > 0) clamps its
    // interval to [l, 0] with l > 0 — empty, so the engine hits the
    // infeasible early return with the arena still leased.
    let root = dp.analyze(&net, &region, &SplitSet::new());
    let active = root.bounds[..root.bounds.len() - 1]
        .iter()
        .enumerate()
        .find_map(|(layer, lb)| {
            lb.lower
                .iter()
                .position(|&l| l > 1e-6)
                .map(|index| abonn_bound::NeuronId::new(layer, index))
        })
        .expect("fixture must have a stable-active neuron");
    let bad = dp.analyze(&net, &region, &SplitSet::new().with(active, SplitSign::Neg));
    assert!(bad.infeasible, "clamping an active neuron off must be infeasible");
    assert_eq!(bad.p_hat, f64::INFINITY);

    let after = analysis_bits(&dp.analyze(&net, &region, &splits));
    assert_eq!(before, after, "arena must be clean after the early exit");
    assert_eq!(
        after,
        fresh_thread_bits(&net, &region, &splits),
        "post-early-exit reuse must match a fresh thread"
    );
}

/// Width-1 hidden layers produce 1×N and N×1 substitution panels —
/// smaller than any register tile — and must still round-trip through
/// the recycled arena bit-identically.
#[test]
fn one_wide_panels_reuse_equivalence() {
    for (seed, dims) in [
        (11u64, vec![3, 1, 5, 1, 2]),
        (12, vec![2, 9, 1, 9, 2]),
        (13, vec![1, 1, 1, 2]),
    ] {
        let net = random_net(seed, &dims);
        let region = InputBox::new(vec![-0.6; dims[0]], vec![0.6; dims[0]]);
        let dp = DeepPoly::new();
        let splits = scattered_splits(&dp, &net, &region);
        let reused = analysis_bits(&dp.analyze(&net, &region, &splits));
        assert_eq!(
            reused,
            fresh_thread_bits(&net, &region, &splits),
            "dims {dims:?}"
        );
    }
}

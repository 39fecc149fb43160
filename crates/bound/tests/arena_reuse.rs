//! The per-thread scratch arena must be invisible in results.
//!
//! Back-substitution leases one [`BoundArena`] per worker thread and
//! recycles it across nodes, so these tests pin the four ways recycling
//! could leak: stale buffer contents from an earlier (differently-shaped)
//! analysis, a lease dropped on the infeasible early-exit path,
//! degenerate panel shapes smaller than any block the tiled kernels use,
//! and stale buffer lengths in the `arena_bytes_peak` footprint.
//! The oracle is always a fresh `std::thread::spawn` — its thread-local
//! arena pool starts empty, so its result is what a never-recycled arena
//! produces — and equality is bit-for-bit over `p_hat` and every layer
//! bound, or exact over the footprint.

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
    assert!(
        bad.infeasible,
        "clamping an active neuron off must be infeasible"
    );
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

/// A net whose middle stage is ~20% non-zero, so it is stored sparse and
/// back-substitution through it runs neuron-major.
fn sparse_middle_net(seed: u64) -> CanonicalNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stage = |rows: usize, cols: usize, density: f64| {
        let m = Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen_range(0.0..1.0) < density {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let b: Vec<f64> = (0..rows).map(|_| rng.gen_range(-0.3..0.3)).collect();
        AffinePair::new(m, b)
    };
    let layers = vec![stage(40, 3, 1.0), stage(40, 40, 0.2), stage(2, 40, 1.0)];
    CanonicalNetwork::from_affine_pairs(3, layers)
}

/// `arena_bytes_peak` of a root pass and one split child.
fn arena_peaks(net: &CanonicalNetwork, region: &InputBox) -> Vec<usize> {
    let dp = DeepPoly::new();
    let root = dp.analyze_cached(net, region, &SplitSet::new(), None);
    let neuron = root.analysis.unstable_neurons(&SplitSet::new())[0];
    let splits = SplitSet::new().with(neuron, SplitSign::Neg);
    let child = dp.analyze_cached(net, region, &splits, root.prefix.as_ref());
    vec![root.stats.arena_bytes_peak, child.stats.arena_bytes_peak]
}

/// The arena footprint is length-based, so it must not depend on what
/// an earlier lease left behind: after bounding a net with a sparse
/// (neuron-major) stage, a dense-only net and the sparse net itself
/// report the same peaks as on a fresh thread.
#[test]
fn arena_peak_matches_fresh_thread_after_a_neuron_major_pass() {
    let region = InputBox::new(vec![-0.5; 3], vec![0.5; 3]);
    let sparse = sparse_middle_net(23);
    assert!(
        sparse.sparse_weight(1).is_some(),
        "middle stage must be sparse"
    );
    let dense = random_net(29, &[3, 6, 6, 2]);
    assert!((0..dense.num_layers()).all(|k| dense.sparse_weight(k).is_none()));

    let fresh = |net: &CanonicalNetwork| {
        let (net, region) = (net.clone(), region.clone());
        std::thread::spawn(move || arena_peaks(&net, &region))
            .join()
            .expect("analysis thread must not panic")
    };
    let (fresh_dense, fresh_sparse) = (fresh(&dense), fresh(&sparse));
    let (s, d) = (sparse.clone(), dense.clone());
    let r = region.clone();
    let (recycled_dense, recycled_sparse) = std::thread::spawn(move || {
        arena_peaks(&s, &r);
        let dense_peaks = arena_peaks(&d, &r);
        (dense_peaks, arena_peaks(&s, &r))
    })
    .join()
    .expect("analysis thread must not panic");
    assert_eq!(recycled_dense, fresh_dense, "dense net after a sparse one");
    assert_eq!(
        recycled_sparse, fresh_sparse,
        "sparse net on a recycled arena"
    );
}

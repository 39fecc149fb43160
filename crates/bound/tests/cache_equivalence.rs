//! Cached (parent-prefix) bound propagation must be bit-for-bit
//! identical to from-scratch analysis.
//!
//! `DeepPoly::analyze_cached` reuses the parent's per-layer bounds below
//! the first layer `L` whose split set diverges, and the concretised
//! back-substitution of layer `L` itself. It redoes only layer `L`'s IBP
//! intersection, split clamp and relaxation, then back-substitutes the
//! layers above with the exact from-scratch loop. These tests pin the
//! contract with `f64::to_bits` equality — no tolerance — across random
//! networks, random split chains, both relaxation modes, and mismatched
//! (sibling / stale) parent prefixes, and pin the reuse counters of every
//! chain step. A final test asserts the headline saving: a depth-3 chain
//! of deep splits cuts counted back-substitution layer-steps by at least
//! 30% versus recomputing every node from scratch.

use abonn_bound::{Analysis, AppVer, BoundComputeStats, DeepPoly, InputBox, SplitSet, SplitSign};
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

fn unit_box(dim: usize) -> InputBox {
    InputBox::new(vec![-1.0; dim], vec![1.0; dim])
}

/// Bit-level equality of two analyses: verdict flag, `p̂`, candidate,
/// and every per-layer bound must match exactly.
fn assert_bits_eq(scratch: &Analysis, cached: &Analysis, what: &str) {
    assert_eq!(scratch.infeasible, cached.infeasible, "{what}: infeasible");
    assert_eq!(
        scratch.p_hat.to_bits(),
        cached.p_hat.to_bits(),
        "{what}: p_hat {} vs {}",
        scratch.p_hat,
        cached.p_hat
    );
    match (&scratch.candidate, &cached.candidate) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.len(), b.len(), "{what}: candidate length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: candidate[{i}]");
            }
        }
        _ => panic!("{what}: candidate presence differs"),
    }
    assert_eq!(scratch.bounds.len(), cached.bounds.len(), "{what}: layers");
    for (k, (a, b)) in scratch.bounds.iter().zip(&cached.bounds).enumerate() {
        for (i, (x, y)) in a.lower.iter().zip(&b.lower).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: lower[{k}][{i}]");
        }
        for (i, (x, y)) in a.upper.iter().zip(&b.upper).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: upper[{k}][{i}]");
        }
    }
}

/// The reuse contract for a feasible child whose splits first diverge
/// from its parent's at hidden layer `l` of a `k`-stage net: stages
/// `0..=l` are served from the prefix (the split stage's
/// back-substitution included), and only stages `l+1..k` are
/// back-substituted.
fn assert_child_counters(stats: &BoundComputeStats, l: usize, k: usize, what: &str) {
    assert_eq!(stats.layers_reused, l + 1, "{what}: layers_reused");
    assert_eq!(
        stats.layers_recomputed,
        k - l - 1,
        "{what}: layers_recomputed"
    );
    assert_eq!(
        stats.backsub_steps,
        (l + 1..k).sum::<usize>(),
        "{what}: backsub_steps"
    );
}

/// Walks a split chain, threading each node's prefix into its child, and
/// checks every cached analysis bit-for-bit against a scratch one and
/// every feasible step's reuse counters against [`assert_child_counters`].
fn check_chain(dp: &DeepPoly, net: &CanonicalNetwork, dim: usize, choices: &[(usize, u8)]) {
    let region = unit_box(dim);
    let mut splits = SplitSet::new();
    let root = dp.analyze_cached(net, &region, &splits, None);
    assert_bits_eq(&dp.analyze(net, &region, &splits), &root.analysis, "root");
    assert_eq!(root.stats.layers_reused, 0, "root has nothing to reuse");
    let mut parent = root.prefix;
    let mut analysis = root.analysis;
    for (step, &(pick, pos)) in choices.iter().enumerate() {
        let unstable = analysis.unstable_neurons(&splits);
        if unstable.is_empty() {
            break;
        }
        let neuron = unstable[pick % unstable.len()];
        let sign = if pos == 0 {
            SplitSign::Pos
        } else {
            SplitSign::Neg
        };
        splits = splits.with(neuron, sign);
        let cached = dp.analyze_cached(net, &region, &splits, parent.as_ref());
        let scratch = dp.analyze(net, &region, &splits);
        let what = format!("chain step {step}");
        assert_bits_eq(&scratch, &cached.analysis, &what);
        if !cached.analysis.infeasible {
            assert_child_counters(&cached.stats, neuron.layer, net.num_layers(), &what);
        }
        parent = cached.prefix;
        analysis = cached.analysis;
        if analysis.infeasible {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_chain_is_bit_identical_adaptive(
        seed in 0u64..1_000,
        choices in proptest::collection::vec((0usize..64, 0u8..2), 1..6),
    ) {
        let net = random_net(seed, &[3, 6, 6, 6, 2]);
        check_chain(&DeepPoly::new(), &net, 3, &choices);
    }

    #[test]
    fn cached_chain_is_bit_identical_planet(
        seed in 0u64..1_000,
        choices in proptest::collection::vec((0usize..64, 0u8..2), 1..6),
    ) {
        let net = random_net(seed, &[3, 6, 6, 6, 2]);
        check_chain(&DeepPoly::planet(), &net, 3, &choices);
    }
}

/// A prefix from a *sibling* (or any unrelated node) is still a valid
/// parent handle: divergence detection recomputes from the first layer
/// where the split sets differ, so the result stays bit-identical.
#[test]
fn sibling_and_stale_prefixes_stay_bit_identical() {
    let net = random_net(7, &[3, 6, 6, 6, 2]);
    let region = unit_box(3);
    let dp = DeepPoly::new();
    let root = dp.analyze_cached(&net, &region, &SplitSet::new(), None);
    let unstable = root.analysis.unstable_neurons(&SplitSet::new());
    assert!(
        !unstable.is_empty(),
        "seed 7 must give branching candidates"
    );
    let neuron = *unstable.last().unwrap();

    let pos = SplitSet::new().with(neuron, SplitSign::Pos);
    let neg = SplitSet::new().with(neuron, SplitSign::Neg);
    let pos_cached = dp.analyze_cached(&net, &region, &pos, root.prefix.as_ref());

    // Sibling reuse: evaluate the Neg branch against the Pos branch's
    // prefix instead of the shared parent's.
    let neg_via_sibling = dp.analyze_cached(&net, &region, &neg, pos_cached.prefix.as_ref());
    assert_bits_eq(
        &dp.analyze(&net, &region, &neg),
        &neg_via_sibling.analysis,
        "sibling prefix",
    );

    // Stale reuse: evaluate the *root* again against a child's prefix.
    // Divergence is at the split layer, so shallower layers still match.
    let root_via_child =
        dp.analyze_cached(&net, &region, &SplitSet::new(), pos_cached.prefix.as_ref());
    assert_bits_eq(&root.analysis, &root_via_child.analysis, "stale prefix");

    // Full hit: same splits, same prefix — zero recomputation.
    let repeat = dp.analyze_cached(&net, &region, &pos, pos_cached.prefix.as_ref());
    assert_bits_eq(&pos_cached.analysis, &repeat.analysis, "full hit");
    assert_eq!(
        repeat.stats.layers_recomputed, 0,
        "full hit recomputes nothing"
    );
    assert_eq!(
        repeat.stats.backsub_steps, 0,
        "full hit runs no back-substitution"
    );
}

/// The acceptance criterion: on a depth-≥3 chain of deep splits, cached
/// bounding performs at least 30% fewer counted back-substitution
/// layer-steps than from-scratch bounding of the same node sequence.
#[test]
fn deep_split_chain_cuts_backsub_steps_by_thirty_percent() {
    let dims = [3, 8, 8, 8, 8, 8, 8, 8, 2]; // 8 affine stages
    let net = random_net(11, &dims);
    let region = unit_box(3);
    let dp = DeepPoly::new();

    let root = dp.analyze_cached(&net, &region, &SplitSet::new(), None);
    let deep: Vec<_> = root
        .analysis
        .unstable_neurons(&SplitSet::new())
        .into_iter()
        .filter(|n| n.layer == 6)
        .take(3)
        .collect();
    assert_eq!(
        deep.len(),
        3,
        "seed 11 must give 3 unstable neurons at layer 6"
    );

    let mut cached = BoundComputeStats::default();
    let mut scratch = BoundComputeStats::default();
    cached.absorb(&root.stats);
    scratch.absorb(&root.stats); // the root is computed from scratch either way

    let mut splits = SplitSet::new();
    let mut parent = root.prefix;
    for neuron in deep {
        splits = splits.with(neuron, SplitSign::Pos);
        let with_cache = dp.analyze_cached(&net, &region, &splits, parent.as_ref());
        let from_scratch = dp.analyze_cached(&net, &region, &splits, None);
        assert_bits_eq(&from_scratch.analysis, &with_cache.analysis, "deep chain");
        assert!(
            !with_cache.analysis.infeasible,
            "unstable splits keep the chain feasible"
        );
        cached.absorb(&with_cache.stats);
        scratch.absorb(&from_scratch.stats);
        parent = with_cache.prefix;
    }

    assert!(
        cached.layers_reused > 0,
        "deep splits must reuse parent layers"
    );
    // 8 stages: scratch costs 28 steps per call; a layer-6 split
    // inherits stage 6's back-substitution and recomputes only stage 7
    // for 7 steps. Over root + 3 children that is 49 vs 112 counted
    // steps — a 56% drop.
    assert!(
        cached.backsub_steps * 10 <= scratch.backsub_steps * 7,
        "expected >= 30% fewer layer-steps, got {} cached vs {} scratch",
        cached.backsub_steps,
        scratch.backsub_steps
    );
}

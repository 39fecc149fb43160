//! Block-sparse back-substitution on a kernel-dominated workload.
//!
//! Builds wide hidden layers so the `A ← A·W` back-substitution products
//! carry the cost, with every second still-unstable neuron split `Neg`
//! layer by layer so the skip mask scatters short masked blocks through
//! each layer (each such split collapses the neuron's relaxation to the
//! zero function), then times bounding that node: the fused kernel walks
//! the condensed unmasked runs (`fused_affine_into_runs`) with register
//! tiles. The kernel's bit-identity to the rolled masked loop it replaced
//! is pinned by the oracle proptests in `abonn-tensor`'s `matrix.rs`.
//! The committed trajectory in `perf/BENCH_backsub.jsonl` leads with this
//! workload measured on the pre-optimization substrate.
//!
//! Run with `cargo bench -p abonn-bound --bench backsub_sparse`; under
//! `cargo test` each routine runs once as a smoke check.

use abonn_bound::{AppVer, DeepPoly, InputBox, SplitSet, SplitSign};
use abonn_nn::{AffinePair, CanonicalNetwork};
use abonn_tensor::Matrix;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

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

/// Splits every second still-unstable neuron `Neg`, layer by layer:
/// each such split turns the neuron's relaxation into the zero function,
/// so together with the always-off neurons the skip mask scatters short
/// masked blocks through each hidden layer while the surviving unstable
/// neurons keep the substitution products full-width — the mixed regime
/// the run-condensed kernel is built for. Re-analyzing between layers
/// only splits neurons still unstable under the accumulated
/// constraints, which keeps every clamp feasible — Neg-splitting the
/// root's full unstable set at once drives the interval propagation
/// infeasible and the node would short-circuit.
fn layered_neg_splits(dp: &DeepPoly, net: &CanonicalNetwork, region: &InputBox) -> SplitSet {
    let mut splits = SplitSet::new();
    for layer in 0..net.num_layers() - 1 {
        let analysis = dp.analyze(net, region, &splits);
        for (k, neuron) in analysis
            .unstable_neurons(&splits)
            .into_iter()
            .filter(|n| n.layer == layer)
            .enumerate()
        {
            if k % 2 == 0 {
                splits = splits.with(neuron, SplitSign::Neg);
            }
        }
    }
    splits
}

fn bench_block_sparse(c: &mut Criterion) {
    let dims = [8, 224, 224, 224, 224, 2];
    let net = random_net(23, &dims);
    let region = InputBox::new(vec![-0.05; 8], vec![0.05; 8]);
    let dp = DeepPoly::new();
    let splits = layered_neg_splits(&dp, &net, &region);

    // Report the machine-independent skip counters once, outside the
    // timed loop.
    let node = dp.analyze_cached(&net, &region, &splits, None);
    assert!(
        node.stats.backsub_rows_skipped > node.stats.backsub_rows_total / 2,
        "workload must be majority-stable for the block-sparse regime"
    );
    println!(
        "block-sparse node ({} splits, p_hat bits {:x}): {} / {} substitution rows skipped, {} masked blocks elided",
        splits.len(),
        node.analysis.p_hat.to_bits(),
        node.stats.backsub_rows_skipped,
        node.stats.backsub_rows_total,
        node.stats.blocks_skipped,
    );

    c.bench_function("bound/backsub_block_sparse", |bench| {
        bench.iter(|| black_box(dp.analyze(&net, &region, black_box(&splits)).p_hat))
    });
}

criterion_group!(benches, bench_block_sparse);
criterion_main!(benches);

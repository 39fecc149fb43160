//! Bit pins for bounding the conv-lowered CIFAR models.
//!
//! Interval propagation and back-substitution walk the compressed sparse
//! form of the lowered convolutions, in a neuron-major layout, while the
//! dense stages keep the row-major kernels. Production has no switch back
//! to an all-dense pass, so the all-dense bits are pinned here instead:
//! every digest below was recorded from the all-dense implementation.
//! Each digest covers p̂, the candidate and every layer's bounds of one
//! analysis (or of every node of a split chain), so a stale masked row, a
//! lane written to the wrong place or a reordered chain shows up as a
//! mismatch.

use abonn_repro::bound::{
    AlphaCrown, Analysis, AppVer, DeepPoly, Ibp, InputBox, NeuronId, SplitSet, SplitSign,
};
use abonn_repro::core::RobustnessProblem;
use abonn_repro::data::zoo::ModelKind;
use abonn_repro::nn::{AffinePair, CanonicalNetwork};
use abonn_repro::tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Digests recorded from the all-dense pass: `(model, analysis, digest)`.
const PINNED: &[(&str, &str, u64)] = &[
    ("base", "ibp", 0x4847eb603ec1c9e1),
    ("base", "deeppoly", 0xfc0d664e58acdf7d),
    ("base", "deeppoly_chain", 0x52728d6fd620c995),
    ("base", "planet", 0xd142303df6bd7232),
    ("base", "planet_chain", 0x7a0647009de9f99e),
    ("base", "alpha", 0xa024e2b6a84524b5),
    ("wide", "ibp", 0x2cc6910dd2c3e090),
    ("wide", "deeppoly", 0xc83ea7f7058c7aba),
    ("wide", "deeppoly_chain", 0xdd744fb0d8c845a4),
    ("wide", "planet", 0x912e782571795e99),
    ("wide", "planet_chain", 0x20df4ca40a675557),
    ("wide", "alpha", 0xa369adb32b82d52b),
    ("deep", "ibp", 0x99fccab8d6b3ec69),
    ("deep", "deeppoly", 0x2f4d067e4d04bc98),
    ("deep", "deeppoly_chain", 0x694a264402a884af),
    ("deep", "planet", 0x64e5f40399703920),
    ("deep", "planet_chain", 0x025e133c243a188c),
    ("deep", "alpha", 0x60577fdd97a97de4),
    ("mixed", "ibp", 0xef68f4c8bbcb5270),
    ("mixed", "deeppoly", 0xe4e69a446bacee60),
    ("mixed", "deeppoly_chain", 0x2e6ef52df1aa7c22),
    ("mixed", "planet", 0x92677eb48b7c4c2b),
    ("mixed", "planet_chain", 0x9cab959fd6b08f9c),
    ("mixed", "alpha", 0xad6093baf88584a0),
];

/// FNV-1a over the bit patterns of every float the analysis reports.
fn absorb(h: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn absorb_analysis(h: &mut u64, a: &Analysis) {
    absorb(h, u64::from(a.infeasible));
    absorb(h, a.p_hat.to_bits());
    if let Some(c) = &a.candidate {
        for v in c {
            absorb(h, v.to_bits());
        }
    }
    for layer in &a.bounds {
        for (l, u) in layer.lower.iter().zip(&layer.upper) {
            absorb(h, l.to_bits());
            absorb(h, u.to_bits());
        }
    }
}

fn digest_of(analyses: &[Analysis]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for a in analyses {
        absorb_analysis(&mut h, a);
    }
    h
}

/// A robustness problem on the untrained architecture, around the first
/// sample it classifies, small enough that every hidden layer mixes
/// stably-inactive neurons (masked rows) with unstable ones.
fn problem(kind: ModelKind) -> RobustnessProblem {
    let net = kind.architecture(7);
    let data = kind.dataset(1, 8);
    let x = data.inputs[0].clone();
    let label = net.classify(&x);
    RobustnessProblem::new(&net, x, label, 0.004).expect("valid problem")
}

/// A root analysis followed by a chain of `analyze_cached` children: each
/// step splits an unstable neuron of layer 0, 1, the last hidden layer,
/// then 0 again (so the final child reuses nothing), alternating the
/// sign, and threads the parent's prefix into the child.
fn split_chain(dp: &DeepPoly, net: &CanonicalNetwork, region: &InputBox) -> Vec<Analysis> {
    let last_hidden = net.num_layers() - 2;
    let mut node = dp.analyze_cached(net, region, &SplitSet::new(), None);
    let mut splits = SplitSet::new();
    let mut out = vec![node.analysis.clone()];
    for (step, layer) in [0, 1, last_hidden, 0].into_iter().enumerate() {
        let unstable = node.analysis.unstable_neurons(&splits);
        let Some(&neuron) = unstable.iter().find(|n| n.layer == layer) else {
            continue;
        };
        let sign = if step % 2 == 0 {
            SplitSign::Neg
        } else {
            SplitSign::Pos
        };
        splits = splits.with(neuron, sign);
        node = dp.analyze_cached(net, region, &splits, node.prefix.as_ref());
        out.push(node.analysis.clone());
        if node.analysis.infeasible {
            break;
        }
    }
    out
}

/// Every pinned analysis of one network: IBP, both DeepPoly modes at the
/// root and along a split chain, and root α-CROWN.
fn digest_all(
    name: &'static str,
    net: &CanonicalNetwork,
    region: &InputBox,
    got: &mut Vec<(&'static str, &'static str, u64)>,
) {
    let none = SplitSet::new();
    got.push((
        name,
        "ibp",
        digest_of(&[Ibp::new().analyze(net, region, &none)]),
    ));
    for (mode, chain_name, dp) in [
        ("deeppoly", "deeppoly_chain", DeepPoly::new()),
        ("planet", "planet_chain", DeepPoly::planet()),
    ] {
        got.push((name, mode, digest_of(&[dp.analyze(net, region, &none)])));
        let chain = split_chain(&dp, net, region);
        assert!(chain.len() >= 4, "{name} {mode}: split chain too short");
        got.push((name, chain_name, digest_of(&chain)));
    }
    let alpha = AlphaCrown::default().analyze(net, region, &none);
    got.push((name, "alpha", digest_of(&[alpha])));
}

/// Dense and sparse stages interleaved (`dense 8→24`, `24→24` at ~30%
/// non-zero, `dense 24→16`, `16→16` at ~25%, `dense 16→3`), so
/// back-substitution from the output switches the layout both ways
/// twice; a pattern the lowered zoo models never produce.
fn mixed_net() -> (CanonicalNetwork, InputBox) {
    let mut rng = SmallRng::seed_from_u64(19);
    let mut stage = |rows: usize, cols: usize, density: f64| {
        let w = Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen_range(0.0..1.0) < density {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let b = (0..rows).map(|_| rng.gen_range(-0.3..0.3)).collect();
        AffinePair::new(w, b)
    };
    let layers = vec![
        stage(24, 8, 1.0),
        stage(24, 24, 0.3),
        stage(16, 24, 1.0),
        stage(16, 16, 0.25),
        stage(3, 16, 1.0),
    ];
    let net = CanonicalNetwork::from_affine_pairs(8, layers);
    let center: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
    (net, InputBox::linf_ball(&center, 0.05, -2.0, 2.0))
}

fn digests() -> Vec<(&'static str, &'static str, u64)> {
    let mut got = Vec::new();
    for (name, kind) in [
        ("base", ModelKind::CifarBase),
        ("wide", ModelKind::CifarWide),
        ("deep", ModelKind::CifarDeep),
    ] {
        let p = problem(kind);
        digest_all(name, p.margin_net(), p.region(), &mut got);
    }
    let (net, region) = mixed_net();
    digest_all("mixed", &net, &region, &mut got);
    got
}

#[test]
fn lowered_cifar_bounds_match_the_all_dense_bits() {
    let got = digests();
    let table: String = got
        .iter()
        .map(|(m, a, d)| format!("    (\"{m}\", \"{a}\", 0x{d:016x}),\n"))
        .collect();
    let pinned: Vec<_> = PINNED.to_vec();
    assert_eq!(got, pinned, "digests moved; recomputed table:\n{table}");
}

#[test]
fn the_pinned_networks_are_stored_as_intended() {
    let (mixed, _) = mixed_net();
    let sparse: Vec<bool> = (0..mixed.num_layers())
        .map(|k| mixed.sparse_weight(k).is_some())
        .collect();
    assert_eq!(sparse, [false, true, false, true, false]);
    for kind in [
        ModelKind::CifarBase,
        ModelKind::CifarWide,
        ModelKind::CifarDeep,
    ] {
        let net = problem(kind).margin_net().clone();
        let hidden = net.num_layers() - 2;
        // Every lowered convolution is sparse; the two dense layers are not.
        for k in 0..net.num_layers() {
            assert_eq!(
                net.sparse_weight(k).is_some(),
                k < hidden,
                "{kind:?} stage {k}"
            );
        }
    }
}

#[test]
fn the_pinned_problems_mask_rows_in_every_sparse_stage() {
    for kind in [
        ModelKind::CifarBase,
        ModelKind::CifarWide,
        ModelKind::CifarDeep,
    ] {
        let p = problem(kind);
        let net = p.margin_net();
        let root = DeepPoly::planet().analyze(net, p.region(), &SplitSet::new());
        for (k, layer) in root.bounds[..net.num_layers() - 1].iter().enumerate() {
            let inactive = layer.upper.iter().filter(|&&u| u <= 0.0).count();
            let unstable = root
                .unstable_neurons(&SplitSet::new())
                .iter()
                .filter(|n: &&NeuronId| n.layer == k)
                .count();
            assert!(inactive > 0, "{kind:?} layer {k}: no masked rows");
            assert!(unstable > 0, "{kind:?} layer {k}: no unstable neurons");
        }
    }
}

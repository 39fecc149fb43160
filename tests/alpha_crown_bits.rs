//! Bit pins for [`AlphaCrown`].
//!
//! Every digest below was recorded from the implementation that ran each
//! of an analysis's slope passes from scratch and ignored parent prefixes.
//! Passes now resume from the incumbent's prefix and nodes from their
//! parent's, so these pins hold the reuse to the from-scratch bits.
//!
//! Per seed, a split path of one to five splits is drawn over the trained
//! model's calibrated first instance (each split on a neuron DeepPoly
//! leaves unstable under the splits before it, with a random sign). Under
//! each configuration the digest covers, for the path's last split set:
//! the parent bounded without a prefix, the child bounded from the
//! parent's prefix, the child re-queried with its own prefix (a popped
//! node), the child bounded by plain `analyze`, and the next
//! configuration's analysis of the child from this one's prefix. Each
//! analysis contributes p̂, infeasibility, the candidate and every bound.

use abonn_repro::bound::{AlphaCrown, Analysis, AppVer, DeepPoly, InputBox, SplitSet, SplitSign};
use abonn_repro::core::RobustnessProblem;
use abonn_repro::data::suite::{calibrated_instances, SuiteConfig};
use abonn_repro::data::zoo::ModelKind;
use abonn_repro::nn::CanonicalNetwork;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeded split paths per model.
const SEEDS: u64 = 24;

/// Digests recorded from the from-scratch passes: `(model, config, digest)`.
const PINNED: &[(&str, &str, u64)] = &[
    ("mnist_l2", "default", 0x0e9199da4ad0e3cf),
    ("mnist_l2", "short", 0x140cc7a8728aef88),
    ("mnist_l2", "wide", 0xba4f2c2fd96d914c),
    ("mnist_l4", "default", 0x23ea97835c60ab88),
    ("mnist_l4", "short", 0xe0333c51de555e34),
    ("mnist_l4", "wide", 0x39ac819054965cd3),
    ("cifar_base", "default", 0x73518073249bf34a),
    ("cifar_base", "short", 0x60e855a5ed336a0f),
    ("cifar_base", "wide", 0x77e3defbb32b81c5),
];

/// The pinned configurations: the default, a portfolio of the canonical
/// three with a short refinement, and a wide portfolio with a long one.
fn configs() -> [(&'static str, AlphaCrown); 3] {
    [
        ("default", AlphaCrown::default()),
        ("short", AlphaCrown::new(0, 3, 5)),
        ("wide", AlphaCrown::new(4, 16, 9)),
    ]
}

/// FNV-1a over the bit patterns of every float an analysis reports.
fn absorb(h: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn absorb_analysis(h: &mut u64, a: &Analysis) {
    absorb(h, u64::from(a.infeasible));
    absorb(h, a.p_hat.to_bits());
    absorb(h, u64::from(a.candidate.is_some()));
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

/// The trained model's first calibrated instance.
fn problem(kind: ModelKind) -> RobustnessProblem {
    let (net, _) = kind.trained_model(7);
    let config = SuiteConfig {
        per_model: 1,
        seed: 7,
    };
    let instance = calibrated_instances(kind, &net, &config)
        .into_iter()
        .next()
        .expect("the model has a calibrated instance");
    RobustnessProblem::new(&net, instance.input, instance.label, instance.epsilon)
        .expect("calibrated instances are valid problems")
}

/// The parent and child split sets of seed `seed`'s path.
fn split_path(seed: u64, net: &CanonicalNetwork, region: &InputBox) -> (SplitSet, SplitSet) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let depth = rng.gen_range(1..=5);
    let dp = DeepPoly::new();
    let (mut parent, mut child) = (SplitSet::new(), SplitSet::new());
    for _ in 0..depth {
        let a = dp.analyze(net, region, &child);
        let unstable = a.unstable_neurons(&child);
        if a.infeasible || unstable.is_empty() {
            break;
        }
        let neuron = unstable[rng.gen_range(0..unstable.len())];
        let sign = if rng.gen_range(0..2) == 0 {
            SplitSign::Pos
        } else {
            SplitSign::Neg
        };
        parent = child.clone();
        child = child.with(neuron, sign);
    }
    (parent, child)
}

fn digests() -> Vec<(&'static str, &'static str, u64)> {
    let configs = configs();
    let mut got = Vec::new();
    for (name, kind) in [
        ("mnist_l2", ModelKind::MnistL2),
        ("mnist_l4", ModelKind::MnistL4),
        ("cifar_base", ModelKind::CifarBase),
    ] {
        let p = problem(kind);
        let (net, region) = (p.margin_net(), p.region());
        let paths: Vec<_> = (0..SEEDS).map(|s| split_path(s, net, region)).collect();
        for (i, (config, alpha)) in configs.iter().enumerate() {
            let next = configs[(i + 1) % configs.len()].1;
            let mut h = 0xcbf2_9ce4_8422_2325;
            for (parent, child) in &paths {
                let up = alpha.analyze_cached(net, region, parent, None);
                let node = alpha.analyze_cached(net, region, child, up.prefix.as_ref());
                let popped = alpha.analyze_cached(net, region, child, node.prefix.as_ref());
                let plain = alpha.analyze(net, region, child);
                let other = next.analyze_cached(net, region, child, node.prefix.as_ref());
                for a in [
                    &up.analysis,
                    &node.analysis,
                    &popped.analysis,
                    &plain,
                    &other.analysis,
                ] {
                    absorb_analysis(&mut h, a);
                }
            }
            got.push((name, *config, h));
        }
    }
    got
}

#[test]
fn alpha_crown_matches_the_from_scratch_bits() {
    let got = digests();
    let table: String = got
        .iter()
        .map(|(m, c, d)| format!("    (\"{m}\", \"{c}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got,
        PINNED.to_vec(),
        "digests moved; recomputed table:\n{table}"
    );
}

//! Bit pins for the triangle LPs of [`LpVerifier`].
//!
//! Every LP is solved cold, from the two-phase start, so the bits of an
//! analysis are a function of its node alone. They are pinned over 600
//! seeded random cases: every digest below was recorded from the cold
//! reference of the earlier implementation, which could also warm-start a
//! solve from a parent's or a sibling row's basis. Half the cases are
//! fully split, the shape the engines send to resolve an exhausted leaf
//! (no parent prefix); the other half are a root and one partially split
//! child that inherits the root's prefix. A second recording pins the
//! fully-split cases to that implementation's warm-started default too,
//! all but the two in [`WARM_DIVERGED`]. Each case's digest covers p̂,
//! infeasibility, the candidate and every bound of each analysis; the
//! digests are folded in groups of 50 seeds.

use abonn_repro::bound::{
    Analysis, AppVer, DeepPoly, InputBox, LpVerifier, NeuronId, SplitSet, SplitSign,
};
use abonn_repro::nn::{AffinePair, CanonicalNetwork};
use abonn_repro::tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 600;
const GROUP: u64 = 50;

/// Digest of every case of each group of `GROUP` seeds, recorded from the
/// cold reference.
const PINNED_COLD: [u64; 12] = [
    0xd6567a8b629ca8ea,
    0x472d95ae970d1618,
    0x8cfbef0f1d13a788,
    0x17f206dff05ad76f,
    0x601dfbb70fed94d4,
    0x1c97b8ff7a2cc1b5,
    0x6fd39c696649382a,
    0xba1ac35646482183,
    0x8c6ba80b5e3b2b4f,
    0x514472fd9fdaabfd,
    0x3f01d70a743a4761,
    0xfe7c9eda0471c6a7,
];

/// Digest of the fully-split cases of each group, recorded from the
/// warm-started default, leaving out [`WARM_DIVERGED`].
const PINNED_FULL_WARM: [u64; 12] = [
    0xd02570ecdbf84d01,
    0xa417b44e9eb694de,
    0x7a8f691eae1f97fb,
    0xb77482a82cc9cba0,
    0x60fec2bfaa3744d4,
    0x99a5935d511986e5,
    0x26933ab846ca3e93,
    0xcc11e18876a9d8cc,
    0xe7b1fbe4863e796e,
    0x37bc8ceffa60130f,
    0x3173feacccbd83aa,
    0x2b716b8df428d7ba,
];

/// Fully-split seeds on which the warm-started default returned other
/// bits than the cold reference. Both leaves solve one LP per output row;
/// warm starting the later rows from the previous row's basis stopped at
/// another optimal vertex. Seed 160's p̂ moved by 1.8e-6 with it, seed
/// 338's candidate alone. The cold bits of both are in [`PINNED_COLD`].
const WARM_DIVERGED: [u64; 2] = [160, 338];

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

/// One seeded case: a random 1–3 hidden-layer net, a box, and its splits.
struct Case {
    net: CanonicalNetwork,
    region: InputBox,
    splits: SplitSet,
    /// Every neuron DeepPoly leaves unstable is split (even seeds).
    full: bool,
}

fn random_case(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut dims = vec![rng.gen_range(2..=4)];
    for _ in 0..rng.gen_range(1..=3) {
        dims.push(rng.gen_range(2..=6));
    }
    dims.push(rng.gen_range(1..=3));
    let mut layers = Vec::new();
    for w in dims.windows(2) {
        let m = Matrix::from_fn(w[1], w[0], |_, _| rng.gen_range(-1.0..1.0));
        let b: Vec<f64> = (0..w[1]).map(|_| rng.gen_range(-0.5..0.5)).collect();
        layers.push(AffinePair::new(m, b));
    }
    let net = CanonicalNetwork::from_affine_pairs(dims[0], layers);
    let center: Vec<f64> = (0..dims[0]).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let radius = rng.gen_range(0.1..0.8);
    let region = InputBox::linf_ball(&center, radius, -2.0, 2.0);

    let full = seed.is_multiple_of(2);
    let random_sign = |rng: &mut SmallRng| {
        if rng.gen_range(0..2) == 0 {
            SplitSign::Pos
        } else {
            SplitSign::Neg
        }
    };
    let dp = DeepPoly::new();
    let mut splits = SplitSet::new();
    if full {
        // Mostly the activation pattern of one point of the box, so many
        // leaves are feasible; the rest of the signs are random.
        let point: Vec<f64> = region
            .lo()
            .iter()
            .zip(region.hi())
            .map(|(&l, &h)| rng.gen_range(l..=h))
            .collect();
        let pre = net.preactivations(&point);
        loop {
            let a = dp.analyze(&net, &region, &splits);
            let unstable = a.unstable_neurons(&splits);
            if a.infeasible || unstable.is_empty() {
                break;
            }
            for n in unstable {
                let sign = if rng.gen_range(0..5) < 4 {
                    if pre[n.layer][n.index] >= 0.0 {
                        SplitSign::Pos
                    } else {
                        SplitSign::Neg
                    }
                } else {
                    random_sign(&mut rng)
                };
                splits = splits.with(n, sign);
            }
        }
    } else {
        let mut unstable: Vec<NeuronId> = dp
            .analyze(&net, &region, &SplitSet::new())
            .unstable_neurons(&SplitSet::new());
        let k = unstable.len().min(rng.gen_range(1..=3));
        for _ in 0..k {
            let n = unstable.remove(rng.gen_range(0..unstable.len()));
            splits = splits.with(n, random_sign(&mut rng));
        }
    }
    Case {
        net,
        region,
        splits,
        full,
    }
}

/// The analyses a case pins: a fully-split leaf alone and without a
/// parent, as the engines resolve it; otherwise the root, then the
/// partially split child bounded from the root's prefix.
fn analyses(lp: &LpVerifier, case: &Case) -> Vec<Analysis> {
    if case.full {
        return vec![
            lp.analyze_cached(&case.net, &case.region, &case.splits, None)
                .analysis,
        ];
    }
    let root = lp.analyze_cached(&case.net, &case.region, &SplitSet::new(), None);
    let child = lp.analyze_cached(&case.net, &case.region, &case.splits, root.prefix.as_ref());
    vec![root.analysis, child.analysis]
}

/// Per group of `GROUP` seeds: the digest of all its cases and of its
/// fully-split cases alone.
fn digests() -> (Vec<u64>, Vec<u64>) {
    let lp = LpVerifier::new();
    let (mut all, mut full) = (Vec::new(), Vec::new());
    for group in 0..CASES / GROUP {
        let (mut h_all, mut h_full) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        for seed in group * GROUP..(group + 1) * GROUP {
            let case = random_case(seed);
            for a in analyses(&lp, &case) {
                absorb_analysis(&mut h_all, &a);
                if case.full && !WARM_DIVERGED.contains(&seed) {
                    absorb_analysis(&mut h_full, &a);
                }
            }
        }
        all.push(h_all);
        full.push(h_full);
    }
    (all, full)
}

fn table(digests: &[u64]) -> String {
    digests
        .iter()
        .map(|d| format!("    0x{d:016x},\n"))
        .collect()
}

#[test]
fn leaf_lps_match_the_recorded_cold_bits() {
    let (all, full) = digests();
    assert_eq!(
        all,
        PINNED_COLD,
        "cold digests moved; recomputed:\n{}",
        table(&all)
    );
    assert_eq!(
        full,
        PINNED_FULL_WARM,
        "fully-split digests moved; recomputed:\n{}",
        table(&full)
    );
}

#[test]
fn the_pinned_cases_cover_every_leaf_outcome() {
    let lp = LpVerifier::new();
    let (mut full, mut infeasible, mut falsifiable, mut verified, mut multi_row) = (0, 0, 0, 0, 0);
    for seed in 0..CASES {
        let case = random_case(seed);
        if case.full {
            full += 1;
            let leaf = lp.analyze_cached(&case.net, &case.region, &case.splits, None);
            let unstable = leaf.analysis.unstable_neurons(&case.splits);
            assert!(unstable.is_empty(), "seed {seed}: leaf not fully split");
        }
        for a in analyses(&lp, &case) {
            if a.infeasible {
                infeasible += 1;
            } else if a.candidate.is_some() {
                falsifiable += 1;
            } else if a.verified() {
                verified += 1;
            }
        }
        let last = lp.analyze_cached(&case.net, &case.region, &case.splits, None);
        multi_row += usize::from(last.stats.lp_cold_solves > 1);
    }
    eprintln!(
        "{full} fully split; outcomes: {infeasible} infeasible, {falsifiable} with a \
         candidate, {verified} verified; {multi_row} cases solve more than one LP row"
    );
    assert_eq!(full, CASES / 2);
    for (what, count) in [
        ("infeasible", infeasible),
        ("with a candidate", falsifiable),
        ("verified", verified),
        ("multi-row", multi_row),
    ] {
        assert!(count >= 20, "only {count} analyses {what}");
    }
}

//! Back-substituted linear bounds, written from the definition.
//!
//! The auditor's second stage, between plain intervals and the LPs. Each
//! hidden stage's box is re-derived by expressing the stage's rows as
//! linear functions of the input, substituting every earlier ReLU by a
//! linear relaxation over that ReLU's box, and minimising over the input
//! box. Like [`crate::interval`], it shares no code with `abonn-bound`:
//! the loops below run over the network's dense weights directly.
//!
//! Over a pre-activation box `[l, u]` with `l < 0 < u`, a ReLU is bounded
//! below by `α·z` and above by the triangle facet `u·(z − l)/(u − l)`.
//! The lower slope is DeepPoly's adaptive one: `α = 1` when `u ≥ −l`,
//! else `α = 0`. A stable ReLU (`l ≥ 0` or `u ≤ 0`) is exact: `relu(z) =
//! z` or `0`. Since `α ∈ {0, 1}` makes each lower relaxation a triangle
//! facet, every bound here is a dual-feasible value of the triangle LP
//! over the same boxes — so the refined-LP stage dominates this one (see
//! `DESIGN.md` §5d).

use crate::interval::{clamp_split, IntervalBounds, EMPTY_TOL};
use abonn_bound::{InputBox, NeuronId, SplitSet};
use abonn_nn::CanonicalNetwork;

/// Linear bounds of one ReLU over its pre-activation box:
/// `lower_slope·z ≤ relu(z) ≤ upper_slope·z + upper_offset`.
#[derive(Debug, Clone, Copy)]
struct Relaxation {
    lower_slope: f64,
    upper_slope: f64,
    upper_offset: f64,
}

impl Relaxation {
    fn over(l: f64, u: f64) -> Self {
        if l >= 0.0 {
            Self {
                lower_slope: 1.0,
                upper_slope: 1.0,
                upper_offset: 0.0,
            }
        } else if u <= 0.0 {
            Self {
                lower_slope: 0.0,
                upper_slope: 0.0,
                upper_offset: 0.0,
            }
        } else {
            let slope = u / (u - l);
            Self {
                lower_slope: if u >= -l { 1.0 } else { 0.0 },
                upper_slope: slope,
                upper_offset: -slope * l,
            }
        }
    }
}

/// Lower bound of `Σ_m coeff_m · relu(z_{k−1,m}) + constant` over the
/// leaf, with every ReLU of stages `k−1, …, 0` replaced by its relaxation
/// (the lower one under a non-negative coefficient, the upper one under a
/// negative one), and the resulting affine function of the input
/// minimised over the input box.
fn back_substitute(
    net: &CanonicalNetwork,
    relax: &[Vec<Relaxation>],
    region: &InputBox,
    k: usize,
    mut coeff: Vec<f64>,
    mut constant: f64,
) -> f64 {
    for (stage, relax) in net.layers()[..k].iter().zip(relax).rev() {
        let mut next = vec![0.0; stage.in_dim()];
        for (m, (&c, r)) in coeff.iter().zip(relax).enumerate() {
            let d = if c >= 0.0 {
                c * r.lower_slope
            } else {
                constant += c * r.upper_offset;
                c * r.upper_slope
            };
            if d == 0.0 {
                continue;
            }
            // z_m = Σ_j w_mj · (previous activation or input)_j + b_m.
            constant += d * stage.bias[m];
            for (n, &w) in next.iter_mut().zip(stage.weight.row(m)) {
                *n += d * w;
            }
        }
        coeff = next;
    }
    let input: f64 = coeff
        .iter()
        .zip(region.lo().iter().zip(region.hi()))
        .map(|(&c, (&lo, &hi))| if c >= 0.0 { c * lo } else { c * hi })
        .sum();
    input + constant
}

/// Tightens the leaf's split-clamped interval boxes with back-substituted
/// linear bounds, stage by stage: each stage's rows are bounded through
/// the relaxations of the (already tightened) boxes before it, then
/// intersected with the interval box and clamped by their splits. The
/// last stage gains linear lower bounds only — its margins.
///
/// A stable neuron without a split keeps its interval box: its
/// relaxation is exact whatever the box. Stage 0's interval box is
/// already the exact affine image of the input box.
///
/// Returns `None` when a tightened range is empty: the sub-problem
/// contains no input, so any claim about it is vacuously true.
#[must_use]
pub(crate) fn propagate(
    net: &CanonicalNetwork,
    region: &InputBox,
    splits: &SplitSet,
    interval: &IntervalBounds,
) -> Option<IntervalBounds> {
    let stages = net.layers();
    let last = stages.len() - 1;
    let mut pre = interval.pre.clone();
    let mut relax = Vec::with_capacity(last);
    for k in 0..=last {
        let stage = &stages[k];
        let (lo, hi) = &mut pre[k];
        if k > 0 {
            for i in 0..stage.out_dim() {
                let row = stage.weight.row(i);
                let bias = stage.bias[i];
                if k == last {
                    lo[i] = lo[i].max(back_substitute(net, &relax, region, k, row.to_vec(), bias));
                    continue;
                }
                let sign = splits.sign_of(NeuronId::new(k, i));
                if sign.is_none() && (lo[i] >= 0.0 || hi[i] <= 0.0) {
                    continue;
                }
                let below = back_substitute(net, &relax, region, k, row.to_vec(), bias);
                let negated = row.iter().map(|&w| -w).collect();
                let above = -back_substitute(net, &relax, region, k, negated, -bias);
                let (l, h) = clamp_split(lo[i].max(below), hi[i].min(above), sign);
                if l > h + EMPTY_TOL {
                    return None;
                }
                lo[i] = l;
                hi[i] = h.max(l);
            }
        }
        if k < last {
            relax.push(
                lo.iter()
                    .zip(hi.iter())
                    .map(|(&l, &u)| Relaxation::over(l, u))
                    .collect(),
            );
        }
    }
    Some(IntervalBounds { pre })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::interval;
    use abonn_bound::SplitSign;
    use abonn_nn::AffinePair;
    use abonn_tensor::Matrix;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A random dense net `dims[0] → … → dims[last]` with weights and
    /// biases in `[−1, 1]`.
    pub(crate) fn random_net(rng: &mut SmallRng, dims: &[usize]) -> CanonicalNetwork {
        let layers = dims
            .windows(2)
            .map(|w| {
                let weight = Matrix::from_fn(w[1], w[0], |_, _| rng.gen_range(-1.0..1.0));
                let bias = (0..w[1]).map(|_| rng.gen_range(-1.0..1.0)).collect();
                AffinePair::new(weight, bias)
            })
            .collect();
        CanonicalNetwork::from_affine_pairs(dims[0], layers)
    }

    #[test]
    fn adaptive_slope_follows_the_larger_side() {
        let wide_above = Relaxation::over(-1.0, 3.0);
        assert_eq!(wide_above.lower_slope, 1.0);
        assert_eq!(wide_above.upper_slope, 0.75);
        assert_eq!(wide_above.upper_offset, 0.75);
        assert_eq!(Relaxation::over(-3.0, 1.0).lower_slope, 0.0);
    }

    #[test]
    fn back_substitution_sees_cancellations_intervals_miss() {
        // z = (x, x), y = relu(z0) − relu(z1) + 0.1 ≡ 0.1 on x ∈ [0, 1],
        // where intervals only give y ≥ −0.9.
        let net = CanonicalNetwork::from_affine_pairs(
            1,
            vec![
                AffinePair::new(Matrix::from_rows(&[&[1.0], &[1.0]]), vec![0.0, 0.0]),
                AffinePair::new(Matrix::from_rows(&[&[1.0, -1.0]]), vec![0.1]),
            ],
        );
        let region = InputBox::new(vec![0.0], vec![1.0]);
        let splits = SplitSet::new();
        let boxes = interval::propagate(&net, &region, &splits).unwrap();
        assert!(boxes.min_output_lower() < 0.0);
        let tight = propagate(&net, &region, &splits, &boxes).unwrap();
        assert!((tight.min_output_lower() - 0.1).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every sampled input that satisfies the leaf's splits has its
        /// pre-activations and margins inside the linear bounds.
        #[test]
        fn linear_bounds_contain_every_split_respecting_point(
            seed in 0u64..u64::MAX,
            hidden in proptest::collection::vec(1usize..6, 1..4),
            radius in 0.05f64..1.5,
            split_count in 0usize..4,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut dims = vec![2];
            dims.extend(&hidden);
            dims.push(2);
            let net = random_net(&mut rng, &dims);
            let center: Vec<f64> = (0..2).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let region = InputBox::new(
                center.iter().map(|c| c - radius).collect(),
                center.iter().map(|c| c + radius).collect(),
            );
            let mut splits = SplitSet::new();
            for _ in 0..split_count {
                let layer = rng.gen_range(0..hidden.len());
                let neuron = NeuronId::new(layer, rng.gen_range(0..hidden[layer]));
                let sign = if rng.gen_bool(0.5) { SplitSign::Pos } else { SplitSign::Neg };
                if splits.sign_of(neuron).is_none() {
                    splits = splits.with(neuron, sign);
                }
            }
            let Some(boxes) = interval::propagate(&net, &region, &splits) else {
                return Ok(());
            };
            let linear = propagate(&net, &region, &splits, &boxes);
            for _ in 0..200 {
                let x: Vec<f64> = region
                    .lo()
                    .iter()
                    .zip(region.hi())
                    .map(|(&lo, &hi)| rng.gen_range(lo..=hi))
                    .collect();
                let zs = net.preactivations(&x);
                let respects_splits = splits.iter().all(|(n, s)| match s {
                    SplitSign::Pos => zs[n.layer][n.index] >= 0.0,
                    SplitSign::Neg => zs[n.layer][n.index] <= 0.0,
                });
                if !respects_splits {
                    continue;
                }
                let linear = linear.as_ref();
                prop_assert!(linear.is_some(), "a leaf holding {x:?} was called empty");
                for (k, ((lo, hi), z)) in linear.unwrap().pre.iter().zip(&zs).enumerate() {
                    for (i, &zi) in z.iter().enumerate() {
                        prop_assert!(
                            zi >= lo[i] - 1e-9 && zi <= hi[i] + 1e-9,
                            "stage {k} neuron {i}: {zi} outside [{}, {}]", lo[i], hi[i]
                        );
                    }
                }
            }
        }
    }
}

//! Plain interval propagation, written from the definition.
//!
//! This is the auditor's first bound computation, and like
//! `crate::linear` it intentionally shares no code with `abonn-bound`:
//! a one-line transcription error in the engines' shared propagation
//! loop would survive any cross-check built on top of that loop.

use abonn_bound::{InputBox, NeuronId, SplitSet, SplitSign};
use abonn_nn::CanonicalNetwork;

/// Slack when deciding that a split constraint emptied a neuron's range:
/// `lo > hi + EMPTY_TOL` marks the sub-problem vacuous.
pub const EMPTY_TOL: f64 = 1e-12;

/// Axis-aligned pre-activation bounds for every affine stage, after split
/// clamping. The last stage holds the output (margin) bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalBounds {
    /// Per-stage `(lower, upper)` pre-activation bounds.
    pub pre: Vec<(Vec<f64>, Vec<f64>)>,
}

impl IntervalBounds {
    /// Lower bound on the minimum output coordinate — the quantity whose
    /// positivity certifies the leaf.
    #[must_use]
    pub fn min_output_lower(&self) -> f64 {
        let (lo, _) = self.pre.last().expect("network has at least one stage");
        lo.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Post-activation box of hidden stage `k` (ReLU of the clamped
    /// pre-activation box).
    #[must_use]
    pub fn post(&self, k: usize) -> (Vec<f64>, Vec<f64>) {
        let (lo, hi) = &self.pre[k];
        (
            lo.iter().map(|&v| v.max(0.0)).collect(),
            hi.iter().map(|&v| v.max(0.0)).collect(),
        )
    }
}

/// Interval image of one affine stage: each output coordinate's range is
/// `bias + Σ_j w_j · [in_lo_j, in_hi_j]`, picking the box corner matching
/// the sign of `w_j`.
pub(crate) fn affine_image(
    weight_row: &[f64],
    bias: f64,
    in_lo: &[f64],
    in_hi: &[f64],
) -> (f64, f64) {
    let mut lo = bias;
    let mut hi = bias;
    for (j, &w) in weight_row.iter().enumerate() {
        if w >= 0.0 {
            lo += w * in_lo[j];
            hi += w * in_hi[j];
        } else {
            lo += w * in_hi[j];
            hi += w * in_lo[j];
        }
    }
    (lo, hi)
}

/// Clamps a pre-activation range by a split constraint.
pub(crate) fn clamp_split(lo: f64, hi: f64, sign: Option<SplitSign>) -> (f64, f64) {
    match sign {
        Some(SplitSign::Pos) => (lo.max(0.0), hi),
        Some(SplitSign::Neg) => (lo, hi.min(0.0)),
        None => (lo, hi),
    }
}

/// Propagates the input box through the network, clamping each hidden
/// pre-activation by its split constraint before applying the ReLU.
///
/// Returns `None` when a split constraint empties some neuron's range —
/// the sub-problem contains no input at all, so any claim about it is
/// vacuously true.
#[must_use]
pub fn propagate(
    net: &CanonicalNetwork,
    region: &InputBox,
    splits: &SplitSet,
) -> Option<IntervalBounds> {
    if splits.is_contradictory() {
        return None;
    }
    let num_layers = net.num_layers();
    let mut in_lo = region.lo().to_vec();
    let mut in_hi = region.hi().to_vec();
    let mut pre = Vec::with_capacity(num_layers);
    for (k, stage) in net.layers().iter().enumerate() {
        let n = stage.out_dim();
        let mut lo = vec![0.0; n];
        let mut hi = vec![0.0; n];
        for i in 0..n {
            let (l, h) = affine_image(stage.weight.row(i), stage.bias[i], &in_lo, &in_hi);
            lo[i] = l;
            hi[i] = h;
        }
        if k + 1 < num_layers {
            for i in 0..n {
                let sign = splits.sign_of(NeuronId::new(k, i));
                let (l, h) = clamp_split(lo[i], hi[i], sign);
                if l > h + EMPTY_TOL {
                    return None;
                }
                lo[i] = l;
                hi[i] = h.max(l);
            }
            in_lo = lo.iter().map(|&v| v.max(0.0)).collect();
            in_hi = hi.iter().map(|&v| v.max(0.0)).collect();
        }
        pre.push((lo, hi));
    }
    Some(IntervalBounds { pre })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_nn::AffinePair;
    use abonn_tensor::Matrix;

    /// z = (x, -x), a = relu(z), y = a0 + a1 - 0.6 over x in [-1, 1].
    fn v_net() -> CanonicalNetwork {
        CanonicalNetwork::from_affine_pairs(
            1,
            vec![
                AffinePair::new(Matrix::from_rows(&[&[1.0], &[-1.0]]), vec![0.0, 0.0]),
                AffinePair::new(Matrix::from_rows(&[&[1.0, 1.0]]), vec![-0.6]),
            ],
        )
    }

    #[test]
    fn bounds_contain_concrete_executions() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let b = propagate(&net, &region, &SplitSet::new()).unwrap();
        for step in 0..=20 {
            let x = -1.0 + 0.1 * f64::from(step);
            let zs = net.preactivations(&[x]);
            for ((lo, hi), z) in b.pre.iter().zip(&zs) {
                for (i, &zi) in z.iter().enumerate() {
                    assert!(zi >= lo[i] - 1e-9 && zi <= hi[i] + 1e-9);
                }
            }
        }
    }

    #[test]
    fn split_clamps_and_detects_empty_regions() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let pos = SplitSet::new().with(NeuronId::new(0, 0), SplitSign::Pos);
        let b = propagate(&net, &region, &pos).unwrap();
        assert_eq!(b.pre[0].0[0], 0.0);
        // x in [0.5, 1] forces z0 >= 0.5, so a Neg split empties the region.
        let neg = SplitSet::new().with(NeuronId::new(0, 0), SplitSign::Neg);
        assert!(propagate(&net, &InputBox::new(vec![0.5], vec![1.0]), &neg).is_none());
    }

    #[test]
    fn contradictory_split_sets_are_empty() {
        let both = SplitSet::new()
            .with(NeuronId::new(0, 0), SplitSign::Pos)
            .with(NeuronId::new(0, 0), SplitSign::Neg);
        let net = v_net();
        assert!(propagate(&net, &InputBox::new(vec![-1.0], vec![1.0]), &both).is_none());
    }

    #[test]
    fn fully_split_v_instance_is_tight() {
        // Splitting both phases makes the intervals exact on each branch.
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let splits = SplitSet::new()
            .with(NeuronId::new(0, 0), SplitSign::Pos)
            .with(NeuronId::new(0, 1), SplitSign::Neg);
        let b = propagate(&net, &region, &splits).unwrap();
        // x >= 0 branch: a0 in [0, 1], a1 = 0, y in [-0.6, 0.4].
        assert!((b.min_output_lower() + 0.6).abs() < 1e-12);
        assert_eq!(b.post(0).1[1], 0.0);
    }
}

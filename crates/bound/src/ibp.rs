//! Interval bound propagation (IBP).

use crate::relax::apply_split;
use crate::types::{Analysis, AppVer, InputBox, LayerBounds, SplitSet};
use abonn_nn::CanonicalNetwork;

/// The cheapest sound verifier: propagates axis-aligned intervals through
/// every stage. Fast but loose; mostly useful as a baseline and as a
/// cross-check that tighter verifiers stay inside its bounds.
///
/// # Examples
///
/// ```
/// use abonn_bound::{AppVer, Ibp, InputBox, SplitSet};
/// use abonn_nn::{AffinePair, CanonicalNetwork};
/// use abonn_tensor::Matrix;
///
/// let net = CanonicalNetwork::from_affine_pairs(1, vec![
///     AffinePair::new(Matrix::identity(1), vec![2.0]),
/// ]);
/// let a = Ibp::new().analyze(&net, &InputBox::new(vec![-1.0], vec![1.0]), &SplitSet::new());
/// assert!((a.p_hat - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ibp {
    _private: (),
}

impl Ibp {
    /// Creates an IBP verifier.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Propagates interval bounds, returning per-stage pre-activation
    /// bounds, or `None` if a split constraint empties a stage.
    pub(crate) fn propagate(
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
    ) -> Option<Vec<LayerBounds>> {
        let mut out = Vec::with_capacity(net.num_layers());
        Self::propagate_tail(
            net,
            splits,
            region.lo().to_vec(),
            region.hi().to_vec(),
            0,
            &mut out,
        )?;
        Some(out)
    }

    /// Like [`propagate`](Self::propagate), but resumes after the cached
    /// `prefix` of post-clamp pre-activation bounds (layers `0..prefix
    /// .len()`), which must have been produced by a split set agreeing
    /// with `splits` on those layers. The recomputed tail runs the exact
    /// same per-layer code as `propagate`, so the result is bit-for-bit
    /// what a from-scratch pass returns.
    pub(crate) fn propagate_from(
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        prefix: &[LayerBounds],
    ) -> Option<Vec<LayerBounds>> {
        let Some(last) = prefix.last() else {
            return Self::propagate(net, region, splits);
        };
        // Re-derive the post-activation interval feeding the first
        // recomputed stage, exactly as the from-scratch loop does.
        let a_lo: Vec<f64> = last.lower.iter().map(|&v| v.max(0.0)).collect();
        let a_hi: Vec<f64> = last.upper.iter().map(|&v| v.max(0.0)).collect();
        let mut out = Vec::with_capacity(net.num_layers());
        out.extend_from_slice(prefix);
        Self::propagate_tail(net, splits, a_lo, a_hi, prefix.len(), &mut out)?;
        Some(out)
    }

    /// Shared propagation loop over stages `start..`, appending to `out`.
    fn propagate_tail(
        net: &CanonicalNetwork,
        splits: &SplitSet,
        mut a_lo: Vec<f64>,
        mut a_hi: Vec<f64>,
        start: usize,
        out: &mut Vec<LayerBounds>,
    ) -> Option<()> {
        let num_layers = net.num_layers();
        for (k, stage) in net.layers().iter().enumerate().skip(start) {
            let n = stage.out_dim();
            let mut lo = stage.bias.clone();
            let mut hi = stage.bias.clone();
            if let Some(csc) = net.sparse_weight(k) {
                // Scatter column by column: each output still sums its
                // terms in ascending input order, and the zero weights
                // left out would only add `±0.0` to a `+0.0`-seeded
                // chain, so the bits match the dense loop below.
                let mut l = vec![0.0; n];
                let mut h = vec![0.0; n];
                for (t, (&al, &ah)) in a_lo.iter().zip(&a_hi).enumerate() {
                    for (i, w) in csc.col(t) {
                        if w >= 0.0 {
                            l[i] += w * al;
                            h[i] += w * ah;
                        } else {
                            l[i] += w * ah;
                            h[i] += w * al;
                        }
                    }
                }
                for i in 0..n {
                    lo[i] += l[i];
                    hi[i] += h[i];
                }
            } else {
                for i in 0..n {
                    let row = stage.weight.row(i);
                    let mut l = 0.0;
                    let mut h = 0.0;
                    for (t, &w) in row.iter().enumerate() {
                        if w >= 0.0 {
                            l += w * a_lo[t];
                            h += w * a_hi[t];
                        } else {
                            l += w * a_hi[t];
                            h += w * a_lo[t];
                        }
                    }
                    lo[i] += l;
                    hi[i] += h;
                }
            }
            if k + 1 < num_layers {
                // Apply split clamps, detect infeasibility, then ReLU.
                for i in 0..n {
                    let sign = splits.sign_of(crate::types::NeuronId::new(k, i));
                    let (l, u) = apply_split(lo[i], hi[i], sign);
                    if l > u + 1e-12 {
                        return None;
                    }
                    lo[i] = l;
                    hi[i] = u.max(l);
                }
                a_lo = lo.iter().map(|&v| v.max(0.0)).collect();
                a_hi = hi.iter().map(|&v| v.max(0.0)).collect();
            }
            out.push(LayerBounds::new(lo, hi));
        }
        Some(())
    }
}

impl AppVer for Ibp {
    fn analyze(&self, net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Analysis {
        if splits.is_contradictory() {
            return Analysis::infeasible();
        }
        let Some(bounds) = Self::propagate(net, region, splits) else {
            return Analysis::infeasible();
        };
        let out = bounds.last().expect("network has at least one stage");
        let p_hat = out.lower.iter().cloned().fold(f64::INFINITY, f64::min);
        let candidate = (p_hat < 0.0).then(|| region.center());
        Analysis {
            p_hat,
            candidate,
            bounds,
            infeasible: false,
        }
    }

    fn name(&self) -> &'static str {
        "IBP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{NeuronId, SplitSign};
    use abonn_nn::AffinePair;
    use abonn_tensor::Matrix;

    /// z1 = (x, -x), a = relu(z1), y = a0 + a1 - 0.6 over x in [-1, 1].
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
    fn ibp_is_loose_on_the_v_example() {
        // True output range is [-0.6+|x|... ] = [-0.6 + 0, -0.6 + 1] but IBP
        // treats the two branches independently: a0, a1 in [0, 1] each, so
        // output in [-0.6, 1.4].
        let a = Ibp::new().analyze(
            &v_net(),
            &InputBox::new(vec![-1.0], vec![1.0]),
            &SplitSet::new(),
        );
        assert!((a.p_hat + 0.6).abs() < 1e-12);
        assert!(a.candidate.is_some());
        assert_eq!(a.bounds.len(), 2);
    }

    #[test]
    fn split_tightens_ibp() {
        // Splitting neuron (0,0) positive: x >= 0, so a0 in [0,1], a1 = 0...
        // IBP clamps z bounds only, post-relu a1 in [0, 1] -> with Neg split
        // on neuron 1 it becomes exactly 0.
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let splits = SplitSet::new()
            .with(NeuronId::new(0, 0), SplitSign::Pos)
            .with(NeuronId::new(0, 1), SplitSign::Neg);
        let a = Ibp::new().analyze(&net, &region, &splits);
        // a1 = 0, a0 in [0, 1] → output in [-0.6, 0.4]
        assert!((a.p_hat + 0.6).abs() < 1e-12);
        let root = Ibp::new().analyze(&net, &region, &SplitSet::new());
        assert!(a.bounds[0].upper[1] <= root.bounds[0].upper[1]);
    }

    #[test]
    fn contradictory_splits_are_infeasible() {
        let splits = SplitSet::new()
            .with(NeuronId::new(0, 0), SplitSign::Pos)
            .with(NeuronId::new(0, 0), SplitSign::Neg);
        let a = Ibp::new().analyze(&v_net(), &InputBox::new(vec![0.0], vec![1.0]), &splits);
        assert!(a.infeasible);
        assert!(a.verified());
    }

    #[test]
    fn unsatisfiable_split_region_detected() {
        // x in [0.5, 1.0] forces z0 = x >= 0.5 > 0; a Neg split empties it.
        let splits = SplitSet::new().with(NeuronId::new(0, 0), SplitSign::Neg);
        let a = Ibp::new().analyze(&v_net(), &InputBox::new(vec![0.5], vec![1.0]), &splits);
        assert!(a.infeasible);
    }

    #[test]
    fn propagate_from_prefix_is_bit_identical() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let splits = SplitSet::new().with(NeuronId::new(0, 0), SplitSign::Pos);
        let scratch = Ibp::propagate(&net, &region, &splits).expect("feasible");
        // A parent with no splits agrees with `splits` on layer 0? No — the
        // split lands on layer 0, so only the empty prefix is reusable;
        // check both the empty-prefix path and a genuine one-layer prefix
        // taken from the same split set.
        let from_empty = Ibp::propagate_from(&net, &region, &splits, &[]).expect("feasible");
        let from_one =
            Ibp::propagate_from(&net, &region, &splits, &scratch[..1]).expect("feasible");
        for (a, b) in scratch.iter().zip(&from_empty) {
            assert_eq!(a, b);
        }
        for (a, b) in scratch.iter().zip(&from_one) {
            for (u, v) in a.lower.iter().zip(&b.lower) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
            for (u, v) in a.upper.iter().zip(&b.upper) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn bounds_contain_concrete_executions() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let a = Ibp::new().analyze(&net, &region, &SplitSet::new());
        for step in 0..=10 {
            let x = -1.0 + 0.2 * step as f64;
            let zs = net.preactivations(&[x]);
            for (lb, z) in a.bounds.iter().zip(&zs) {
                for (i, &zi) in z.iter().enumerate() {
                    assert!(zi >= lb.lower[i] - 1e-9 && zi <= lb.upper[i] + 1e-9);
                }
            }
        }
    }
}

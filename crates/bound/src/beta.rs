//! β-CROWN-style Lagrangian tightening of split constraints.
//!
//! Plain DeepPoly handles a BaB split `s·z ≥ 0` by *clamping* the neuron's
//! pre-activation interval. β-CROWN additionally folds the constraint into
//! the bound itself: by weak duality, for any multiplier `μ ≥ 0`,
//!
//! ```text
//! min { f(x) : x ∈ box, s·z(x) ≥ 0 }  ≥  min { f(x) − μ·s·z(x) : x ∈ box }
//! ```
//!
//! and the right-hand side is computable by the same backward substitution
//! with the coefficient of the split neuron's pre-activation shifted by
//! `−μ·s`. This module optimises the multipliers with projected
//! supergradient ascent on the most-violated output row, which is where
//! `p̂` is decided.
//!
//! Differences from the real β-CROWN (documented in `DESIGN.md` §2): we
//! optimise only the final bound (not intermediate layer bounds), one
//! output row at a time, and use the concrete pre-activations at the
//! current minimising corner as the supergradient estimate.

use crate::deeppoly::compute_bounds;
use crate::relax::ReluRelaxation;
use crate::types::{Analysis, AppVer, InputBox, LayerBounds, NeuronId, SplitSet, SplitSign};
use abonn_nn::CanonicalNetwork;

/// DeepPoly plus β-style Lagrangian split tightening.
///
/// On the root problem (no splits) this is exactly [`DeepPoly`]; with
/// splits it returns a `p̂` at least as tight.
///
/// [`DeepPoly`]: crate::DeepPoly
///
/// # Examples
///
/// ```
/// use abonn_bound::{AppVer, BetaCrown, DeepPoly, InputBox, NeuronId, SplitSet, SplitSign};
/// use abonn_nn::{AffinePair, CanonicalNetwork};
/// use abonn_tensor::Matrix;
///
/// let net = CanonicalNetwork::from_affine_pairs(1, vec![
///     AffinePair::new(Matrix::from_rows(&[&[1.0], &[-1.0]]), vec![0.0, 0.0]),
///     AffinePair::new(Matrix::from_rows(&[&[1.0, 1.0]]), vec![-0.6]),
/// ]);
/// let region = InputBox::new(vec![-1.0], vec![1.0]);
/// let splits = SplitSet::new().with(NeuronId::new(0, 0), SplitSign::Pos);
/// let dp = DeepPoly::new().analyze(&net, &region, &splits);
/// let bc = BetaCrown::default().analyze(&net, &region, &splits);
/// assert!(bc.p_hat >= dp.p_hat - 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaCrown {
    /// Supergradient ascent iterations.
    pub iterations: usize,
    /// Initial ascent step size (decayed harmonically).
    pub step: f64,
}

impl Default for BetaCrown {
    fn default() -> Self {
        Self {
            iterations: 10,
            step: 0.05,
        }
    }
}

impl BetaCrown {
    /// Creates a β-CROWN verifier with the given ascent budget.
    #[must_use]
    pub fn new(iterations: usize, step: f64) -> Self {
        Self { iterations, step }
    }
}

/// Per-(layer, neuron) signed multiplier: `adjust[j][i] = −μ·s` for split
/// neurons, `0` elsewhere.
type Adjustment = Vec<Vec<f64>>;

/// Backward-substitutes the single output row `row` to the input with the
/// split-multiplier adjustment folded in, and returns the concrete lower
/// bound plus its minimising corner.
fn row_bound_with_adjustment(
    net: &CanonicalNetwork,
    region: &InputBox,
    relaxations: &[Vec<ReluRelaxation>],
    adjust: &Adjustment,
    row: usize,
) -> (f64, Vec<f64>) {
    let layers = net.layers();
    let last = layers.len() - 1;
    let mut coeffs: Vec<f64> = layers[last].weight.row(row).to_vec();
    let mut constant = layers[last].bias[row];

    for j in (0..last).rev() {
        // Substitute a_j → z_j via the sound side of each relaxation.
        for (t, c) in coeffs.iter_mut().enumerate() {
            let r = &relaxations[j][t];
            if *c >= 0.0 {
                *c *= r.lower_slope;
            } else {
                constant += *c * r.upper_intercept;
                *c *= r.upper_slope;
            }
        }
        // Fold in the Lagrangian terms −μ·s·z for this layer's splits.
        for (t, c) in coeffs.iter_mut().enumerate() {
            *c += adjust[j][t];
        }
        // Substitute z_j = W_j a_{j-1} + b_j.
        let prev = &layers[j];
        constant += abonn_tensor::vecops::dot(&coeffs, &prev.bias);
        coeffs = prev.weight.tr_matvec(&coeffs);
    }

    let mut corner = Vec::with_capacity(coeffs.len());
    let mut bound = constant;
    for (c, (&l, &h)) in coeffs.iter().zip(region.lo().iter().zip(region.hi())) {
        if *c >= 0.0 {
            bound += c * l;
            corner.push(l);
        } else {
            bound += c * h;
            corner.push(h);
        }
    }
    (bound, corner)
}

impl AppVer for BetaCrown {
    fn analyze(&self, net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Analysis {
        if splits.is_contradictory() {
            return Analysis::infeasible();
        }
        let Some(base) = compute_bounds(net, region, splits) else {
            return Analysis::infeasible();
        };
        let out: &LayerBounds = base.bounds.last().expect("non-empty network");
        let dp_p_hat = out.lower.iter().cloned().fold(f64::INFINITY, f64::min);
        if splits.is_empty() || dp_p_hat > 0.0 {
            // Nothing to tighten: no split constraints, or already verified.
            let candidate = (dp_p_hat < 0.0)
                .then(|| crate::deeppoly::candidate_from(&base, region))
                .flatten();
            return Analysis {
                p_hat: dp_p_hat,
                candidate,
                bounds: base.bounds,
                infeasible: false,
            };
        }

        // Rebuild the (deterministic) adaptive relaxations from the bounds.
        let hidden = net.num_layers() - 1;
        let relaxations: Vec<Vec<ReluRelaxation>> = base.bounds[..hidden]
            .iter()
            .map(|lb| {
                lb.lower
                    .iter()
                    .zip(&lb.upper)
                    .map(|(&l, &u)| ReluRelaxation::deeppoly(l, u))
                    .collect()
            })
            .collect();

        // Optimise the worst row's multipliers.
        let (worst_row, _) = out
            .lower
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("bounds are not NaN"))
            .expect("output layer is non-empty");
        let split_list: Vec<(NeuronId, f64)> = splits
            .iter()
            .filter(|(n, _)| n.layer < hidden)
            .map(|(n, s)| (n, if s == SplitSign::Pos { 1.0 } else { -1.0 }))
            .collect();

        let mut mu: Vec<f64> = vec![0.0; split_list.len()];
        let mut adjust: Adjustment = base.bounds[..hidden]
            .iter()
            .map(|lb| vec![0.0; lb.len()])
            .collect();
        let mut best = dp_p_hat;
        let mut best_candidate: Option<Vec<f64>> = None;

        for it in 0..self.iterations {
            for (k, &(n, s)) in split_list.iter().enumerate() {
                adjust[n.layer][n.index] = -mu[k] * s;
            }
            let (bound, corner) =
                row_bound_with_adjustment(net, region, &relaxations, &adjust, worst_row);
            if bound > best {
                best = bound;
            }
            if best_candidate.is_none() {
                best_candidate = Some(corner.clone());
            }
            // Supergradient step: ∂/∂μ = −s·z(x*) at the minimising corner.
            let zs = net.preactivations(&corner);
            let step = self.step / (1.0 + it as f64);
            for (k, &(n, s)) in split_list.iter().enumerate() {
                let g = -s * zs[n.layer][n.index];
                mu[k] = (mu[k] + step * g).max(0.0);
            }
        }

        // p̂ combines the optimised worst row with DeepPoly's other rows.
        let mut p_hat = f64::INFINITY;
        for (r, &dp) in out.lower.iter().enumerate() {
            p_hat = p_hat.min(if r == worst_row { best.max(dp) } else { dp });
        }
        let mut bounds = base.bounds.clone();
        let last = bounds.len() - 1;
        bounds[last].lower[worst_row] = best.max(out.lower[worst_row]);

        let candidate = if p_hat < 0.0 {
            best_candidate.or_else(|| crate::deeppoly::candidate_from(&base, region))
        } else {
            None
        };
        Analysis {
            p_hat,
            candidate,
            bounds,
            infeasible: false,
        }
    }

    fn name(&self) -> &'static str {
        "beta-CROWN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deeppoly::DeepPoly;
    use abonn_nn::AffinePair;
    use abonn_tensor::Matrix;
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

    /// Samples box points that satisfy the split constraints concretely.
    fn split_consistent_samples(
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        n: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        'outer: for _ in 0..n * 40 {
            if out.len() >= n {
                break;
            }
            let x: Vec<f64> = region
                .lo()
                .iter()
                .zip(region.hi())
                .map(|(&l, &h)| rng.gen_range(l..=h))
                .collect();
            let zs = net.preactivations(&x);
            for (id, sign) in splits.iter() {
                let z = zs[id.layer][id.index];
                let ok = match sign {
                    SplitSign::Pos => z >= 0.0,
                    SplitSign::Neg => z <= 0.0,
                };
                if !ok {
                    continue 'outer;
                }
            }
            out.push(x);
        }
        out
    }

    #[test]
    fn beta_never_looser_than_deeppoly_under_splits() {
        for seed in 0..8 {
            let net = random_net(seed, &[3, 6, 5, 2]);
            let region = InputBox::new(vec![-0.5; 3], vec![0.5; 3]);
            let root = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
            let unstable = root.unstable_neurons(&SplitSet::new());
            if unstable.is_empty() {
                continue;
            }
            let splits = SplitSet::new().with(unstable[0], SplitSign::Pos);
            let dp = DeepPoly::new().analyze(&net, &region, &splits);
            let bc = BetaCrown::default().analyze(&net, &region, &splits);
            if dp.infeasible || bc.infeasible {
                continue;
            }
            assert!(
                bc.p_hat >= dp.p_hat - 1e-9,
                "seed {seed}: beta {} < deeppoly {}",
                bc.p_hat,
                dp.p_hat
            );
        }
    }

    #[test]
    fn beta_is_sound_for_the_constrained_subproblem() {
        for seed in 10..16 {
            let net = random_net(seed, &[3, 6, 4, 2]);
            let region = InputBox::new(vec![-0.6; 3], vec![0.6; 3]);
            let root = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
            let unstable = root.unstable_neurons(&SplitSet::new());
            if unstable.len() < 2 {
                continue;
            }
            let splits = SplitSet::new()
                .with(unstable[0], SplitSign::Pos)
                .with(unstable[1], SplitSign::Neg);
            let bc = BetaCrown::new(20, 0.1).analyze(&net, &region, &splits);
            if bc.infeasible {
                continue;
            }
            for x in split_consistent_samples(&net, &region, &splits, 20, seed ^ 0xCC) {
                let min_y = net
                    .forward(&x)
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    bc.p_hat <= min_y + 1e-7,
                    "seed {seed}: beta p_hat {} above constrained margin {min_y}",
                    bc.p_hat
                );
            }
        }
    }

    #[test]
    fn beta_tightens_somewhere_on_random_instances() {
        // β must strictly improve on clamping for at least one of a batch
        // of random split sub-problems (otherwise the ascent is dead code).
        let mut improved = 0;
        for seed in 100..130 {
            let net = random_net(seed, &[3, 8, 6, 2]);
            let region = InputBox::new(vec![-0.7; 3], vec![0.7; 3]);
            let root = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
            let unstable = root.unstable_neurons(&SplitSet::new());
            if unstable.len() < 2 {
                continue;
            }
            let splits = SplitSet::new()
                .with(unstable[0], SplitSign::Pos)
                .with(unstable[1], SplitSign::Pos);
            let dp = DeepPoly::new().analyze(&net, &region, &splits);
            let bc = BetaCrown::new(30, 0.2).analyze(&net, &region, &splits);
            if dp.infeasible || bc.infeasible {
                continue;
            }
            if bc.p_hat > dp.p_hat + 1e-9 {
                improved += 1;
            }
        }
        assert!(improved > 0, "beta ascent never tightened any instance");
    }

    #[test]
    fn without_splits_beta_equals_deeppoly() {
        let net = random_net(42, &[3, 5, 2]);
        let region = InputBox::new(vec![-0.4; 3], vec![0.4; 3]);
        let dp = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
        let bc = BetaCrown::default().analyze(&net, &region, &SplitSet::new());
        assert_eq!(dp.p_hat, bc.p_hat);
    }

    #[test]
    fn zero_iterations_degrades_gracefully() {
        let net = random_net(43, &[2, 4, 2]);
        let region = InputBox::new(vec![-0.5; 2], vec![0.5; 2]);
        let root = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
        let unstable = root.unstable_neurons(&SplitSet::new());
        if let Some(&n) = unstable.first() {
            let splits = SplitSet::new().with(n, SplitSign::Neg);
            let bc = BetaCrown::new(0, 0.1).analyze(&net, &region, &splits);
            let dp = DeepPoly::new().analyze(&net, &region, &splits);
            if !bc.infeasible && !dp.infeasible {
                assert!(bc.p_hat >= dp.p_hat - 1e-9);
            }
        }
    }
}

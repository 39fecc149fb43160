#![forbid(unsafe_code)]
//! Gradient-based falsification: FGSM and multi-restart PGD.
//!
//! αβ-CROWN-class verifiers run an adversarial attack before (and during)
//! branch and bound; a found adversarial example settles the problem
//! immediately. This crate implements the classic attacks on top of the
//! reverse-mode gradients of `abonn-nn`, constrained to an arbitrary input
//! box (so they also work inside BaB sub-problems).
//!
//! All attacks *validate* their output: a returned point is guaranteed to
//! be misclassified and inside the box, so callers can treat `Some(x)` as
//! a real counterexample without re-checking.
//!
//! # Examples
//!
//! ```
//! use abonn_attack::Pgd;
//! use abonn_nn::{Layer, Network, Shape};
//! use abonn_tensor::Matrix;
//!
//! // A linear "classifier" that predicts class 0 iff x0 > x1.
//! let net = Network::new(
//!     Shape::Flat(2),
//!     vec![Layer::dense(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]), vec![0.0, 0.0])],
//! )?;
//! // Around (0.6, 0.4) with radius 0.3 an adversarial point exists.
//! let adv = Pgd::default().attack(&net, 0, &[0.3, 0.1], &[0.9, 0.7]);
//! assert!(adv.is_some());
//! # Ok::<(), abonn_nn::NetworkError>(())
//! ```

use abonn_nn::{grad, CanonicalNetwork, Network};
use abonn_tensor::vecops;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Margin of `label` at `x`: `logit_label − max_{j≠label} logit_j`.
///
/// Negative means `x` is misclassified (a counterexample to local
/// robustness).
///
/// # Examples
///
/// ```
/// use abonn_attack::margin;
/// use abonn_nn::{Layer, Network, Shape};
/// use abonn_tensor::Matrix;
///
/// # fn main() -> Result<(), abonn_nn::NetworkError> {
/// let net = Network::new(
///     Shape::Flat(2),
///     vec![Layer::dense(Matrix::identity(2), vec![0.0, 0.0])],
/// )?;
/// assert!(margin(&net, &[0.9, 0.1], 0) > 0.0);
/// assert!(margin(&net, &[0.1, 0.9], 0) < 0.0);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `label` is out of range for the network output.
#[must_use]
pub fn margin(net: &Network, x: &[f64], label: usize) -> f64 {
    let logits = net.forward(x);
    assert!(label < logits.len(), "margin: label out of range");
    let runner_up = logits
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != label)
        .map(|(_, &v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    logits[label] - runner_up
}

/// Returns `true` if `x` is a genuine counterexample: inside `[lo, hi]`
/// and classified differently from `label`.
#[must_use]
pub fn is_counterexample(net: &Network, x: &[f64], label: usize, lo: &[f64], hi: &[f64]) -> bool {
    x.len() == lo.len()
        && x.iter()
            .zip(lo.iter().zip(hi))
            .all(|(&v, (&l, &h))| v >= l - 1e-9 && v <= h + 1e-9)
        && net.classify(x) != label
}

/// Gradient of the margin with respect to the input, using the current
/// runner-up class as the attack target.
fn margin_gradient(net: &Network, x: &[f64], label: usize) -> Vec<f64> {
    let logits = net.forward(x);
    let runner_up = logits
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != label)
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("logits are not NaN"))
        .map(|(j, _)| j)
        .expect("at least two classes");
    let mut coeffs = vec![0.0; logits.len()];
    coeffs[label] = 1.0;
    coeffs[runner_up] = -1.0;
    grad::input_gradient(net, x, &coeffs)
}

/// Single-step fast gradient sign method inside `[lo, hi]`.
///
/// Starts from the box centre, steps once against the margin gradient to
/// the box boundary, and returns the point only if it is a validated
/// counterexample.
#[must_use]
pub fn fgsm(net: &Network, label: usize, lo: &[f64], hi: &[f64]) -> Option<Vec<f64>> {
    let mut x: Vec<f64> = lo.iter().zip(hi).map(|(l, h)| 0.5 * (l + h)).collect();
    let g = margin_gradient(net, &x, label);
    for ((xi, &gi), (&l, &h)) in x.iter_mut().zip(&g).zip(lo.iter().zip(hi)) {
        // Move against the margin: decrease it as much as the box allows.
        *xi = if gi > 0.0 { l } else { h };
    }
    is_counterexample(net, &x, label, lo, hi).then_some(x)
}

/// Projected gradient descent on the margin, with random restarts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pgd {
    /// Gradient steps per restart.
    pub steps: usize,
    /// Number of random restarts (the first start is the box centre).
    pub restarts: usize,
    /// Step length as a fraction of each coordinate's box width.
    pub step_frac: f64,
    /// Seed for the restart sampling.
    pub seed: u64,
}

impl Default for Pgd {
    fn default() -> Self {
        Self {
            steps: 20,
            restarts: 3,
            step_frac: 0.25,
            seed: 0,
        }
    }
}

impl Pgd {
    /// Creates a PGD attack with the given budget.
    #[must_use]
    pub fn new(steps: usize, restarts: usize, step_frac: f64, seed: u64) -> Self {
        Self {
            steps,
            restarts,
            step_frac,
            seed,
        }
    }

    /// Searches `[lo, hi]` for a misclassified point; `Some` is validated.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from the network input size.
    #[must_use]
    pub fn attack(&self, net: &Network, label: usize, lo: &[f64], hi: &[f64]) -> Option<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let center: Vec<f64> = lo.iter().zip(hi).map(|(l, h)| 0.5 * (l + h)).collect();
        for restart in 0..=self.restarts {
            let start = if restart == 0 {
                center.clone()
            } else {
                lo.iter()
                    .zip(hi)
                    .map(|(&l, &h)| rng.gen_range(l..=h))
                    .collect()
            };
            if let Some(adv) = self.descend(net, label, start, lo, hi) {
                return Some(adv);
            }
        }
        None
    }

    /// Runs PGD from an explicit start point (used to refine verifier
    /// candidates); `Some` is validated.
    #[must_use]
    pub fn refine(
        &self,
        net: &Network,
        label: usize,
        start: &[f64],
        lo: &[f64],
        hi: &[f64],
    ) -> Option<Vec<f64>> {
        let mut x = start.to_vec();
        vecops::clamp_box(&mut x, lo, hi);
        self.descend(net, label, x, lo, hi)
    }

    /// Targeted variant: pushes the margin `logit_label − logit_target`
    /// down specifically, instead of chasing the current runner-up. Useful
    /// when a verifier has already identified which class is closest to
    /// flipping; `Some` is validated like [`Pgd::attack`].
    ///
    /// # Panics
    ///
    /// Panics if `target == label` or either index is out of range.
    #[must_use]
    pub fn attack_targeted(
        &self,
        net: &Network,
        label: usize,
        target: usize,
        lo: &[f64],
        hi: &[f64],
    ) -> Option<Vec<f64>> {
        assert_ne!(target, label, "attack_targeted: target equals label");
        let classes = net.output_dim();
        assert!(label < classes && target < classes, "class out of range");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut coeffs = vec![0.0; classes];
        coeffs[label] = 1.0;
        coeffs[target] = -1.0;
        for restart in 0..=self.restarts {
            let mut x: Vec<f64> = if restart == 0 {
                lo.iter().zip(hi).map(|(l, h)| 0.5 * (l + h)).collect()
            } else {
                lo.iter()
                    .zip(hi)
                    .map(|(&l, &h)| rng.gen_range(l..=h))
                    .collect()
            };
            for _ in 0..self.steps {
                if is_counterexample(net, &x, label, lo, hi) {
                    return Some(x);
                }
                let g = grad::input_gradient(net, &x, &coeffs);
                for ((xi, &gi), (&l, &h)) in x.iter_mut().zip(&g).zip(lo.iter().zip(hi)) {
                    *xi -= self.step_frac * (h - l) * gi.signum();
                }
                vecops::clamp_box(&mut x, lo, hi);
            }
            if is_counterexample(net, &x, label, lo, hi) {
                return Some(x);
            }
        }
        None
    }

    fn descend(
        &self,
        net: &Network,
        label: usize,
        mut x: Vec<f64>,
        lo: &[f64],
        hi: &[f64],
    ) -> Option<Vec<f64>> {
        if is_counterexample(net, &x, label, lo, hi) {
            return Some(x);
        }
        for _ in 0..self.steps {
            let g = margin_gradient(net, &x, label);
            for ((xi, &gi), (&l, &h)) in x.iter_mut().zip(&g).zip(lo.iter().zip(hi)) {
                let width = h - l;
                *xi -= self.step_frac * width * gi.signum();
            }
            vecops::clamp_box(&mut x, lo, hi);
            if is_counterexample(net, &x, label, lo, hi) {
                return Some(x);
            }
        }
        None
    }
}

/// PGD directly on a *margin network* (canonical form whose outputs must
/// all stay positive): finds a point in `[lo, hi]` where some margin row
/// is non-positive. This is the attack that works for general safety
/// properties, where no class label exists.
///
/// Returned points are validated: inside the box with `min margin ≤ 0`.
///
/// # Examples
///
/// ```
/// use abonn_attack::{margin_pgd, Pgd};
/// use abonn_nn::{AffinePair, CanonicalNetwork};
/// use abonn_tensor::Matrix;
///
/// // margin(x) = x: violated at x <= 0.
/// let margin_net = CanonicalNetwork::from_affine_pairs(1, vec![
///     AffinePair::new(Matrix::identity(1), vec![0.0]),
///     AffinePair::new(Matrix::identity(1), vec![0.0]),
/// ]);
/// let hit = margin_pgd(&margin_net, &Pgd::default(), &[-1.0], &[1.0]);
/// assert!(hit.is_some());
/// let miss = margin_pgd(&margin_net, &Pgd::default(), &[0.5], &[1.0]);
/// assert!(miss.is_none());
/// ```
///
/// # Panics
///
/// Panics if the slice lengths differ from the margin network's input
/// dimension.
#[must_use]
pub fn margin_pgd(
    margin_net: &CanonicalNetwork,
    config: &Pgd,
    lo: &[f64],
    hi: &[f64],
) -> Option<Vec<f64>> {
    assert_eq!(lo.len(), margin_net.input_dim(), "margin_pgd: box mismatch");
    assert_eq!(hi.len(), margin_net.input_dim(), "margin_pgd: box mismatch");
    let violated = |x: &[f64]| -> bool { margin_net.forward(x).into_iter().any(|m| m <= 0.0) };
    let mut rng = SmallRng::seed_from_u64(config.seed);
    for restart in 0..=config.restarts {
        let mut x: Vec<f64> = if restart == 0 {
            lo.iter().zip(hi).map(|(l, h)| 0.5 * (l + h)).collect()
        } else {
            lo.iter()
                .zip(hi)
                .map(|(&l, &h)| rng.gen_range(l..=h))
                .collect()
        };
        for _ in 0..config.steps {
            if violated(&x) {
                return Some(x);
            }
            // Descend the currently most-violated margin row.
            let margins = margin_net.forward(&x);
            let worst = margins
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("margins are not NaN"))
                .map(|(i, _)| i)
                .expect("margin net has outputs");
            let mut coeffs = vec![0.0; margins.len()];
            coeffs[worst] = 1.0;
            let g = margin_net.input_gradient(&x, &coeffs);
            for ((xi, &gi), (&l, &h)) in x.iter_mut().zip(&g).zip(lo.iter().zip(hi)) {
                *xi -= config.step_frac * (h - l) * gi.signum();
            }
            vecops::clamp_box(&mut x, lo, hi);
        }
        if violated(&x) {
            return Some(x);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_nn::{Layer, Network, Shape};
    use abonn_tensor::Matrix;

    /// Classifier predicting 0 iff x0 > x1 (two logits: x0 and x1).
    fn compare_net() -> Network {
        Network::new(
            Shape::Flat(2),
            vec![Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
                vec![0.0, 0.0],
            )],
        )
        .unwrap()
    }

    #[test]
    fn margin_sign_tracks_classification() {
        let net = compare_net();
        assert!(margin(&net, &[1.0, 0.0], 0) > 0.0);
        assert!(margin(&net, &[0.0, 1.0], 0) < 0.0);
    }

    #[test]
    fn fgsm_crosses_a_reachable_boundary() {
        let net = compare_net();
        // Box straddles the x0 = x1 boundary.
        let adv = fgsm(&net, 0, &[0.3, 0.1], &[0.9, 0.7]);
        let adv = adv.expect("boundary is reachable");
        assert!(is_counterexample(&net, &adv, 0, &[0.3, 0.1], &[0.9, 0.7]));
    }

    #[test]
    fn attacks_fail_cleanly_on_robust_region() {
        let net = compare_net();
        // Entire box classifies as 0 (x0 always larger).
        let lo = [0.8, 0.0];
        let hi = [1.0, 0.5];
        assert_eq!(fgsm(&net, 0, &lo, &hi), None);
        assert_eq!(Pgd::default().attack(&net, 0, &lo, &hi), None);
    }

    #[test]
    fn pgd_finds_counterexample_through_relu() {
        // y0 = relu(x) and y1 = relu(-x) + 0.1: class 0 requires x > 0.1.
        let net = Network::new(
            Shape::Flat(1),
            vec![
                Layer::dense(Matrix::from_rows(&[&[1.0], &[-1.0]]), vec![0.0, 0.0]),
                Layer::relu(),
                Layer::dense(Matrix::identity(2), vec![0.0, 0.1]),
            ],
        )
        .unwrap();
        let adv = Pgd::default().attack(&net, 0, &[-0.5], &[1.0]);
        let adv = adv.expect("negative x region misclassifies");
        assert!(adv[0] < 0.1 + 1e-9);
    }

    #[test]
    fn refine_improves_a_near_miss_candidate() {
        let net = compare_net();
        let lo = [0.3, 0.1];
        let hi = [0.9, 0.7];
        // Start just on the correct side of the boundary.
        let start = [0.45, 0.4];
        let adv = Pgd::default().refine(&net, 0, &start, &lo, &hi);
        assert!(adv.is_some());
    }

    #[test]
    fn targeted_attack_reaches_the_named_class() {
        // Three logits: x0, x1, and a constant mid-level class.
        let net = Network::new(
            Shape::Flat(2),
            vec![Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]),
                vec![0.0, 0.0, 0.45],
            )],
        )
        .unwrap();
        // Around (0.6, 0.2), class 0 wins; class 1 can overtake inside the
        // box but class 2 (constant 0.45) is also reachable by shrinking x0.
        let lo = [0.3, 0.0];
        let hi = [0.9, 0.55];
        let pgd = Pgd::default();
        let adv = pgd
            .attack_targeted(&net, 0, 1, &lo, &hi)
            .expect("class 1 reachable");
        assert!(is_counterexample(&net, &adv, 0, &lo, &hi));
        let adv2 = pgd
            .attack_targeted(&net, 0, 2, &lo, &hi)
            .expect("class 2 reachable");
        // The flip class of a targeted attack may be any wrong class, but
        // the point must come from driving the named margin down.
        assert!(net.classify(&adv2) != 0);
    }

    #[test]
    #[should_panic(expected = "target equals label")]
    fn targeted_attack_rejects_self_target() {
        let net = compare_net();
        let _ = Pgd::default().attack_targeted(&net, 0, 0, &[0.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    fn returned_points_always_in_box() {
        let net = compare_net();
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        if let Some(adv) = Pgd::default().attack(&net, 0, &lo, &hi) {
            assert!(adv.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn margin_pgd_descends_through_relu() {
        use abonn_nn::AffinePair;
        // margin = relu(x0 - x1) - 0.05 on the unit box: violated where
        // x0 - x1 <= 0.05 — reachable from the centre by descent.
        let margin_net = CanonicalNetwork::from_affine_pairs(
            2,
            vec![
                AffinePair::new(Matrix::from_rows(&[&[1.0, -1.0]]), vec![0.0]),
                AffinePair::new(Matrix::identity(1), vec![-0.05]),
            ],
        );
        let hit = margin_pgd(&margin_net, &Pgd::default(), &[0.0, 0.0], &[1.0, 1.0])
            .expect("violation reachable");
        let m = margin_net.forward(&hit);
        assert!(m[0] <= 0.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let net = compare_net();
        let a = Pgd::new(10, 5, 0.2, 3).attack(&net, 0, &[0.0, 0.0], &[1.0, 1.0]);
        let b = Pgd::new(10, 5, 0.2, 3).attack(&net, 0, &[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(a, b);
    }
}

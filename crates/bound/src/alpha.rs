//! Simplified α-CROWN: optimising the lower-relaxation slopes.
//!
//! Full α-CROWN back-propagates gradients of the bound with respect to
//! every slope. This reproduction uses two cheaper mechanisms that keep
//! the same effect (tighter `p̂` than plain DeepPoly at higher cost, see
//! `DESIGN.md` §2):
//!
//! 1. **strategy portfolio** — evaluate the adaptive DeepPoly slopes, the
//!    all-zero and all-one assignments, plus seeded random restarts, and
//!    keep the best;
//! 2. **coordinate refinement** — exact per-neuron improvement: holding
//!    everything else fixed, a slope's best value is at an endpoint, so
//!    trying `{0, 1}` per unstable neuron and keeping improvements
//!    monotonically increases `p̂` within an evaluation budget.
//!
//! Every pass after the adaptive one resumes from the incumbent's
//! [`BoundPrefix`] at the first layer where its slopes differ from the
//! incumbent's on an unstable neuron (`DESIGN.md` §5c), so a flip at layer
//! `j` back-substitutes only the stages above `j`. The adaptive pass
//! resumes from the parent's prefix, and the best pass's prefix, tagged
//! with the configuration, answers a later call on the same split set
//! whole.

use crate::cache::{BoundComputeStats, BoundPrefix, CachedAnalysis};
use crate::deeppoly::{
    candidate_from, compute_bounds_engine, AlphaAssignment, BoundsResult, RelaxMode,
};
use crate::relax::ReluRelaxation;
use crate::types::{Analysis, AppVer, InputBox, SplitSet};
use abonn_nn::CanonicalNetwork;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// DeepPoly with optimised lower-relaxation slopes.
///
/// # Examples
///
/// ```
/// use abonn_bound::{AlphaCrown, AppVer, DeepPoly, InputBox, SplitSet};
/// use abonn_nn::{AffinePair, CanonicalNetwork};
/// use abonn_tensor::Matrix;
///
/// let net = CanonicalNetwork::from_affine_pairs(1, vec![
///     AffinePair::new(Matrix::from_rows(&[&[1.0], &[-1.0]]), vec![0.0, 0.0]),
///     AffinePair::new(Matrix::from_rows(&[&[1.0, 1.0]]), vec![-0.6]),
/// ]);
/// let region = InputBox::new(vec![-1.0], vec![1.0]);
/// let dp = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
/// let ac = AlphaCrown::default().analyze(&net, &region, &SplitSet::new());
/// assert!(ac.p_hat >= dp.p_hat);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlphaCrown {
    /// Number of random slope assignments to try beyond the canonical
    /// three (adaptive, all-0, all-1).
    pub restarts: usize,
    /// Maximum number of coordinate-refinement bound evaluations.
    pub refinement_budget: usize,
    /// Seed for the random restarts.
    pub seed: u64,
}

impl Default for AlphaCrown {
    fn default() -> Self {
        Self {
            restarts: 2,
            refinement_budget: 8,
            seed: 0,
        }
    }
}

impl AlphaCrown {
    /// Creates an α-CROWN verifier with the given portfolio size.
    #[must_use]
    pub fn new(restarts: usize, refinement_budget: usize, seed: u64) -> Self {
        Self {
            restarts,
            refinement_budget,
            seed,
        }
    }
}

fn p_hat_of(result: &BoundsResult) -> f64 {
    result
        .bounds
        .last()
        .expect("non-empty network")
        .lower
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min)
}

/// The analysis of the pass a prefix holds.
fn analysis_of(prefix: &BoundPrefix, region: &InputBox) -> Analysis {
    let result = BoundsResult {
        bounds: prefix.bounds.clone(),
        output_lower_coeffs: prefix.output_lower_coeffs.clone(),
    };
    let p_hat = p_hat_of(&result);
    let candidate = (p_hat < 0.0)
        .then(|| candidate_from(&result, region))
        .flatten();
    Analysis {
        p_hat,
        candidate,
        bounds: result.bounds,
        infeasible: false,
    }
}

/// The best pass so far: its p̂, slopes and prefix.
struct Incumbent {
    p_hat: f64,
    alpha: AlphaAssignment,
    prefix: Arc<BoundPrefix>,
}

impl AlphaCrown {
    /// Shared implementation behind [`AppVer::analyze`] and
    /// [`AppVer::analyze_cached`]: one code path, so both entry points
    /// produce bit-for-bit the same analysis.
    fn run(
        &self,
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        parent: Option<&Arc<BoundPrefix>>,
    ) -> CachedAnalysis {
        let mut stats = BoundComputeStats::default();
        if splits.is_contradictory() {
            return CachedAnalysis::scratch(Analysis::infeasible());
        }
        let settled = parent.filter(|p| {
            p.settled_by == Some(*self)
                && p.bounds.len() == net.num_layers()
                && p.splits.first_divergence(splits).is_none()
        });
        if let Some(p) = settled {
            // This configuration already analysed this split set, and the
            // prefix holds its best pass.
            stats.layers_reused += net.num_layers();
            return CachedAnalysis {
                analysis: analysis_of(p, region),
                prefix: Some(Arc::clone(p)),
                stats,
            };
        }
        let pass = |alphas: Option<&AlphaAssignment>,
                    from: Option<&Arc<BoundPrefix>>,
                    stats: &mut BoundComputeStats| {
            compute_bounds_engine(
                net,
                region,
                splits,
                alphas,
                RelaxMode::Adaptive,
                from,
                true,
                stats,
            )
            .map(|out| (p_hat_of(&out.result), out.prefix.expect("prefix requested")))
        };

        // Baseline: adaptive DeepPoly slopes, from the parent's prefix.
        let Some((p_hat, prefix)) = pass(None, parent, &mut stats) else {
            return CachedAnalysis {
                analysis: Analysis::infeasible(),
                prefix: None,
                stats,
            };
        };
        let sizes = net.relu_layer_sizes();
        // Reconstruct the adaptive assignment so refinement can start from
        // the incumbent.
        let alpha: AlphaAssignment = prefix.bounds[..sizes.len()]
            .iter()
            .map(|lb| {
                lb.lower
                    .iter()
                    .zip(&lb.upper)
                    .map(|(&l, &u)| ReluRelaxation::deeppoly_alpha(l, u))
                    .collect()
            })
            .collect();
        let mut best = Incumbent {
            p_hat,
            alpha,
            prefix,
        };

        let consider = |alpha: AlphaAssignment, best: &mut Incumbent, stats: &mut _| {
            if let Some((p_hat, prefix)) = pass(Some(&alpha), Some(&best.prefix), stats) {
                if p_hat > best.p_hat {
                    *best = Incumbent {
                        p_hat,
                        alpha,
                        prefix,
                    };
                }
            }
        };

        // Strategy portfolio.
        let zeros: AlphaAssignment = sizes.iter().map(|&n| vec![0.0; n]).collect();
        let ones: AlphaAssignment = sizes.iter().map(|&n| vec![1.0; n]).collect();
        consider(zeros, &mut best, &mut stats);
        consider(ones, &mut best, &mut stats);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        for _ in 0..self.restarts {
            let random: AlphaAssignment = sizes
                .iter()
                .map(|&n| (0..n).map(|_| rng.gen_range(0.0..=1.0)).collect())
                .collect();
            consider(random, &mut best, &mut stats);
        }

        // Coordinate refinement on the neurons the portfolio's best leaves
        // unstable, budget-capped.
        let flips: Vec<(usize, usize)> = best.prefix.bounds[..sizes.len()]
            .iter()
            .enumerate()
            .flat_map(|(layer, lb)| {
                lb.lower
                    .iter()
                    .zip(&lb.upper)
                    .enumerate()
                    .filter(|(_, (&l, &u))| l < 0.0 && u > 0.0)
                    .map(move |(idx, _)| (layer, idx))
            })
            .take(self.refinement_budget)
            .collect();
        for (layer, idx) in flips {
            let mut trial = best.alpha.clone();
            trial[layer][idx] = if trial[layer][idx] >= 0.5 { 0.0 } else { 1.0 };
            consider(trial, &mut best, &mut stats);
        }

        let mut prefix = Arc::unwrap_or_clone(best.prefix);
        prefix.settled_by = Some(*self);
        CachedAnalysis {
            analysis: analysis_of(&prefix, region),
            prefix: Some(Arc::new(prefix)),
            stats,
        }
    }
}

impl AppVer for AlphaCrown {
    fn analyze(&self, net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Analysis {
        self.run(net, region, splits, None).analysis
    }

    fn analyze_cached(
        &self,
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        parent: Option<&Arc<BoundPrefix>>,
    ) -> CachedAnalysis {
        self.run(net, region, splits, parent)
    }

    fn name(&self) -> &'static str {
        "alpha-CROWN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deeppoly::DeepPoly;
    use crate::types::SplitSign;
    use abonn_nn::AffinePair;
    use abonn_tensor::Matrix;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The α-CROWN loop with every pass bounded from scratch, as it ran
    /// before passes resumed from prefixes: the oracle the production
    /// path is held to, bit for bit.
    fn from_scratch(
        cfg: &AlphaCrown,
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
    ) -> Analysis {
        let bound = |alphas: Option<&AlphaAssignment>| {
            let mut stats = BoundComputeStats::default();
            compute_bounds_engine(
                net,
                region,
                splits,
                alphas,
                RelaxMode::Adaptive,
                None,
                false,
                &mut stats,
            )
            .map(|out| out.result)
        };
        if splits.is_contradictory() {
            return Analysis::infeasible();
        }
        let Some(mut best) = bound(None) else {
            return Analysis::infeasible();
        };
        let mut best_p = p_hat_of(&best);
        let sizes = net.relu_layer_sizes();
        let mut best_alpha: AlphaAssignment = best.bounds[..sizes.len()]
            .iter()
            .map(|lb| {
                lb.lower
                    .iter()
                    .zip(&lb.upper)
                    .map(|(&l, &u)| ReluRelaxation::deeppoly_alpha(l, u))
                    .collect()
            })
            .collect();
        let consider = |alpha: AlphaAssignment,
                        best: &mut BoundsResult,
                        best_p: &mut f64,
                        best_alpha: &mut AlphaAssignment| {
            if let Some(r) = bound(Some(&alpha)) {
                let p = p_hat_of(&r);
                if p > *best_p {
                    *best_p = p;
                    *best = r;
                    *best_alpha = alpha;
                }
            }
        };
        let zeros: AlphaAssignment = sizes.iter().map(|&n| vec![0.0; n]).collect();
        let ones: AlphaAssignment = sizes.iter().map(|&n| vec![1.0; n]).collect();
        consider(zeros, &mut best, &mut best_p, &mut best_alpha);
        consider(ones, &mut best, &mut best_p, &mut best_alpha);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        for _ in 0..cfg.restarts {
            let random: AlphaAssignment = sizes
                .iter()
                .map(|&n| (0..n).map(|_| rng.gen_range(0.0..=1.0)).collect())
                .collect();
            consider(random, &mut best, &mut best_p, &mut best_alpha);
        }
        let mut evals = 0usize;
        'refine: for (layer, lb) in best.bounds.clone()[..sizes.len()].iter().enumerate() {
            for (idx, (&l, &u)) in lb.lower.iter().zip(&lb.upper).enumerate() {
                if !(l < 0.0 && u > 0.0) {
                    continue;
                }
                if evals >= cfg.refinement_budget {
                    break 'refine;
                }
                let current = best_alpha[layer][idx];
                let flip = if current >= 0.5 { 0.0 } else { 1.0 };
                let mut trial = best_alpha.clone();
                trial[layer][idx] = flip;
                evals += 1;
                consider(trial, &mut best, &mut best_p, &mut best_alpha);
            }
        }
        let candidate = (best_p < 0.0)
            .then(|| candidate_from(&best, region))
            .flatten();
        Analysis {
            p_hat: best_p,
            candidate,
            bounds: best.bounds,
            infeasible: false,
        }
    }

    /// Bit-level equality: infeasibility, p̂, the candidate and every bound.
    fn same_bits(a: &Analysis, b: &Analysis) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        a.infeasible == b.infeasible
            && a.p_hat.to_bits() == b.p_hat.to_bits()
            && a.candidate.as_deref().map(bits) == b.candidate.as_deref().map(bits)
            && a.bounds.len() == b.bounds.len()
            && a.bounds
                .iter()
                .zip(&b.bounds)
                .all(|(x, y)| bits(&x.lower) == bits(&y.lower) && bits(&x.upper) == bits(&y.upper))
    }

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

    #[test]
    fn alpha_crown_never_loosens_deeppoly() {
        for seed in 0..8 {
            let net = random_net(seed, &[3, 6, 5, 2]);
            let region = InputBox::new(vec![-0.4; 3], vec![0.4; 3]);
            let dp = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
            let ac = AlphaCrown::default().analyze(&net, &region, &SplitSet::new());
            assert!(
                ac.p_hat >= dp.p_hat - 1e-9,
                "seed {seed}: alpha {} < deeppoly {}",
                ac.p_hat,
                dp.p_hat
            );
        }
    }

    #[test]
    fn alpha_crown_is_sound() {
        for seed in 20..25 {
            let net = random_net(seed, &[3, 6, 4, 2]);
            let region = InputBox::new(vec![-0.5; 3], vec![0.5; 3]);
            let a = AlphaCrown::default().analyze(&net, &region, &SplitSet::new());
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xAA);
            for _ in 0..30 {
                let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-0.5..0.5)).collect();
                let min_y = net
                    .forward(&x)
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min);
                assert!(a.p_hat <= min_y + 1e-7);
            }
        }
    }

    #[test]
    fn refinement_budget_zero_still_runs_portfolio() {
        let net = random_net(33, &[2, 4, 2]);
        let region = InputBox::new(vec![-0.5; 2], vec![0.5; 2]);
        let verifier = AlphaCrown::new(0, 0, 7);
        let a = verifier.analyze(&net, &region, &SplitSet::new());
        assert!(a.p_hat.is_finite());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Along a split path, each node bounded from its parent's prefix,
        /// re-queried with its own (a popped node), by plain `analyze`, by
        /// another configuration from its prefix, and by DeepPoly from its
        /// prefix, matches the from-scratch loop bit for bit; the
        /// re-query runs no pass.
        #[test]
        fn incremental_passes_match_the_from_scratch_loop(
            seed in 0u64..10_000,
            restarts in 0usize..4,
            budget in 0usize..20,
            alpha_seed in 0u64..100,
            picks in proptest::collection::vec((0usize..64, 0u8..2), 0..5),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut dims = vec![3];
            for _ in 0..rng.gen_range(1..=3) {
                dims.push(rng.gen_range(3..=7));
            }
            dims.push(2);
            let net = random_net(seed, &dims);
            let region = InputBox::new(vec![-0.6; 3], vec![0.6; 3]);
            let cfg = AlphaCrown::new(restarts, budget, alpha_seed);
            let other = AlphaCrown::new(restarts + 1, budget / 2, alpha_seed + 1);
            let dp = DeepPoly::new();

            let mut splits = SplitSet::new();
            let mut node = cfg.analyze_cached(&net, &region, &splits, None);
            prop_assert!(same_bits(&node.analysis, &from_scratch(&cfg, &net, &region, &splits)));
            for (pick, pos) in picks {
                let unstable = node.analysis.unstable_neurons(&splits);
                if node.analysis.infeasible || unstable.is_empty() {
                    break;
                }
                let sign = if pos == 0 { SplitSign::Pos } else { SplitSign::Neg };
                splits = splits.with(unstable[pick % unstable.len()], sign);
                let oracle = from_scratch(&cfg, &net, &region, &splits);
                let child = cfg.analyze_cached(&net, &region, &splits, node.prefix.as_ref());
                prop_assert!(same_bits(&child.analysis, &oracle), "child {splits:?}");
                prop_assert!(same_bits(&cfg.analyze(&net, &region, &splits), &oracle));
                let popped = cfg.analyze_cached(&net, &region, &splits, child.prefix.as_ref());
                prop_assert!(same_bits(&popped.analysis, &oracle), "popped {splits:?}");
                if !oracle.infeasible {
                    let whole = BoundComputeStats {
                        layers_reused: net.num_layers(),
                        ..BoundComputeStats::default()
                    };
                    prop_assert_eq!(popped.stats, whole);
                }
                let crossed = other.analyze_cached(&net, &region, &splits, child.prefix.as_ref());
                let other_oracle = from_scratch(&other, &net, &region, &splits);
                prop_assert!(same_bits(&crossed.analysis, &other_oracle), "other {splits:?}");
                let mixed = dp.analyze_cached(&net, &region, &splits, child.prefix.as_ref());
                prop_assert!(same_bits(&mixed.analysis, &dp.analyze(&net, &region, &splits)));
                node = child;
            }
        }
    }

    /// A pass whose slopes differ from the cached pass's on one unstable
    /// neuron of layer `j` resumes there: stages `0..=j` are reused and
    /// only `j+1..K` back-substituted. Slopes that differ on stable
    /// neurons alone reuse the whole pass.
    #[test]
    fn slope_divergence_resumes_at_the_flipped_layer() {
        let net = random_net(5, &[3, 6, 6, 6, 2]);
        let region = InputBox::new(vec![-0.6; 3], vec![0.6; 3]);
        let splits = SplitSet::new();
        let bound = |alphas: Option<&AlphaAssignment>, from: Option<&Arc<BoundPrefix>>| {
            let mut stats = BoundComputeStats::default();
            let out = compute_bounds_engine(
                &net,
                &region,
                &splits,
                alphas,
                RelaxMode::Adaptive,
                from,
                true,
                &mut stats,
            )
            .expect("no splits, feasible");
            (out, stats)
        };
        let (root, _) = bound(None, None);
        let prefix = root.prefix.expect("requested");
        let k = net.num_layers();
        let mut flipped = 0;
        for (layer, lb) in root.result.bounds[..k - 1].iter().enumerate() {
            let adaptive: AlphaAssignment = root.result.bounds[..k - 1]
                .iter()
                .map(|b| {
                    b.lower
                        .iter()
                        .zip(&b.upper)
                        .map(|(&l, &u)| ReluRelaxation::deeppoly_alpha(l, u))
                        .collect()
                })
                .collect();
            for (idx, (&l, &u)) in lb.lower.iter().zip(&lb.upper).enumerate() {
                let mut trial = adaptive.clone();
                trial[layer][idx] = 1.0 - trial[layer][idx];
                let (out, stats) = bound(Some(&trial), Some(&prefix));
                let (scratch, _) = bound(Some(&trial), None);
                let [out, scratch] = [out, scratch].map(|o| o.prefix.expect("requested"));
                assert!(same_bits(
                    &analysis_of(&out, &region),
                    &analysis_of(&scratch, &region)
                ));
                if l < 0.0 && u > 0.0 {
                    flipped += 1;
                    assert_eq!(stats.layers_reused, layer + 1, "flip at {layer}:{idx}");
                    assert_eq!(stats.layers_recomputed, k - layer - 1);
                    assert_eq!(stats.backsub_steps, (layer + 1..k).sum::<usize>());
                } else {
                    assert_eq!(stats.layers_reused, k, "stable {layer}:{idx}");
                    assert_eq!(stats.layers_recomputed, 0);
                }
            }
        }
        assert!(flipped >= 3, "seed 5 must leave neurons unstable");
    }

    /// A settled prefix answers its own configuration whole and no other:
    /// a configuration differing in any field runs its passes on the same
    /// split set and gets its own bits.
    #[test]
    fn settled_prefix_answers_only_its_own_configuration() {
        let net = random_net(5, &[3, 6, 6, 6, 2]);
        let region = InputBox::new(vec![-0.6; 3], vec![0.6; 3]);
        let splits = SplitSet::new();
        let config = AlphaCrown::default();
        let settled = config.analyze_cached(&net, &region, &splits, None);
        let again = config.analyze_cached(&net, &region, &splits, settled.prefix.as_ref());
        let whole = BoundComputeStats {
            layers_reused: net.num_layers(),
            ..BoundComputeStats::default()
        };
        assert_eq!(again.stats, whole);
        assert!(same_bits(&again.analysis, &settled.analysis));
        for other in [
            AlphaCrown::new(2, 8, 1),
            AlphaCrown::new(3, 8, 0),
            AlphaCrown::new(2, 7, 0),
        ] {
            let got = other.analyze_cached(&net, &region, &splits, settled.prefix.as_ref());
            assert!(got.stats.layers_recomputed > 0, "{other:?} answered whole");
            let oracle = from_scratch(&other, &net, &region, &splits);
            assert!(same_bits(&got.analysis, &oracle), "{other:?}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let net = random_net(44, &[3, 5, 2]);
        let region = InputBox::new(vec![-0.4; 3], vec![0.4; 3]);
        let v = AlphaCrown::new(3, 4, 9);
        let a = v.analyze(&net, &region, &SplitSet::new());
        let b = v.analyze(&net, &region, &SplitSet::new());
        assert_eq!(a.p_hat, b.p_hat);
    }
}

//! LP-relaxation verifier: the Planet-style triangle encoding solved with
//! the `abonn-lp` simplex.
//!
//! This is the reproduction's stand-in for the paper's GUROBI-backed
//! bounding. Each unstable ReLU contributes the three triangle facets
//! `a ≥ 0`, `a ≥ z`, `a ≤ u·(z − l)/(u − l)`; stable and split neurons
//! contribute exact linear rows. The LP minimum of an output coordinate is
//! a sound lower bound that is at least as tight as DeepPoly's (the
//! DeepPoly bound is a feasible dual choice of the same relaxation).
//!
//! # One cold solve per output row
//!
//! The engines bound with DeepPoly and call this verifier only to resolve
//! a fully-split leaf, without a parent prefix. Each call builds its LP
//! from scratch: the input-box bounds and the affine rows
//! `z_k = W_k·a_{k−1} + b_k`, then per hidden neuron the row `a = z` when
//! it is active, none when it is inactive (its bounds fix `a` to 0), and
//! the facets `a ≥ z`, `a ≤ s·(z − l)` when it is unstable (`a ≥ 0` is its
//! lower bound). Every output row DeepPoly has not verified gets one cold
//! [`Problem::solve`], so an analysis's bits are a function of its node
//! alone. The DeepPoly pre-pass runs through the incremental engine, so a
//! parent prefix passed to [`AppVer::analyze_cached`] still saves its
//! already-bound layers; the LP work shows in [`BoundComputeStats`]
//! (`lp_pivots`, `lp_pivot_cells`, `lp_cold_solves`).

use crate::cache::{BoundComputeStats, BoundPrefix, CachedAnalysis};
use crate::deeppoly::{compute_bounds_engine, RelaxMode};
use crate::types::{Analysis, AppVer, InputBox, NeuronId, SplitSet, SplitSign};
use abonn_lp::{Problem, Relation, Sense, Status};
use abonn_nn::CanonicalNetwork;
use std::sync::Arc;

/// The LP-relaxation verifier.
///
/// Noticeably more expensive per call than [`DeepPoly`](crate::DeepPoly);
/// intended for small networks, ablations, and as the "expensive solver"
/// end of the verifier spectrum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpVerifier {
    _private: (),
}

/// Variable layout of the triangle LP: input, then per hidden stage the
/// pair `(z_k, a_k)`, then the output `z`.
struct Layout {
    n_in: usize,
    z_off: Vec<usize>,
    a_off: Vec<usize>,
    total: usize,
}

impl Layout {
    fn of(net: &CanonicalNetwork) -> Self {
        let num_layers = net.num_layers();
        let n_in = net.input_dim();
        let mut z_off = Vec::with_capacity(num_layers);
        let mut a_off = Vec::with_capacity(num_layers - 1);
        let mut total = n_in;
        for k in 0..num_layers {
            z_off.push(total);
            total += net.layers()[k].out_dim();
            if k + 1 < num_layers {
                a_off.push(total);
                total += net.layers()[k].out_dim();
            }
        }
        Self {
            n_in,
            z_off,
            a_off,
            total,
        }
    }
}

/// Builds the split-independent part of the LP: input-box bounds and the
/// affine rows `z_k − W_k·a_{k−1} = b_k`.
fn build_skeleton(net: &CanonicalNetwork, region: &InputBox, layout: &Layout) -> Problem {
    let mut base = Problem::new(layout.total, Sense::Minimize);
    for (j, (&l, &h)) in region.lo().iter().zip(region.hi()).enumerate() {
        base.set_bounds(j, l, h);
    }
    // z_k = W_k · a_{k-1} + b_k  (a_{-1} = x).
    for k in 0..net.num_layers() {
        let stage = &net.layers()[k];
        let prev_off = if k == 0 { 0 } else { layout.a_off[k - 1] };
        for i in 0..stage.out_dim() {
            let mut row = vec![0.0; layout.total];
            row[layout.z_off[k] + i] = 1.0;
            for (t, &w) in stage.weight.row(i).iter().enumerate() {
                row[prev_off + t] = -w;
            }
            base.add_row(&row, Relation::Eq, stage.bias[i]);
        }
    }
    base
}

impl LpVerifier {
    /// Creates an LP verifier.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared implementation behind [`AppVer::analyze`] and
    /// [`AppVer::analyze_cached`]: one code path, so both entry points
    /// produce bit-for-bit the same analysis.
    fn run(
        &self,
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        parent: Option<&Arc<BoundPrefix>>,
        want_prefix: bool,
    ) -> CachedAnalysis {
        let mut stats = BoundComputeStats::default();
        if splits.is_contradictory() {
            return CachedAnalysis::scratch(Analysis::infeasible());
        }
        // DeepPoly pass supplies the pre-activation boxes the triangle
        // facets need (and already handles split clamping); it runs
        // through the incremental engine so a parent prefix saves the
        // already-bound layers.
        let Some(engine_out) = compute_bounds_engine(
            net,
            region,
            splits,
            None,
            RelaxMode::Adaptive,
            parent,
            want_prefix,
            &mut stats,
        ) else {
            return CachedAnalysis {
                analysis: Analysis::infeasible(),
                prefix: None,
                stats,
            };
        };
        let mut bounds = engine_out.result.bounds;
        let num_layers = net.num_layers();
        let n_out = net.output_dim();
        let layout = Layout::of(net);
        let total = layout.total;

        let mut base = build_skeleton(net, region, &layout);
        for (k, lb) in bounds.iter().enumerate().take(num_layers) {
            for i in 0..lb.len() {
                base.set_bounds(layout.z_off[k] + i, lb.lower[i], lb.upper[i]);
            }
        }

        for (k, lb) in bounds.iter().enumerate().take(num_layers - 1) {
            for i in 0..lb.len() {
                let (l, u) = (lb.lower[i], lb.upper[i]);
                let zv = layout.z_off[k] + i;
                let av = layout.a_off[k] + i;
                let sign = splits.sign_of(NeuronId::new(k, i));
                let active = l >= 0.0 || sign == Some(SplitSign::Pos);
                let inactive = u <= 0.0 || sign == Some(SplitSign::Neg);
                if active && !inactive {
                    // a = z
                    base.set_bounds(av, l.max(0.0), u.max(0.0));
                    let mut row = vec![0.0; total];
                    row[av] = 1.0;
                    row[zv] = -1.0;
                    base.add_row(&row, Relation::Eq, 0.0);
                } else if inactive {
                    base.set_bounds(av, 0.0, 0.0);
                } else {
                    // Unstable: triangle relaxation.
                    base.set_bounds(av, 0.0, u.max(0.0));
                    let mut ge = vec![0.0; total];
                    ge[av] = 1.0;
                    ge[zv] = -1.0;
                    base.add_row(&ge, Relation::Ge, 0.0); // a >= z
                    let s = u / (u - l);
                    let mut le = vec![0.0; total];
                    le[av] = 1.0;
                    le[zv] = -s;
                    base.add_row(&le, Relation::Le, -s * l); // a <= s(z - l)
                }
            }
        }

        // Solve one LP per output row DeepPoly has not already verified.
        let out_off = layout.z_off[num_layers - 1];
        let mut p_hat = f64::INFINITY;
        let mut candidate: Option<Vec<f64>> = None;
        let out_bounds = bounds.last().expect("non-empty").clone();
        let mut new_lower = out_bounds.lower.clone();
        // One objective buffer reused across the per-row solves: the rows
        // differ only in which coefficient is 1.0, and `set_objective`
        // overwrites in place.
        let mut obj = vec![0.0; total];
        for r in 0..n_out {
            if out_bounds.lower[r] > 0.0 {
                p_hat = p_hat.min(out_bounds.lower[r]);
                continue;
            }
            obj[out_off + r] = 1.0;
            base.set_objective(&obj);
            let res = base.solve();
            obj[out_off + r] = 0.0;
            stats.lp_cold_solves += 1;
            match res {
                Ok(sol) => {
                    stats.lp_pivots += sol.pivots;
                    stats.lp_pivot_cells += sol.pivot_cells;
                    match sol.status {
                        Status::Optimal => {
                            // The LP minimum can only improve (raise) the
                            // DeepPoly bound; guard against solver
                            // tolerance lowering it.
                            let v = sol.objective.max(out_bounds.lower[r]);
                            new_lower[r] = v;
                            if v < p_hat {
                                p_hat = v;
                                if v < 0.0 {
                                    candidate = Some(sol.x[..layout.n_in].to_vec());
                                }
                            }
                        }
                        Status::Infeasible => {
                            return CachedAnalysis {
                                analysis: Analysis::infeasible(),
                                prefix: None,
                                stats,
                            };
                        }
                        // Unbounded cannot happen (all variables boxed);
                        // fall back to the sound DeepPoly bound.
                        Status::Unbounded => p_hat = p_hat.min(out_bounds.lower[r]),
                    }
                }
                // Solver failure falls back to the sound DeepPoly bound.
                Err(_) => p_hat = p_hat.min(out_bounds.lower[r]),
            }
        }
        let last = bounds.len() - 1;
        bounds[last].lower = new_lower;

        CachedAnalysis {
            analysis: Analysis {
                p_hat,
                candidate,
                bounds,
                infeasible: false,
            },
            prefix: engine_out.prefix,
            stats,
        }
    }
}

impl AppVer for LpVerifier {
    fn analyze(&self, net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Analysis {
        self.run(net, region, splits, None, false).analysis
    }

    fn analyze_cached(
        &self,
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        parent: Option<&Arc<BoundPrefix>>,
    ) -> CachedAnalysis {
        self.run(net, region, splits, parent, true)
    }

    fn name(&self) -> &'static str {
        "LP"
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

    fn v_net() -> CanonicalNetwork {
        CanonicalNetwork::from_affine_pairs(
            1,
            vec![
                AffinePair::new(Matrix::from_rows(&[&[1.0], &[-1.0]]), vec![0.0, 0.0]),
                AffinePair::new(Matrix::from_rows(&[&[1.0, 1.0]]), vec![-0.6]),
            ],
        )
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

    fn assert_analysis_bits_eq(a: &Analysis, b: &Analysis, what: &str) {
        assert_eq!(a.infeasible, b.infeasible, "{what}: infeasible");
        assert_eq!(a.p_hat.to_bits(), b.p_hat.to_bits(), "{what}: p_hat");
        assert_eq!(a.candidate.is_some(), b.candidate.is_some(), "{what}");
        if let (Some(x), Some(y)) = (&a.candidate, &b.candidate) {
            for (u, v) in x.iter().zip(y) {
                assert_eq!(u.to_bits(), v.to_bits(), "{what}: candidate");
            }
        }
        assert_eq!(a.bounds.len(), b.bounds.len(), "{what}: bounds len");
        for (la, lb) in a.bounds.iter().zip(&b.bounds) {
            for (u, v) in la.lower.iter().zip(&lb.lower) {
                assert_eq!(u.to_bits(), v.to_bits(), "{what}: lower");
            }
            for (u, v) in la.upper.iter().zip(&lb.upper) {
                assert_eq!(u.to_bits(), v.to_bits(), "{what}: upper");
            }
        }
    }

    #[test]
    fn lp_at_least_as_tight_as_deeppoly() {
        for seed in 0..6 {
            let net = random_net(seed, &[3, 5, 4, 2]);
            let region = InputBox::new(vec![-0.4; 3], vec![0.4; 3]);
            let dp = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
            let lp = LpVerifier::new().analyze(&net, &region, &SplitSet::new());
            assert!(
                lp.p_hat >= dp.p_hat - 1e-6,
                "seed {seed}: lp {} < dp {}",
                lp.p_hat,
                dp.p_hat
            );
        }
    }

    #[test]
    fn lp_is_sound() {
        for seed in 10..14 {
            let net = random_net(seed, &[3, 5, 3, 2]);
            let region = InputBox::new(vec![-0.5; 3], vec![0.5; 3]);
            let a = LpVerifier::new().analyze(&net, &region, &SplitSet::new());
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xBB);
            for _ in 0..30 {
                let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-0.5..0.5)).collect();
                let min_y = net
                    .forward(&x)
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min);
                assert!(a.p_hat <= min_y + 1e-6, "seed {seed}");
            }
        }
    }

    #[test]
    fn lp_candidate_lies_in_region() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let a = LpVerifier::new().analyze(&net, &region, &SplitSet::new());
        if let Some(c) = &a.candidate {
            assert!(region.contains(c, 1e-6));
        }
        // On the V example the LP relaxation still cannot prove more than
        // the true minimum of −0.6.
        assert!(a.p_hat <= -0.6 + 1e-6);
    }

    #[test]
    fn fully_split_problem_is_exact() {
        // Splitting the only unstable layer completely makes the LP exact:
        // on x >= 0 the network is y = x - 0.6 with minimum -0.6.
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let splits = SplitSet::new()
            .with(NeuronId::new(0, 0), SplitSign::Pos)
            .with(NeuronId::new(0, 1), SplitSign::Neg);
        let a = LpVerifier::new().analyze(&net, &region, &splits);
        assert!((a.p_hat + 0.6).abs() < 1e-6, "p_hat = {}", a.p_hat);
    }

    #[test]
    fn contradictory_splits_are_infeasible_in_both_entry_points() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let n = NeuronId::new(0, 0);
        let splits = SplitSet::new()
            .with(n, SplitSign::Pos)
            .with(n, SplitSign::Neg);
        assert!(splits.is_contradictory());
        let lp = LpVerifier::new();
        let a = lp.analyze(&net, &region, &splits);
        assert!(a.infeasible, "analyze must report infeasible");
        assert!(a.verified(), "infeasible implies vacuously verified");
        let c = lp.analyze_cached(&net, &region, &splits, None);
        assert!(c.analysis.infeasible);
        assert!(c.prefix.is_none(), "no prefix for an empty region");
    }

    #[test]
    fn children_match_with_and_without_a_parent_prefix() {
        for seed in 0..5 {
            let net = random_net(seed, &[3, 6, 5, 2]);
            let region = InputBox::new(vec![-0.5; 3], vec![0.5; 3]);
            let lp = LpVerifier::new();
            // A child per sign of the root's first unstable neuron, bounded
            // from the root's prefix and from scratch.
            let root = lp.analyze_cached(&net, &region, &SplitSet::new(), None);
            let unstable = root.analysis.unstable_neurons(&SplitSet::new());
            if unstable.is_empty() {
                continue;
            }
            for sign in [SplitSign::Pos, SplitSign::Neg] {
                let splits = SplitSet::new().with(unstable[0], sign);
                let cached = lp.analyze_cached(&net, &region, &splits, root.prefix.as_ref());
                let scratch = lp.analyze_cached(&net, &region, &splits, None);
                assert_analysis_bits_eq(
                    &cached.analysis,
                    &scratch.analysis,
                    &format!("seed {seed} child {sign:?}"),
                );
                assert!(cached.stats.layers_reused > 0, "prefix not used");
            }
        }
    }

    #[test]
    fn counts_one_cold_solve_per_unverified_output_row() {
        let net = random_net(7, &[4, 8, 8, 3]);
        let region = InputBox::new(vec![-0.5; 4], vec![0.5; 4]);
        let c = LpVerifier::new().analyze_cached(&net, &region, &SplitSet::new(), None);
        let dp = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
        let out = &dp.bounds[dp.bounds.len() - 1];
        let unverified = out.lower.iter().filter(|&&l| l <= 0.0).count();
        assert_eq!(c.stats.lp_cold_solves, unverified);
        assert!(c.stats.lp_cold_solves > 0, "test needs an LP solve");
        assert!(c.stats.lp_pivots > 0 && c.stats.lp_pivot_cells > 0);
    }

    #[test]
    fn analyze_matches_analyze_cached_without_parent() {
        let net = random_net(21, &[3, 6, 4, 2]);
        let region = InputBox::new(vec![-0.4; 3], vec![0.4; 3]);
        let lp = LpVerifier::new();
        let plain = lp.analyze(&net, &region, &SplitSet::new());
        let cached = lp.analyze_cached(&net, &region, &SplitSet::new(), None);
        assert_analysis_bits_eq(&plain, &cached.analysis, "entry points");
        assert!(cached.prefix.is_some(), "LP verifier caches its prefix");
    }
}

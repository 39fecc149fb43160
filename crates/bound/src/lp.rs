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
//! # Warm starting across the BaB tree
//!
//! A child node's LP differs from its parent's by the rows/bounds of the
//! neurons its extra split touches, so re-solving from scratch wastes
//! almost all of the parent's simplex work (Bunel et al.). Three reuse
//! layers avoid that:
//!
//! 1. **Constant row layout.** Every hidden neuron contributes *exactly
//!    two* ReLU rows regardless of its stability category (unstable:
//!    `a ≥ z` and `a ≤ s·(z − l)`; active: `a = z` plus an all-zero
//!    trivial row; inactive: two trivial rows). An all-zero `≤ 0` row is
//!    inert in the simplex — its slack stays basic at zero and its column
//!    never becomes eligible to enter — so the padding costs nothing but
//!    keeps the constraint matrix the same shape at every node of a tree,
//!    letting a parent's terminal basis install directly on the child.
//! 2. **Skeleton sharing.** The split-independent part of the problem
//!    (variable layout, input-box bounds, the affine rows
//!    `z_k = W_k·a_{k−1} + b_k`) is built once per tree and shared via
//!    [`Arc`] through [`BoundPrefix`]; a node clones it and patches only
//!    pre-activation bounds and ReLU rows.
//! 3. **Warm-started solves.** Within a node, each output-row LP differs
//!    from the previous one only in the objective, so its terminal basis
//!    is dual-feasible for the next row and re-solving from it takes few
//!    pivots. Across nodes, the parent's final basis seeds the child's
//!    first solve through [`Problem::solve_warm`]'s deterministic repair.
//!
//! Warm and cold solves return bit-identical [`abonn_lp::Solution`]s
//! whenever they terminate in the same basis (canonical extraction; see
//! `abonn-lp`), so verdicts, witnesses, and reports do not depend on warm
//! starting. [`LpVerifier::with_warm_start`]`(false)` is the cold
//! reference: this module's tests and `crates/bench/tests/lp_warm.rs` (an
//! MNIST slice) compare it against the warm default. The in-memory
//! [`BoundComputeStats`] counters (`lp_pivots`, `lp_warm_hits`,
//! `lp_cold_solves`) are the only observable difference.

use crate::cache::{BoundComputeStats, BoundPrefix, CachedAnalysis, LpPrefix};
use crate::deeppoly::{compute_bounds_engine, RelaxMode};
use crate::types::{Analysis, AppVer, InputBox, NeuronId, SplitSet, SplitSign};
use abonn_lp::{Problem, Relation, Sense, Status, WarmStart};
use abonn_nn::CanonicalNetwork;
use std::sync::Arc;

/// The LP-relaxation verifier.
///
/// Noticeably more expensive per call than [`DeepPoly`](crate::DeepPoly);
/// intended for small networks, ablations, and as the "expensive solver"
/// end of the verifier spectrum. Warm starting (on by default) reuses
/// simplex bases across the output rows of a node and, through
/// [`AppVer::analyze_cached`], across parent/child BaB nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpVerifier {
    warm_start: bool,
}

impl Default for LpVerifier {
    fn default() -> Self {
        Self::new()
    }
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

/// Builds the split-independent constraint skeleton: input-box bounds and
/// the affine rows `z_k − W_k·a_{k−1} = b_k`. Identical for every node of
/// a BaB tree over `(net, region)`, so it is built once and shared.
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
    /// Creates an LP verifier with warm starting enabled.
    #[must_use]
    pub fn new() -> Self {
        Self { warm_start: true }
    }

    /// Enables or disables warm starting. Results are bit-identical either
    /// way; only the in-memory work counters differ. Production keeps the
    /// default; `false` is the cold reference for equivalence tests.
    #[must_use]
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
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
            true,
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

        let parent_lp = parent.and_then(|p| p.lp.as_ref());
        let skeleton = match parent_lp {
            Some(lp) => Arc::clone(&lp.skeleton),
            None => Arc::new(build_skeleton(net, region, &layout)),
        };

        let mut base = (*skeleton).clone();
        for (k, lb) in bounds.iter().enumerate().take(num_layers) {
            for i in 0..lb.len() {
                base.set_bounds(layout.z_off[k] + i, lb.lower[i], lb.upper[i]);
            }
        }

        // ReLU encodings: exactly two rows per hidden neuron, in a fixed
        // order, padding stable categories with inert all-zero rows so the
        // constraint matrix keeps the same shape at every node (see the
        // module docs). `zero_row` is reused for every trivial row.
        let zero_row = vec![0.0; total];
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
                    base.add_row(&zero_row, Relation::Le, 0.0);
                } else if inactive {
                    base.set_bounds(av, 0.0, 0.0);
                    base.add_row(&zero_row, Relation::Le, 0.0);
                    base.add_row(&zero_row, Relation::Le, 0.0);
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

        // Solve one LP per output row DeepPoly has not already verified,
        // chaining each solve off the previous terminal basis (and the
        // first off the parent's) when warm starting is on.
        let mut warm: Option<WarmStart> = if self.warm_start {
            parent_lp.and_then(|lp| lp.warm.clone())
        } else {
            None
        };
        let out_off = layout.z_off[num_layers - 1];
        let mut p_hat = f64::INFINITY;
        let mut candidate: Option<Vec<f64>> = None;
        let out_bounds = bounds.last().expect("non-empty").clone();
        let mut new_lower = out_bounds.lower.clone();
        // One objective buffer reused across the per-row solves: the rows
        // differ only in which coefficient is 1.0, and `set_objective`
        // overwrites in place, so the former per-row `base.clone()` (a
        // full copy of the constraint matrix) is gone.
        let mut obj = vec![0.0; total];
        for r in 0..n_out {
            if out_bounds.lower[r] > 0.0 {
                p_hat = p_hat.min(out_bounds.lower[r]);
                continue;
            }
            obj[out_off + r] = 1.0;
            base.set_objective(&obj);
            let res = match &warm {
                Some(w) => base.solve_warm(w),
                None => base.solve(),
            };
            obj[out_off + r] = 0.0;
            match res {
                Ok(sol) => {
                    stats.lp_pivots += sol.pivots;
                    stats.lp_pivot_cells += sol.pivot_cells;
                    if sol.warmed {
                        stats.lp_warm_hits += 1;
                    } else {
                        stats.lp_cold_solves += 1;
                    }
                    match sol.status {
                        Status::Optimal => {
                            if self.warm_start && sol.warm.is_some() {
                                warm = sol.warm.clone();
                            }
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
                        _ => p_hat = p_hat.min(out_bounds.lower[r]),
                    }
                }
                // Solver failure falls back to the sound DeepPoly bound.
                Err(_) => {
                    stats.lp_cold_solves += 1;
                    p_hat = p_hat.min(out_bounds.lower[r]);
                }
            }
        }
        let last = bounds.len() - 1;
        bounds[last].lower = new_lower;

        let prefix = if want_prefix {
            engine_out.prefix.map(|p| {
                let mut inner = (*p).clone();
                inner.lp = Some(LpPrefix {
                    skeleton,
                    warm: if self.warm_start { warm } else { None },
                });
                Arc::new(inner)
            })
        } else {
            None
        };

        CachedAnalysis {
            analysis: Analysis {
                p_hat,
                candidate,
                bounds,
                infeasible: false,
            },
            prefix,
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
        for lp in [
            LpVerifier::new(),
            LpVerifier::new().with_warm_start(false),
        ] {
            let a = lp.analyze(&net, &region, &splits);
            assert!(a.infeasible, "analyze must report infeasible");
            assert!(a.verified(), "infeasible implies vacuously verified");
            let c = lp.analyze_cached(&net, &region, &splits, None);
            assert!(c.analysis.infeasible);
            assert!(c.prefix.is_none(), "no prefix for an empty region");
        }
    }

    #[test]
    fn warm_and_cold_analyses_are_bit_identical() {
        for seed in 0..5 {
            let net = random_net(seed, &[3, 6, 5, 2]);
            let region = InputBox::new(vec![-0.5; 3], vec![0.5; 3]);
            let warm_v = LpVerifier::new();
            let cold_v = LpVerifier::new().with_warm_start(false);
            // Root, then a child per sign of the first unstable neuron,
            // threading the warm verifier's prefix to exercise the
            // parent-basis path.
            let root_w = warm_v.analyze_cached(&net, &region, &SplitSet::new(), None);
            let root_c = cold_v.analyze_cached(&net, &region, &SplitSet::new(), None);
            assert_analysis_bits_eq(&root_w.analysis, &root_c.analysis, "root");
            let unstable = root_w.analysis.unstable_neurons(&SplitSet::new());
            if unstable.is_empty() {
                continue;
            }
            for sign in [SplitSign::Pos, SplitSign::Neg] {
                let splits = SplitSet::new().with(unstable[0], sign);
                let child_w =
                    warm_v.analyze_cached(&net, &region, &splits, root_w.prefix.as_ref());
                let child_c = cold_v.analyze_cached(&net, &region, &splits, None);
                assert_analysis_bits_eq(
                    &child_w.analysis,
                    &child_c.analysis,
                    &format!("seed {seed} child {sign:?}"),
                );
            }
        }
    }

    #[test]
    fn warm_start_reduces_pivots_and_counts_hits() {
        let net = random_net(7, &[4, 8, 8, 3]);
        let region = InputBox::new(vec![-0.5; 4], vec![0.5; 4]);
        let warm_v = LpVerifier::new();
        let cold_v = LpVerifier::new().with_warm_start(false);

        let mut warm_stats = BoundComputeStats::default();
        let mut cold_stats = BoundComputeStats::default();
        let root_w = warm_v.analyze_cached(&net, &region, &SplitSet::new(), None);
        let root_c = cold_v.analyze_cached(&net, &region, &SplitSet::new(), None);
        warm_stats.absorb(&root_w.stats);
        cold_stats.absorb(&root_c.stats);
        let unstable = root_w.analysis.unstable_neurons(&SplitSet::new());
        assert!(!unstable.is_empty(), "test needs an unstable neuron");
        for sign in [SplitSign::Pos, SplitSign::Neg] {
            let splits = SplitSet::new().with(unstable[0], sign);
            let cw = warm_v.analyze_cached(&net, &region, &splits, root_w.prefix.as_ref());
            let cc = cold_v.analyze_cached(&net, &region, &splits, None);
            warm_stats.absorb(&cw.stats);
            cold_stats.absorb(&cc.stats);
        }
        assert!(warm_stats.lp_warm_hits > 0, "warm path never engaged");
        assert_eq!(cold_stats.lp_warm_hits, 0, "cold run must not warm-start");
        assert!(
            cold_stats.lp_cold_solves >= warm_stats.lp_warm_hits + warm_stats.lp_cold_solves,
            "solve counts should cover the same LPs"
        );
        assert!(
            warm_stats.lp_pivots < cold_stats.lp_pivots,
            "warm {} >= cold {} pivots",
            warm_stats.lp_pivots,
            cold_stats.lp_pivots
        );
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
        let prefix = cached.prefix.expect("just checked");
        assert!(prefix.lp.is_some(), "prefix carries LP state");
    }
}

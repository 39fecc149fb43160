//! Independent re-validation of a single leaf obligation.
//!
//! A leaf claims: "over the input region restricted by my split set, every
//! margin output is positive". The engines established that claim with
//! DeepPoly/α-CROWN back-substitution; this module re-establishes it with
//! machinery that shares none of that code, escalating through four
//! stages until one succeeds:
//!
//! 1. **Interval** — plain interval propagation ([`crate::interval`]).
//! 2. **Linear** — back-substituted linear bounds (`crate::linear`),
//!    which tighten every unstable or split neuron's box before the
//!    margins are bounded.
//! 3. **Box LP** — one triangle-relaxation LP per output, with every
//!    unstable ReLU relaxed over its *interval* pre-activation range.
//! 4. **Refined LP** — intermediate pre-activation ranges are themselves
//!    re-derived layer by layer with LPs before the final margin LPs.
//!
//! Stage 4 dominates any back-substitution-style bound: a CROWN/DeepPoly
//! bound with slopes `α ∈ [0, 1]` is a dual-feasible bound of the
//! triangle LP over the same (or looser) intermediate boxes, so the LP
//! optimum is at least as large. A leaf the engines verified therefore
//! always passes stage 4 — up to simplex tolerances, absorbed by
//! [`ACCEPT_TOL`]. Stage 2's bound is one such back-substitution, so a
//! leaf it certifies would pass the LP stages too; when it fails, the LP
//! stages run on the interval boxes exactly as if it did not exist.

use crate::interval::{self, IntervalBounds, EMPTY_TOL};
use crate::linear;
use abonn_bound::{InputBox, SplitSet};
use abonn_lp::{Problem, Relation, Sense, Status};
use abonn_nn::CanonicalNetwork;

/// Acceptance tolerance on LP margins: a leaf passes when every output's
/// LP minimum exceeds `-ACCEPT_TOL`. Covers simplex feasibility/pivot
/// tolerances; the engines' own claims are strict (`p̂ > 0`).
pub const ACCEPT_TOL: f64 = 1e-6;

/// Which escalation stage certified the leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafStage {
    /// Plain interval propagation sufficed.
    Interval,
    /// Back-substituted linear bounds over tightened boxes.
    Linear,
    /// Triangle LP over interval boxes.
    BoxLp,
    /// Triangle LP over layerwise LP-refined boxes.
    RefinedLp,
}

/// Successful leaf check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafOutcome {
    /// The split set empties the region: the claim is vacuously true.
    pub vacuous: bool,
    /// Stage that certified a non-vacuous leaf (`None` iff `vacuous`).
    pub stage: Option<LeafStage>,
    /// Certified lower bound on the minimum margin output.
    pub margin: f64,
    /// LP solves spent.
    pub lp_calls: usize,
}

/// Failed leaf check.
#[derive(Debug, Clone, PartialEq)]
pub enum LeafError {
    /// All stages exhausted without certifying positivity.
    NotVerified {
        /// Best (largest) margin lower bound any stage established.
        margin: f64,
        /// LP solves spent.
        lp_calls: usize,
    },
    /// The simplex solver itself failed (iteration limit / bad problem).
    Solver(String),
}

impl std::fmt::Display for LeafError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeafError::NotVerified { margin, .. } => {
                write!(f, "leaf not verified (margin lower bound {margin})")
            }
            LeafError::Solver(msg) => write!(f, "LP solver failure: {msg}"),
        }
    }
}

impl std::error::Error for LeafError {}

/// Outcome of one margin/bound LP.
enum LpBound {
    /// The relaxation is infeasible, so the exact region is empty.
    Vacuous,
    /// Optimal objective value (bias already added).
    Value(f64),
}

/// Builds the triangle-relaxation LP over stages `0..upto` and minimises
/// or maximises row `i` of stage `upto` over it.
///
/// Variables: the input box, then `(z_k, a_k)` per hidden stage `k <
/// upto`. Constraints: the affine rows as equalities, `a = z` for neurons
/// fixed non-negative by their box, `a = 0` for neurons fixed
/// non-positive, and the two triangle facets `a ≥ z`, `(u−l)·a − u·z ≤
/// −u·l` (with `a ≥ 0` as a variable bound) for unstable neurons.
fn stage_bound(
    net: &CanonicalNetwork,
    region: &InputBox,
    boxes: &[(Vec<f64>, Vec<f64>)],
    upto: usize,
    row: usize,
    sense: Sense,
) -> Result<LpBound, LeafError> {
    let n_in = net.input_dim();
    let stages = net.layers();
    let mut z_off = Vec::with_capacity(upto);
    let mut a_off = Vec::with_capacity(upto);
    let mut n_vars = n_in;
    for stage in &stages[..upto] {
        z_off.push(n_vars);
        a_off.push(n_vars + stage.out_dim());
        n_vars += 2 * stage.out_dim();
    }
    let mut lp = Problem::new(n_vars, sense);
    for j in 0..n_in {
        lp.set_bounds(j, region.lo()[j], region.hi()[j]);
    }
    for (k, stage) in stages[..upto].iter().enumerate() {
        let (lo, hi) = &boxes[k];
        for i in 0..stage.out_dim() {
            lp.set_bounds(z_off[k] + i, lo[i], hi[i]);
            lp.set_bounds(a_off[k] + i, lo[i].max(0.0), hi[i].max(0.0));
        }
    }
    // Affine rows and ReLU relaxations.
    let mut coeffs = vec![0.0; n_vars];
    for (k, stage) in stages[..upto].iter().enumerate() {
        let prev = |j: usize| if k == 0 { j } else { a_off[k - 1] + j };
        for i in 0..stage.out_dim() {
            coeffs.iter_mut().for_each(|c| *c = 0.0);
            coeffs[z_off[k] + i] = 1.0;
            for (j, &w) in stage.weight.row(i).iter().enumerate() {
                coeffs[prev(j)] = -w;
            }
            lp.add_row(&coeffs, Relation::Eq, stage.bias[i]);
            let (l, u) = (boxes[k].0[i], boxes[k].1[i]);
            coeffs.iter_mut().for_each(|c| *c = 0.0);
            if l >= 0.0 {
                // Fixed active: a = z.
                coeffs[a_off[k] + i] = 1.0;
                coeffs[z_off[k] + i] = -1.0;
                lp.add_row(&coeffs, Relation::Eq, 0.0);
            } else if u <= 0.0 {
                // Fixed inactive: a = 0 (already in the variable bounds).
                lp.set_bounds(a_off[k] + i, 0.0, 0.0);
            } else {
                // Unstable: the triangle. a ≥ 0 is a variable bound.
                coeffs[a_off[k] + i] = 1.0;
                coeffs[z_off[k] + i] = -1.0;
                lp.add_row(&coeffs, Relation::Ge, 0.0);
                coeffs[a_off[k] + i] = u - l;
                coeffs[z_off[k] + i] = -u;
                lp.add_row(&coeffs, Relation::Le, -u * l);
            }
        }
    }
    // Objective: row `row` of stage `upto` over its input variables.
    let target = &stages[upto];
    coeffs.iter_mut().for_each(|c| *c = 0.0);
    let prev = |j: usize| if upto == 0 { j } else { a_off[upto - 1] + j };
    for (j, &w) in target.weight.row(row).iter().enumerate() {
        coeffs[prev(j)] = w;
    }
    lp.set_objective(&coeffs);
    let sol = lp.solve().map_err(|e| LeafError::Solver(e.to_string()))?;
    match sol.status {
        Status::Optimal => Ok(LpBound::Value(sol.objective + target.bias[row])),
        Status::Infeasible => Ok(LpBound::Vacuous),
        Status::Unbounded => Err(LeafError::Solver(
            "unbounded relaxation over a bounded box".into(),
        )),
    }
}

/// Minimises every output of the final stage over the relaxation; returns
/// the smallest minimum, or `Vacuous` if the relaxation is infeasible.
fn margin_lp(
    net: &CanonicalNetwork,
    region: &InputBox,
    boxes: &[(Vec<f64>, Vec<f64>)],
    lp_calls: &mut usize,
) -> Result<LpBound, LeafError> {
    let last = net.num_layers() - 1;
    let mut worst = f64::INFINITY;
    for row in 0..net.output_dim() {
        *lp_calls += 1;
        match stage_bound(net, region, boxes, last, row, Sense::Minimize)? {
            LpBound::Vacuous => return Ok(LpBound::Vacuous),
            LpBound::Value(v) => worst = worst.min(v),
        }
        if worst <= -ACCEPT_TOL {
            break; // already failing; no need to bound the other outputs
        }
    }
    Ok(LpBound::Value(worst))
}

fn vacuous_outcome(lp_calls: usize) -> LeafOutcome {
    LeafOutcome {
        vacuous: true,
        stage: None,
        margin: f64::INFINITY,
        lp_calls,
    }
}

fn certified(stage: LeafStage, margin: f64, lp_calls: usize) -> LeafOutcome {
    LeafOutcome {
        vacuous: false,
        stage: Some(stage),
        margin,
        lp_calls,
    }
}

/// Re-validates one leaf obligation; see the module docs for the staged
/// escalation.
///
/// # Errors
///
/// [`LeafError::NotVerified`] when no stage certifies positivity,
/// [`LeafError::Solver`] on simplex failure.
pub fn check_leaf(
    net: &CanonicalNetwork,
    region: &InputBox,
    splits: &SplitSet,
) -> Result<LeafOutcome, LeafError> {
    // Stage 1: intervals.
    let Some(bounds) = interval::propagate(net, region, splits) else {
        return Ok(vacuous_outcome(0));
    };
    let interval_margin = bounds.min_output_lower();
    if interval_margin > 0.0 {
        return Ok(certified(LeafStage::Interval, interval_margin, 0));
    }
    // Stage 2: linear bounds back-substituted through tightened boxes.
    let Some(tightened) = linear::propagate(net, region, splits, &bounds) else {
        return Ok(vacuous_outcome(0));
    };
    // At least the interval margin: the linear boxes are intersected
    // with the interval ones.
    let linear_margin = tightened.min_output_lower();
    if linear_margin > 0.0 {
        return Ok(certified(LeafStage::Linear, linear_margin, 0));
    }
    lp_stages(net, region, bounds, linear_margin)
}

/// Stages 3 and 4 over the leaf's interval boxes. `best_margin` is the
/// largest margin lower bound the earlier stages established, reported
/// if the LPs do no better.
fn lp_stages(
    net: &CanonicalNetwork,
    region: &InputBox,
    bounds: IntervalBounds,
    best_margin: f64,
) -> Result<LeafOutcome, LeafError> {
    // Stage 3: triangle LP over the interval boxes.
    let IntervalBounds { pre: mut boxes } = bounds;
    let mut lp_calls = 0;
    let box_margin = match margin_lp(net, region, &boxes, &mut lp_calls)? {
        LpBound::Vacuous => return Ok(vacuous_outcome(lp_calls)),
        LpBound::Value(v) => v,
    };
    if box_margin > -ACCEPT_TOL {
        return Ok(certified(LeafStage::BoxLp, box_margin, lp_calls));
    }
    // Stage 4: refine intermediate boxes layer by layer with LPs, then
    // redo the margin LPs. Stage 0's interval box is already exact (an
    // affine image of the input box), so refinement starts at stage 1.
    let hidden = net.num_layers() - 1;
    let mut refined = false;
    for k in 1..hidden {
        for i in 0..boxes[k].0.len() {
            // Stable neurons contribute exact rows (`a = z` or `a = 0`) to
            // the relaxation; only unstable boxes feed triangle facets, so
            // only they need LP refinement. Intervals are looser than the
            // engines' bounds, so interval-stable implies engine-stable and
            // dominance is unaffected.
            if boxes[k].0[i] >= 0.0 || boxes[k].1[i] <= 0.0 {
                continue;
            }
            for sense in [Sense::Minimize, Sense::Maximize] {
                lp_calls += 1;
                match stage_bound(net, region, &boxes, k, i, sense)? {
                    LpBound::Vacuous => return Ok(vacuous_outcome(lp_calls)),
                    // Intersect with the split-clamped interval box: both
                    // bounds stay valid, so keep the tighter one.
                    LpBound::Value(v) => match sense {
                        Sense::Minimize if v > boxes[k].0[i] => {
                            boxes[k].0[i] = v;
                            refined = true;
                        }
                        Sense::Maximize if v < boxes[k].1[i] => {
                            boxes[k].1[i] = v;
                            refined = true;
                        }
                        _ => {}
                    },
                }
            }
            if boxes[k].0[i] > boxes[k].1[i] + EMPTY_TOL {
                return Ok(vacuous_outcome(lp_calls));
            }
        }
    }
    let refined_margin = if refined {
        match margin_lp(net, region, &boxes, &mut lp_calls)? {
            LpBound::Vacuous => return Ok(vacuous_outcome(lp_calls)),
            LpBound::Value(v) => v,
        }
    } else {
        box_margin
    };
    if refined_margin > -ACCEPT_TOL {
        return Ok(certified(LeafStage::RefinedLp, refined_margin, lp_calls));
    }
    Err(LeafError::NotVerified {
        margin: refined_margin.max(box_margin).max(best_margin),
        lp_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::tests::random_net;
    use abonn_bound::{NeuronId, SplitSign};
    use abonn_nn::AffinePair;
    use abonn_tensor::Matrix;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A random leaf: a 2-3-3-1 net with weights and biases in `[−1, 1]`,
    /// an input box of radius up to 1, and each hidden neuron split with
    /// probability 0.15.
    fn random_leaf(rng: &mut SmallRng) -> (CanonicalNetwork, InputBox, SplitSet) {
        let net = random_net(rng, &[2, 3, 3, 1]);
        let radius = rng.gen_range(0.05..1.0);
        let center: Vec<f64> = (0..2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let region = InputBox::new(
            center.iter().map(|c| c - radius).collect(),
            center.iter().map(|c| c + radius).collect(),
        );
        let mut splits = SplitSet::new();
        for layer in 0..2 {
            for index in 0..3 {
                if rng.gen_bool(0.15) {
                    let sign = if rng.gen_bool(0.5) {
                        SplitSign::Pos
                    } else {
                        SplitSign::Neg
                    };
                    splits = splits.with(NeuronId::new(layer, index), sign);
                }
            }
        }
        (net, region, splits)
    }

    /// z = (x, -x), a = relu(z), y = a0 + a1 - 0.6: true range of y over
    /// x in [-1, 1] is [-0.6 + |x|] = [-0.6, 0.4] — not robust at root,
    /// but each single-phase branch is decidable.
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
    fn interval_stage_certifies_shifted_v() {
        // y + 0.7 > 0 everywhere, and intervals see it.
        let net = CanonicalNetwork::from_affine_pairs(
            1,
            vec![
                AffinePair::new(Matrix::from_rows(&[&[1.0], &[-1.0]]), vec![0.0, 0.0]),
                AffinePair::new(Matrix::from_rows(&[&[1.0, 1.0]]), vec![0.1]),
            ],
        );
        let out = check_leaf(
            &net,
            &InputBox::new(vec![-1.0], vec![1.0]),
            &SplitSet::new(),
        )
        .unwrap();
        assert_eq!(out.stage, Some(LeafStage::Interval));
        assert_eq!(out.lp_calls, 0);
    }

    #[test]
    fn box_lp_beats_intervals_on_the_v() {
        // On the x >= 0 branch: a0 = z0 = x, a1 = 0 (z1 = -x <= 0 is
        // stable), so the LP is exact: y = x - 0.6 dips to -0.6. Verify
        // the *positive-margin* variant instead: y' = a0 - a1 + 0.1 on
        // the same branch is x + 0.1 >= 0.1 > 0, which intervals already
        // prove. To force LP use, keep an unstable neuron: on the root
        // region the v-net margin is negative, so NotVerified is correct.
        let err = check_leaf(
            &v_net(),
            &InputBox::new(vec![-1.0], vec![1.0]),
            &SplitSet::new(),
        )
        .unwrap_err();
        match err {
            LeafError::NotVerified { margin, .. } => {
                // The exact minimum is -0.6; the LP must not report better
                // than the true minimum.
                assert!(margin <= 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lp_is_exact_on_fully_split_leaves() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        // x >= 0 branch with both neurons phased: y = x - 0.6 over [0, 1]
        // has minimum -0.6 (not verified, correctly).
        let splits = SplitSet::new()
            .with(NeuronId::new(0, 0), SplitSign::Pos)
            .with(NeuronId::new(0, 1), SplitSign::Neg);
        let err = check_leaf(&net, &region, &splits).unwrap_err();
        match err {
            LeafError::NotVerified { margin, .. } => {
                assert!((margin + 0.6).abs() < 1e-6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_split_region_is_vacuous() {
        let net = v_net();
        let splits = SplitSet::new().with(NeuronId::new(0, 0), SplitSign::Neg);
        let out = check_leaf(&net, &InputBox::new(vec![0.5], vec![1.0]), &splits).unwrap();
        assert!(out.vacuous);
    }

    #[test]
    fn linear_stage_recovers_two_hidden_layer_anti_correlation() {
        // Layer 1: z1 = (x, -x); layer 2 feeds on a1 = relu(z1) with
        // y2 = (a0 - a1, a1 - a0); output sums relu(y2) - small constant.
        // The second layer's interval boxes are loose (they ignore the
        // a0/a1 anti-correlation); back-substitution recovers it.
        let net = CanonicalNetwork::from_affine_pairs(
            1,
            vec![
                AffinePair::new(Matrix::from_rows(&[&[1.0], &[-1.0]]), vec![0.0, 0.0]),
                AffinePair::new(
                    Matrix::from_rows(&[&[1.0, -1.0], &[-1.0, 1.0]]),
                    vec![0.0, 0.0],
                ),
                AffinePair::new(Matrix::from_rows(&[&[-1.0, -1.0]]), vec![1.05]),
            ],
        );
        // Exact: relu(x) - relu(-x) = x, so y2 = (x, -x), and
        // relu(y2) sums to |x| <= 1; output = 1.05 - |x| >= 0.05 > 0.
        let out = check_leaf(
            &net,
            &InputBox::new(vec![-1.0], vec![1.0]),
            &SplitSet::new(),
        )
        .unwrap();
        assert_eq!(out.stage, Some(LeafStage::Linear));
        assert_eq!(out.lp_calls, 0);
    }

    #[test]
    fn box_lp_certifies_what_the_adaptive_slope_misses() {
        // y = relu(x) − 0.5·relu(x + 2) + 1.3 over x ∈ [−1, 1]. The second
        // ReLU is stable, so y = relu(x) − 0.5·x + 0.3, minimal (0.3) at
        // x = 0. Intervals give −0.2; the adaptive slope relu(x) ≥ x gives
        // 0.5·x + 0.3 ≥ −0.2; the triangle LP keeps relu(x) ≥ 0 as well.
        let net = CanonicalNetwork::from_affine_pairs(
            1,
            vec![
                AffinePair::new(Matrix::from_rows(&[&[1.0], &[1.0]]), vec![0.0, 2.0]),
                AffinePair::new(Matrix::from_rows(&[&[1.0, -0.5]]), vec![1.3]),
            ],
        );
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let splits = SplitSet::new();
        let boxes = interval::propagate(&net, &region, &splits).unwrap();
        assert!((boxes.min_output_lower() + 0.2).abs() < 1e-12);
        let tightened = linear::propagate(&net, &region, &splits, &boxes).unwrap();
        assert!((tightened.min_output_lower() + 0.2).abs() < 1e-12);
        let out = check_leaf(&net, &region, &splits).unwrap();
        assert_eq!(out.stage, Some(LeafStage::BoxLp));
        assert!((out.margin - 0.3).abs() < 1e-9);
        assert_eq!(out.lp_calls, 1);
    }

    #[test]
    fn refined_lp_certifies_a_searched_net() {
        // A robust 2-3-3-1 net with one-decimal weights, found by a
        // seeded search over [−1, 1]²: intervals, linear bounds and the
        // box LP all leave a non-positive margin, only stage 4 closes it.
        let net = CanonicalNetwork::from_affine_pairs(
            2,
            vec![
                AffinePair::new(
                    Matrix::from_rows(&[&[-0.8, -0.3], &[-0.3, -0.4], &[-0.7, -0.6]]),
                    vec![0.0, 0.0, 0.9],
                ),
                AffinePair::new(
                    Matrix::from_rows(&[&[0.1, -0.7, 0.3], &[0.6, 1.0, 0.2], &[-0.9, 0.6, 0.6]]),
                    vec![-1.0, -0.3, -0.8],
                ),
                AffinePair::new(Matrix::from_rows(&[&[-0.2, 0.7, -0.9]]), vec![0.5]),
            ],
        );
        let region = InputBox::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let out = check_leaf(&net, &region, &SplitSet::new()).unwrap();
        assert_eq!(out.stage, Some(LeafStage::RefinedLp));
        assert!(out.margin > 0.2);
        assert!(out.lp_calls > 1);
    }

    #[test]
    fn lp_proves_a_same_layer_split_pair_empty() {
        // The gate leaf g1+, g2− with g1 = x0 + x1 − 1, g2 = x0 + x1 − 0.9:
        // x0 + x1 ≥ 1 and ≤ 0.9 at once. Each gate's box alone stays
        // non-empty, so only the LP, which couples them, sees the leaf
        // is empty; the output −relu(g1) keeps earlier stages from
        // certifying it.
        let net = CanonicalNetwork::from_affine_pairs(
            2,
            vec![
                AffinePair::new(
                    Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]),
                    vec![-1.0, -0.9],
                ),
                AffinePair::new(Matrix::from_rows(&[&[-1.0, 0.0]]), vec![0.0]),
            ],
        );
        let region = InputBox::new(vec![0.52, -0.08], vec![1.0, 0.48]);
        let splits = SplitSet::new()
            .with(NeuronId::new(0, 0), SplitSign::Pos)
            .with(NeuronId::new(0, 1), SplitSign::Neg);
        let out = check_leaf(&net, &region, &splits).unwrap();
        assert!(out.vacuous);
        assert_eq!(out.lp_calls, 1);
    }

    /// Whenever the linear stage certifies a leaf (positive margin or an
    /// empty box), the LP stages alone certify it too: the refined LP
    /// dominates back-substitution, so the new stage changes no audit's
    /// outcome.
    #[test]
    fn lp_stages_certify_every_leaf_the_linear_stage_does() {
        let mut rng = SmallRng::seed_from_u64(18);
        let mut certified = 0;
        for _ in 0..10_000 {
            let (net, region, splits) = random_leaf(&mut rng);
            let Some(bounds) = interval::propagate(&net, &region, &splits) else {
                continue;
            };
            if bounds.min_output_lower() > 0.0 {
                continue;
            }
            let closes = linear::propagate(&net, &region, &splits, &bounds)
                .is_none_or(|tightened| tightened.min_output_lower() > 0.0);
            if closes {
                certified += 1;
                let lp = lp_stages(&net, &region, bounds, f64::NEG_INFINITY);
                assert!(
                    lp.is_ok(),
                    "linear stage certified, LP stages did not: {lp:?} on {:?} over {region:?} with {splits:?}",
                    net.layers()
                );
            }
        }
        assert!(
            certified >= 200,
            "only {certified} leaves reached a linear certificate"
        );
    }
}

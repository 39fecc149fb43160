//! DeepPoly/CROWN-style linear-relaxation bound propagation with split
//! constraints.
//!
//! For each affine stage the engine back-substitutes a pair of linear
//! expressions (a lower and an upper bound on the stage's pre-activations)
//! through all earlier ReLU relaxations down to the input, then
//! concretises them over the input box. Pre-activation bounds are
//! intersected with interval propagation (so the result is never looser
//! than [`Ibp`](crate::Ibp)) and tightened by the sub-problem's split
//! constraints before the stage's own ReLU relaxation is formed.

use crate::arena::{ArenaLease, BoundArena};
use crate::cache::{BoundComputeStats, BoundPrefix, CachedAnalysis};
use crate::ibp::Ibp;
use crate::relax::{apply_split, ReluRelaxation};
use crate::types::{Analysis, AppVer, InputBox, LayerBounds, NeuronId, SplitSet};
use abonn_nn::CanonicalNetwork;
use abonn_tensor::{lane_padded, Matrix};
use std::sync::Arc;

/// Intermediate result of a full bound computation, including everything
/// needed to extract candidates and to re-run with different α slopes.
#[derive(Debug, Clone)]
pub(crate) struct BoundsResult {
    /// Pre-activation bounds per stage (post split-clamp).
    pub bounds: Vec<LayerBounds>,
    /// Coefficients of the linear lower bound of the *output* stage over
    /// the input (one row per output); used to extract the box corner that
    /// minimises the relaxed output.
    pub output_lower_coeffs: Matrix,
}

/// Per-stage, per-neuron lower-relaxation slopes in `[0, 1]`.
pub(crate) type AlphaAssignment = Vec<Vec<f64>>;

/// Runs the backward-substitution analysis with the adaptive DeepPoly
/// slopes, from scratch. Returns `None` when a split constraint makes the
/// region infeasible.
pub(crate) fn compute_bounds(
    net: &CanonicalNetwork,
    region: &InputBox,
    splits: &SplitSet,
) -> Option<BoundsResult> {
    let mut stats = BoundComputeStats::default();
    compute_bounds_engine(
        net,
        region,
        splits,
        None,
        RelaxMode::Adaptive,
        None,
        false,
        &mut stats,
    )
    .map(|out| out.result)
}

/// Relaxation policy: the lower slope of unstable neurons, and whether
/// back-substituted bounds are intersected with interval propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RelaxMode {
    /// DeepPoly's area-adaptive slope (`1` when `u ≥ −l`, else `0`),
    /// intersected with IBP so the bounds are never looser than it.
    #[default]
    Adaptive,
    /// Planet-style zero lower bound (`a ≥ 0` only), with no interval
    /// intersection — markedly looser, producing the larger, bushier BaB
    /// trees typical of weaker relaxations.
    Zero,
}

/// Result of one [`compute_bounds_engine`] call.
pub(crate) struct EngineOutput {
    pub result: BoundsResult,
    /// Reusable prefix for child sub-problems (requested + supported).
    pub prefix: Option<Arc<BoundPrefix>>,
}

/// The incremental bounding engine behind every DeepPoly-style pass.
///
/// `alphas` overrides the lower-relaxation slope of unstable neurons; when
/// `None` the mode's own slope is used. When `parent` holds a
/// [`BoundPrefix`] produced under the same relaxation mode, the pass
/// resumes at stage `L`, the earlier of the first diverging split layer
/// and the first stage whose rebuilt relaxations differ from the cached
/// pass's (its slopes differ on a neuron unstable in the cached bounds).
/// Stages below `L` are served from the cache, and so is stage `L`'s
/// back-substitution (it passes only through relaxations below `L`).
/// Stage `L`'s IBP intersection, split clamp and relaxation, and every
/// later stage, re-run the *exact* from-scratch loop body, so results are
/// bit-for-bit identical to `parent = None`. Interval propagation depends
/// on the splits alone: it resumes at the first diverging split layer and
/// is taken whole when the split sets are equal. Work performed/avoided
/// is accumulated into `stats`.
#[expect(
    clippy::too_many_arguments,
    reason = "the one engine behind every public bounding entry point; each argument is a \
              setting one of those entry points fixes"
)]
pub(crate) fn compute_bounds_engine(
    net: &CanonicalNetwork,
    region: &InputBox,
    splits: &SplitSet,
    alphas: Option<&AlphaAssignment>,
    mode: RelaxMode,
    parent: Option<&Arc<BoundPrefix>>,
    want_prefix: bool,
    stats: &mut BoundComputeStats,
) -> Option<EngineOutput> {
    let num_layers = net.num_layers();
    // A parent prefix is only sound under the same relaxation mode and
    // when it covers the whole network.
    let parent = parent.filter(|p| p.mode == mode && p.bounds.len() == num_layers);

    let mut bounds: Vec<LayerBounds> = Vec::with_capacity(num_layers);
    let mut relaxations: Vec<Vec<ReluRelaxation>> = Vec::with_capacity(num_layers - 1);
    let mut backsub: Vec<LayerBounds> = Vec::with_capacity(num_layers - 1);
    // The resume stage's own back-substitution, when the parent has it
    // (hidden stages only: the output stage is always recomputed, so
    // `output_lower_coeffs` is rebuilt by the same code path).
    let mut inherited = None;
    let (start, ibp_bounds) = match parent {
        None => (0, Ibp::propagate(net, region, splits)?),
        Some(p) => {
            let split_div = p.splits.first_divergence(splits);
            // Stages below the first split divergence share their bounds
            // with the cached pass; each also shares its relaxations
            // unless a slope differs on a neuron unstable there. The
            // other relaxation fields are functions of the bounds alone.
            let limit = split_div.map_or(num_layers - 1, |d| d.min(num_layers - 1));
            let same_slopes = alphas.is_none() && p.alphas.is_none();
            for (k, b) in p.bounds[..limit].iter().enumerate() {
                let relax = |s: usize, a: Option<&AlphaAssignment>| {
                    relax_neuron(b.lower[s], b.upper[s], a.map(|a| a[k][s]), mode)
                };
                let row: Vec<ReluRelaxation> = (0..b.len()).map(|s| relax(s, alphas)).collect();
                if !same_slopes
                    && row.iter().enumerate().any(|(s, r)| {
                        relax(s, p.alphas.as_ref()).lower_slope.to_bits() != r.lower_slope.to_bits()
                    })
                {
                    break;
                }
                relaxations.push(row);
            }
            let start = relaxations.len();
            if split_div.is_none() && start == num_layers - 1 {
                // Same splits, same relaxations: the cached pass answers
                // the whole query.
                stats.layers_reused += num_layers;
                return Some(EngineOutput {
                    result: BoundsResult {
                        bounds: p.bounds.clone(),
                        output_lower_coeffs: p.output_lower_coeffs.clone(),
                    },
                    prefix: Some(Arc::clone(p)),
                });
            }
            let ibp_bounds = match split_div {
                None => p.ibp.clone(),
                Some(_) => Ibp::propagate_from(net, region, splits, &p.ibp[..limit])?,
            };
            bounds.extend_from_slice(&p.bounds[..start]);
            backsub.extend_from_slice(&p.backsub[..start]);
            inherited = p.backsub.get(start);
            stats.layers_reused += start;
            (start, ibp_bounds)
        }
    };

    // Leased, not allocated: the thread's arena holds every scratch
    // buffer back-substitution needs, sized once per network. The RAII
    // lease also covers the infeasible `return None` below.
    let mut lease = ArenaLease::take();
    let scratch: &mut BoundArena = &mut lease;
    let mut out_low: Option<Matrix> = None;

    for k in start..num_layers {
        let n = net.layers()[k].out_dim();
        let (mut lo, mut hi) = if let Some(b) = inherited.take() {
            stats.layers_reused += 1;
            (b.lower.clone(), b.upper.clone())
        } else {
            stats.layers_recomputed += 1;
            stats.backsub_steps += k;
            back_substitute(net, k, &relaxations, scratch, stats);
            let mut lo = vec![0.0; n];
            let mut hi = vec![0.0; n];
            for s in 0..n {
                lo[s] = concretize_min(scratch.lo_a.row(s), region) + scratch.lo_c[s];
                hi[s] = concretize_max(scratch.hi_a.row(s), region) + scratch.hi_c[s];
            }
            (lo, hi)
        };
        if k + 1 < num_layers {
            backsub.push(LayerBounds::new(lo.clone(), hi.clone()));
        }
        // Intersect with IBP so DeepPoly never reports looser bounds
        // (skipped in the deliberately-loose Planet mode).
        for s in 0..n {
            if mode == RelaxMode::Adaptive {
                lo[s] = lo[s].max(ibp_bounds[k].lower[s]);
                hi[s] = hi[s].min(ibp_bounds[k].upper[s]);
            } else {
                lo[s] = lo[s].max(ibp_bounds[k].lower[s].min(-1e30));
                hi[s] = hi[s].min(ibp_bounds[k].upper[s].max(1e30));
            }
            // Numerical guard: never let the pair invert from round-off.
            if lo[s] > hi[s] && lo[s] - hi[s] < 1e-9 {
                let mid = 0.5 * (lo[s] + hi[s]);
                lo[s] = mid;
                hi[s] = mid;
            }
        }

        if k + 1 < num_layers {
            // Split clamping + infeasibility detection, then relaxations.
            let mut relax = Vec::with_capacity(n);
            for s in 0..n {
                let sign = splits.sign_of(NeuronId::new(k, s));
                let (l, u) = apply_split(lo[s], hi[s], sign);
                if l > u + 1e-12 {
                    return None;
                }
                lo[s] = l;
                hi[s] = u.max(l);
                relax.push(relax_neuron(lo[s], hi[s], alphas.map(|a| a[k][s]), mode));
            }
            relaxations.push(relax);
        } else {
            out_low = Some(scratch.lo_a.clone());
        }
        bounds.push(LayerBounds::new(lo, hi));
    }

    let output_lower_coeffs = out_low.expect("loop always reaches the output stage");
    let prefix = if want_prefix {
        Some(Arc::new(BoundPrefix {
            splits: splits.clone(),
            mode,
            alphas: alphas.cloned(),
            settled_by: None,
            ibp: ibp_bounds,
            bounds: bounds.clone(),
            backsub,
            output_lower_coeffs: output_lower_coeffs.clone(),
        }))
    } else {
        None
    };
    Some(EngineOutput {
        result: BoundsResult {
            bounds,
            output_lower_coeffs,
        },
        prefix,
    })
}

/// The ReLU relaxation over post-clamp bounds `[l, u]`: lower slope
/// `alpha` when overridden, else the mode's slope policy. It is a pure
/// function of the bounds, the override and the mode, which is what lets
/// a [`BoundPrefix`] keep bounds and its slope assignment instead of
/// relaxations.
fn relax_neuron(l: f64, u: f64, alpha: Option<f64>, mode: RelaxMode) -> ReluRelaxation {
    let alpha = match (alpha, mode) {
        (Some(a), _) => a.clamp(0.0, 1.0),
        (None, RelaxMode::Adaptive) => ReluRelaxation::deeppoly_alpha(l, u),
        (None, RelaxMode::Zero) => 0.0,
    };
    ReluRelaxation::with_alpha(l, u, alpha)
}

/// Back-substitutes stage `k`'s pre-activation expressions down to the
/// input: coefficients land in `scratch.lo_a` / `scratch.hi_a`, the
/// constant terms in `scratch.lo_c` / `scratch.hi_c`.
///
/// Each `A ← A·W, c ← c + A·b` step runs as one fused kernel into a swap
/// buffer — no per-step allocation, every buffer living in the leased
/// [`BoundArena`] — with the same per-element summation order as the
/// original dot + matmul formulation.
///
/// Stable-neuron sparsity: neurons whose relaxation is identically zero
/// (slopes and intercept all `0.0`) would only multiply everything by
/// zero, so both the slope substitution and the fused kernel skip them
/// outright (the kernel mask drops the stale coefficient column); neurons
/// with the identity relaxation `(1, 1, 0)` skip the slope substitution
/// only. Under round-to-nearest both skips are bit-for-bit identical to
/// the dense computation: multiplying by `1.0` is exact, and the elided
/// terms are all `±0.0` additions into accumulators that start at `+0.0`
/// and therefore can never hold `-0.0`. As splits deepen, most neurons
/// become stable and the effective substitution width collapses —
/// `stats.backsub_rows_skipped` counts the elided rows.
///
/// Block sparsity: the per-neuron mask is condensed once per step into
/// maximal unmasked column runs, and the fused kernel walks those runs
/// ([`Matrix::fused_affine_into_runs`]), skipping whole masked blocks
/// structurally instead of testing every column; `stats.blocks_skipped`
/// counts the elided gaps.
///
/// Weight sparsity: a step through a stage with a compressed sparse form
/// ([`CanonicalNetwork::sparse_weight`], the lowered convolutions) runs
/// neuron-major. The blocks are transposed once, in the arena's own swap
/// buffers, to one row per neuron with the expression rows as
/// contiguous lanes (zero-padded, [`lane_padded`]); the substitution
/// then works on whole neuron rows, and the fused step gathers each
/// output column from its stored weights only
/// ([`Matrix::fused_affine_csc_into_runs`]). A dense stage switches the
/// blocks back, and so does the end of the pass, since concretisation and
/// `output_lower_coeffs` read row-major rows. Per element every chain
/// keeps its ascending-neuron order, so the bits match the all-dense pass.
fn back_substitute(
    net: &CanonicalNetwork,
    k: usize,
    relaxations: &[Vec<ReluRelaxation>],
    scratch: &mut BoundArena,
    stats: &mut BoundComputeStats,
) {
    let stage = &net.layers()[k];
    let rows = stage.out_dim();
    let lanes = lane_padded(rows);
    // Start in the layout the first step wants.
    let mut neuron_major = k > 0 && net.sparse_weight(k - 1).is_some();
    if neuron_major {
        stage
            .weight
            .transpose_into(stage.in_dim(), lanes, &mut scratch.lo_a);
        scratch.hi_a.copy_from(&scratch.lo_a);
    } else {
        scratch.lo_a.copy_from(&stage.weight);
        scratch.hi_a.copy_from(&stage.weight);
    }
    let width = if neuron_major { lanes } else { rows };
    for c in [&mut scratch.lo_c, &mut scratch.hi_c] {
        c.clear();
        c.extend_from_slice(&stage.bias);
        c.resize(width, 0.0);
    }
    // Only a sparse step sizes the lane accumulator; until then it must
    // not count an earlier lease's lanes in `live_bytes`.
    scratch.lane_acc.clear();

    for j in (0..k).rev() {
        let relax = &relaxations[j];
        scratch.skip.clear();
        scratch.ident.clear();
        let mut stable = 0usize;
        for r in relax {
            let zero = r.lower_slope == 0.0 && r.upper_slope == 0.0 && r.upper_intercept == 0.0;
            let ident = r.lower_slope == 1.0 && r.upper_slope == 1.0 && r.upper_intercept == 0.0;
            scratch.skip.push(zero);
            scratch.ident.push(ident);
            stable += usize::from(zero || ident);
        }
        // One lower and one upper substitution per step; both stable
        // kinds (zero and identity relaxation) elide their substitution
        // row entirely.
        stats.backsub_rows_total += 2 * relax.len();
        stats.backsub_rows_skipped += 2 * stable;
        // Condense the mask into its maximal unmasked runs (shared by the
        // lower and upper kernel calls); the gap count feeds the
        // `blocks_skipped` counter.
        scratch.runs.clear();
        let mut run_start = None;
        for (t, &sk) in scratch.skip.iter().enumerate() {
            match (sk, run_start) {
                (false, None) => run_start = Some(t),
                (true, Some(s)) => {
                    scratch.runs.push((s, t));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = run_start {
            scratch.runs.push((s, scratch.skip.len()));
        }
        let mut gap_blocks = 0usize;
        let mut in_gap = false;
        for &sk in &scratch.skip {
            gap_blocks += usize::from(sk && !in_gap);
            in_gap = sk;
        }
        stats.blocks_skipped += 2 * gap_blocks;
        let prev = &net.layers()[j];
        // Expression over z_j = W_j a_{j-1} + b_j → over a_{j-1}.
        let sparse = net.sparse_weight(j);
        if sparse.is_some() != neuron_major {
            if neuron_major {
                to_row_major(scratch, rows);
            } else {
                to_neuron_major(scratch, lanes);
            }
            neuron_major = !neuron_major;
        }
        let BoundArena {
            lo_a,
            hi_a,
            lo_next,
            hi_next,
            skip,
            ident,
            runs,
            lo_c,
            hi_c,
            lane_acc,
        } = &mut *scratch;
        for (lower, a, c, next) in [(true, lo_a, lo_c, lo_next), (false, hi_a, hi_c, hi_next)] {
            if let Some(weight) = sparse {
                substitute_relu_lanes(a, c, relax, lower, skip, ident, lane_acc);
                a.fused_affine_csc_into_runs(weight, &prev.bias, c, next, runs);
            } else {
                substitute_relu(a, c, relax, lower, skip, ident);
                a.fused_affine_into_runs(&prev.weight, &prev.bias, c, next, runs);
            }
        }
        std::mem::swap(&mut scratch.lo_a, &mut scratch.lo_next);
        std::mem::swap(&mut scratch.hi_a, &mut scratch.hi_next);
        // Length-based footprint after the swaps, when every buffer's
        // logical size is determined by this node's own computation
        // (never by stale contents from a previous lease).
        stats.arena_bytes_peak = stats.arena_bytes_peak.max(scratch.live_bytes());
    }
    if neuron_major {
        to_row_major(scratch, rows);
    }
}

/// Transposes both coefficient blocks from row-major to neuron-major,
/// `lanes` wide, through the swap buffers; the constants gain zero lanes.
fn to_neuron_major(scratch: &mut BoundArena, lanes: usize) {
    let neurons = scratch.lo_a.cols();
    scratch
        .lo_a
        .transpose_into(neurons, lanes, &mut scratch.lo_next);
    scratch
        .hi_a
        .transpose_into(neurons, lanes, &mut scratch.hi_next);
    std::mem::swap(&mut scratch.lo_a, &mut scratch.lo_next);
    std::mem::swap(&mut scratch.hi_a, &mut scratch.hi_next);
    scratch.lo_c.resize(lanes, 0.0);
    scratch.hi_c.resize(lanes, 0.0);
}

/// Transposes both coefficient blocks back to `rows` row-major rows,
/// dropping the padding lanes.
fn to_row_major(scratch: &mut BoundArena, rows: usize) {
    let neurons = scratch.lo_a.rows();
    scratch
        .lo_a
        .transpose_into(rows, neurons, &mut scratch.lo_next);
    scratch
        .hi_a
        .transpose_into(rows, neurons, &mut scratch.hi_next);
    std::mem::swap(&mut scratch.lo_a, &mut scratch.lo_next);
    std::mem::swap(&mut scratch.hi_a, &mut scratch.hi_next);
    scratch.lo_c.truncate(rows);
    scratch.hi_c.truncate(rows);
}

/// Replaces coefficients over post-activations `a_j` with coefficients
/// over pre-activations `z_j`, using the sound side of each relaxation.
///
/// For a *lower* bound expression, positive coefficients take the ReLU's
/// lower linear bound and negative ones its upper bound (and vice versa
/// for an upper bound expression). Neurons flagged in `skip` (zero
/// relaxation; their stale coefficients are masked out of the following
/// fused kernel) or `ident` (identity relaxation) are passed over — see
/// [`back_substitute`] for why this is bit-exact.
fn substitute_relu(
    a: &mut Matrix,
    c: &mut [f64],
    relax: &[ReluRelaxation],
    lower: bool,
    skip: &[bool],
    ident: &[bool],
) {
    for (s, cs) in c.iter_mut().enumerate() {
        let row = a.row_mut(s);
        let mut const_add = 0.0;
        for (t, (coeff, r)) in row.iter_mut().zip(relax).enumerate() {
            if skip[t] || ident[t] {
                continue;
            }
            let take_lower = (*coeff >= 0.0) == lower;
            if take_lower {
                *coeff *= r.lower_slope;
            } else {
                const_add += *coeff * r.upper_intercept;
                *coeff *= r.upper_slope;
            }
        }
        *cs += const_add;
    }
}

/// Neuron-major [`substitute_relu`]: row `t` of `a` holds neuron `t`'s
/// coefficient in every expression lane, so a relaxation applies to the
/// whole row at once, branch-free. `acc` builds each lane's intercept
/// chain in ascending neuron order, as the row-major loop does per row;
/// a lane taking the lower side adds `x·0.0 = ±0.0` to that
/// `+0.0`-seeded chain, which leaves it unchanged.
fn substitute_relu_lanes(
    a: &mut Matrix,
    c: &mut [f64],
    relax: &[ReluRelaxation],
    lower: bool,
    skip: &[bool],
    ident: &[bool],
    acc: &mut Vec<f64>,
) {
    acc.clear();
    acc.resize(c.len(), 0.0);
    for (t, r) in relax.iter().enumerate() {
        if skip[t] || ident[t] {
            continue;
        }
        for (coeff, add) in a.row_mut(t).iter_mut().zip(acc.iter_mut()) {
            let x = *coeff;
            let take_lower = (x >= 0.0) == lower;
            let (slope, intercept) = if take_lower {
                (r.lower_slope, 0.0)
            } else {
                (r.upper_slope, r.upper_intercept)
            };
            *add += x * intercept;
            *coeff = x * slope;
        }
    }
    for (cs, &add) in c.iter_mut().zip(acc.iter()) {
        *cs += add;
    }
}

/// Minimum of `coeffs · x` over the box.
fn concretize_min(coeffs: &[f64], region: &InputBox) -> f64 {
    coeffs
        .iter()
        .zip(region.lo().iter().zip(region.hi()))
        .map(|(&w, (&l, &h))| if w >= 0.0 { w * l } else { w * h })
        .sum()
}

/// Maximum of `coeffs · x` over the box.
fn concretize_max(coeffs: &[f64], region: &InputBox) -> f64 {
    coeffs
        .iter()
        .zip(region.lo().iter().zip(region.hi()))
        .map(|(&w, (&l, &h))| if w >= 0.0 { w * h } else { w * l })
        .sum()
}

/// Extracts the candidate counterexample: the box corner minimising the
/// linear lower bound of the most-violated output row.
pub(crate) fn candidate_from(result: &BoundsResult, region: &InputBox) -> Option<Vec<f64>> {
    let out = result.bounds.last()?;
    let (worst_row, _) = out
        .lower
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("bounds are not NaN"))?;
    let coeffs = result.output_lower_coeffs.row(worst_row);
    Some(
        coeffs
            .iter()
            .zip(region.lo().iter().zip(region.hi()))
            .map(|(&w, (&l, &h))| if w >= 0.0 { l } else { h })
            .collect(),
    )
}

/// The DeepPoly verifier: linear relaxation with the adaptive lower slope
/// (or, in [`DeepPoly::planet`] mode, the looser Planet-style relaxation).
///
/// See the [crate-level docs](crate) for an example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeepPoly {
    mode: RelaxMode,
}

impl Default for DeepPoly {
    fn default() -> Self {
        Self::new()
    }
}

impl DeepPoly {
    /// Creates a DeepPoly verifier (adaptive slopes, IBP-intersected).
    #[must_use]
    pub fn new() -> Self {
        Self {
            mode: RelaxMode::Adaptive,
        }
    }

    /// Creates the deliberately looser Planet-style variant: zero lower
    /// slopes and no interval intersection. Still sound, but with the
    /// larger over-approximation (and hence the larger BaB trees) typical
    /// of earlier-generation verifiers.
    #[must_use]
    pub fn planet() -> Self {
        Self {
            mode: RelaxMode::Zero,
        }
    }

    /// Shared implementation behind [`AppVer::analyze`] and
    /// [`AppVer::analyze_cached`]: one engine call, so both entry points
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
        let Some(out) = compute_bounds_engine(
            net,
            region,
            splits,
            None,
            self.mode,
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
        let result = out.result;
        let last = result.bounds.last().expect("non-empty");
        let p_hat = last.lower.iter().cloned().fold(f64::INFINITY, f64::min);
        let candidate = (p_hat < 0.0)
            .then(|| candidate_from(&result, region))
            .flatten();
        CachedAnalysis {
            analysis: Analysis {
                p_hat,
                candidate,
                bounds: result.bounds,
                infeasible: false,
            },
            prefix: out.prefix,
            stats,
        }
    }
}

impl AppVer for DeepPoly {
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
        "DeepPoly"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SplitSign;
    use abonn_nn::AffinePair;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// z1 = (x, -x), a = relu(z1), y = a0 + a1 - 0.6 over x in [-1, 1].
    /// The true minimum of y is -0.6 (at x = 0); DeepPoly's relaxation
    /// proves a bound in [-0.6 - slack, -0.6].
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

    #[test]
    fn deeppoly_tightens_over_ibp_on_v_example() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let dp = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
        let ibp = Ibp::new().analyze(&net, &region, &SplitSet::new());
        assert!(dp.p_hat >= ibp.p_hat - 1e-12);
        // DeepPoly cannot prove more than the true minimum −0.6.
        assert!(dp.p_hat <= -0.6 + 1e-9);
    }

    #[test]
    fn splitting_both_branches_verifies_nothing_but_tightens() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        // Pos split on neuron 0 (x >= 0) makes both neurons stable:
        // z0 = x in [0,1] active, z1 = -x in [-1, 0] inactive → y = x - 0.6
        // with exact bounds [-0.6, 0.4].
        let splits = SplitSet::new().with(NeuronId::new(0, 0), SplitSign::Pos);
        let a = DeepPoly::new().analyze(&net, &region, &splits);
        assert!((a.p_hat + 0.6).abs() < 1e-9, "p_hat = {}", a.p_hat);
    }

    #[test]
    fn candidate_minimises_relaxed_output() {
        let net = v_net();
        let region = InputBox::new(vec![-1.0], vec![1.0]);
        let a = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
        let cand = a.candidate.expect("negative p_hat gives candidate");
        assert!(region.contains(&cand, 1e-12));
    }

    #[test]
    fn verified_region_has_no_candidate() {
        // y = relu(x) + 1 > 0 always.
        let net = CanonicalNetwork::from_affine_pairs(
            1,
            vec![
                AffinePair::new(Matrix::identity(1), vec![0.0]),
                AffinePair::new(Matrix::identity(1), vec![1.0]),
            ],
        );
        let a = DeepPoly::new().analyze(
            &net,
            &InputBox::new(vec![-1.0], vec![1.0]),
            &SplitSet::new(),
        );
        assert!(a.p_hat > 0.0);
        assert!(a.candidate.is_none());
        assert!(a.verified());
    }

    #[test]
    fn soundness_on_random_networks() {
        for seed in 0..5 {
            let net = random_net(seed, &[3, 6, 5, 2]);
            let region = InputBox::new(vec![-0.5; 3], vec![0.5; 3]);
            let a = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
            let mut rng = SmallRng::seed_from_u64(seed + 100);
            for _ in 0..50 {
                let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-0.5..0.5)).collect();
                let zs = net.preactivations(&x);
                for (lb, z) in a.bounds.iter().zip(&zs) {
                    for (i, &zi) in z.iter().enumerate() {
                        assert!(
                            zi >= lb.lower[i] - 1e-7 && zi <= lb.upper[i] + 1e-7,
                            "seed {seed}: z = {zi} outside [{}, {}]",
                            lb.lower[i],
                            lb.upper[i]
                        );
                    }
                }
                let y = net.forward(&x);
                let min_y = y.iter().cloned().fold(f64::INFINITY, f64::min);
                assert!(
                    a.p_hat <= min_y + 1e-7,
                    "p_hat {} above margin {min_y}",
                    a.p_hat
                );
            }
        }
    }

    #[test]
    fn deeppoly_dominates_ibp_on_random_networks() {
        for seed in 10..16 {
            let net = random_net(seed, &[4, 8, 8, 3]);
            let region = InputBox::new(vec![-0.3; 4], vec![0.3; 4]);
            let dp = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
            let ibp = Ibp::new().analyze(&net, &region, &SplitSet::new());
            assert!(dp.p_hat >= ibp.p_hat - 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn split_children_bounds_within_parent() {
        let net = random_net(42, &[3, 6, 4, 2]);
        let region = InputBox::new(vec![-0.5; 3], vec![0.5; 3]);
        let root = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
        let unstable = root.unstable_neurons(&SplitSet::new());
        assert!(!unstable.is_empty(), "need an unstable neuron for the test");
        let n = unstable[0];
        for sign in [SplitSign::Pos, SplitSign::Neg] {
            let child = DeepPoly::new().analyze(&net, &region, &SplitSet::new().with(n, sign));
            if !child.infeasible {
                // Splitting only adds constraints, so the child's bound can
                // only improve (increase).
                assert!(child.p_hat >= root.p_hat - 1e-9);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// p̂ must lower-bound the concrete margin for random nets, boxes,
        /// and sampled points.
        #[test]
        fn p_hat_is_a_sound_lower_bound(
            seed in 0u64..200,
            half_width in 0.05..0.6_f64,
        ) {
            let net = random_net(seed, &[3, 5, 4, 2]);
            let region = InputBox::new(vec![-half_width; 3], vec![half_width; 3]);
            let a = DeepPoly::new().analyze(&net, &region, &SplitSet::new());
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xFFFF);
            for _ in 0..20 {
                let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-half_width..half_width)).collect();
                let y = net.forward(&x);
                let min_y = y.iter().cloned().fold(f64::INFINITY, f64::min);
                prop_assert!(a.p_hat <= min_y + 1e-7);
            }
        }
    }
}

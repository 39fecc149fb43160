//! Shared types of the verifier substrate.

use abonn_nn::CanonicalNetwork;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An axis-aligned input region `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct InputBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl InputBox {
    /// Creates a box.
    ///
    /// # Panics
    ///
    /// Panics if the bound vectors differ in length or `lo[i] > hi[i]` for
    /// some `i`.
    #[must_use]
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "InputBox::new: length mismatch");
        for (i, (l, h)) in lo.iter().zip(&hi).enumerate() {
            assert!(l <= h, "InputBox::new: lo[{i}] = {l} > hi[{i}] = {h}");
        }
        Self { lo, hi }
    }

    /// The L∞ ball of radius `eps` around `center`, clamped to `[min, max]`.
    #[must_use]
    pub fn linf_ball(center: &[f64], eps: f64, min: f64, max: f64) -> Self {
        let lo = center.iter().map(|&v| (v - eps).max(min)).collect();
        let hi = center.iter().map(|&v| (v + eps).min(max)).collect();
        Self::new(lo, hi)
    }

    /// Dimensionality of the box.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[must_use]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[must_use]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Component-wise midpoint.
    #[must_use]
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| 0.5 * (l + h))
            .collect()
    }

    /// Returns `true` if `x` lies inside the box (within `tol`).
    #[must_use]
    pub fn contains(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.dim()
            && x.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(&v, (&l, &h))| v >= l - tol && v <= h + tol)
    }
}

/// Which half-space a ReLU split pins the pre-activation to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SplitSign {
    /// `r⁺`: the ReLU input is constrained nonnegative (active phase).
    Pos,
    /// `r⁻`: the ReLU input is constrained nonpositive (inactive phase).
    Neg,
}

impl SplitSign {
    /// The opposite sign.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            SplitSign::Pos => SplitSign::Neg,
            SplitSign::Neg => SplitSign::Pos,
        }
    }
}

impl fmt::Display for SplitSign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitSign::Pos => f.write_str("+"),
            SplitSign::Neg => f.write_str("-"),
        }
    }
}

/// Identifies one ReLU neuron: affine stage `layer` (0-based), coordinate
/// `index` of that stage's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NeuronId {
    /// Affine stage index in the canonical network.
    pub layer: usize,
    /// Neuron index within the stage output.
    pub index: usize,
}

impl NeuronId {
    /// Creates a neuron id.
    #[must_use]
    pub fn new(layer: usize, index: usize) -> Self {
        Self { layer, index }
    }
}

impl fmt::Display for NeuronId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r[{}:{}]", self.layer, self.index)
    }
}

/// The sequence `Γ` of ReLU split constraints identifying a BaB
/// sub-problem.
///
/// Internally a map, so a neuron can carry at most one sign; adding the
/// opposite sign for an already-split neuron marks the set contradictory.
///
/// # Examples
///
/// ```
/// use abonn_bound::{NeuronId, SplitSet, SplitSign};
///
/// let root = SplitSet::new();
/// let child = root.with(NeuronId::new(0, 3), SplitSign::Pos);
/// assert_eq!(child.len(), 1);
/// assert_eq!(child.sign_of(NeuronId::new(0, 3)), Some(SplitSign::Pos));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SplitSet {
    splits: BTreeMap<(usize, usize), SplitSign>,
    contradictory: bool,
}

impl SplitSet {
    /// The empty split set (the root problem `ε`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of split constraints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.splits.len()
    }

    /// Returns `true` for the root (unsplit) problem.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.splits.is_empty()
    }

    /// Returns `true` if opposite signs were requested for one neuron.
    #[must_use]
    pub fn is_contradictory(&self) -> bool {
        self.contradictory
    }

    /// The sign assigned to `neuron`, if any.
    #[must_use]
    pub fn sign_of(&self, neuron: NeuronId) -> Option<SplitSign> {
        self.splits.get(&(neuron.layer, neuron.index)).copied()
    }

    /// Returns the split set extended with `neuron → sign`.
    #[must_use]
    pub fn with(&self, neuron: NeuronId, sign: SplitSign) -> Self {
        let mut next = self.clone();
        let key = (neuron.layer, neuron.index);
        match next.splits.insert(key, sign) {
            Some(prev) if prev != sign => next.contradictory = true,
            _ => {}
        }
        next
    }

    /// Iterates over `(neuron, sign)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (NeuronId, SplitSign)> + '_ {
        self.splits
            .iter()
            .map(|(&(layer, index), &sign)| (NeuronId { layer, index }, sign))
    }

    /// The smallest layer on which the two split sets disagree (a
    /// constraint present in one but not the other, or with a different
    /// sign), or `None` when the constraint maps are identical.
    ///
    /// This is the incremental-bounding invalidation point: bounds and
    /// relaxations of layers strictly below the first divergence are
    /// unaffected by the difference and can be reused, and so is the
    /// divergence layer's back-substitution, which passes only through
    /// those relaxations. Both maps are ordered by `(layer, index)`, so a
    /// single merge-join suffices and the first mismatch found already has
    /// the minimal layer.
    #[must_use]
    pub fn first_divergence(&self, other: &SplitSet) -> Option<usize> {
        let mut a = self.splits.iter();
        let mut b = other.splits.iter();
        let (mut x, mut y) = (a.next(), b.next());
        loop {
            match (x, y) {
                (None, None) => return None,
                (Some((&(layer, _), _)), None) | (None, Some((&(layer, _), _))) => {
                    return Some(layer)
                }
                (Some((ka, sa)), Some((kb, sb))) => {
                    if ka == kb && sa == sb {
                        x = a.next();
                        y = b.next();
                    } else {
                        return Some(ka.0.min(kb.0));
                    }
                }
            }
        }
    }
}

/// Concrete pre-activation bounds of one affine stage.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerBounds {
    /// Per-neuron lower bounds.
    pub lower: Vec<f64>,
    /// Per-neuron upper bounds.
    pub upper: Vec<f64>,
}

impl LayerBounds {
    /// Creates layer bounds.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    #[must_use]
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "LayerBounds: length mismatch");
        Self { lower, upper }
    }

    /// Number of neurons.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// Returns `true` when the layer has no neurons.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// Returns `true` if some neuron's interval is empty (`l > u`), i.e.
    /// the split constraints are unsatisfiable on this region.
    #[must_use]
    pub fn infeasible(&self, tol: f64) -> bool {
        self.lower
            .iter()
            .zip(&self.upper)
            .any(|(l, u)| *l > *u + tol)
    }
}

/// Result of applying an approximated verifier to a sub-problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// The paper's `p̂`: the minimum proved lower bound over the margin
    /// outputs. Positive ⟹ the sub-problem is verified.
    pub p_hat: f64,
    /// Candidate counterexample `x̂` (the relaxation's most-violating
    /// input). Present whenever `p_hat < 0` and the region is feasible.
    pub candidate: Option<Vec<f64>>,
    /// Pre-activation bounds of every affine stage (last = output).
    pub bounds: Vec<LayerBounds>,
    /// `true` when the split constraints are unsatisfiable over the box;
    /// the sub-problem is then vacuously verified.
    pub infeasible: bool,
}

impl Analysis {
    /// An analysis marking the region infeasible (vacuously verified).
    #[must_use]
    pub fn infeasible() -> Self {
        Self {
            p_hat: f64::INFINITY,
            candidate: None,
            bounds: Vec::new(),
            infeasible: true,
        }
    }

    /// Returns `true` if the sub-problem is proved to satisfy the spec.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.infeasible || self.p_hat > 0.0
    }

    /// ReLU neurons that are unstable (bounds straddle zero) and not yet
    /// split — the branching candidates of this sub-problem.
    #[must_use]
    pub fn unstable_neurons(&self, splits: &SplitSet) -> Vec<NeuronId> {
        let mut out = Vec::new();
        if self.bounds.is_empty() {
            return out;
        }
        for (layer, lb) in self.bounds[..self.bounds.len() - 1].iter().enumerate() {
            for (index, (l, u)) in lb.lower.iter().zip(&lb.upper).enumerate() {
                let id = NeuronId::new(layer, index);
                if *l < 0.0 && *u > 0.0 && splits.sign_of(id).is_none() {
                    out.push(id);
                }
            }
        }
        out
    }
}

/// An approximated verifier: the `AppVer` of the paper's Algorithm 1.
///
/// Implementations must be *sound*: if the returned `p_hat` is positive,
/// every input in `region` satisfying the split constraints yields only
/// positive outputs of `net`.
pub trait AppVer: Send + Sync {
    /// Analyzes `net` (in margin form) over `region` under `splits`.
    fn analyze(&self, net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Analysis;

    /// Like [`analyze`](Self::analyze), but may reuse a `parent` bound
    /// prefix to skip recomputing layers below the first diverging split,
    /// and returns a prefix for this node's own children.
    ///
    /// The contained analysis must be **bit-for-bit identical** to what
    /// `analyze` returns for the same `(net, region, splits)` — caching
    /// may only change how much work is done, never the result. The
    /// default implementation ignores `parent` and computes from scratch.
    fn analyze_cached(
        &self,
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        parent: Option<&std::sync::Arc<crate::cache::BoundPrefix>>,
    ) -> crate::cache::CachedAnalysis {
        let _ = parent;
        crate::cache::CachedAnalysis::scratch(self.analyze(net, region, splits))
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Bounds every node from scratch: forwards only
/// [`analyze`](AppVer::analyze) and [`name`](AppVer::name) to the wrapped
/// verifier, so the trait's default
/// [`analyze_cached`](AppVer::analyze_cached) ignores parent prefixes and
/// reports zero work counters.
///
/// This is the reference incremental bounding is tested against: a search
/// over `FromScratch(v)` must reach the same verdicts, witnesses,
/// certificates and search counters as one over `v`.
#[derive(Debug, Clone)]
pub struct FromScratch<V>(pub V);

impl<V: AppVer> AppVer for FromScratch<V> {
    fn analyze(&self, net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Analysis {
        self.0.analyze(net, region, splits)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linf_ball_clamps_to_valid_range() {
        let b = InputBox::linf_ball(&[0.05, 0.95], 0.1, 0.0, 1.0);
        for (got, want) in b.lo().iter().zip(&[0.0, 0.85]) {
            assert!((got - want).abs() < 1e-12);
        }
        for (got, want) in b.hi().iter().zip(&[0.15, 1.0]) {
            assert!((got - want).abs() < 1e-12);
        }
        assert!(b.contains(&[0.1, 0.9], 0.0));
        assert!(!b.contains(&[0.5, 0.9], 0.0));
    }

    #[test]
    #[should_panic(expected = "lo[0]")]
    fn inverted_box_panics() {
        let _ = InputBox::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn split_set_tracks_signs_and_contradictions() {
        let n = NeuronId::new(1, 2);
        let s = SplitSet::new().with(n, SplitSign::Pos);
        assert_eq!(s.sign_of(n), Some(SplitSign::Pos));
        assert!(!s.is_contradictory());
        let bad = s.with(n, SplitSign::Neg);
        assert!(bad.is_contradictory());
        let same = s.with(n, SplitSign::Pos);
        assert!(!same.is_contradictory());
        assert_eq!(same.len(), 1);
    }

    #[test]
    fn split_iteration_is_deterministic() {
        let s = SplitSet::new()
            .with(NeuronId::new(1, 0), SplitSign::Neg)
            .with(NeuronId::new(0, 5), SplitSign::Pos);
        let order: Vec<_> = s.iter().map(|(n, _)| (n.layer, n.index)).collect();
        assert_eq!(order, vec![(0, 5), (1, 0)]);
    }

    #[test]
    fn layer_bounds_detect_infeasibility() {
        let lb = LayerBounds::new(vec![0.5], vec![0.2]);
        assert!(lb.infeasible(1e-9));
        let ok = LayerBounds::new(vec![0.1], vec![0.2]);
        assert!(!ok.infeasible(1e-9));
    }

    #[test]
    fn unstable_neurons_excludes_split_and_stable() {
        let analysis = Analysis {
            p_hat: -1.0,
            candidate: None,
            bounds: vec![
                LayerBounds::new(vec![-1.0, 0.1, -2.0], vec![1.0, 0.5, 3.0]),
                LayerBounds::new(vec![-1.0], vec![1.0]), // output layer: ignored
            ],
            infeasible: false,
        };
        let splits = SplitSet::new().with(NeuronId::new(0, 2), SplitSign::Pos);
        let unstable = analysis.unstable_neurons(&splits);
        assert_eq!(unstable, vec![NeuronId::new(0, 0)]);
    }

    #[test]
    fn sign_display_and_flip() {
        assert_eq!(SplitSign::Pos.to_string(), "+");
        assert_eq!(SplitSign::Pos.flipped(), SplitSign::Neg);
        assert_eq!(SplitSign::Neg.flipped(), SplitSign::Pos);
    }
}

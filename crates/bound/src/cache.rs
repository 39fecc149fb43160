//! Parent-prefix bound caching for incremental back-substitution.
//!
//! A BaB child differs from its parent by exactly one additional ReLU
//! split at some layer `L`. Pre-activation bounds and ReLU relaxations of
//! layers strictly below `L` are a pure function of the network, the input
//! region, the splits on layers `< L` and the lower slopes of the neurons
//! unstable there — all shared with the parent when both ran under the
//! same slopes — so they are served from the parent's [`BoundPrefix`]. So
//! is layer `L`'s back-substitution: its concretised bounds pass only
//! through the relaxations below `L`. The child redoes only layer `L`'s
//! IBP intersection, split clamp and relaxation under its own splits,
//! then back-substitutes layers `L+1..K`. Every recomputed step runs the
//! exact code path of a from-scratch pass (same kernels, same per-element
//! summation order), so cached and uncached results are bit-for-bit
//! identical.
//!
//! The same rule serves α-CROWN's slope passes, which share their splits
//! and differ in slopes: a pass whose slopes first differ from the cached
//! pass's at layer `L`, on a neuron unstable there, resumes at `L`.
//!
//! The prefix stores no relaxations. A relaxation is a pure function of
//! its post-clamp bounds, its lower slope and the relaxation mode, so the
//! query rebuilds the shared ones from the prefix's `bounds` with the
//! helper the loop uses.

use crate::alpha::AlphaCrown;
use crate::deeppoly::{AlphaAssignment, RelaxMode};
use crate::types::{Analysis, LayerBounds, SplitSet};
use std::sync::Arc;

/// Everything a full bound computation produced, keyed by the split set
/// and the slope assignment it was computed under. Handed from parent to
/// child as an `Arc`; opaque outside `abonn-bound`.
#[derive(Debug, Clone)]
pub struct BoundPrefix {
    /// The split set the cached pass ran under.
    pub(crate) splits: SplitSet,
    /// Relaxation mode; a prefix is only reusable under the same mode.
    pub(crate) mode: RelaxMode,
    /// Lower slopes the cached pass ran under; `None` for the mode's own.
    pub(crate) alphas: Option<AlphaAssignment>,
    /// The α-CROWN configuration whose whole analysis of `splits` this
    /// prefix holds (its best pass): that configuration answers the same
    /// split set again from it without a pass.
    pub(crate) settled_by: Option<AlphaCrown>,
    /// Post-clamp interval-propagation bounds per stage.
    pub(crate) ibp: Vec<LayerBounds>,
    /// Post-clamp back-substituted bounds per stage; the shared stages'
    /// ReLU relaxations are rebuilt from these.
    pub(crate) bounds: Vec<LayerBounds>,
    /// Concretised back-substitution bounds per hidden stage, before the
    /// IBP intersection and split clamp. A query resuming at stage `L`
    /// takes stage `L`'s entry as is.
    pub(crate) backsub: Vec<LayerBounds>,
    /// The candidate counterexample of the cached pass (see
    /// `BoundsResult::candidate`).
    pub(crate) candidate: Option<Vec<f64>>,
}

/// Machine-independent work counters for one or more bound computations.
///
/// All fields count *calls/steps*, never wall time, so they are identical
/// across thread counts and machines (see DESIGN.md §5b/§5c).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundComputeStats {
    /// Layers whose back-substitution was served from a prefix: every
    /// layer below the resume layer `L` (the first diverging split or
    /// slope), plus `L` itself (only its intersection, clamp and
    /// relaxation are redone).
    pub layers_reused: usize,
    /// Layers back-substituted in this call: from the root, every layer;
    /// from a prefix, layers `L+1..K`.
    pub layers_recomputed: usize,
    /// Total back-substitution layer-steps executed (recomputing stage `k`
    /// costs `k` steps); the paper-level cost model for bounding work.
    pub backsub_steps: usize,
    /// Simplex basis changes across all LP solves (phases 1 + 2; bound
    /// flips excluded).
    pub lp_pivots: usize,
    /// LP solves, each from the two-phase cold start (one per output row
    /// the LP verifier has to bound).
    pub lp_cold_solves: usize,
    /// Back-substitution rows skipped because the neuron's relaxation was
    /// identically zero (naturally inactive or split-fixed inactive).
    pub backsub_rows_skipped: usize,
    /// Total back-substitution rows considered (denominator for the
    /// skipped-row ratio).
    pub backsub_rows_total: usize,
    /// Contiguous masked column blocks elided structurally by the
    /// block-sparse fused kernel (one count per gap per kernel call).
    pub blocks_skipped: usize,
    /// Peak logical footprint of the back-substitution scratch arena in
    /// bytes (length-based, so identical whether the arena is fresh or
    /// recycled). Combined by maximum, not sum.
    pub arena_bytes_peak: usize,
    /// Simplex basis-update cell writes across all LP solves — the
    /// per-pivot work metric the revised simplex reduces.
    pub lp_pivot_cells: usize,
}

impl BoundComputeStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &BoundComputeStats) {
        self.layers_reused += other.layers_reused;
        self.layers_recomputed += other.layers_recomputed;
        self.backsub_steps += other.backsub_steps;
        self.lp_pivots += other.lp_pivots;
        self.lp_cold_solves += other.lp_cold_solves;
        self.backsub_rows_skipped += other.backsub_rows_skipped;
        self.backsub_rows_total += other.backsub_rows_total;
        self.blocks_skipped += other.blocks_skipped;
        self.arena_bytes_peak = self.arena_bytes_peak.max(other.arena_bytes_peak);
        self.lp_pivot_cells += other.lp_pivot_cells;
    }
}

/// Result of [`AppVer::analyze_cached`](crate::AppVer::analyze_cached):
/// the analysis plus, when the verifier supports it, a reusable bound
/// prefix for this node's children and the work counters of the call.
#[derive(Debug, Clone)]
pub struct CachedAnalysis {
    /// The analysis, bit-for-bit identical to what
    /// [`analyze`](crate::AppVer::analyze) returns for the same inputs.
    pub analysis: Analysis,
    /// Cache handle to thread into child expansions, when available.
    pub prefix: Option<Arc<BoundPrefix>>,
    /// Work performed by this call.
    pub stats: BoundComputeStats,
}

impl CachedAnalysis {
    /// Wraps a plain analysis with no cache handle and zero counters —
    /// the default for verifiers without incremental support.
    #[must_use]
    pub fn scratch(analysis: Analysis) -> Self {
        Self {
            analysis,
            prefix: None,
            stats: BoundComputeStats::default(),
        }
    }
}

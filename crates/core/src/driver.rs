//! Shared verification-driver machinery: verdicts, budgets, statistics,
//! and the [`Verifier`] trait all three approaches implement.

use crate::certificate::Certificate;
use crate::spec::RobustnessProblem;
use abonn_attack::Pgd;
use abonn_bound::{Analysis, AppVer, BoundComputeStats, LpVerifier, SplitSet};
use std::time::{Duration, Instant};

/// Outcome of a verification run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The specification holds on the whole region.
    Verified,
    /// A concrete counterexample was found (carried as the witness).
    Falsified(Vec<f64>),
    /// The budget ran out before a conclusion.
    Timeout,
}

impl Verdict {
    /// Returns `true` for [`Verdict::Verified`] or [`Verdict::Falsified`].
    #[must_use]
    pub fn is_solved(&self) -> bool {
        !matches!(self, Verdict::Timeout)
    }

    /// The counterexample carried by a [`Verdict::Falsified`] verdict.
    #[must_use]
    pub fn witness(&self) -> Option<&[f64]> {
        match self {
            Verdict::Falsified(w) => Some(w),
            Verdict::Verified | Verdict::Timeout => None,
        }
    }
}

/// Resource budget for a run.
///
/// The primary, machine-independent budget is the number of `AppVer`
/// calls — each call is the "expensive process of problem solving" the
/// paper counts; the optional wall-clock limit mirrors the paper's 1000 s
/// timeout for real-time measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Maximum number of approximated-verifier calls.
    pub max_appver_calls: usize,
    /// Optional wall-clock limit.
    pub wall_limit: Option<Duration>,
}

impl Budget {
    /// Budget capped at `n` verifier calls (no wall-clock limit).
    #[must_use]
    pub fn with_appver_calls(n: usize) -> Self {
        Self {
            max_appver_calls: n,
            wall_limit: None,
        }
    }

    /// Adds a wall-clock limit to the budget.
    #[must_use]
    pub fn and_wall_limit(mut self, limit: Duration) -> Self {
        self.wall_limit = Some(limit);
        self
    }

    /// Admission control: caps the call budget at `cap`, reporting
    /// whether the request was actually reduced.
    ///
    /// Services accepting client-chosen budgets clamp them with this so
    /// one query cannot monopolise the engine; because the cap is
    /// call-based (never wall-based) the admitted budget — and therefore
    /// the verdict and every counter — stays machine-independent.
    #[must_use]
    pub fn clamped_to(mut self, cap: usize) -> (Self, bool) {
        let clamped = self.max_appver_calls > cap;
        if clamped {
            self.max_appver_calls = cap;
        }
        (self, clamped)
    }

    /// Input-order budget slicing for a wave of concurrently admitted
    /// queries: position `i` of the result is the admitted budget (and
    /// clamp flag) for the `i`-th requested call count, each capped at
    /// `cap` independently.
    ///
    /// The slices are a pure function of each request alone — never of
    /// the wave's size or composition — which is the load-bearing
    /// property for a scheduler that must answer identically however the
    /// request stream happens to be chopped into waves: slicing a wave
    /// equals concatenating the slicings of any partition of it, so the
    /// admitted budgets (and therefore verdicts and counters) match a
    /// one-query-at-a-time daemon byte for byte.
    #[must_use]
    pub fn admit_slices(requested: &[usize], cap: usize) -> Vec<(Self, bool)> {
        requested
            .iter()
            .map(|&calls| Self::with_appver_calls(calls).clamped_to(cap))
            .collect()
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::with_appver_calls(2_000)
    }
}

/// Counters describing how a run spent its budget.
///
/// The bound-work counters (`cache_layers_reused` through
/// `lp_pivot_cells`) are call-based and accumulated in the deterministic
/// consumption order of each search, so like every other field they are
/// identical across thread counts and machines. They live only in this
/// in-memory struct: persisted bench reports keep the search counters
/// alone, so the report bytes do not move when bounding gets cheaper.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Approximated-verifier invocations (the paper's cost unit).
    pub appver_calls: usize,
    /// Sub-problems whose analysis was inspected (tree nodes visited).
    pub nodes_visited: usize,
    /// Total BaB tree size at termination (Fig. 3's metric).
    pub tree_size: usize,
    /// Deepest split sequence reached.
    pub max_depth: usize,
    /// Bound-propagation layers served from a parent's cached prefix:
    /// the layers below each child's split layer, plus the split layer
    /// itself, whose back-substitution is inherited.
    pub cache_layers_reused: usize,
    /// Bound-propagation layers back-substituted: those after each
    /// child's split layer, or every layer when there is no parent prefix.
    pub cache_layers_recomputed: usize,
    /// Back-substitution layer-steps executed (stage `k` costs `k` steps).
    pub backsub_steps: usize,
    /// Simplex pivots across all LP solves (phases 1 + 2).
    pub lp_pivots: usize,
    /// Always 0: every LP is solved cold. Kept only because the end-to-end
    /// benchmark (`perfbench/`) reads it; it can go with the next change
    /// to the benchmark.
    pub lp_warm_hits: usize,
    /// LP solves, each from the two-phase cold start.
    pub lp_cold_solves: usize,
    /// Back-substitution rows skipped via stable-neuron sparsity.
    pub backsub_rows_skipped: usize,
    /// Total back-substitution rows considered (skip-ratio denominator).
    pub backsub_rows_total: usize,
    /// Contiguous masked column blocks elided structurally by the
    /// block-sparse back-substitution kernels (substrate-invariant).
    pub blocks_skipped: usize,
    /// Peak logical footprint of the back-substitution scratch arena in
    /// bytes (length-based, so identical whether the arena is fresh or
    /// recycled).
    pub arena_bytes_peak: usize,
    /// Simplex basis-update cell writes across all LP solves — the
    /// per-pivot work metric the revised simplex reduces.
    pub lp_pivot_cells: usize,
    /// Measured wall time.
    pub wall: Duration,
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} AppVer calls, {} nodes visited, tree size {}, depth {}, \
             {} backsub steps ({} layers reused / {} recomputed, \
             {}/{} rows skipped, {} blocks elided, arena peak {} B), \
             {} LP pivots ({} cells, {} solves), \
             {:.3}s",
            self.appver_calls,
            self.nodes_visited,
            self.tree_size,
            self.max_depth,
            self.backsub_steps,
            self.cache_layers_reused,
            self.cache_layers_recomputed,
            self.backsub_rows_skipped,
            self.backsub_rows_total,
            self.blocks_skipped,
            self.arena_bytes_peak,
            self.lp_pivots,
            self.lp_pivot_cells,
            self.lp_cold_solves,
            self.wall.as_secs_f64()
        )
    }
}

/// Verdict, statistics and proof.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The verification outcome.
    pub verdict: Verdict,
    /// Budget usage counters.
    pub stats: RunStats,
    /// The branch tree the run built: complete on [`Verdict::Verified`],
    /// partial (with [`ProofNode::Open`](crate::ProofNode::Open)
    /// obligations covering what was left unexplored) on
    /// [`Verdict::Timeout`], and `None` on [`Verdict::Falsified`], whose
    /// witness is the evidence.
    pub certificate: Option<Certificate>,
}

/// A complete verification approach (ABONN or a baseline).
pub trait Verifier {
    /// Runs the approach on `problem` under `budget`.
    fn verify(&self, problem: &RobustnessProblem, budget: &Budget) -> RunResult;

    /// Human-readable name for reports.
    fn name(&self) -> String;
}

/// Budget bookkeeping shared by the three approaches.
#[derive(Debug)]
pub(crate) struct Clock {
    start: Instant,
    budget: Budget,
    pub appver_calls: usize,
    /// Incremental-bounding work counters, accumulated in deterministic
    /// consumption order (never inside worker closures).
    pub bound_stats: BoundComputeStats,
}

impl Clock {
    pub fn new(budget: Budget) -> Self {
        Self {
            // Audit: `start` feeds only (a) the `wall_limit` check in
            // `exhausted`, which is `None` on every suite/report path
            // (`Scale::budget` is AppVer-call-only) and engaged solely
            // when a caller opts in via `Budget::and_wall_limit`, and
            // (b) `finish`, which puts it in `RunStats::wall` — an
            // in-memory field excluded from every persisted artefact
            // (`InstanceRecord::wall_secs` is `#[serde(skip)]`). With no
            // wall limit set, verdicts, counters, and report bytes are
            // provably independent of this read.
            #[expect(
                clippy::disallowed_methods,
                reason = "only gates opt-in wall budgets and the unpersisted RunStats::wall; \
                          call-only suite budgets never read it"
            )]
            start: Instant::now(),
            budget,
            appver_calls: 0,
            bound_stats: BoundComputeStats::default(),
        }
    }

    /// Returns `true` once any budget dimension is exhausted.
    pub fn exhausted(&self) -> bool {
        if self.appver_calls >= self.budget.max_appver_calls {
            return true;
        }
        match self.budget.wall_limit {
            Some(limit) => self.start.elapsed() >= limit,
            None => false,
        }
    }

    /// The run's result: `verdict`, its `certificate` and the search's tree
    /// counters, plus the calls, bound work and wall time this clock
    /// accumulated. The one place every engine builds its [`RunResult`].
    pub fn finish(
        &self,
        verdict: Verdict,
        certificate: Option<Certificate>,
        nodes_visited: usize,
        tree_size: usize,
        max_depth: usize,
    ) -> RunResult {
        debug_assert_eq!(
            certificate.is_none(),
            matches!(verdict, Verdict::Falsified(_)),
            "a certificate accompanies every verdict but a falsification"
        );
        let work = &self.bound_stats;
        RunResult {
            verdict,
            certificate,
            stats: RunStats {
                appver_calls: self.appver_calls,
                nodes_visited,
                tree_size,
                max_depth,
                cache_layers_reused: work.layers_reused,
                cache_layers_recomputed: work.layers_recomputed,
                backsub_steps: work.backsub_steps,
                lp_pivots: work.lp_pivots,
                lp_warm_hits: 0,
                lp_cold_solves: work.lp_cold_solves,
                backsub_rows_skipped: work.backsub_rows_skipped,
                backsub_rows_total: work.backsub_rows_total,
                blocks_skipped: work.blocks_skipped,
                arena_bytes_peak: work.arena_bytes_peak,
                lp_pivot_cells: work.lp_pivot_cells,
                wall: self.start.elapsed(),
            },
        }
    }
}

/// Validates an analysis candidate against the concrete network, optionally
/// polishing it with a few PGD steps first (`refine_steps > 0`). ABONN and
/// the BaB baseline pass 0, the paper's plain `valid(x̂)` check; the
/// CROWN-style baseline polishes.
///
/// Returns a confirmed witness, or `None` for a false alarm.
pub(crate) fn check_candidate(
    problem: &RobustnessProblem,
    analysis: &Analysis,
    refine_steps: usize,
) -> Option<Vec<f64>> {
    let candidate = analysis.candidate.as_ref()?;
    if problem.validate_witness(candidate) {
        return Some(candidate.clone());
    }
    if refine_steps > 0 {
        // Label-guided refinement only applies to classification problems.
        if let Some(label) = problem.label() {
            let pgd = Pgd::new(refine_steps, 0, 0.25, 0);
            let lo = problem.region().lo();
            let hi = problem.region().hi();
            if let Some(w) = pgd.refine(problem.network(), label, candidate, lo, hi) {
                debug_assert!(problem.validate_witness(&w));
                return Some(w);
            }
        }
    }
    None
}

/// Exactly resolves a fully-split leaf (no unstable neurons remain).
///
/// With every ReLU phase fixed the triangle LP relaxation is exact, so the
/// verdict is definitive: either the leaf region is safe/infeasible
/// (`None`) or the LP optimum yields a concrete witness (`Some`).
///
/// A numerically marginal LP violation whose witness fails concrete
/// validation is treated as safe — the violation magnitude is below
/// validation tolerance in that case.
pub(crate) fn resolve_exhausted_leaf(
    problem: &RobustnessProblem,
    splits: &SplitSet,
    clock: &mut Clock,
) -> Option<Vec<f64>> {
    let lp = LpVerifier::new();
    clock.appver_calls += 1;
    let cached = lp.analyze_cached(problem.margin_net(), problem.region(), splits, None);
    clock.bound_stats.absorb(&cached.stats);
    let analysis = cached.analysis;
    if analysis.verified() {
        return None;
    }
    check_candidate(problem, &analysis, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_solved_classification() {
        assert!(Verdict::Verified.is_solved());
        assert!(Verdict::Falsified(vec![0.0]).is_solved());
        assert!(!Verdict::Timeout.is_solved());
    }

    #[test]
    fn clock_counts_appver_calls() {
        let mut clock = Clock::new(Budget::with_appver_calls(2));
        assert!(!clock.exhausted());
        clock.appver_calls = 2;
        assert!(clock.exhausted());
    }

    #[test]
    fn wall_limit_expires() {
        let clock = Clock::new(Budget::with_appver_calls(1000).and_wall_limit(Duration::ZERO));
        assert!(clock.exhausted());
    }

    #[test]
    fn run_stats_display_is_informative() {
        let stats = RunStats {
            appver_calls: 12,
            nodes_visited: 6,
            tree_size: 11,
            max_depth: 3,
            cache_layers_reused: 20,
            cache_layers_recomputed: 10,
            backsub_steps: 45,
            lp_pivots: 37,
            lp_warm_hits: 0,
            lp_cold_solves: 2,
            backsub_rows_skipped: 18,
            backsub_rows_total: 60,
            blocks_skipped: 7,
            arena_bytes_peak: 4096,
            lp_pivot_cells: 925,
            wall: Duration::from_millis(1500),
        };
        let text = stats.to_string();
        assert!(text.contains("12 AppVer calls"));
        assert!(text.contains("45 backsub steps"));
        assert!(text.contains("20 layers reused"));
        assert!(text.contains("18/60 rows skipped"));
        assert!(text.contains("7 blocks elided"));
        assert!(text.contains("arena peak 4096 B"));
        assert!(text.contains("37 LP pivots"));
        assert!(text.contains("925 cells"));
        assert!(text.contains("2 solves"));
        assert!(text.contains("1.500s"));
    }

    #[test]
    fn witness_accessor_only_on_falsified() {
        assert_eq!(Verdict::Verified.witness(), None);
        assert_eq!(Verdict::Timeout.witness(), None);
        let w = vec![0.25, 0.75];
        assert_eq!(Verdict::Falsified(w.clone()).witness(), Some(w.as_slice()));
    }

    #[test]
    fn budget_clamp_is_admission_control() {
        let (b, clamped) = Budget::with_appver_calls(10_000).clamped_to(500);
        assert!(clamped);
        assert_eq!(b.max_appver_calls, 500);
        // Requests at or under the cap pass through untouched.
        let (b, clamped) = Budget::with_appver_calls(200).clamped_to(500);
        assert!(!clamped);
        assert_eq!(b.max_appver_calls, 200);
        // Wall limits survive the clamp.
        let (b, _) = Budget::with_appver_calls(9)
            .and_wall_limit(Duration::from_secs(1))
            .clamped_to(4);
        assert_eq!(b.max_appver_calls, 4);
        assert_eq!(b.wall_limit, Some(Duration::from_secs(1)));
    }

    #[test]
    fn default_budget_is_bounded() {
        let b = Budget::default();
        assert!(b.max_appver_calls > 0);
        assert!(b.wall_limit.is_none());
    }

    #[test]
    fn admit_slices_matches_sequential_clamping() {
        let requested = [10_000, 200, 500, 0];
        let slices = Budget::admit_slices(&requested, 500);
        let expected: Vec<(Budget, bool)> = requested
            .iter()
            .map(|&c| Budget::with_appver_calls(c).clamped_to(500))
            .collect();
        assert_eq!(slices.len(), 4);
        for ((got, got_clamped), (want, want_clamped)) in slices.iter().zip(&expected) {
            assert_eq!(got.max_appver_calls, want.max_appver_calls);
            assert_eq!(got_clamped, want_clamped);
        }
        assert_eq!(slices[0].0.max_appver_calls, 500);
        assert!(slices[0].1);
        assert!(!slices[1].1);
    }

    #[test]
    fn admit_slices_is_partition_invariant() {
        // Slicing one wave equals concatenating the slicings of any
        // partition of it — the property the wave scheduler's
        // byte-identity claim rests on.
        let requested = [7, 10_000, 3, 999, 42];
        let whole = Budget::admit_slices(&requested, 100);
        for cut in 0..=requested.len() {
            let (a, b) = requested.split_at(cut);
            let mut parts = Budget::admit_slices(a, 100);
            parts.extend(Budget::admit_slices(b, 100));
            assert_eq!(parts.len(), whole.len());
            for (x, y) in parts.iter().zip(&whole) {
                assert_eq!(x.0.max_appver_calls, y.0.max_appver_calls);
                assert_eq!(x.1, y.1);
            }
        }
    }
}

//! Sequential verifier portfolios.
//!
//! Production pipelines rarely run a single algorithm: they try a cheap
//! attack, then a one-shot tight bound, then full branch and bound. A
//! [`Portfolio`] expresses that: stages run in order, each with a slice of
//! the total budget, and the first conclusive verdict wins. Timeouts fall
//! through to the next stage with the unused budget rolled forward.

use crate::certificate::{Certificate, ProofNode};
use crate::driver::{Budget, RunResult, RunStats, Verdict, Verifier};
use crate::spec::RobustnessProblem;
use std::time::Instant;

/// One stage of a [`Portfolio`]: a verifier plus the fraction of the
/// remaining budget it may consume.
pub struct Stage {
    verifier: Box<dyn Verifier>,
    /// Fraction of the *remaining* budget allotted (in `(0, 1]`).
    fraction: f64,
}

impl Stage {
    /// Creates a stage.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    #[must_use]
    pub fn new(verifier: Box<dyn Verifier>, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "Stage::new: fraction must be in (0, 1]"
        );
        Self { verifier, fraction }
    }
}

/// A sequential portfolio of verifiers.
///
/// # Examples
///
/// ```
/// use abonn_core::{AbonnVerifier, Budget, CrownStyle, Portfolio, Stage, Verifier};
/// use abonn_core::RobustnessProblem;
/// use abonn_nn::{Layer, Network, Shape};
/// use abonn_tensor::Matrix;
///
/// let net = Network::new(
///     Shape::Flat(2),
///     vec![
///         Layer::dense(Matrix::from_rows(&[&[1.0, 1.0], &[-1.0, -1.0]]), vec![0.0, 0.4]),
///         Layer::relu(),
///         Layer::dense(Matrix::identity(2), vec![0.0, 0.0]),
///     ],
/// )?;
/// let problem = RobustnessProblem::new(&net, vec![0.5, 0.5], 0, 0.05)?;
/// let portfolio = Portfolio::new(vec![
///     Stage::new(Box::new(CrownStyle::default()), 0.25),
///     Stage::new(Box::new(AbonnVerifier::default()), 1.0),
/// ]);
/// let result = portfolio.verify(&problem, &Budget::with_appver_calls(400));
/// assert!(result.verdict.is_solved());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Portfolio {
    stages: Vec<Stage>,
}

impl Portfolio {
    /// Creates a portfolio from stages run in order.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    #[must_use]
    pub fn new(stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "Portfolio::new: no stages");
        Self { stages }
    }

    /// The standard pipeline: a quick CROWN-style pass (attack + tight
    /// one-shot bounds) on a quarter of the budget, then ABONN with the
    /// rest.
    #[must_use]
    pub fn standard() -> Self {
        Self::standard_with_pool(std::sync::Arc::new(crate::pool::WorkerPool::inline()))
    }

    /// [`Portfolio::standard`], with the ABONN stage bounding its
    /// expansions on `pool`. Stages still run strictly in order; the pool
    /// only parallelises work *inside* a stage, so the verdict and stats
    /// match the sequential pipeline exactly.
    #[must_use]
    pub fn standard_with_pool(pool: std::sync::Arc<crate::pool::WorkerPool>) -> Self {
        Self::new(vec![
            Stage::new(Box::new(crate::crown::CrownStyle::default()), 0.25),
            Stage::new(
                Box::new(crate::mcts::AbonnVerifier::default().with_pool(pool)),
                1.0,
            ),
        ])
    }

    /// Number of stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` if the portfolio has no stages (never after `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// Adds one stage's counters into the portfolio's: the tree size, the
/// depth and the arena peak take the maximum over the stages, and every
/// other count is summed. Wall time is measured over the whole portfolio
/// instead.
fn add_stage(total: &mut RunStats, stage: &RunStats) {
    let RunStats {
        appver_calls,
        nodes_visited,
        tree_size,
        max_depth,
        cache_layers_reused,
        cache_layers_recomputed,
        backsub_steps,
        lp_pivots,
        lp_warm_hits,
        lp_cold_solves,
        backsub_rows_skipped,
        backsub_rows_total,
        blocks_skipped,
        arena_bytes_peak,
        lp_pivot_cells,
        wall: _,
    } = *stage;
    total.appver_calls += appver_calls;
    total.nodes_visited += nodes_visited;
    total.tree_size = total.tree_size.max(tree_size);
    total.max_depth = total.max_depth.max(max_depth);
    total.cache_layers_reused += cache_layers_reused;
    total.cache_layers_recomputed += cache_layers_recomputed;
    total.backsub_steps += backsub_steps;
    total.lp_pivots += lp_pivots;
    total.lp_warm_hits += lp_warm_hits;
    total.lp_cold_solves += lp_cold_solves;
    total.backsub_rows_skipped += backsub_rows_skipped;
    total.backsub_rows_total += backsub_rows_total;
    total.blocks_skipped += blocks_skipped;
    total.arena_bytes_peak = total.arena_bytes_peak.max(arena_bytes_peak);
    total.lp_pivot_cells += lp_pivot_cells;
}

impl Verifier for Portfolio {
    /// Runs the stages in order. The result carries the verdict and
    /// certificate of the last stage that ran (the first conclusive one, or
    /// the last to time out) and the counters of every stage.
    fn verify(&self, problem: &RobustnessProblem, budget: &Budget) -> RunResult {
        // Audit: `start` slices the caller's *opt-in* `wall_limit` across
        // stages (suite/report budgets are call-only, so that branch never
        // runs there) and fills `RunStats::wall`, which is in-memory only
        // and excluded from persisted reports. Stage order, call
        // accounting, and verdicts are pure functions of the call budget.
        #[expect(
            clippy::disallowed_methods,
            reason = "slices opt-in wall budgets and fills the unpersisted RunStats::wall; \
                      call-only budgets make verdicts time-independent"
        )]
        let start = Instant::now();
        let mut remaining_calls = budget.max_appver_calls;
        let mut stats = RunStats::default();
        // A wall budget spent before the first stage leaves the whole
        // region open.
        let mut certificate = Some(Certificate::new(ProofNode::open(Vec::new())));
        let last = self.stages.len() - 1;
        for (i, stage) in self.stages.iter().enumerate() {
            let calls = if i == last {
                remaining_calls
            } else {
                ((remaining_calls as f64) * stage.fraction).ceil() as usize
            }
            .max(1);
            let mut sub = Budget::with_appver_calls(calls);
            if let Some(limit) = budget.wall_limit {
                let left = limit.saturating_sub(start.elapsed());
                if left.is_zero() {
                    break;
                }
                sub = sub.and_wall_limit(left);
            }
            let result = stage.verifier.verify(problem, &sub);
            add_stage(&mut stats, &result.stats);
            remaining_calls = remaining_calls.saturating_sub(result.stats.appver_calls);
            certificate = result.certificate;
            if result.verdict.is_solved() {
                stats.wall = start.elapsed();
                return RunResult {
                    verdict: result.verdict,
                    stats,
                    certificate,
                };
            }
            if remaining_calls == 0 {
                break;
            }
        }
        stats.wall = start.elapsed();
        RunResult {
            verdict: Verdict::Timeout,
            stats,
            certificate,
        }
    }

    fn name(&self) -> String {
        let names: Vec<String> = self.stages.iter().map(|s| s.verifier.name()).collect();
        format!("portfolio[{}]", names.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bab::BabBaseline;
    use crate::mcts::AbonnVerifier;
    use abonn_nn::{Layer, Network, Shape};
    use abonn_tensor::Matrix;
    use std::time::Duration;

    fn relu_compare_net() -> Network {
        Network::new(
            Shape::Flat(2),
            vec![
                Layer::dense(
                    Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, -1.0], &[-1.0, 1.0]]),
                    vec![0.0, 0.0, 0.0, 0.0],
                ),
                Layer::relu(),
                Layer::dense(
                    Matrix::from_rows(&[&[1.0, 0.0, 0.5, 0.0], &[0.0, 1.0, 0.0, 0.5]]),
                    vec![0.0, 0.0],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn standard_portfolio_solves_both_polarities() {
        let net = relu_compare_net();
        let portfolio = Portfolio::standard();
        let budget = Budget::with_appver_calls(600);
        let robust = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.02).unwrap();
        assert_eq!(
            portfolio.verify(&robust, &budget).verdict,
            Verdict::Verified
        );
        let fragile = RobustnessProblem::new(&net, vec![0.55, 0.45], 0, 0.2).unwrap();
        assert!(matches!(
            portfolio.verify(&fragile, &budget).verdict,
            Verdict::Falsified(_)
        ));
    }

    #[test]
    fn budget_is_shared_across_stages() {
        let net = relu_compare_net();
        let portfolio = Portfolio::new(vec![
            Stage::new(Box::new(BabBaseline::default()), 0.5),
            Stage::new(Box::new(AbonnVerifier::default()), 1.0),
        ]);
        let p = RobustnessProblem::new(&net, vec![0.52, 0.48], 0, 0.06).unwrap();
        let result = portfolio.verify(&p, &Budget::with_appver_calls(10));
        assert!(
            result.stats.appver_calls <= 14,
            "portfolio overspent: {} calls",
            result.stats.appver_calls
        );
    }

    #[test]
    fn counters_add_up_over_the_stages_that_ran() {
        // Robust, but two unstable "gate" ReLUs subtracted from the margin
        // keep the root relaxation loose, so the search must branch.
        let net = Network::new(
            Shape::Flat(2),
            vec![
                Layer::dense(
                    Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]),
                    vec![-1.0, -0.9, 0.0, 0.0],
                ),
                Layer::relu(),
                Layer::dense(
                    Matrix::from_rows(&[&[-0.2, -0.2, 1.0, 0.0], &[0.0, 0.0, 0.0, 1.0]]),
                    vec![0.0, 0.0],
                ),
            ],
        )
        .unwrap();
        let p = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.28).unwrap();
        let portfolio = Portfolio::new(vec![
            Stage::new(Box::new(BabBaseline::default()), 0.25),
            Stage::new(Box::new(AbonnVerifier::default()), 1.0),
        ]);
        let result = portfolio.verify(&p, &Budget::with_appver_calls(12));
        // The same stages run alone: BaB on a quarter of the calls, ABONN
        // on what BaB left.
        let first = BabBaseline::default().verify(&p, &Budget::with_appver_calls(3));
        assert_eq!(first.verdict, Verdict::Timeout, "the second stage must run");
        let rest = Budget::with_appver_calls(12 - first.stats.appver_calls);
        let second = AbonnVerifier::default().verify(&p, &rest);
        let (a, b) = (first.stats, second.stats);
        let expected = RunStats {
            appver_calls: a.appver_calls + b.appver_calls,
            nodes_visited: a.nodes_visited + b.nodes_visited,
            tree_size: a.tree_size.max(b.tree_size),
            max_depth: a.max_depth.max(b.max_depth),
            cache_layers_reused: a.cache_layers_reused + b.cache_layers_reused,
            cache_layers_recomputed: a.cache_layers_recomputed + b.cache_layers_recomputed,
            backsub_steps: a.backsub_steps + b.backsub_steps,
            lp_pivots: a.lp_pivots + b.lp_pivots,
            lp_warm_hits: a.lp_warm_hits + b.lp_warm_hits,
            lp_cold_solves: a.lp_cold_solves + b.lp_cold_solves,
            backsub_rows_skipped: a.backsub_rows_skipped + b.backsub_rows_skipped,
            backsub_rows_total: a.backsub_rows_total + b.backsub_rows_total,
            blocks_skipped: a.blocks_skipped + b.blocks_skipped,
            arena_bytes_peak: a.arena_bytes_peak.max(b.arena_bytes_peak),
            lp_pivot_cells: a.lp_pivot_cells + b.lp_pivot_cells,
            wall: Duration::ZERO,
        };
        assert!(a.backsub_steps > 0 && b.backsub_steps > 0, "{a}; {b}");
        assert_eq!(
            RunStats {
                wall: Duration::ZERO,
                ..result.stats
            },
            expected
        );
        // The verdict and certificate are the second stage's.
        assert_eq!(result.verdict, second.verdict);
        assert_eq!(result.certificate, second.certificate);
    }

    #[test]
    fn a_spent_wall_budget_leaves_the_whole_region_open() {
        let net = relu_compare_net();
        let p = RobustnessProblem::new(&net, vec![0.8, 0.2], 0, 0.02).unwrap();
        let budget = Budget::with_appver_calls(100).and_wall_limit(Duration::ZERO);
        let result = Portfolio::standard().verify(&p, &budget);
        assert_eq!(result.verdict, Verdict::Timeout);
        assert_eq!(result.stats.appver_calls, 0, "no stage ran");
        assert_eq!(
            result.certificate,
            Some(Certificate::new(ProofNode::open(Vec::new())))
        );
    }

    #[test]
    fn pooled_portfolio_matches_sequential() {
        let net = relu_compare_net();
        let budget = Budget::with_appver_calls(600);
        let pooled =
            Portfolio::standard_with_pool(std::sync::Arc::new(crate::pool::WorkerPool::new(3)));
        let sequential = Portfolio::standard();
        for (x0, eps) in [(vec![0.8, 0.2], 0.02), (vec![0.55, 0.45], 0.2)] {
            let p = RobustnessProblem::new(&net, x0, 0, eps).unwrap();
            let a = sequential.verify(&p, &budget);
            let b = pooled.verify(&p, &budget);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.stats.appver_calls, b.stats.appver_calls);
            assert_eq!(a.stats.nodes_visited, b.stats.nodes_visited);
        }
    }

    #[test]
    fn name_lists_stages() {
        let name = Portfolio::standard().name();
        assert!(name.starts_with("portfolio["));
        assert!(name.contains("ABONN"));
    }

    #[test]
    #[should_panic(expected = "no stages")]
    fn empty_portfolio_panics() {
        let _ = Portfolio::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        let _ = Stage::new(Box::new(AbonnVerifier::default()), 1.5);
    }
}

#![forbid(unsafe_code)]
//! A bounded-variable, two-phase simplex LP solver.
//!
//! The ABONN paper's evaluation uses GUROBI as the underlying solver for
//! LP-relaxation-based bounding. This crate is the from-scratch substitute:
//! a primal simplex implementation that natively supports per-variable
//! bounds `l ≤ x ≤ u` (including infinite bounds), `≤` / `≥` / `=` rows,
//! and minimisation or maximisation objectives.
//!
//! The entering variable follows Dantzig's rule, switching to Bland's
//! smallest-index rule once more than 40 consecutive steps were
//! degenerate; ratio-test ties go to the first basis row. Bland's rule
//! covers only the entering choice, so it does not guarantee
//! termination. An iteration cap of `200 · (total + m + 16)` per phase,
//! over `total` structural, slack and artificial variables and `m` rows,
//! ends a cycling solve with [`SolveError::IterationLimit`];
//! `abonn-bound`'s LP verifier then falls back to its DeepPoly bound.
//!
//! [`Problem::solve`] and [`Problem::solve_warm`] run a revised simplex
//! over a product-form basis inverse. The dense tableau it replaced is
//! compiled only into this crate's tests, as their equivalence oracle.
//!
//! # Examples
//!
//! ```
//! use abonn_lp::{Problem, Relation, Sense, Status};
//!
//! // maximise x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  0 <= x, y <= 10
//! let mut p = Problem::new(2, Sense::Maximize);
//! p.set_objective(&[1.0, 1.0]);
//! p.set_bounds(0, 0.0, 10.0);
//! p.set_bounds(1, 0.0, 10.0);
//! p.add_row(&[1.0, 2.0], Relation::Le, 4.0);
//! p.add_row(&[3.0, 1.0], Relation::Le, 6.0);
//! let sol = p.solve()?;
//! assert_eq!(sol.status, Status::Optimal);
//! assert!((sol.objective - 2.8).abs() < 1e-7);
//! # Ok::<(), abonn_lp::SolveError>(())
//! ```

#[cfg(test)]
mod dense;
mod revised;
mod simplex;

pub use simplex::{Problem, Relation, Sense, Solution, SolveError, Status, WarmStart};
